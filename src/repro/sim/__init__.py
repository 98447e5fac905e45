"""Discrete-event simulation kernel.

This subpackage is a self-contained, dependency-free event-driven
simulation core in the style of SimPy: an :class:`~repro.sim.engine.Engine`
advances virtual time over a binary-heap event queue, and model logic is
written as Python generator *processes* that ``yield`` to suspend: a bare
``int``/``float`` delay to sleep, a ``Resource.claim()`` to wait for a
unit, or an event (store gets, composed ``AnyOf``/``AllOf`` waits, other
processes) to wait until it fires.  Sleeps and claims wake only the
process that made them, so they ride on that process's reusable
``WakeToken`` instead of allocating an event.

The kernel is deliberately small and fast; everything the NWCache models
need — FIFO/priority resources, stores, bandwidth pipes, statistics
accumulators, and deterministic named RNG streams — lives here.

Public API
----------
``Engine``
    The event loop: ``now``, ``process()``, ``timeout()``, ``event()``,
    ``run()``, ``all_of()``, ``any_of()``.
``Process`` / ``Interrupt`` / ``WakeToken``
    Generator-backed processes; a process is itself an event that fires
    when the generator returns (join semantics).  Its wake token is the
    heap entry for its sleeps and claims.
``Resource`` / ``Request``
    Multi-capacity FIFO (optionally prioritized) server: ``claim()`` for
    the running process, ``request()`` for a composable event.
``Store``
    FIFO buffer of Python objects with blocking ``get``/``put``.
``BandwidthPipe``
    A byte-rate server used for buses and network links.
``Tally`` / ``TimeWeighted`` / ``Counter`` / ``Histogram``
    Statistics accumulators.
``RngRegistry``
    Deterministic, name-keyed NumPy generator streams.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process, WakeToken
from repro.sim.resources import BandwidthPipe, Request, Resource, Store
from repro.sim.rng import RngRegistry
from repro.sim.stats import Counter, Histogram, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthPipe",
    "Counter",
    "Engine",
    "Event",
    "Histogram",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "WakeToken",
]
