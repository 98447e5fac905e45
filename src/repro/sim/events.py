"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot future: it is *triggered* with a value (or
failure) at some simulated time and, when the engine processes it, runs its
callbacks — which is how suspended processes get resumed.

Events deliberately mirror the small surface of SimPy events that the
NWCache models need:

* ``Event``      — manually triggered (``succeed``/``fail``).
* ``Timeout``    — fires after a fixed delay.
* ``AllOf``      — fires when every child event has fired.
* ``AnyOf``      — fires when the first child event fires.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

_PENDING = object()  #: sentinel: event not yet triggered


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.sim.engine.Engine`.

    Notes
    -----
    Life cycle: *pending* → *triggered* (scheduled on the engine queue) →
    *processed* (callbacks ran). Processes that ``yield`` a pending event
    are added to ``callbacks`` and resumed when it is processed.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: callables ``cb(event)`` invoked when the event is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False
        #: True once a waiter has consumed this event's failure, so the
        #: engine does not re-raise it as an unhandled error.
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise RuntimeError("event value is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Engine._schedule, inlined: succeed() is a hot trigger path.
        engine = self.engine
        heappush(engine._queue, (engine._now, next(engine._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see the exception."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.engine._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    A process that only needs to sleep yields the bare delay instead
    (``yield d``), which wakes it through its wake token without building
    an event; ``Timeout`` is for waits that are composed (``AnyOf``,
    ``AllOf``) or shared.
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Flattened Event.__init__: each slot is written exactly once and
        # the super() call skipped.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        heappush(engine._queue, (engine._now + delay, next(engine._eid), self))


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`.

    Once a condition triggers (success or failure) it leaves the
    callback list of every child not yet processed, and a condition
    that triggers in its constructor attaches to no further child, as
    SimPy's ``Condition`` does.  Its callback would only return at once,
    and keeping it would hold the condition, its value dict and its
    children in a reference cycle with any child that never fires
    (``Machine.run`` runs with the cyclic collector off).
    """

    __slots__ = ("events", "_n_fired")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events: List[Event] = list(events)
        self._n_fired = 0
        for ev in self.events:
            if ev.engine is not engine:
                raise ValueError("all condition events must share one engine")
        # Attach after validation so a raise leaves no dangling callbacks.
        on_fire = self._on_fire
        for ev in self.events:
            if ev.processed:
                on_fire(ev)
                if self.triggered:
                    break  # attach to no later child
            else:
                ev.callbacks.append(on_fire)
        if not self.events and not self.triggered:
            self._finalize()

    def _on_fire(self, ev: Event) -> None:
        if self.triggered:
            return  # a child listed twice, dispatched after the trigger
        if not ev.ok:
            ev._defused = True  # the condition takes ownership of the failure
            self.fail(ev.value)
        else:
            self._n_fired += 1
            if not self._check():
                return
            self._finalize()
        self._detach()

    def _detach(self) -> None:
        """Leave the callback lists of the children not yet processed."""
        on_fire = self._on_fire
        for ev in self.events:
            callbacks = ev.callbacks
            # a processed child has no list; a child listed twice may
            # have been attached once (constructor-time trigger)
            if callbacks and on_fire in callbacks:
                callbacks.remove(on_fire)

    def _check(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def _finalize(self) -> None:
        self.succeed({ev: ev.value for ev in self.events if ev.triggered and ev.ok})


class AllOf(_Condition):
    """Fires once every child event has fired successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._n_fired == len(self.events)


class AnyOf(_Condition):
    """Fires as soon as any child event fires successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._n_fired >= 1
