"""Shared-resource primitives: servers, stores, and bandwidth pipes.

These are the contention points of the NWCache models: memory buses, I/O
buses, mesh links, disk mechanisms, controller cache slots, and ring
channel slots are all built from the classes here.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappush
from itertools import count
from typing import TYPE_CHECKING, Any, Deque, Generator, List, Optional, Union

from repro.sim.events import Event
from repro.sim.process import WakeToken

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

#: what a resource's ``users`` and ``queue`` hold
Claim = Union["Request", WakeToken]


def _request_key(req: Claim) -> "tuple[int, int]":
    return req._key


class Request(Event):
    """A pending claim on a :class:`Resource` (fires when granted)."""

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: int) -> None:
        # ``_key`` is assigned by Resource.request only when the claim
        # actually queues: tickets drawn at queue time still reflect
        # arrival order, and an immediate grant skips the draw.
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """A server with ``capacity`` identical units and a FIFO wait queue.

    Claims with a lower ``priority`` value are granted first; ties are
    broken FIFO.  The default priority is 0, so a plain resource is a pure
    FIFO server.

    A unit is claimed one of two ways, and both kinds of claim share one
    ``(priority, arrival)`` wait queue:

    * :meth:`claim` — the running process's own wait: the grant is its
      :class:`~repro.sim.process.WakeToken`, which the process yields at
      once and later passes to :meth:`release`.  No event is built.
    * :meth:`request` — a :class:`Request` event, for claims that must be
      composed with other events, held across processes, or used as a
      context manager.

    Examples
    --------
    >>> def worker(eng, res, log):
    ...     tok = res.claim()
    ...     yield tok
    ...     try:
    ...         yield 5
    ...         log.append(eng.now)
    ...     finally:
    ...         res.release(tok)
    """

    __slots__ = (
        "engine", "capacity", "name", "_ticket", "users", "queue",
        "_busy_integral", "_last_change",
    )

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._ticket = count()
        self.users: List[Claim] = []
        self.queue: List[Claim] = []
        #: total time-integrated busy units (for utilization reporting)
        self._busy_integral = 0.0
        self._last_change = engine.now

    # -- bookkeeping -------------------------------------------------------
    def _account(self) -> None:
        now = self.engine.now
        self._busy_integral += len(self.users) * (now - self._last_change)
        self._last_change = now

    def utilization(self, total_time: float) -> float:
        """Mean fraction of capacity in use over ``total_time``."""
        self._account()
        if total_time <= 0:
            return 0.0
        return self._busy_integral / (total_time * self.capacity)

    @property
    def n_waiting(self) -> int:
        """Number of requests currently queued."""
        return len(self.queue)

    # -- protocol ------------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Claim one unit as an event that fires when granted."""
        req = Request(self, priority)
        self._account()
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(req)
            req.succeed()
        else:
            req._key = (priority, next(self._ticket))
            insort(self.queue, req, key=_request_key)
        return req

    def claim(self, priority: int = 0) -> WakeToken:
        """Claim one unit for the running process; yield the result at once.

        Returns the process's :class:`~repro.sim.process.WakeToken`,
        already granted (pushed on the engine queue at the current time,
        with the event id :meth:`request` would have drawn) or queued
        behind the waiters in ``(priority, arrival)`` order.  The process
        must ``yield`` it straight away — it resumes when the unit is its
        — and hand it to :meth:`release` when done.  Raises
        ``RuntimeError`` outside a running process.
        """
        engine = self.engine
        proc = engine._active
        if proc is None:
            raise RuntimeError(
                f"{self.name or 'resource'}: claim() outside a running process"
            )
        token = proc._token
        # request() minus the Request: same accounting, grant and ticket.
        # _account() is inlined; skipping its zero-width update leaves the
        # integral bit-identical (x + 0.0 == x here).
        now = engine._now
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(token)
            heappush(engine._queue, (now, next(engine._eid), token))
        else:
            token._key = (priority, next(self._ticket))
            insort(self.queue, token, key=_request_key)
        return token

    def release(self, request: Claim) -> None:
        """Return a granted unit (a :class:`Request` or a claim's token)
        and wake the next waiter."""
        engine = self.engine
        now = engine._now
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing an ungranted/cancelled request: drop it from the
            # queue instead (supports abandoning a queued claim).
            try:
                self.queue.remove(request)
            except ValueError:
                raise RuntimeError("release of a request not held or queued") from None
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.pop(0)
            self.users.append(nxt)
            if nxt.__class__ is WakeToken:
                heappush(engine._queue, (now, next(engine._eid), nxt))
            else:
                nxt.succeed()


class Store:
    """An unbounded (or bounded) FIFO buffer of Python objects.

    ``put`` blocks only when a ``capacity`` is set and reached; ``get``
    blocks while the store is empty.
    """

    __slots__ = ("engine", "capacity", "name", "items", "_getters", "_putters")

    def __init__(
        self,
        engine: "Engine",
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; returns an event that fires when accepted."""
        ev = Event(self.engine)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Remove the oldest item; returns an event firing with the item."""
        ev = Event(self.engine)
        if self.items:
            item = self.items.popleft()
            ev.succeed(item)
            if self._putters:
                putter, pending = self._putters.popleft()
                self.items.append(pending)
                putter.succeed()
        else:
            self._getters.append(ev)
        return ev


class BandwidthPipe:
    """A byte-rate server: transferring ``n`` bytes holds it ``n/rate``.

    Models buses and links where a transfer occupies the medium for its
    serialization time and contending transfers queue FIFO.  An optional
    fixed ``overhead`` (arbitration, header) is added per transfer.

    Parameters
    ----------
    rate:
        Bytes per time unit (here: bytes per pcycle).
    overhead:
        Fixed occupancy added to every transfer, in time units.
    """

    __slots__ = (
        "engine", "rate", "overhead", "name", "_server", "bytes_transferred",
    )

    def __init__(
        self,
        engine: "Engine",
        rate: float,
        overhead: float = 0.0,
        name: str = "",
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if overhead < 0:
            raise ValueError(f"overhead must be >= 0, got {overhead}")
        self.engine = engine
        self.rate = rate
        self.overhead = overhead
        self.name = name
        self._server = Resource(engine, capacity=1, name=name)
        #: total bytes moved (for traffic accounting)
        self.bytes_transferred = 0

    def busy_time(self, nbytes: float) -> float:
        """Occupancy of a transfer of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.overhead + nbytes / self.rate

    def transfer(self, nbytes: float, priority: int = 0) -> Generator[Event, Any, None]:
        """Generator: queue for the pipe, hold it for the transfer time."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        tok = self._server.claim(priority)
        yield tok
        try:
            # busy_time(nbytes), inlined on the per-transfer hot path.
            yield self.overhead + nbytes / self.rate
            self.bytes_transferred += nbytes
        finally:
            self._server.release(tok)

    def try_jump_transfer(self, nbytes: float) -> bool:
        """Complete an uncontended transfer as a clock jump, if possible.

        Exactly equivalent to :meth:`transfer` when the pipe is idle and
        the engine can leap over the transfer window (no other event due
        in it): the grant + timeout pair collapses into
        ``Engine.try_jump(..., 2)`` and the server's busy integral is
        advanced by the same ``now - t0`` the release path would have
        added.  Returns False (no state touched) when the pipe is busy or
        the window is contended; the caller must then yield through
        :meth:`transfer`'s claim/sleep/release sequence.
        """
        srv = self._server
        if srv.users or srv.queue:
            return False
        engine = self.engine
        t0 = engine._now
        delay = self.overhead + nbytes / self.rate
        # try_jump's own queue test, made here first: a queue head inside
        # the window refuses the jump without the call.
        queue = engine._queue
        if queue and queue[0][0] <= t0 + delay:
            return False
        if not engine.try_jump(delay, 2):
            return False
        now = engine._now
        srv._busy_integral += now - t0
        srv._last_change = now
        self.bytes_transferred += nbytes
        return True

    def utilization(self, total_time: float) -> float:
        """Fraction of ``total_time`` the pipe was busy."""
        return self._server.utilization(total_time)

    @property
    def n_waiting(self) -> int:
        """Transfers currently queued behind the one in service."""
        return self._server.n_waiting
