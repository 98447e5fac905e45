"""Generator-backed simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield``ed object
suspends the process until it is due:

* an :class:`~repro.sim.events.Event` — resume with the event's value
  (or with its exception thrown into the generator if the event failed)
  once the event is processed;
* a plain ``int`` or ``float`` delay ``d`` (not ``bool``) — sleep for
  ``d`` time units, exactly like yielding ``Timeout(engine, d)`` but
  without building one (a negative ``d`` is thrown back into the
  generator as ``ValueError``);
* the process's own :class:`WakeToken`, as returned by
  :meth:`Resource.claim <repro.sim.resources.Resource.claim>` — resume
  once the claim is granted.

Sleeps and claims only ever wake the process that made them, so instead
of an event per wait each process owns one reusable wake token, and the
engine's heap holds that token directly: popping it resumes the process.

A process is itself an event: it fires with the generator's return value
when the generator finishes, so processes can ``yield`` other processes to
join them.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


def _kick(
    engine: "Engine",
    callback: Any,
    ok: bool,
    value: Any,
    defused: bool = False,
) -> None:
    """Schedule a pre-triggered one-callback event at the current time.

    Used for the rare resumes a wake token cannot carry: an interrupt
    and a yield of an already-processed event, both of which deliver a
    value (or an exception) of their own.
    """
    kick = Event.__new__(Event)
    kick.engine = engine
    kick.callbacks = [callback]
    kick._value = value
    kick._ok = ok
    kick._processed = False
    kick._defused = defused
    heappush(engine._queue, (engine._now, next(engine._eid), kick))


class WakeToken:
    """A process's reusable heap entry for waits that wake only it.

    The engine resumes :attr:`proc` when it pops the token (with
    ``None``, as a fired ``Timeout`` or granted ``Request`` would).  A
    token retired by :meth:`Process.interrupt` carries ``proc = None``
    and wakes nobody, though popping it still counts as an event.
    ``_key`` orders the token in a resource's wait queue.  Tokens are
    not events: only the owning process may yield its token, and only
    right after :meth:`Resource.claim
    <repro.sim.resources.Resource.claim>` handed it out.
    """

    __slots__ = ("proc", "_key")

    #: what the woken process receives: a successful wait with no value
    _ok = True
    _value = None

    def __init__(self, proc: Optional["Process"]) -> None:
        self.proc = proc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.proc.name if self.proc is not None else "retired"
        return f"<WakeToken {name} at {id(self):#x}>"


class Interrupt(Exception):
    """Thrown into a process's generator by :meth:`Process.interrupt`.

    The interrupting cause is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        """Whatever was passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process (also its own completion event).

    Each process owns one :class:`WakeToken` for its whole life: its
    first resume, every bare-delay sleep and every :meth:`Resource.claim
    <repro.sim.resources.Resource.claim>` push or queue that token
    instead of allocating an event.  Every push draws its event id
    exactly when the ``Timeout``, ``Request`` or kick event it replaces
    would have, so trajectories are identical either way.
    The token is dropped when the generator ends: ``Machine.run`` runs
    with the cyclic garbage collector off, and the process/token
    reference cycle would otherwise keep every finished process alive.
    """

    __slots__ = (
        "_generator", "_send", "_throw", "_target", "_token", "name",
        "__weakref__",
    )

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process target must be a generator, got {generator!r}")
        super().__init__(engine)
        self._generator = generator
        # Bound once: _resume runs for every suspension in the simulation,
        # so the per-call generator attribute lookups are worth shaving.
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: the token's first trip resumes the generator at the
        # current time.
        token = self._token = WakeToken(self)
        heappush(engine._queue, (engine._now, next(engine._eid), token))

    # -- state ---------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is waiting on, if it waits on one.

        ``None`` while the process sleeps on a bare delay or waits for a
        claim (those waits are its wake token, not an event).
        """
        return self._target

    # -- control -------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Whatever the process was waiting on is abandoned: it is detached
        from an event's callback list, and its wake token is retired (a
        sleep or claim still pending on the old token wakes nobody when
        it comes due; the process continues with a fresh token).  The
        process must handle the interrupt or terminate.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self.name}: cannot interrupt a finished process")
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        self._token.proc = None
        self._token = WakeToken(self)
        # defused: the throw in _resume consumes the failure
        _kick(self.engine, self._resume, False, Interrupt(cause), defused=True)

    # -- engine callback -------------------------------------------------------
    def _resume(self, event: Any) -> None:
        """Advance the generator with ``event``'s outcome.

        ``event`` is an :class:`Event` (as a callback) or this process's
        :class:`WakeToken` (handed over by the engine's drain loop).
        """
        self._target = None
        engine = self.engine
        engine._active = self
        try:
            if event._ok:
                nxt = self._send(event._value)
            else:
                event._defused = True
                nxt = self._throw(event._value)
        except StopIteration as stop:
            engine._active = None
            self._token = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Propagate model bugs loudly: fail our completion event so that
            # joiners see it; if nobody joins, Engine.step re-raises.
            engine._active = None
            self._token = None
            self._ok = False
            self._value = exc
            engine._schedule(self)
            return
        engine._active = None
        # A bare delay is the commonest yield: exact int/float first.
        cls = nxt.__class__
        if (cls is float or cls is int) and nxt >= 0:
            heappush(
                engine._queue, (engine._now + nxt, next(engine._eid), self._token)
            )
            return
        if nxt is self._token:
            # Resource.claim already pushed or queued the token.
            return
        try:
            # Duck-typed in place of an isinstance check: anything without
            # event slots goes to _yield_other below.
            processed = nxt._processed
        except AttributeError:
            self._yield_other(nxt)
            return
        if processed:
            # Already fired: resume immediately (at the current time).
            ok = nxt._ok
            _kick(engine, self._resume, ok, nxt._value, defused=not ok)
        else:
            self._target = nxt
            nxt.callbacks.append(self._resume)

    def _yield_other(self, nxt: Any) -> None:
        """The rare yields: a negative delay, a number subclass (a numpy
        float, say), or something that is no event at all."""
        if nxt.__class__ is bool or not isinstance(nxt, (int, float)):
            raise TypeError(
                f"{self.name} yielded {nxt!r}; processes may only yield "
                "Event instances, int/float delays, or their own claim"
            )
        if nxt >= 0:
            engine = self.engine
            heappush(
                engine._queue, (engine._now + nxt, next(engine._eid), self._token)
            )
            return
        # Thrown into the generator at once, where Timeout(engine, d)
        # would have raised; nothing is scheduled.
        thrown = Event(self.engine)
        thrown._ok = False
        thrown._value = ValueError(f"negative timeout delay: {nxt!r}")
        self._resume(thrown)
