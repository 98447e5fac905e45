"""Generator-backed simulation processes.

A :class:`Process` wraps a Python generator.  Each ``yield``ed object must
be an :class:`~repro.sim.events.Event`; the process suspends until that
event is processed and then resumes with the event's value (or with the
event's exception thrown into the generator if the event failed).

A process is itself an event: it fires with the generator's return value
when the generator finishes, so processes can ``yield`` other processes to
join them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from heapq import heappush

from repro.sim.events import _NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


def _kick(
    engine: "Engine",
    callback: Any,
    ok: bool,
    value: Any,
    defused: bool = False,
) -> None:
    """Schedule a pre-triggered one-callback event (the resume hot path).

    Builds the event via ``__new__`` so the six slots are written exactly
    once — process switching creates one of these per suspension, which
    makes this constructor one of the kernel's hottest allocations.
    """
    kick = Event.__new__(Event)
    kick.engine = engine
    kick.callbacks = [callback]
    kick._value = value
    kick._ok = ok
    kick._processed = False
    kick._defused = defused
    heappush(engine._queue, (engine._now, _NORMAL, next(engine._eid), kick))


class Interrupt(Exception):
    """Thrown into a process's generator by :meth:`Process.interrupt`.

    The interrupting cause is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        """Whatever was passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process (also its own completion event)."""

    __slots__ = ("_generator", "_send", "_throw", "_target", "name")

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
        # Bootstrap: resume once at the current time.
        _kick(engine, self._resume, True, None)

    # -- state ---------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (if suspended)."""
        return self._target

    # -- control -------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (the process is
        detached from its callback list); the process must handle the
        interrupt or terminate.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self.name}: cannot interrupt a finished process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None
        # defused: the throw in _resume consumes the failure
        _kick(self.engine, self._resume, False, Interrupt(cause), defused=True)

    # -- engine callback -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome (engine callback)."""
        self._target = None
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                event._defused = True
                next_event = self._throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Propagate model bugs loudly: fail our completion event so that
            # joiners see it; if nobody joins, Engine.step re-raises.
            self._ok = False
            self._value = exc
            self.engine._schedule(self)
            return
        try:
            # Duck-typed in place of an isinstance check: this runs for
            # every suspension in the simulation, and anything without
            # event slots surfaces as the same TypeError below.
            processed = next_event._processed
        except AttributeError:
            raise TypeError(
                f"{self.name} yielded {next_event!r}; processes may only "
                "yield Event instances"
            ) from None
        if processed:
            # Already fired: resume immediately (at the current time).
            ok = next_event._ok
            _kick(
                self.engine, self._resume, ok, next_event._value,
                defused=not ok,
            )
        else:
            self._target = next_event
            next_event.callbacks.append(self._resume)
