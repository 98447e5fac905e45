"""Tests for generator-backed processes and interrupts."""

import pytest

from repro.sim import Engine, Interrupt


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_process_is_alive_until_done():
    eng = Engine()

    def proc():
        yield eng.timeout(10)

    p = eng.process(proc())
    assert p.is_alive
    eng.run()
    assert not p.is_alive


def test_yield_non_event_raises():
    # Numbers are sleeps (``yield 42``); anything else that is not an
    # event — bools included — is still a model bug.
    for bad in (object(), "42", True):
        eng = Engine()

        def proc():
            yield bad  # type: ignore[misc]

        eng.process(proc())
        with pytest.raises(TypeError, match="yield"):
            eng.run()


def test_exception_in_process_propagates_when_unjoined():
    eng = Engine()

    def proc():
        yield eng.timeout(1)
        raise RuntimeError("model bug")

    eng.process(proc())
    with pytest.raises(RuntimeError, match="model bug"):
        eng.run()


def test_exception_in_child_propagates_to_joiner():
    eng = Engine()
    caught = []

    def child():
        yield eng.timeout(1)
        raise RuntimeError("child died")

    def parent():
        try:
            yield eng.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    eng.process(parent())
    eng.run()
    assert caught == ["child died"]


def test_interrupt_resumes_with_cause():
    eng = Engine()
    log = []

    def victim():
        try:
            yield eng.timeout(1000)
        except Interrupt as intr:
            log.append((eng.now, intr.cause))

    def interrupter(v):
        yield eng.timeout(5)
        v.interrupt("wakeup")

    v = eng.process(victim())
    eng.process(interrupter(v))
    eng.run()
    assert log == [(5.0, "wakeup")]


def test_interrupt_of_finished_process_raises():
    eng = Engine()

    def quick():
        yield eng.timeout(1)

    p = eng.process(quick())
    eng.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_interrupted_process_can_continue():
    eng = Engine()

    def victim():
        try:
            yield eng.timeout(1000)
        except Interrupt:
            pass
        yield eng.timeout(10)
        return eng.now

    def interrupter(v):
        yield eng.timeout(5)
        v.interrupt()

    v = eng.process(victim())
    eng.process(interrupter(v))
    eng.run()
    assert v.value == 15.0


def test_yielding_already_processed_event_resumes_immediately():
    eng = Engine()
    t = eng.timeout(1, value="early")
    eng.run()

    def proc():
        got = yield t
        return (eng.now, got)

    p = eng.process(proc())
    eng.run()
    assert p.value == (1.0, "early")


def test_process_name_defaults():
    eng = Engine()

    def myproc():
        yield eng.timeout(1)

    p = eng.process(myproc())
    assert "myproc" in p.name or p.name == "process"
    eng.run()
