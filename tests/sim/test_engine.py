"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Engine
from repro.sim.engine import EmptySchedule


def test_initial_time_defaults_to_zero():
    assert Engine().now == 0.0


def test_initial_time_can_be_set():
    assert Engine(start_time=100.0).now == 100.0


def test_timeout_advances_clock():
    eng = Engine()
    eng.timeout(12.5)
    eng.run()
    assert eng.now == 12.5


def test_run_until_stops_exactly_at_limit():
    eng = Engine()
    eng.timeout(5)
    eng.timeout(50)
    eng.run(until=20)
    assert eng.now == 20
    # the 50-timeout is still queued
    assert eng.peek() == 50


def test_run_until_past_raises():
    eng = Engine(start_time=10)
    with pytest.raises(ValueError):
        eng.run(until=5)


def test_step_on_empty_queue_raises():
    with pytest.raises(EmptySchedule):
        Engine().step()


def test_events_fire_in_time_order():
    eng = Engine()
    log = []
    for delay in (30, 10, 20):
        ev = eng.timeout(delay, value=delay)
        ev.callbacks.append(lambda e: log.append(e.value))
    eng.run()
    assert log == [10, 20, 30]


def test_simultaneous_events_fire_in_fifo_order():
    eng = Engine()
    log = []
    for tag in range(5):
        ev = eng.timeout(7, value=tag)
        ev.callbacks.append(lambda e: log.append(e.value))
    eng.run()
    assert log == [0, 1, 2, 3, 4]


def test_peek_on_empty_queue_is_inf():
    assert Engine().peek() == float("inf")


def test_events_processed_counter():
    eng = Engine()
    for _ in range(4):
        eng.timeout(1)
    eng.run()
    assert eng.events_processed == 4


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1)


def test_unhandled_failed_event_raises_from_run():
    eng = Engine()
    ev = eng.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


def test_process_returns_value():
    eng = Engine()

    def proc():
        yield eng.timeout(3)
        return "done"

    p = eng.process(proc())
    eng.run()
    assert p.value == "done"
    assert eng.now == 3


def test_nested_processes_join():
    eng = Engine()

    def child():
        yield eng.timeout(10)
        return 42

    def parent():
        result = yield eng.process(child())
        return result + 1

    p = eng.process(parent())
    eng.run()
    assert p.value == 43


def test_try_jump_rejects_a_negative_delay_without_moving_the_clock():
    eng = Engine(start_time=100.0)
    with pytest.raises(ValueError, match="negative timeout delay"):
        eng.try_jump(-50.0)
    assert eng.now == 100.0
    assert eng.events_processed == 0 and eng.events_jumped == 0
    assert eng.try_jump(0.0) and eng.now == 100.0


def test_pipe_jump_rejects_a_negative_transfer():
    from repro.sim import BandwidthPipe

    eng = Engine(start_time=10.0)
    pipe = BandwidthPipe(eng, rate=2.0)
    with pytest.raises(ValueError, match="negative timeout delay"):
        pipe.try_jump_transfer(-8)
    assert eng.now == 10.0 and pipe.bytes_transferred == 0
