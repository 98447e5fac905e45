"""Tests for event primitives (Event, Timeout, AllOf, AnyOf)."""

import gc
import weakref

import pytest

from repro.sim import AnyOf, Engine


def test_event_starts_pending():
    eng = Engine()
    ev = eng.event()
    assert not ev.triggered
    assert not ev.processed
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_succeed_sets_value():
    eng = Engine()
    ev = eng.event()
    ev.succeed(99)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 99


def test_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_fail_requires_exception():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_throws_into_process():
    eng = Engine()
    ev = eng.event()
    caught = []

    def proc():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(proc())
    ev.fail(ValueError("bad"))
    eng.run()
    assert caught == ["bad"]


def test_all_of_waits_for_every_event():
    eng = Engine()
    t1 = eng.timeout(5, value="a")
    t2 = eng.timeout(15, value="b")

    def proc():
        result = yield eng.all_of([t1, t2])
        return sorted(result.values())

    p = eng.process(proc())
    eng.run()
    assert eng.now == 15
    assert p.value == ["a", "b"]


def test_any_of_fires_on_first():
    eng = Engine()
    t1 = eng.timeout(5, value="fast")
    t2 = eng.timeout(50, value="slow")

    def proc():
        result = yield eng.any_of([t1, t2])
        return list(result.values())

    p = eng.process(proc())
    eng.run()
    assert "fast" in p.value


def test_all_of_empty_fires_immediately():
    eng = Engine()

    def proc():
        result = yield eng.all_of([])
        return result

    p = eng.process(proc())
    eng.run()
    assert p.value == {}
    assert eng.now == 0.0


def test_all_of_with_already_processed_event():
    eng = Engine()
    t1 = eng.timeout(1, value="x")
    eng.run()  # t1 processes

    def proc():
        result = yield eng.all_of([t1])
        return list(result.values())

    p = eng.process(proc())
    eng.run()
    assert p.value == ["x"]


def test_condition_propagates_failure():
    eng = Engine()
    bad = eng.event()
    good = eng.timeout(100)
    caught = []

    def proc():
        try:
            yield eng.all_of([bad, good])
        except KeyError as exc:
            caught.append(exc)

    eng.process(proc())
    bad.fail(KeyError("oops"))
    eng.run()
    assert len(caught) == 1


def test_condition_requires_same_engine():
    eng1, eng2 = Engine(), Engine()
    t1 = eng1.timeout(1)
    t2 = eng2.timeout(1)
    with pytest.raises(ValueError):
        eng1.all_of([t1, t2])


def test_timeout_value_passthrough():
    eng = Engine()

    def proc():
        got = yield eng.timeout(2, value="payload")
        return got

    p = eng.process(proc())
    eng.run()
    assert p.value == "payload"


# ------------------------------------------------ conditions let go
class _TracedAnyOf(AnyOf):
    """An ``AnyOf`` that logs its callback runs and can be weakly referenced."""

    __slots__ = ("calls", "__weakref__")

    def __init__(self, engine, events):
        self.calls = []
        super().__init__(engine, events)

    def _on_fire(self, ev):
        self.calls.append(ev)
        super()._on_fire(ev)


def test_fired_any_of_leaves_the_other_child():
    eng = Engine()
    first, other = eng.event(), eng.event()
    cond = eng.any_of([first, other])
    first.succeed("a")
    eng.run()
    assert cond.processed and cond.value == {first: "a"}
    assert other.callbacks == []


def test_failed_all_of_leaves_the_other_children():
    eng = Engine()
    before, bad, after = eng.event(), eng.event(), eng.event()
    caught = []

    def waiter():
        try:
            yield eng.all_of([before, bad, after])
        except KeyError as exc:
            caught.append(exc)

    eng.process(waiter())
    eng.run()
    bad.fail(KeyError("oops"))
    eng.run()
    assert len(caught) == 1
    assert before.callbacks == [] and after.callbacks == []


def test_a_detached_child_fires_alone():
    eng = Engine()
    first, other = eng.event(), eng.event()
    cond = _TracedAnyOf(eng, [first, other])
    first.succeed()
    eng.run()
    processed = eng.events_processed
    other.succeed("late")
    eng.run()
    assert cond.calls == [first]
    assert eng.events_processed == processed + 1
    assert cond.value == {first: None}


def test_condition_fired_in_its_constructor_attaches_to_no_later_child():
    eng = Engine()
    done = eng.timeout(1, value="x")
    eng.run()
    before, after = eng.event(), eng.event()
    cond = eng.any_of([before, done, after])
    assert cond.triggered and cond.value == {done: "x"}
    assert before.callbacks == [] and after.callbacks == []


@pytest.mark.parametrize("fire_twice_listed", [True, False])
def test_a_child_listed_twice_is_detached_twice(fire_twice_listed):
    eng = Engine()
    twice, other = eng.event(), eng.event()
    cond = _TracedAnyOf(eng, [twice, other, twice])
    (twice if fire_twice_listed else other).succeed()
    eng.run()
    assert cond.processed
    assert twice.callbacks in (None, []) and other.callbacks in (None, [])
    # a dispatching child runs every subscription it holds; the ones
    # after the trigger return at once
    assert len(cond.calls) == (2 if fire_twice_listed else 1)


def test_fired_any_of_is_freed_without_the_cycle_collector():
    eng = Engine()
    first, other = eng.event(), eng.event()
    refs = []

    def waiter():
        cond = _TracedAnyOf(eng, [first, other])
        refs.append(weakref.ref(cond))
        yield cond

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        eng.process(waiter())
        eng.run()
        first.succeed()
        eng.run()
        assert not other.triggered
        assert refs[0]() is None
    finally:
        if was_enabled:
            gc.enable()
