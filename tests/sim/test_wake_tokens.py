"""Tests for wake tokens: bare-delay sleeps and ``Resource.claim``.

A process sleeps with ``yield d`` and claims a resource with ``yield
res.claim()``; both wake it through its one reusable wake token instead
of a ``Timeout`` or ``Request`` event, and must produce exactly the
trajectory (times, order, event ids and counts) the events would.
"""

import gc
import weakref

import pytest

from repro.sim import Engine, Interrupt, Resource


# ------------------------------------------------------------ bare delays
def test_int_and_float_delays_wake_exactly_at_now_plus_d():
    eng = Engine()
    woke = []

    def proc():
        yield 3
        woke.append(eng.now)
        yield 2.5
        woke.append(eng.now)
        yield 0
        woke.append(eng.now)

    eng.process(proc())
    eng.run()
    assert woke == [3.0, 5.5, 5.5]
    assert all(type(t) is float for t in woke)


def test_negative_delay_is_thrown_into_the_generator():
    eng = Engine()
    caught = []

    def proc():
        try:
            yield -1.5
        except ValueError as exc:
            caught.append((eng.now, str(exc)))
        yield 4
        return eng.now

    p = eng.process(proc())
    eng.run()
    assert caught == [(0.0, "negative timeout delay: -1.5")]
    assert p.value == 4.0


def test_uncaught_negative_delay_fails_the_process():
    eng = Engine()

    def proc():
        yield -2

    eng.process(proc())
    with pytest.raises(ValueError, match="negative timeout delay: -2"):
        eng.run()


def test_number_subclasses_sleep_too():
    np = pytest.importorskip("numpy")
    eng = Engine()

    def proc():
        yield np.float64(7.25)
        return eng.now

    p = eng.process(proc())
    eng.run()
    assert p.value == 7.25


def test_sleeps_match_timeouts_event_for_event():
    """Same wake order and event count as the Timeout spelling."""

    def run(bare):
        eng = Engine()
        log = []

        def proc(name, delays):
            for d in delays:
                yield d if bare else eng.timeout(d)
                log.append((eng.now, name))

        eng.process(proc("a", [2, 0, 3.5]))
        eng.process(proc("b", [2, 1.5, 0]))
        eng.process(proc("c", [0, 2, 2]))
        eng.run()
        return log, eng.events_processed

    assert run(True) == run(False)


# ------------------------------------------------------------ claims
def test_claim_outside_a_process_raises():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(RuntimeError, match="outside a running process"):
        res.claim()
    assert not res.users and not res.queue


def test_active_process_is_set_only_while_a_generator_runs():
    eng = Engine()
    seen = []

    def proc():
        seen.append(eng.active_process)
        yield 1
        seen.append(eng.active_process)

    p = eng.process(proc())
    assert eng.active_process is None
    eng.run()
    assert seen == [p, p]
    assert eng.active_process is None


def test_mixed_requests_and_claims_are_granted_in_priority_arrival_order():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def holder():
        tok = res.claim()
        yield tok
        yield 10
        res.release(tok)

    def by_request(name, prio, arrive):
        yield arrive
        req = res.request(prio)
        yield req
        order.append((eng.now, name))
        yield 1
        res.release(req)

    def by_claim(name, prio, arrive):
        yield arrive
        tok = res.claim(prio)
        yield tok
        order.append((eng.now, name))
        yield 1
        res.release(tok)

    eng.process(holder())
    eng.process(by_claim("c-low", 5, 1))
    eng.process(by_request("r-low", 5, 2))
    eng.process(by_request("r-high", 0, 3))
    eng.process(by_claim("c-high", 0, 4))
    eng.process(by_claim("c-mid", 2, 4))
    eng.run()
    assert order == [
        (10.0, "r-high"), (11.0, "c-high"), (12.0, "c-mid"),
        (13.0, "c-low"), (14.0, "r-low"),
    ]
    assert not res.users and not res.queue


def test_claims_match_requests_event_for_event():
    """Grants, wake order, busy integral and event count all agree."""

    def run(use_claim):
        eng = Engine()
        res = Resource(eng, capacity=2)
        log = []

        def worker(name, arrive, hold):
            yield eng.timeout(arrive)
            grant = res.claim() if use_claim else res.request()
            yield grant
            log.append((eng.now, name))
            yield eng.timeout(hold)
            res.release(grant)

        for i, (arrive, hold) in enumerate([(0, 4), (0, 3), (1, 2), (1, 5), (2, 1)]):
            eng.process(worker(i, arrive, hold))
        eng.run()
        return log, eng.events_processed, res.utilization(eng.now)

    assert run(True) == run(False)


def test_a_queued_claim_can_be_released_unserved():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def holder():
        tok = res.claim()
        yield tok
        yield 5
        res.release(tok)

    eng.process(holder())
    eng.run(until=1)

    def quitter():
        tok = res.claim()
        assert res.queue == [tok]
        res.release(tok)  # abandons the queued claim
        yield 0

    eng.process(quitter())
    eng.run()
    assert not res.users and not res.queue


# ------------------------------------------------------------ interrupts
def test_interrupting_a_sleeper_wakes_it_once_and_retires_its_token():
    def run(bare):
        eng = Engine()
        log = []

        def victim():
            try:
                yield 100 if bare else eng.timeout(100)
            except Interrupt as intr:
                log.append((eng.now, "interrupted", intr.cause))
            yield 200 if bare else eng.timeout(200)
            log.append((eng.now, "done"))

        def interrupter(v):
            yield 5 if bare else eng.timeout(5)
            v.interrupt("stop")

        v = eng.process(victim())
        old_token = v._token
        eng.process(interrupter(v))
        eng.run()
        return log, eng.events_processed, old_token, v

    log, events, old_token, v = run(bare=True)
    # One wake by the interrupt, none by the stale token at t=100.
    assert log == [(5.0, "interrupted", "stop"), (205.0, "done")]
    assert old_token.proc is None
    # The stale entry still popped and counted, as the abandoned
    # Timeout does in the evented spelling.
    assert run(bare=False)[:2] == (log, events)


# ------------------------------------------------------------ lifetime
def test_finished_process_is_freed_without_the_cycle_collector():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def proc():
        yield 1
        tok = res.claim()
        yield tok
        yield 2
        res.release(tok)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        p = eng.process(proc())
        ref = weakref.ref(p)
        del p
        eng.run()
        assert eng.now == 3.0
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
