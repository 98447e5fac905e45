"""Property-based tests on the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Resource, Store, Tally


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), max_size=60))
@settings(max_examples=60)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    eng = Engine()
    fired = []
    for d in delays:
        ev = eng.timeout(d, value=d)
        ev.callbacks.append(lambda e: fired.append(eng.now))
    eng.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.1, max_value=100, allow_nan=False),
             min_size=1, max_size=30),
)
@settings(max_examples=40)
def test_resource_never_exceeds_capacity(capacity, holds):
    eng = Engine()
    res = Resource(eng, capacity=capacity)
    in_use = [0]
    max_seen = [0]

    def worker(hold):
        req = res.request()
        yield req
        in_use[0] += 1
        max_seen[0] = max(max_seen[0], in_use[0])
        yield eng.timeout(hold)
        in_use[0] -= 1
        res.release(req)

    for h in holds:
        eng.process(worker(h))
    eng.run()
    assert max_seen[0] <= capacity
    assert in_use[0] == 0
    assert not res.users and not res.queue


@given(st.lists(st.integers(), min_size=1, max_size=50))
@settings(max_examples=40)
def test_store_preserves_fifo_order(items):
    eng = Engine()
    store = Store(eng)
    got = []

    def producer():
        for x in items:
            yield store.put(x)

    def consumer():
        for _ in items:
            v = yield store.get()
            got.append(v)

    eng.process(producer())
    eng.process(consumer())
    eng.run()
    assert got == items


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
@settings(max_examples=60)
def test_tally_matches_reference(xs):
    import numpy as np

    t = Tally()
    for x in xs:
        t.record(x)
    assert t.n == len(xs)
    assert abs(t.mean - float(np.mean(xs))) < 1e-6 * max(1.0, abs(float(np.mean(xs))))
    assert t.min == min(xs) and t.max == max(xs)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=0, max_size=80),
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
             min_size=0, max_size=80),
)
@settings(max_examples=40)
def test_tally_merge_equals_concatenation(xs, ys):
    a, b, ref = Tally(), Tally(), Tally()
    for x in xs:
        a.record(x)
        ref.record(x)
    for y in ys:
        b.record(y)
        ref.record(y)
    a.merge(b)
    assert a.n == ref.n
    assert abs(a.mean - ref.mean) < 1e-6
    assert a.min == ref.min and a.max == ref.max


# A step is a sleep or a claim-hold-release on one of three capacity-1
# resources; delays mix ints and floats (both are legal bare delays).
_delay = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0, max_value=6, allow_nan=False),
)
_step = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(
        st.just("claim"), st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2), _delay,
    ),
)


def _run_program(program, tokens):
    """Run ``program`` with wake tokens (``yield d`` / ``claim()``) or
    with events (``Timeout`` / ``request()``); return the step log and
    the event count."""
    eng = Engine()
    resources = [Resource(eng, capacity=1) for _ in range(3)]
    log = []

    def proc(pid, steps):
        for i, step in enumerate(steps):
            if step[0] == "sleep":
                yield step[1] if tokens else eng.timeout(step[1])
            else:
                _, r, prio, hold = step
                res = resources[r]
                grant = res.claim(prio) if tokens else res.request(prio)
                yield grant
                log.append((eng.now, pid, i, "granted"))
                yield hold if tokens else eng.timeout(hold)
                res.release(grant)
            log.append((eng.now, pid, i))

    for pid, steps in enumerate(program):
        eng.process(proc(pid, steps))
    eng.run()
    assert all(not r.users and not r.queue for r in resources)
    return log, eng.events_processed


@given(st.lists(st.lists(_step, max_size=8), min_size=1, max_size=6))
@settings(max_examples=80)
def test_wake_tokens_replay_the_evented_program_exactly(program):
    assert _run_program(program, tokens=True) == _run_program(program, tokens=False)
