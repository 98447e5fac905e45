"""Compiled replay at its jump boundaries, on adversarial traces.

The compiled replay (``Cpu.run_compiled``, with the machine's fault,
swap-out and controller paths armed) may collapse a wait into a clock
jump only while nothing else in the machine is due inside the jump
window.  These tests construct traces engineered to put work inside
those windows — pages missing from the resident window, cross-CPU bus
contention, pages parked in optical ring slots, victims raced across
processors, failing ring channels, an exhausted frame pool — and check
that the run result stays bit-identical to the pure event kernel
(``compiled_traces=False``).  The last two tests pin the engine's
``try_jump`` multi-dispatch guard directly.
"""

from repro.config import SimConfig
from repro.core.machine import Machine
from repro.sim import Engine
from tests.conftest import SyntheticWorkload


def _snapshot(res):
    d = dict(vars(res))
    d.pop("metrics", None)  # carries wall-clock noise
    # epoch_events_jumped profiles the replay strategy itself (absent on
    # the generator path); it is outside the bit-identity contract.
    d["extras"] = {
        k: v for k, v in res.extras.items() if not k.startswith("epoch_")
    }
    return repr(d)


def _run_both(system="standard", cfg_kwargs=None, **wl_kwargs):
    """Run the same workload on the generator path and the compiled
    replay; return the two machines after asserting bit-identical
    results."""
    machines = {}
    for compiled in (False, True):
        cfg = SimConfig.tiny(**(cfg_kwargs or {}))
        m = Machine(cfg, system=system, compiled_traces=compiled)
        m.result = m.run(SyntheticWorkload(**wl_kwargs))
        machines[compiled] = m
    assert _snapshot(machines[False].result) == _snapshot(
        machines[True].result
    )
    assert machines[False].engine.events_jumped == 0
    return machines[False], machines[True]


# ------------------------------------------- adversarial: resident miss
def test_out_of_window_reuse_is_contended_or_identical():
    """8 pages/CPU against a 4-page window: every revisit misses the
    window, so every item flushes and crosses its home bus, and with
    four processors advancing in lockstep the event queue usually
    holds a peer inside the jump window — the guards must refuse
    exactly then and the result stays bit-identical."""
    _, fast = _run_both(
        n_pages=32, sweeps=8, accesses=1, write=False, think=10.0,
        use_barriers=False,
    )
    assert fast.engine.events_jumped > 0


# ------------------------------------------- adversarial: contended bus
def test_shared_pages_contend_and_stay_identical():
    """All CPUs hammer the same pages: misses, bus transfers, and
    shootdowns land mid-run, so the replay must keep yielding to the
    event kernel exactly at the contended waits."""
    off, on = _run_both(
        n_pages=8, sweeps=8, accesses=4, write=True, shared=True,
        think=10.0,
    )
    assert on.engine.events_processed == off.engine.events_processed


# ------------------------------------------- adversarial: ring conflict
def test_ring_resident_pages_defeat_validation():
    """Out-of-core NWCache run: pages cycle through optical ring slots
    (state RING, not MEMORY), so faults resolve through the evented
    ring-snoop path while drains and swap-outs keep the queue busy."""
    off, on = _run_both(
        system="nwcache",
        n_pages=64, sweeps=4, accesses=2, write=True, think=10.0,
    )
    # The run thrashes: 64 pages against 32 frames.  Identity (checked
    # in _run_both) is the load-bearing assertion.
    assert off.result.exec_time == on.result.exec_time


# ------------------------------------- adversarial: eviction-dominated
def test_eviction_dominated_writes_stay_identical():
    """Dirty pages far beyond the resident window: every revisit is a
    cache miss and most faults evict a dirty victim, so the bus, mesh
    and swap-out jump guards run against live swap-out traffic."""
    _, on = _run_both(
        cfg_kwargs=dict(l2_resident_pages=2),
        n_pages=32, sweeps=6, accesses=2, write=True, think=50.0,
        use_barriers=False,
    )
    assert on.engine.events_jumped > 0


def test_victim_race_across_processors_stays_identical():
    """All four processors write the same pages against a frame pool
    too small to hold them: a page one CPU is fetching can be chosen as
    another CPU's eviction victim mid-flight, so a jump taken on one
    processor must never leap over the reclaim scheduled by another."""
    _run_both(
        cfg_kwargs=dict(memory_per_node=16 * 1024),  # 4 frames/node
        n_pages=16, sweeps=6, accesses=2, write=True, shared=True,
        think=10.0, use_barriers=False,
    )


def test_writeback_during_degraded_ring_stays_identical():
    """NWCache run with half the optical channels failing mid-run:
    writebacks started on the ring degrade to the standard interconnect
    path while the replay is jumping, so the jump guards in the swap
    path must stay equivalent across the failover."""
    _, on = _run_both(
        system="nwcache",
        cfg_kwargs=dict(faults="channel_failures=0;1@5e5"),
        n_pages=48, sweeps=4, accesses=2, write=True, think=10.0,
    )
    assert on.result.extras["faults_injected"] > 0


def test_frame_pool_exhaustion_mid_run_stays_identical():
    """4 frames per node against 12 dirty pages per CPU: the free-frame
    reserve empties mid-run and faults stall on swap-outs, so the
    fault path's jumps must refuse while the replacement daemon runs
    without perturbing the stall timing."""
    off, on = _run_both(
        cfg_kwargs=dict(memory_per_node=16 * 1024),  # 4 frames/node
        n_pages=48, sweeps=4, accesses=1, write=True, think=10.0,
        use_barriers=False,
    )
    assert on.result.breakdown["nofree"] == off.result.breakdown["nofree"]
    assert on.result.breakdown["nofree"] > 0


# ------------------------------------------------- multi-dispatch guard
def test_try_jump_refused_during_multi_dispatch():
    """A barrier-style event resuming several processes pins the clock:
    none of the siblings may jump until all have observed it."""
    eng = Engine()
    gate = eng.event()
    observed = []

    def waiter():
        yield gate
        observed.append(eng.try_jump(5.0))

    eng.process(waiter())
    eng.process(waiter())

    def trigger():
        yield eng.timeout(10)
        gate.succeed()

    eng.process(trigger())
    eng.run()
    assert observed == [False, False]
    assert eng.now == 10.0


def test_try_jump_allowed_for_single_callback():
    eng = Engine()
    done = []

    def proc():
        yield eng.timeout(10)
        done.append(eng.try_jump(5.0))

    eng.process(proc())
    eng.run()
    assert done == [True]
    assert eng.now == 15.0
