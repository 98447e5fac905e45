"""End-to-end integration tests: full machines running Table 2 apps.

These run small-scale (10%) experiments and assert the *qualitative*
shapes the paper reports — who wins, in which direction, and that the
bookkeeping is consistent across the whole stack.
"""

import pytest

from repro import run_experiment, run_pair
from repro.apps import APP_NAMES
from repro.osim.pagetable import PageState

SCALE = 0.1


@pytest.fixture(scope="module")
def sor_optimal():
    return run_pair("sor", prefetch="optimal", data_scale=SCALE)


@pytest.fixture(scope="module")
def sor_naive():
    return run_pair("sor", prefetch="naive", data_scale=SCALE)


def test_nwcache_swapouts_orders_of_magnitude_faster(sor_optimal):
    std, nwc = sor_optimal
    assert std.swapout_mean / nwc.swapout_mean > 5


def test_nwcache_improves_execution_time(sor_optimal):
    std, nwc = sor_optimal
    assert nwc.exec_time < std.exec_time


def test_nofree_shrinks_with_nwcache(sor_optimal):
    std, nwc = sor_optimal
    assert nwc.breakdown["nofree"] < std.breakdown["nofree"]


def test_naive_prefetch_is_fault_dominated(sor_naive):
    std, _ = sor_naive
    fr = std.breakdown_fractions()
    assert fr["fault"] > 0.2


def test_optimal_beats_naive_execution(sor_optimal, sor_naive):
    # optimal prefetching = idealized reads: always faster
    assert sor_optimal[0].exec_time < sor_naive[0].exec_time
    assert sor_optimal[1].exec_time < sor_naive[1].exec_time


def test_victim_hits_only_on_nwcache(sor_optimal):
    std, nwc = sor_optimal
    assert std.metrics.counts["ring_hits"] == 0
    assert std.ring_hit_rate == 0.0
    assert nwc.metrics.counts["ring_hits"] > 0


def test_combining_within_bounds(sor_optimal):
    for res in sor_optimal:
        assert 1.0 <= res.combining.mean <= res.cfg.disk_cache_pages


@pytest.mark.parametrize("app", APP_NAMES)
def test_every_app_runs_on_both_machines(app):
    std, nwc = run_pair(app, prefetch="optimal", data_scale=SCALE)
    for res in (std, nwc):
        assert res.exec_time > 0
        assert res.metrics.counts["faults"] > 0
        fr = res.breakdown_fractions()
        assert sum(fr.values()) == pytest.approx(1.0)
    # paper headline: the NWCache never loses badly
    assert nwc.speedup_vs(std) > -0.15, (app, nwc.speedup_vs(std))


def test_accounting_identity_full_stack():
    from repro.core.machine import Machine
    from repro.core.runner import experiment_config
    from repro.apps import make_app
    from repro.core.runner import linear_scale

    cfg = experiment_config(SCALE, min_free=2)
    m = Machine(cfg, system="nwcache", prefetch="naive")
    m.run(make_app("radix", scale=linear_scale("radix", SCALE)))
    for cpu in m.cpus:
        span = cpu.finished_at - cpu.started_at
        assert cpu.acct.total() == pytest.approx(span, rel=1e-9)
    # page-table global invariants at quiescence
    census = m.vm.table.census()
    assert census[PageState.INFLIGHT] == 0
    assert census[PageState.SWAPPING] == 0
    assert census[PageState.RING] == 0
    resident = sum(len(r) for r in m.vm.resident)
    assert census[PageState.MEMORY] == resident


def test_full_determinism_across_runs():
    a = run_experiment("fft", "nwcache", "naive", data_scale=SCALE)
    b = run_experiment("fft", "nwcache", "naive", data_scale=SCALE)
    assert a.exec_time == b.exec_time
    assert a.events_processed == b.events_processed
    assert a.metrics.counts.as_dict() == b.metrics.counts.as_dict()
    assert a.swapout_mean == b.swapout_mean


def test_drain_policy_changes_behaviour():
    most = run_experiment("sor", "nwcache", "optimal", data_scale=SCALE,
                          drain_policy="most-loaded")
    rr = run_experiment("sor", "nwcache", "optimal", data_scale=SCALE,
                        drain_policy="round-robin")
    # both complete and produce sane results; timings may differ
    assert most.exec_time > 0 and rr.exec_time > 0


def test_victim_caching_ablation_flag():
    from repro.core.runner import experiment_config

    cfg = experiment_config(SCALE, min_free=2).replace(victim_caching=False)
    res = run_experiment("gauss", "nwcache", "optimal",
                         cfg=cfg, data_scale=SCALE, min_free=2)
    assert res.metrics.counts["ring_hits"] == 0
    assert res.metrics.counts["swapouts"] > 0
