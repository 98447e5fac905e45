"""The benchmark's cells, shape checks and determinism check."""

import dataclasses

import pytest

import workloads
from repro.core.batch import grid_specs, run_batch
from repro.metrics import Metrics
from run import Outcome


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_spec_builders_yield_declared_cell_counts(name):
    specs = workloads.build_specs(name, seed=7)
    assert len(specs) == workloads.CELLS[name]
    assert len({workloads.cell_id(s) for s in specs}) == len(specs)


def test_seed_sets_the_simulation_seed_of_kernel_and_ycsb_cells():
    for name in ("paper-grid", "ycsb-write", "ycsb-read"):
        assert {s.resolved_config().seed for s in workloads.build_specs(name, 42)} == {42}


def test_sweep_seed_only_shuffles_submission_order():
    a = workloads.build_specs("sweep-service", 1)
    b = workloads.build_specs("sweep-service", 2)
    assert [s.key() for s in a] != [s.key() for s in b]
    assert sorted(s.key() for s in a) == sorted(s.key() for s in b)
    assert [s.key() for s in a] == [s.key() for s in workloads.build_specs("sweep-service", 1)]
    assert all(s.cfg is None for s in a)


@pytest.fixture(scope="module")
def tiny():
    """Real results of small cells: a kernel pair and both YCSB pairs."""
    out = {}
    for app, scale in (("lu", 0.02), ("ycsb-a", 0.05), ("ycsb-c", 0.05)):
        specs = grid_specs([app], data_scale=scale)
        out[app] = (specs, run_batch(specs, jobs=1, cache=False))
    return out


def with_counts(res, **counts):
    metrics = Metrics()
    for key, n in counts.items():
        metrics.counts.add(key, n)
    return dataclasses.replace(res, metrics=metrics)


def test_kernel_shape_check_catches_swapped_exec_times(tiny):
    specs, (std, nwc) = tiny["lu"]
    fast = [dataclasses.replace(std, exec_time=2.0), dataclasses.replace(nwc, exec_time=1.0)]
    assert workloads.shape_failures("paper-grid", specs, fast) == {}
    swapped = [fast[0], dataclasses.replace(fast[1], exec_time=2.0)]
    bad = workloads.shape_failures("paper-grid", specs, swapped)
    assert list(bad) == [workloads.cell_id(specs[1])]


def test_ycsb_shape_checks_pass_on_real_results(tiny):
    assert workloads.shape_failures("ycsb-read", *tiny["ycsb-c"]) == {}
    specs, (std, nwc) = tiny["ycsb-a"]
    nwc = with_counts(nwc, ring_hits=1)
    assert workloads.shape_failures("ycsb-write", specs, [std, nwc]) == {}


def test_ycsb_shape_checks_catch_tampered_counters(tiny):
    specs, (std, nwc) = tiny["ycsb-c"]
    bad = workloads.shape_failures("ycsb-read", specs, [with_counts(std, swapouts=3), nwc])
    assert list(bad) == [workloads.cell_id(specs[0])]
    specs, (std, nwc) = tiny["ycsb-a"]
    bad = workloads.shape_failures("ycsb-write", specs, [std, with_counts(nwc, ring_hits=0)])
    assert list(bad) == [workloads.cell_id(specs[1])]


def test_openloop_check_catches_dropped_requests(tiny):
    specs, (std, nwc) = tiny["ycsb-c"]
    extras = dict(nwc.extras, openloop_completed_requests=nwc.extras["openloop_offered_requests"] - 1)
    bad = workloads.shape_failures("ycsb-read", specs, [std, dataclasses.replace(nwc, extras=extras)])
    assert "completed" in bad[workloads.cell_id(specs[1])]


def rep_of(specs, results):
    return {"cells": [
        {"id": workloads.cell_id(s), "digest": workloads.digest(workloads.snapshot(r)), "error": None}
        for s, r in zip(specs, results)
    ]}


def test_determinism_check_catches_a_perturbed_counter(tiny):
    specs, results = tiny["lu"]
    outcome = Outcome()
    outcome.add(rep_of(specs, results), traced=False)
    outcome.add(rep_of(specs, results), traced=False)
    assert (outcome.attempted, outcome.failed) == (4, 0)
    counts = results[1].metrics.counts.as_dict()
    counts["faults"] += 1
    outcome.add(rep_of(specs, [results[0], with_counts(results[1], **counts)]), traced=False)
    assert (outcome.attempted, outcome.failed) == (6, 1)
    assert "differs from rep 1" in outcome.failures[0]


def test_crashed_rep_fails_all_its_operations(tiny):
    specs, results = tiny["lu"]
    outcome = Outcome()
    outcome.add(rep_of(specs, results), traced=False)
    outcome.add(None, traced=False)
    assert outcome.totals() == (4, 2)
