"""run.py's aggregation and its contract with BENCHMARK.json."""

import shutil
import statistics
import subprocess
import sys

import pytest

import run
from layers import LAYERS

SPEC = run.load_spec()


def child_result(wall=2.0, traced=False):
    """A rep on a host at exactly the reference speed: normalised == raw."""
    ref = run.REFERENCE_CALIB_S
    rep = {
        "calib_s": [ref, ref, ref], "setup_s": 0.3, "wall_s": wall,
        "segment_s": [wall], "peak_rss_mb": 50.0, "cached_settle_s": 0.0,
        "cells": [{"id": "lu/nwcache/optimal@0.2", "digest": "d", "error": None}],
        "counts": {
            "cells": 1.0, "events": 1000.0, "events_jumped": 10.0,
            "epoch_attempted": 8.0, "epoch_accepted": 2.0, "faults": 50.0,
            "swapouts": 5.0, "ring_hits": 4.0, "nwcache_faults": 50.0,
            "disk_reads": 0.0, "disk_cache_hits": 46.0,
        },
    }
    if traced:
        rep.update(
            calib_s=[ref],
            wall_s=3 * wall,
            segment_s=[3 * wall],
            traced_s=3 * wall,
            layers={layer: 3 * wall / len(LAYERS) for layer in LAYERS},
            spans=[],
            span_totals={"core.get_trace": [2, 0.1], "core.Machine.__init__": [1, 0.01]},
        )
    return rep


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert run.quartiles(values) == {"median": med, "q1": q1, "q3": q3, "n": 7}
    assert run.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_untraced_result_line_has_exactly_the_end_to_end_metrics():
    outcome = run.Outcome()
    for wall in (2.0, 2.2, 2.1):
        outcome.add(child_result(wall), traced=False)
    record = run.summarize({"paper-grid": outcome}, SPEC, trace=False, seed=1)
    line = run.result_line(record, SPEC)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert line["metrics"]["wall_s"] == {"value": 2.1, "unit": "s"}
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 3, 0)
    assert record["workloads"]["paper-grid"]["metrics"]["wall_s"]["n"] == 3


def test_each_phase_is_scaled_by_its_own_bracketing_loop_times():
    ref = run.REFERENCE_CALIB_S
    # the host runs at half speed during set-up and the first cell, then
    # recovers halfway through the second cell
    rep = {"calib_s": [2 * ref, 2 * ref, 2 * ref, ref], "setup_s": 0.6,
           "segment_s": [4.0, 3.0]}
    setup, wall = run.host_normalized(rep)
    assert setup == pytest.approx(0.3)
    assert wall == pytest.approx(2.0 + 2.0)


@pytest.mark.parametrize("rep_s, reps", [(12.0, 2), (11.0, 3), (40.0, 1), (1.0, 30)])
def test_a_run_takes_the_rep_count_that_ends_nearest_the_budget(monkeypatch, rep_s, reps):
    clock = [0.0]

    def fake_child(workload, seed, trace):
        clock[0] += rep_s
        return child_result()

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    outcomes = run.run_round_robin(["ycsb-read"], seed=1, seconds=30.0, trace=False)
    assert len(outcomes["ycsb-read"].reps) == reps


def test_traced_result_line_has_every_per_layer_metric():
    outcome = run.Outcome()
    outcome.add(child_result(), traced=False)
    outcome.add(child_result(traced=True), traced=True)
    record = run.summarize({"ycsb-read": outcome}, SPEC, trace=True, seed=1)
    line = run.result_line(record, SPEC)
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = line["metrics"]
    assert m["trace.overhead_ratio"]["value"] == pytest.approx(3.0)
    assert m["hw.epoch_accept_ratio"]["value"] == pytest.approx(0.25)
    assert m["sim.ns_per_event"]["value"] == pytest.approx(2e6)
    assert m["core.trace_compile_s"]["value"] == pytest.approx(0.1)


def test_several_workloads_prefix_metric_names():
    outcomes = {}
    for w in ("paper-grid", "ycsb-read"):
        outcomes[w] = run.Outcome()
        outcomes[w].add(child_result(), traced=False)
    line = run.result_line(run.summarize(outcomes, SPEC, trace=False, seed=1), SPEC)
    assert "ycsb-read:wall_s" in line["metrics"] and line["attempted"] == 2


def test_child_env_drops_inherited_knobs(monkeypatch, tmp_path):
    monkeypatch.setenv("NWCACHE_ENGINE", "calendar")
    env = run.child_env(tmp_path)
    assert env["NWCACHE_CACHE_DIR"] == str(tmp_path)
    assert [k for k in env if k.startswith("NWCACHE_")] == ["NWCACHE_CACHE_DIR"]


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25


def test_exits_nonzero_without_the_simulator_sources(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark fails fast."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(run.ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ycsb-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
