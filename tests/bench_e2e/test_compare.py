"""compare.py's row labels on synthetic records."""

import json

import pytest

import compare
from run import quartiles

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]}


def metric(samples):
    return {"samples": list(samples), **quartiles(list(samples))}


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95]


def record(wall, rss=(50.0,) * 10, calib=(0.04,) * 10):
    return {"trace": False, "workloads": {"w": {"metrics": {
        "wall_s": metric(wall), "setup_s": metric(STEADY), "peak_rss_mb": metric(rss),
        "host.calib_s": metric(calib),
    }}}}


def labels(parent, change):
    rows, drift = compare.compare(parent, change, SPEC)
    return {name: label for _, name, label, *_ in rows}, drift


def test_same_runs_are_ok():
    assert labels(record(STEADY), record(STEADY)) == ({"wall_s": "ok", "peak_rss_mb": "ok"}, [])


def test_median_worse_by_more_than_the_bound_is_a_regression():
    got, _ = labels(record(STEADY), record([x * 1.2 for x in STEADY]))
    assert got["wall_s"] == "regression"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 7.5, 12.5, 9.0, 11.0, 10.0]
    got, _ = labels(record(noisy), record(STEADY))
    assert got["wall_s"] == "unresolved"


def test_noisy_but_every_change_run_better_is_not_unresolved():
    noisy = [7.0, 13.0, 8.0, 12.0, 10.0, 7.5, 12.5, 9.0, 11.0, 10.0]
    got, _ = labels(record(noisy), record([x / 3 for x in STEADY]))
    assert got["wall_s"] == "gain"


def test_gain_needs_ten_pairs_mostly_won_and_a_gap_beyond_the_parent_iqr():
    faster = [x * 0.8 for x in STEADY]
    assert labels(record(STEADY), record(faster))[0]["wall_s"] == "gain"
    assert labels(record(STEADY[:5]), record(faster[:5]))[0]["wall_s"] == "ok"
    # wins 8 of 10 pairs: not enough
    mixed = faster[:8] + [20.0, 20.0]
    assert labels(record(STEADY), record(mixed))[0]["wall_s"] != "gain"


def test_host_drift_is_flagged():
    got, drift = labels(record(STEADY), record(STEADY, calib=(0.05,) * 10))
    assert len(drift) == 1 and "host drift on w" in drift[0]
    assert got == {"wall_s": "ok", "peak_rss_mb": "ok"}


@pytest.mark.parametrize("change, code", [(1.0, 0), (1.3, 1)])
def test_exit_status(tmp_path, capsys, change, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record(STEADY)))
    b.write_text(json.dumps(record([x * change for x in STEADY])))
    assert compare.main([str(a), str(b)]) == code
    assert "wall_s" in capsys.readouterr().out
