"""The per-layer attribution of the traced benchmark run."""

import cProfile
import json
import pstats
from pathlib import Path

import pytest

import repro
from layers import (
    LAYERS,
    SpanRecorder,
    chrome_trace,
    layer_of_path,
    layer_self_times,
    span_totals,
)
from repro.core.runner import run_experiment

PKG = Path(repro.__file__).resolve().parent


@pytest.mark.parametrize("rel, layer", [
    ("hw/cpu.py", "hw"),
    ("sim/engine.py", "sim"),
    ("service/journal.py", "service"),
    ("config.py", "core"),
    ("core/batch.py", "core"),
])
def test_paths_map_to_their_package(rel, layer):
    assert layer_of_path(str(PKG / rel), PKG) == layer


def test_code_outside_repro_has_no_layer_of_its_own():
    assert layer_of_path(json.__file__, PKG) is None
    assert layer_of_path(__file__, PKG) is None


def f(rel, name):
    return (str(PKG / rel), 1, name)


def test_builtins_and_library_code_go_to_their_callers_layer():
    journal = f("service/journal.py", "_append_unlocked")
    cpu = f("hw/cpu.py", "run")
    engine = f("sim/engine.py", "run")
    fsync = ("~", 0, "<built-in method posix.fsync>")
    lib = ("/usr/lib/python3/lib.py", 3, "helper")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        journal: (1, 1, 0.1, 0.6, {}),
        cpu: (1, 1, 1.0, 2.0, {}),
        engine: (1, 1, 2.0, 3.0, {}),
        fsync: (1, 1, 0.5, 0.5, {journal: (1, 1, 0.5, 0.5)}),
        # a library function called from two layers (1:3), recursing into
        # itself, and a builtin only it calls
        lib: (4, 4, 0.8, 1.2, {cpu: (1, 1, 0.2, 0.3), engine: (3, 3, 0.6, 0.9),
                               ("/usr/lib/python3/lib.py", 3, "helper"): (1, 1, 0.0, 0.0)}),
        builtin: (2, 2, 0.4, 0.4, {lib: (2, 2, 0.4, 0.4)}),
    }
    got = layer_self_times(stats, PKG)
    assert set(got) == set(LAYERS)
    assert got["service"] == pytest.approx(0.6)
    assert got["hw"] == pytest.approx(1.0 + 0.25 * 1.2)
    assert got["sim"] == pytest.approx(2.0 + 0.75 * 1.2)
    assert got["other"] == 0.0


def test_untimed_calls_split_by_call_count():
    cpu, engine = f("hw/cpu.py", "run"), f("sim/engine.py", "run")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        cpu: (1, 1, 0.0, 0.1, {}),
        engine: (1, 1, 0.0, 0.2, {}),
        builtin: (3, 3, 0.3, 0.3, {cpu: (1, 1, 0.0, 0.0), engine: (2, 2, 0.0, 0.0)}),
    }
    got = layer_self_times(stats, PKG)
    assert (got["hw"], got["sim"]) == (pytest.approx(0.1), pytest.approx(0.2))


def test_uncalled_code_outside_repro_is_other():
    harness = ("/bench/child.py", 1, "main")
    stats = {harness: (1, 1, 0.3, 1.0, {}),
             ("~", 0, "<built-in method time.perf_counter>"): (1, 1, 0.1, 0.1, {harness: (1, 1, 0.1, 0.1)})}
    assert layer_self_times(stats, PKG)["other"] == pytest.approx(0.4)


def test_real_cell_profile_is_fully_attributed():
    """A tiny lu cell: every second of self time lands in some layer, the
    simulator layers carry it, and the unused service layer gets none."""
    run_experiment("lu", "nwcache", "optimal", data_scale=0.02)  # lazy imports
    prof = cProfile.Profile()
    prof.enable()
    run_experiment("lu", "nwcache", "optimal", data_scale=0.02)
    prof.disable()
    stats = pstats.Stats(prof).stats
    got = layer_self_times(stats, PKG)
    total = sum(entry[2] for entry in stats.values())
    assert sum(got.values()) == pytest.approx(total, rel=1e-9)
    for layer in ("sim", "hw", "osim", "optical", "disk", "apps"):
        assert got[layer] > 0, layer
    assert got["service"] == 0.0
    assert got["other"] < 0.05 * total


def test_spans_nest_and_export_as_chrome_trace():
    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    rec = SpanRecorder()
    rec.wrap(Thing, "outer", "core.outer")
    rec.wrap(Thing, "inner", "core.inner")
    assert Thing().outer() == 2
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["core.inner"]["parent"] == by_name["core.outer"]["id"]
    assert by_name["core.outer"]["parent"] == 0
    assert span_totals(rec.spans)["core.inner"][0] == 1
    events = chrome_trace([("rep 1", rec.spans)])["traceEvents"]
    assert [e["ph"] for e in events] == ["M", "X", "X"]
    assert {e["args"]["parent"] for e in events[1:]} == {0, by_name["core.outer"]["id"]}
