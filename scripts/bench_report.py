#!/usr/bin/env python
"""Write BENCH_kernel.json: the repo's performance trajectory record.

Measures, without pytest overhead so numbers are comparable across runs:

* event-kernel throughput (events/sec): what processes actually do —
  sleeping on bare delays and claim/hold/release cycles on shared
  resources — plus the older callback-less timeout drain and
  ``Timeout``-based process switches, kept for continuity;
* wall-clock of one end-to-end experiment cell (events/sec too);
* serial vs parallel wall-clock for a small grid through
  ``repro.core.batch.run_batch`` (cache disabled), plus the warm-cache
  re-run time for the same grid;
* trace compilation: cold compile vs warm replay of the compiled
  reference traces (``repro.core.trace``), per app; warm replay is one
  full pass over every processor's decoded rows, which each run pays;
* pair runs: wall-clock of a full standard+NWCache pair per app, on the
  generator path vs the warm compiled-trace path.

With ``--baseline OLD.json`` the pair section also reports each app's
speedup against the older record's generator-path times (this is how the
trajectory vs the pre-trace-compiler tree is tracked).

Usage:
    PYTHONPATH=src python scripts/bench_report.py [--scale 0.1]
        [--jobs N] [--out BENCH_kernel.json] [--baseline OLD.json]
        [--baseline-tree /path/to/older/checkout]
"""

import argparse
import json
import math
import platform
import sys
import time
from collections import deque
from pathlib import Path

from repro.core.batch import default_jobs, grid_specs, run_batch
from repro.core.cache import ResultCache
from repro.sim import Engine, Resource

#: apps measured by the trace/pair sections (chosen to span the
#: fault-dominated and compute-dominated ends of the suite)
PAIR_APPS = ("gauss", "sor", "radix", "em3d", "fft", "lu", "mg")


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall-clock of ``repeats`` calls (noise-resistant)."""
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_timeouts(n: int = 50_000) -> float:
    """Events/sec scheduling and draining bare timeouts."""
    def run():
        eng = Engine()
        for i in range(n):
            eng.timeout(i % 97)
        eng.run()

    return n / _best_of(run)


def bench_process_switches(n: int = 20_000) -> float:
    """Generator suspend/resume cycles per second, through ``Timeout``s."""
    def run():
        eng = Engine()

        def proc():
            for _ in range(n):
                yield eng.timeout(1)

        eng.process(proc())
        eng.run()

    return n / _best_of(run)


def bench_sleeps(n: int = 48_000, procs: int = 8) -> float:
    """Events/sec of ``procs`` processes sleeping on bare delays."""
    per = n // procs

    def run():
        eng = Engine()

        def proc(d):
            for _ in range(per):
                yield d

        for k in range(procs):
            eng.process(proc(1.0 + 0.125 * k))
        eng.run()

    return procs * per / _best_of(run)


def bench_claim_cycles(
    n: int = 24_000, procs: int = 8, n_resources: int = 4
) -> float:
    """Claim/hold/release cycles per second: ``procs`` processes taking
    turns on ``n_resources`` shared capacity-1 resources."""
    per = n // procs

    def run():
        eng = Engine()
        resources = [Resource(eng, capacity=1) for _ in range(n_resources)]

        def proc(k):
            for i in range(per):
                res = resources[(i + k) % n_resources]
                tok = res.claim()
                yield tok
                yield 1.0
                res.release(tok)

        for k in range(procs):
            eng.process(proc(k))
        eng.run()

    return procs * per / _best_of(run)


def bench_cell(scale: float) -> dict:
    """One end-to-end experiment: wall-clock and simulation events/sec."""
    from repro.core.runner import run_experiment

    t0 = time.perf_counter()
    res = run_experiment("sor", "nwcache", "optimal", data_scale=scale)
    dt = time.perf_counter() - t0
    return {
        "wall_seconds": dt,
        "events_processed": res.events_processed,
        "events_per_second": res.events_processed / dt,
    }


def bench_grid(scale: float, jobs: int, tmp_cache: Path) -> dict:
    """Serial vs parallel vs warm-cache wall-clock for a small grid.

    ``jobs`` is the worker count for the parallel measurement (the
    caller picks ``min(4, cpu_count)`` unless overridden); it is
    recorded in the report so speedups are interpretable.  On a
    single-CPU machine the parallel run would measure process-spawn
    overhead, not parallelism, so it is skipped and annotated.
    """
    specs = grid_specs(
        ["sor", "gauss"], ("standard", "nwcache"), ("optimal",),
        data_scale=scale,
    )
    serial = _timed(lambda: run_batch(specs, jobs=1, cache=False))
    out = {
        "cells": len(specs),
        "jobs": jobs,
        "serial_seconds": serial,
    }
    if jobs > 1:
        parallel = _timed(lambda: run_batch(specs, jobs=jobs, cache=False))
        out["parallel_seconds"] = parallel
        out["parallel_speedup"] = serial / parallel if parallel > 0 else 0.0
    else:
        out["parallel_skipped"] = (
            "single CPU: a parallel run would measure process-spawn "
            "overhead, not parallelism"
        )
    cache = ResultCache(tmp_cache)
    run_batch(specs, jobs=jobs, cache=cache)  # populate
    warm = _timed(lambda: run_batch(specs, jobs=jobs, cache=ResultCache(tmp_cache)))
    out["warm_cache_seconds"] = warm
    out["warm_cache_fraction_of_serial"] = (
        warm / serial if serial > 0 else 0.0
    )
    return out


def bench_traces(scale: float) -> dict:
    """Cold-compile vs warm-replay cost of the compiled reference traces."""
    from repro.apps import make_app
    from repro.core.runner import linear_scale
    from repro.core import trace as trace_mod

    out = {}
    for app in PAIR_APPS:
        wl = make_app(app, scale=linear_scale(app, scale))
        trace_mod.clear_memo()
        cold = _timed(
            lambda: trace_mod.get_trace(wl, 8, 1999, cache=False)
        )
        compiled = trace_mod.get_trace(wl, 8, 1999, cache=False)
        # warm replay cost = fetching the memoized trace + one full pass
        # over the rows every processor decodes, which every run pays
        warm = _timed(
            lambda: [
                deque(
                    trace_mod.get_trace(wl, 8, 1999, cache=False).rows(p),
                    maxlen=0,
                )
                for p in range(8)
            ]
        )
        out[app] = {
            "items": compiled.n_items,
            "array_bytes": compiled.nbytes(),
            "cold_compile_seconds": cold,
            "warm_replay_seconds": warm,
        }
    trace_mod.clear_memo()
    return out


#: measurement snippet run in a pristine interpreter per repetition —
#: in-process timings drift several percent slow once the earlier
#: microbenches have heated the heap, and the warm-replay scenario the
#: on-disk trace cache exists for *is* a fresh process reading the cache.
_PAIR_SNIPPET = """
import sys, time
from repro.core.runner import run_pair
app, scale, compiled = sys.argv[1], float(sys.argv[2]), sys.argv[3]
# "-" = tree predates the compiled_traces parameter (baseline trees)
kw = {} if compiled == "-" else {"compiled_traces": compiled == "1"}
run_pair(app, data_scale=scale, **kw)  # warm-up
t0 = time.perf_counter()
std, nwc = run_pair(app, data_scale=scale, **kw)
dt = time.perf_counter() - t0
ev = getattr(std, "events_processed", None)
if ev is None:  # baseline trees may predate event reporting
    print(dt)
else:
    print(dt, ev + nwc.events_processed)
"""


def _pair_once(app: str, scale: float, compiled: str, tree=None):
    """One subprocess pair measurement (second run of two, timed).

    Returns ``(seconds, events)``; ``events`` is ``None`` when the tree
    predates event reporting.  ``compiled`` is "1"/"0" for the current
    tree, "-" for a baseline tree whose ``run_pair`` has no
    ``compiled_traces`` parameter; ``tree`` points PYTHONPATH at an
    alternative checkout.
    """
    import os
    import subprocess

    src = (
        Path(tree) / "src"
        if tree
        else Path(__file__).resolve().parent.parent / "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    out = subprocess.run(
        [sys.executable, "-c", _PAIR_SNIPPET, app, str(scale), compiled],
        env=env, capture_output=True, text=True, check=True,
    )
    fields = out.stdout.split()
    seconds = float(fields[0])
    events = int(fields[1]) if len(fields) > 1 else None
    return seconds, events


def bench_pairs(
    scale: float, baseline: "dict | None", baseline_tree=None
) -> dict:
    """Standard+NWCache pair wall-clock: generator path vs warm traces.

    ``baseline`` is an older BENCH_kernel.json report (already parsed);
    when it carries pair timings, each app also gets a
    ``speedup_vs_baseline_generator`` — warm-trace time against the old
    record's generator-path time.  ``baseline_tree`` is stronger: a path
    to an older checkout (e.g. a ``git worktree`` of the pre-trace-
    compiler revision) whose generator path is *re-measured here*,
    interleaved rep-by-rep with the current tree's numbers — wall-clock
    comparisons across separately-taken records drift with machine load
    and thermal state, interleaving does not.

    Measurements run in fresh subprocesses, best-of-5: pair runs are
    short enough that scheduler noise and accumulated interpreter state
    dominate single in-process timings.
    """
    base_pairs = (baseline or {}).get("pair", {}).get("apps", {})
    apps = {}
    for app in PAIR_APPS:
        base = gen = warm = math.inf
        events = None
        for _ in range(5):
            if baseline_tree:
                base = min(base, _pair_once(app, scale, "-", baseline_tree)[0])
            gen = min(gen, _pair_once(app, scale, "0")[0])
            warm_s, warm_ev = _pair_once(app, scale, "1")
            if warm_s < warm:
                warm, events = warm_s, warm_ev
        entry = {
            "generator_s": gen,
            "warm_trace_s": warm,
            "speedup_warm_vs_generator": gen / warm if warm > 0 else 0.0,
        }
        if events is not None and warm > 0:
            entry["events_processed"] = events
            entry["events_per_second"] = events / warm
        base_gen = (
            base if baseline_tree else base_pairs.get(app, {}).get("generator_s")
        )
        if base_gen:
            entry["baseline_generator_s"] = base_gen
            entry["speedup_vs_baseline_generator"] = base_gen / warm
        apps[app] = entry
        print(f"  {app:6s} gen={gen:.3f}s warm={warm:.3f}s", file=sys.stderr)

    def _geomean(key):
        vals = [a[key] for a in apps.values() if key in a]
        if not vals:
            return None
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    out = {"apps": apps,
           "geomean_speedup_warm_vs_generator":
               _geomean("speedup_warm_vs_generator")}
    vs_base = _geomean("speedup_vs_baseline_generator")
    if vs_base is not None:
        out["geomean_speedup_vs_baseline_generator"] = vs_base
    return out


def bench_openloop(scale: float) -> dict:
    """Open-loop pair run (zipf): wall-clock and completed requests/sec.

    One standard+NWCache pair of the ``zipf`` Poisson/Zipf generator on
    the warm compiled-trace path, in-process best-of-3 after a warm-up
    run that also populates the trace memo.  ``requests_per_second``
    counts completed requests across both machines; it is the guarded
    throughput figure for the open-loop path (``scripts/check_bench.py``
    fails CI on a >20% drop of any ``*_per_second`` leaf).
    """
    from repro.core.runner import run_pair

    std, nwc = run_pair("zipf", data_scale=scale)  # warm-up + reference
    requests = (std.extras["openloop_completed_requests"]
                + nwc.extras["openloop_completed_requests"])
    seconds = _best_of(lambda: run_pair("zipf", data_scale=scale))
    return {
        "app": "zipf",
        "requests": requests,
        "wall_seconds": seconds,
        "requests_per_second": requests / seconds if seconds > 0 else 0.0,
        "events_processed": std.events_processed + nwc.events_processed,
        "nwcache_exec_ratio": (
            nwc.exec_time / std.exec_time if std.exec_time > 0 else 0.0
        ),
    }


#: measurable report sections, in run order
SECTIONS = ("kernel", "cell", "grid", "trace", "openloop", "pair")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"))
    ap.add_argument(
        "--only", nargs="+", choices=SECTIONS, default=None,
        help="measure only these sections; other sections are kept "
             "from the existing --out file (merge instead of rewrite)",
    )
    ap.add_argument(
        "--baseline", type=Path, default=None,
        help="older BENCH_kernel.json to compute pair speedups against",
    )
    ap.add_argument(
        "--baseline-tree", type=Path, default=None,
        help="older checkout (e.g. a git worktree of the pre-trace "
             "revision) whose generator path is re-measured interleaved "
             "with this tree's pair runs; overrides --baseline timings",
    )
    args = ap.parse_args()
    # The grid parallel measurement wants a small fixed worker count:
    # default_jobs() (= all cores) drags scheduler noise in on wide
    # machines, and jobs=1 measures nothing.
    jobs = args.jobs if args.jobs is not None else min(4, default_jobs())
    baseline = (
        json.loads(args.baseline.read_text()) if args.baseline else None
    )

    import tempfile

    def want(name: str) -> bool:
        return args.only is None or name in args.only

    report = {}
    if args.only and args.out.exists():
        # partial re-measure: keep the other sections from the record
        report = json.loads(args.out.read_text())
    report.update({
        "generated_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": default_jobs(),
        "scale": args.scale,
    })
    if want("kernel"):
        print("benchmarking event kernel ...", file=sys.stderr)
        report["kernel"] = {
            "timeout_events_per_second": bench_timeouts(),
            "process_switches_per_second": bench_process_switches(),
            "sleep_events_per_second": bench_sleeps(),
            "claim_cycles_per_second": bench_claim_cycles(),
        }
    if want("cell"):
        print("benchmarking end-to-end cell ...", file=sys.stderr)
        report["cell"] = bench_cell(args.scale)
    if want("grid"):
        print("benchmarking batch grid (serial/parallel/warm cache) ...",
              file=sys.stderr)
        with tempfile.TemporaryDirectory() as tmp:
            report["grid"] = bench_grid(args.scale, jobs, Path(tmp))
    if want("trace"):
        print("benchmarking trace compilation (cold vs warm) ...",
              file=sys.stderr)
        report["trace"] = bench_traces(args.scale)
    if want("openloop"):
        print("benchmarking open-loop pair (zipf) ...", file=sys.stderr)
        report["openloop"] = bench_openloop(args.scale)
    if want("pair"):
        print("benchmarking standard+NWCache pairs (generator vs warm "
              "trace) ...", file=sys.stderr)
        report["pair"] = bench_pairs(args.scale, baseline, args.baseline_tree)
        if args.baseline_tree is not None:
            report["baseline_source"] = (
                "generator path re-measured from an older checkout, "
                "interleaved with this tree's runs"
            )
        elif baseline is not None:
            report["baseline_generated_unix"] = baseline.get("generated_unix")

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if "kernel" in report:
        k = report["kernel"]
        print(f"timeout throughput : {k['timeout_events_per_second']:,.0f} ev/s")
        print(f"process switches   : {k['process_switches_per_second']:,.0f} /s")
        print(f"bare-delay sleeps  : {k['sleep_events_per_second']:,.0f} ev/s")
        print(f"claim cycles       : {k['claim_cycles_per_second']:,.0f} /s")
    if "cell" in report:
        print(f"cell simulation    : "
              f"{report['cell']['events_per_second']:,.0f} ev/s "
              f"({report['cell']['wall_seconds']:.2f}s)")
    if "grid" in report:
        g = report["grid"]
        print(f"grid serial        : {g['serial_seconds']:.2f}s")
        if "parallel_seconds" in g:
            print(f"grid parallel x{g['jobs']:<3d}: {g['parallel_seconds']:.2f}s "
                  f"({g['parallel_speedup']:.2f}x)")
        else:
            print("grid parallel      : skipped (single CPU)")
        print(f"grid warm cache    : {g['warm_cache_seconds']:.3f}s "
              f"({g['warm_cache_fraction_of_serial']:.1%} of serial)")
    if "openloop" in report:
        o = report["openloop"]
        print(f"open-loop pair     : {o['requests_per_second']:,.0f} req/s "
              f"({o['wall_seconds']:.2f}s, "
              f"nwc/std exec x{o['nwcache_exec_ratio']:.2f})")
    if "pair" in report:
        p = report["pair"]
        print(f"pair warm/generator: "
              f"x{p['geomean_speedup_warm_vs_generator']:.2f} geomean")
        if "geomean_speedup_vs_baseline_generator" in p:
            print("pair vs baseline   : "
                  f"x{p['geomean_speedup_vs_baseline_generator']:.2f} geomean")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
