"""End-to-end host-time benchmark of the NWCache simulator.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload paper-grid --seed 1999 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1999 --out base.json            # every workload
    python3 benchmarks/e2e/run.py --seed 1999 --trace 1 --out layers.json

Each rep runs in a fresh child process (``child.py``), one at a time;
reps of several workloads rotate round-robin, so a slow phase of a
shared host spreads over all of them.  A workload gets reps while that
brings the time its reps took nearer to ``--seconds`` (at least one rep).

``wall_s`` and ``setup_s`` are host-normalised: the child times a fixed
loop before and after every phase it times, and each phase is scaled by
``REFERENCE_CALIB_S`` over the mean of its two bracketing loop times.
The raw seconds are kept in the ``--out`` record as ``host.wall_s`` and
``host.setup_s``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced, the metrics are the
``end_to_end`` metrics of ``BENCHMARK.json`` (medians over the reps);
with ``--trace 1`` they are its ``per_layer`` metrics, from one untraced
rep (exact counts, the overhead baseline) plus traced reps under
``cProfile``.  ``--out`` also writes every sample, the quartiles and the
per-workload ``sim_digest`` for ``compare.py``; a traced run writes its
spans as Chrome trace-event JSON under ``.bench_build/e2e/traces/``.

Exits non-zero without a result line when the simulator sources are
missing or no rep of some workload produced a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from layers import LAYERS, chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"

#: a rep that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 160.0

#: ``child.calibrate()``'s time in the quietest stretches measured on the
#: reference host (a shared 2-vCPU Xeon VM, Python 3.11): normalised
#: times read as seconds on that host when nothing else slows it down
REFERENCE_CALIB_S = 0.016


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, q1, q3 (``statistics.quantiles``' default method) and n."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile_note(n: int) -> str:
    """Which percentiles the sample count supports (ten samples beyond)."""
    if n >= 20:
        return f"n={n}: the median has at least ten samples beyond it"
    return (
        f"n={n}: no percentile, not even the median, has ten samples "
        "beyond it; the quartiles show spread, not tail latency"
    )


def child_env(cache_dir: Path) -> Dict[str, str]:
    """The parent's environment minus every ``NWCACHE_*`` knob.

    Users get the simulator's defaults, so defaults are what is timed,
    and a later change that deletes a knob cannot break the benchmark.
    BLAS pools are pinned to one thread: one simulation thread per child.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("NWCACHE_")}
    env.update(
        NWCACHE_CACHE_DIR=str(cache_dir),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(workload: str, seed: int, trace: bool) -> Optional[Dict[str, Any]]:
    """One rep in a fresh process; None if it failed to produce a result."""
    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD))
    result = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--result", str(result),
    ] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(
            cmd, env=child_env(workdir / "cache"), cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result.exists():
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            print(f"[e2e] {workload}: rep failed (exit {proc.returncode}): {tail}",
                  file=sys.stderr)
            return None
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        print(f"[e2e] {workload}: rep exceeded {CHILD_TIMEOUT_S:g}s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Outcome:
    """Every rep of one workload and the operations they attempted."""

    def __init__(self) -> None:
        self.reps: List[Dict[str, Any]] = []     # untraced
        self.traced: List[Dict[str, Any]] = []
        self.crashed = 0
        #: reps of the kind asked for (traced or not)
        self.tries = 0
        #: reps of any kind, and the seconds they took with process start-up
        self.started = 0
        self.spent = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: cell id -> snapshot digest of the first rep that ran it
        self.reference: Dict[str, str] = {}

    def add(self, rep: Optional[Dict[str, Any]], traced: bool) -> None:
        if rep is None:
            self.crashed += 1
            self.failures.append("rep crashed or timed out")
            return
        for cell in rep["cells"]:
            self.attempted += 1
            error, digest = cell["error"], cell["digest"]
            if error is None and digest is not None:
                want = self.reference.setdefault(cell["id"], digest)
                if digest != want:
                    error = "simulated snapshot differs from rep 1"
            if error is not None:
                self.failed += 1
                self.failures.append(f"{cell['id']}: {error}")
        (self.traced if traced else self.reps).append(rep)

    def totals(self) -> "tuple[int, int]":
        """(attempted, failed), a crashed rep failing every operation."""
        any_rep = (self.reps + self.traced)[:1]
        per_rep = len(any_rep[0]["cells"]) if any_rep else 0
        lost = self.crashed * per_rep
        return self.attempted + lost, self.failed + lost

    def sim_digest(self) -> str:
        blob = json.dumps(sorted(self.reference.items()))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_round_robin(
    workloads: List[str], seed: int, seconds: float, trace: bool
) -> Dict[str, Outcome]:
    """Rotate reps over the workloads until each has used its budget.

    A workload gets another rep while that brings its time nearer to
    ``seconds`` (at least half a rep of its average length is left), and
    at least one rep of the kind asked for.
    Traced, each workload first gets one untraced rep (the exact counts
    and the overhead baseline), then traced reps.
    """
    outcomes = {w: Outcome() for w in workloads}

    def rep(w: str, traced: bool) -> None:
        start = time.perf_counter()
        outcomes[w].add(run_child(w, seed, traced), traced)
        outcomes[w].spent += time.perf_counter() - start
        outcomes[w].started += 1

    if trace:
        for w in workloads:
            rep(w, False)
    while True:
        due = [
            w for w in workloads
            if outcomes[w].tries == 0
            or outcomes[w].spent * (1 + 0.5 / outcomes[w].started) < seconds
        ]
        if not due:
            return outcomes
        for w in due:
            outcomes[w].tries += 1
            rep(w, trace)


def host_normalized(rep: Dict[str, Any]) -> "tuple[float, float]":
    """(setup_s, wall_s) of one untraced rep at the reference host speed.

    ``calib_s`` holds the loop times before set-up, after set-up and after
    every timed segment, so phase ``i`` lies between samples ``i`` and
    ``i + 1``.  Each phase is scaled by ``REFERENCE_CALIB_S`` over the
    mean of those two.
    """
    c = rep["calib_s"]

    def at_reference(seconds: float, i: int) -> float:
        return seconds * REFERENCE_CALIB_S / ((c[i] + c[i + 1]) / 2)

    setup = at_reference(rep["setup_s"], 0)
    wall = sum(at_reference(s, i + 1) for i, s in enumerate(rep["segment_s"]))
    return setup, wall


def e2e_samples(o: Outcome) -> Dict[str, List[float]]:
    normalized = [host_normalized(r) for r in o.reps]
    return {
        "wall_s": [wall for _, wall in normalized],
        "setup_s": [setup for setup, _ in normalized],
        "peak_rss_mb": [r["peak_rss_mb"] for r in o.reps],
        "host.calib_s": [statistics.median(r["calib_s"]) for r in o.reps],
        "host.wall_s": [r["wall_s"] for r in o.reps],
        "host.setup_s": [r["setup_s"] for r in o.reps],
    }


def layer_metrics(base: Dict[str, Any], traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: times from the traced reps (medians), exact
    counts and the untraced wall from the untraced ``base`` rep."""

    def med(f) -> float:
        return statistics.median(f(r) for r in traced)

    def span_s(*names: str) -> float:
        return med(lambda r: sum(r["span_totals"].get(n, [0, 0.0])[1] for n in names))

    def span_n(*names: str) -> float:
        return med(lambda r: sum(r["span_totals"].get(n, [0, 0.0])[0] for n in names))

    c = base["counts"]
    m = {f"{layer}.self_s": med(lambda r, l=layer: r["layers"][l]) for layer in LAYERS}
    m.update({
        "sim.events": c["events"],
        "sim.events_jumped": c["events_jumped"],
        "sim.ns_per_event": base["wall_s"] / c["events"] * 1e9 if c["events"] else 0.0,
        "hw.epoch_attempted": c["epoch_attempted"],
        "hw.epoch_accept_ratio": (
            c["epoch_accepted"] / c["epoch_attempted"] if c["epoch_attempted"] else 0.0
        ),
        "osim.faults": c["faults"],
        "osim.swapouts": c["swapouts"],
        "osim.us_per_fault": m["osim.self_s"] / c["faults"] * 1e6 if c["faults"] else 0.0,
        "optical.ring_hits": c["ring_hits"],
        "optical.ring_hit_rate": (
            c["ring_hits"] / c["nwcache_faults"] if c["nwcache_faults"] else 0.0
        ),
        "disk.reads": c["disk_reads"],
        "disk.cache_hits": c["disk_cache_hits"],
        "core.trace_compile_s": span_s("core.get_trace"),
        "core.machine_build_s": span_s("core.Machine.__init__"),
        "core.cells": c["cells"],
        "service.journal_append_s": span_s(
            "service.Journal.append", "service.Journal.append_many"),
        "service.journal_appends": span_n(
            "service.Journal.append", "service.Journal.append_many"),
        "service.checkpoint_s": span_s("service.state_fingerprint"),
        "service.cache_io_s": span_s(
            "service.ResultCache.get", "service.ResultCache.put"),
        "service.cached_settle_s": med(lambda r: r["cached_settle_s"]),
        "trace.overhead_ratio": med(lambda r: r["wall_s"]) / base["wall_s"],
        "trace.traced_s": med(lambda r: r["traced_s"]),
        "trace.self_sum_s": med(lambda r: sum(r["layers"].values())),
    })
    return m


def summarize(
    outcomes: Dict[str, Outcome], spec: Dict[str, Any], trace: bool, seed: int
) -> Dict[str, Any]:
    """The full record (``--out``) of one benchmark invocation."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({
        "host.calib_s": "s", "host.wall_s": "s", "host.setup_s": "s",
        "trace.traced_s": "s", "trace.self_sum_s": "s",
    })
    record: Dict[str, Any] = {
        "seed": seed,
        "trace": trace,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    for w, o in outcomes.items():
        attempted, failed = o.totals()
        entry: Dict[str, Any] = {
            "attempted": attempted,
            "failed": failed,
            "failures": o.failures[:20],
            "sim_digest": o.sim_digest(),
            "metrics": {},
        }
        if trace:
            values = layer_metrics(o.reps[0], o.traced)
            values["host.calib_s"] = statistics.median(
                c for r in o.reps + o.traced for c in r["calib_s"])
            entry["traced_reps"] = len(o.traced)
            entry["metrics"] = {
                k: {"value": v, "unit": units[k]} for k, v in values.items()
            }
        else:
            entry["note"] = percentile_note(len(o.reps))
            for k, samples in e2e_samples(o).items():
                entry["metrics"][k] = {
                    "unit": units[k], "samples": samples, **quartiles(samples)
                }
        record["workloads"][w] = entry
    return record


def result_line(record: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The result line printed last: the declared metrics only.

    With several workloads each name is prefixed ``<workload>:``.
    """
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    entries = record["workloads"]
    metrics: Dict[str, Any] = {}
    for w, entry in entries.items():
        prefix = "" if len(entries) == 1 else f"{w}:"
        for m in declared:
            got = entry["metrics"][m["name"]]
            value = got["value"] if "value" in got else got["median"]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(record: Dict[str, Any]) -> None:
    """Human-readable summary on standard error."""
    for w, e in record["workloads"].items():
        print(f"[e2e] {w}: {e['attempted'] - e['failed']}/{e['attempted']} "
              f"operations ok, sim_digest {e['sim_digest'][:16]}", file=sys.stderr)
        for f in e["failures"][:5]:
            print(f"[e2e]   FAILED {f}", file=sys.stderr)
        if record["trace"]:
            m = e["metrics"]
            print(f"[e2e]   layer self times sum to "
                  f"{m['trace.self_sum_s']['value'] / m['trace.traced_s']['value']:.1%} "
                  f"of traced wall ({e['traced_reps']} traced rep(s))", file=sys.stderr)
        else:
            for k, v in e["metrics"].items():
                print(f"[e2e]   {k:12s} median {v['median']:.4g} {v['unit']} "
                      f"(q1 {v['q1']:.4g}, q3 {v['q3']:.4g}, n={v['n']})", file=sys.stderr)
            print(f"[e2e]   {e['note']}", file=sys.stderr)


def write_chrome_trace(outcomes: Dict[str, Outcome], seed: int) -> None:
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    for w, o in outcomes.items():
        path = traces / f"{w}-seed{seed}.json"
        sets = [(f"{w} traced rep {i + 1}", r["spans"]) for i, r in enumerate(o.traced)]
        path.write_text(json.dumps(chrome_trace(sets)))
        print(f"[e2e] {w}: spans written to {path.relative_to(ROOT)}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="rep time budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"[e2e] no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    outcomes = run_round_robin(workloads, args.seed, args.seconds, bool(args.trace))
    missing = [w for w, o in outcomes.items()
               if not o.reps or (args.trace and not o.traced)]
    if missing:
        print(f"[e2e] no rep produced a result for {missing}", file=sys.stderr)
        return 1
    record = summarize(outcomes, spec, bool(args.trace), args.seed)
    report(record)
    if args.trace:
        write_chrome_trace(outcomes, args.seed)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
