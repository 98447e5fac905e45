"""One rep of one benchmark workload, in a fresh process.

Started by ``run.py`` with a sanitised environment (no inherited
``NWCACHE_*`` knobs, a fresh ``NWCACHE_CACHE_DIR``, ``PYTHONPATH`` set
to the checkout's ``src``).  The rep:

1. times a fixed pure-Python loop (the first ``calib_s`` sample);
2. sets up: imports the simulator, builds the cells, compiles their
   traces cold (``setup_s``) — no warm-up rep, since users pay these
   first-run costs in every fresh process;
3. runs the timed segments — one cell each, or one sweep pass each in
   ``sweep-service`` (``segment_s``; their sum is ``wall_s``) — and
   times the loop again after set-up and after every segment, so each
   phase is bracketed by two ``calib_s`` samples taken next to it;
4. checks the results and writes one JSON result to ``--result``.

``run.py`` divides each phase by its bracketing loop times: this host's
vCPU speed swings by half from one minute to the next, and the loop
slows with it.

With ``--trace`` steps 2-3 run under ``cProfile`` with spans around the
public entry points of each layer (see ``layers.py``), and without the
bracketing loops, which would count as traced time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (the same work on every host).

    About 20 ms here: short enough to run after every cell of a rep.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def install_spans(recorder, workload: str) -> None:
    """Wrap the public entry points each layer is reached through."""
    import repro.core.trace as trace_mod
    from repro.core.batch import ExperimentSpec
    from repro.core.machine import Machine

    recorder.wrap(ExperimentSpec, "run", "core.ExperimentSpec.run")
    recorder.wrap(Machine, "__init__", "core.Machine.__init__")
    recorder.wrap(Machine, "run", "core.Machine.run")
    recorder.wrap(trace_mod, "get_trace", "core.get_trace")
    if workload == "sweep-service":
        # Imported only here: the other workloads never load the service
        # layer, so its self time stays zero there.
        import repro.service.checkpoint as ckpt
        from repro.core.cache import ResultCache
        from repro.service.journal import Journal

        recorder.wrap(Journal, "append", "service.Journal.append")
        recorder.wrap(Journal, "append_many", "service.Journal.append_many")
        recorder.wrap(ResultCache, "get", "service.ResultCache.get")
        recorder.wrap(ResultCache, "put", "service.ResultCache.put")
        recorder.wrap(ckpt, "state_fingerprint", "service.state_fingerprint")


def run_sweep(specs, workdir: Path, segment):
    """Submit and work the sweep, then resubmit the same specs to a second
    queue that settles every cell from the warm result cache.

    Every submit and every worker is one timed ``segment``.  The first
    pass runs workers of ``SWEEP_SEGMENT_CELLS`` cells each until one
    finds the sweep settled, so that its segments are short enough for
    the bracketing loop times to follow the host; the cached pass is one
    worker, so its two segments come last.  Returns both queues and the
    cache.
    """
    from repro.core.cache import ResultCache
    from repro.service import SweepQueue, Worker

    from workloads import SWEEP_CHECKPOINT_EVERY, SWEEP_SEGMENT_CELLS

    cache = ResultCache.default()
    first = SweepQueue(workdir / "sweep")
    segment(lambda: first.submit(specs))
    settled = False
    while not settled:
        stats = segment(lambda: Worker(
            first, cache=cache, checkpoint_every=SWEEP_CHECKPOINT_EVERY,
            max_cells=SWEEP_SEGMENT_CELLS,
        ).run())
        settled = len(stats.keys) < SWEEP_SEGMENT_CELLS

    second = SweepQueue(workdir / "resubmit")
    segment(lambda: second.submit(specs))
    segment(lambda: Worker(
        second, cache=cache, checkpoint_every=SWEEP_CHECKPOINT_EVERY).run())
    return [first, second], cache


def sweep_outcomes(specs, queues, cache) -> List[Dict[str, Any]]:
    """One outcome per operation of both sweep passes.

    A cell fails if it is not done, or needed a second lease (an attempt
    failed or its lease expired); a cached settle fails if it did not
    complete from the cache alone.
    """
    first, second = queues
    keys = [spec.key() for spec in specs]
    results = first.results(cache)
    cells_1 = first.state().cells
    cells_2 = second.state().cells
    out = []
    for spec, key in zip(specs, keys):
        cell = cells_1.get(key)
        error = None
        if cell is None:
            error = "never submitted"
        elif cell.status != "done" or key not in results:
            error = f"{cell.status}: {cell.last_error}"
        elif cell.attempts > 1:
            error = f"needed {cell.attempts} attempts: {cell.last_error}"
        out.append({"spec": spec, "result": results.get(key), "error": error})
    for spec, key in zip(specs, keys):
        cell = cells_2.get(key)
        error = None
        if cell is None or cell.status != "done":
            error = "cached settle did not complete"
        elif cell.executed_runs != 0:
            error = "warm-cache resubmission re-simulated the cell"
        out.append({"spec": spec, "result": None, "error": error, "cached": True})
    return out


def run_rep(args) -> Dict[str, Any]:
    calib = [calibrate()]
    out: Dict[str, Any] = {"calib_s": calib}
    recorder = profiler = None
    phase = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        import cProfile

        from layers import SpanRecorder

        recorder = SpanRecorder()
        phase = recorder.span
        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    with phase("setup"):
        import repro

        src = (ROOT / "src").resolve()
        if Path(repro.__file__).resolve().parent != src / "repro":
            raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
        if recorder is not None:
            install_spans(recorder, args.workload)
        import workloads  # after install_spans: binds the wrapped get_trace
        from repro.core.batch import FailedSpec, run_batch

        specs = workloads.build_specs(args.workload, args.seed)
        workloads.compile_traces(specs)
    t1 = time.perf_counter()
    out["setup_s"] = t1 - t0

    def recalibrate() -> None:
        if profiler is None:
            calib.append(calibrate())

    segments: List[float] = []

    def segment(work):
        start = time.perf_counter()
        value = work()
        segments.append(time.perf_counter() - start)
        recalibrate()
        return value

    recalibrate()
    with phase("timed"):
        if args.workload == "sweep-service":
            queues, cache = run_sweep(specs, Path(args.workdir), segment)
        else:
            results = [
                r for spec in specs
                for r in segment(lambda: run_batch([spec], jobs=1, cache=False))
            ]
    t2 = time.perf_counter()
    out["segment_s"] = segments
    out["wall_s"] = sum(segments)
    out["cached_settle_s"] = sum(segments[-2:]) if args.workload == "sweep-service" else 0.0
    if profiler is not None:
        # stop before the result checks, which call wrapped entry points too
        profiler.disable()
        out["traced_s"] = t2 - t0
        out["spans"] = list(recorder.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.workload == "sweep-service":
        ops = sweep_outcomes(specs, queues, cache)
    else:
        ops = [
            {
                "spec": s,
                "result": r if not isinstance(r, FailedSpec) else None,
                "error": (
                    f"{r.kind} after {r.attempts} attempt(s): {r.error}"
                    if isinstance(r, FailedSpec) else None
                ),
            }
            for s, r in zip(specs, results)
        ]
    sims = [op for op in ops if not op.get("cached")]
    shape = workloads.shape_failures(
        args.workload,
        [op["spec"] for op in sims],
        [op["result"] for op in sims],
    )
    cells = []
    for op in ops:
        cid = workloads.cell_id(op["spec"])
        error = op["error"]
        if error is None and not op.get("cached"):
            error = shape.get(cid)
        res = op["result"]
        cells.append({
            "id": ("cached:" if op.get("cached") else "") + cid,
            "digest": workloads.digest(workloads.snapshot(res)) if res is not None else None,
            "error": error,
        })
    out["cells"] = cells
    out["counts"] = workloads.layer_counts([op["result"] for op in sims])

    if profiler is not None:
        import pstats

        from layers import layer_self_times, span_totals

        stats = pstats.Stats(profiler).stats
        out["layers"] = layer_self_times(stats, src / "repro")
        out["span_totals"] = span_totals(out["spans"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    out = run_rep(args)
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
