#!/usr/bin/env python
"""End-to-end sweep-resilience smoke test (used by CI).

The kill-and-resume oracle for the durable sweep service, outside
pytest, the way an operator would hit it:

1. run a reference sweep uninterrupted and record every result;
2. run the same sweep in a second directory, but SIGKILL the first
   worker from inside a cell (mid-simulation, checkpoints on disk);
3. let a survivor worker resume over the dead worker's journal and
   checkpoint, wait out the orphaned lease, and settle the sweep;
4. assert the resumed results are **bit-identical** to the reference
   and that the journal's accounting shows **no cell executed more
   than once** (the killed attempt never journaled a completion);
5. repeat 2-4 with a survivor whose ``checkpoint_every`` differs from
   the killed worker's: it cannot resume the foreign checkpoint, so it
   must clear it and re-run the cell, again with no failed attempt.

Pass ``--artifact-dir DIR`` to keep the survivor's journal and the
resumed checkpoint journal for upload/inspection.  Exits non-zero on
the first violated expectation.
"""

import argparse
import multiprocessing
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.batch import ExperimentSpec
from repro.core.cache import ResultCache
from repro.core.export import result_to_full_dict
from repro.service import SweepQueue, Worker
from repro.service.checkpoint import run_with_checkpoints
from repro.service.journal import Journal
from repro.service.lease import DONE, LEASED

SCALE = 0.05
EVERY = 1e5  # checkpoint cadence in simulated pcycles
KILL_AT_SNAPSHOT = 2


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {what}")


def specs():
    return [
        ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE)
        for app in ("sor", "fft")
    ]


def fingerprint(res) -> dict:
    d = result_to_full_dict(res)
    # epoch_* extras describe the execution strategy, not the machine;
    # they sit outside the bit-identity contract
    d["extras"] = {
        k: v for k, v in d["extras"].items() if not k.startswith("epoch_")
    }
    return d


def doomed_worker(root: str) -> None:
    """Claim the first cell and die by SIGKILL mid-simulation."""
    import os
    import signal

    queue = SweepQueue(root, lease_duration=1.0)
    key, spec, attempt = queue.claim("doomed")

    def boom(k, fp):
        if k >= KILL_AT_SNAPSHOT:
            os.kill(os.getpid(), signal.SIGKILL)  # no cleanup, no goodbye

    run_with_checkpoints(
        spec, EVERY, queue.checkpoint_path(key), on_snapshot=boom
    )
    raise AssertionError("unreachable: the worker must have died mid-cell")


def killed_sweep(
    sweep_root: Path,
    cache_root: Path,
    keys,
    reference: dict,
    survivor_every: float,
    artifact_dir,
) -> None:
    """SIGKILL a worker mid-cell, then settle the sweep with a survivor
    checkpointing every ``survivor_every`` pcycles."""
    print(
        "killed sweep (SIGKILL mid-cell, then a survivor with "
        f"checkpoint_every={survivor_every:g}):"
    )
    queue = SweepQueue(sweep_root, lease_duration=1.0)
    cache = ResultCache(cache_root)
    check(queue.submit(specs()) == keys, "same specs key identically")

    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=doomed_worker, args=(str(sweep_root),))
    child.start()
    child.join(timeout=120)
    check(child.exitcode == -9, "first worker died by SIGKILL")

    state = queue.state()
    check(
        all(c.status != DONE for c in state.cells.values()),
        "the dead worker finished nothing",
    )
    orphaned = [k for k, c in state.cells.items() if c.status == LEASED]
    check(len(orphaned) == 1, "exactly one orphaned lease left behind")
    ckpt = queue.checkpoint_path(orphaned[0])
    snaps = [r for r in Journal(ckpt).replay() if r["type"] == "snap"]
    check(
        len(snaps) >= KILL_AT_SNAPSHOT,
        "checkpoints survived the kill",
    )
    if artifact_dir is not None:
        # keep the checkpoint now — the survivor clears it on completion
        artifact_dir.mkdir(parents=True, exist_ok=True)
        shutil.copy(ckpt, artifact_dir / "resumed-cell.ckpt")

    survivor = Worker(
        queue,
        cache=cache,
        worker_id="survivor",
        poll_interval=0.1,
        checkpoint_every=survivor_every,
    )
    survivor.run()
    state = queue.state()
    check(state.settled, "survivor settled the sweep")
    check(
        all(c.status == DONE for c in state.cells.values()),
        "every cell completed",
    )
    check(
        all(c.executed_runs == 1 for c in state.cells.values()),
        "journal accounting: no cell executed more than once",
    )
    check(
        state.cells[orphaned[0]].attempts == 2,
        "the killed cell needed (exactly) a second attempt",
    )
    check(
        not any(c.fail_marks for c in state.cells.values()),
        "no attempt failed",
    )
    check(not ckpt.exists(), "the cell's checkpoint was cleared")
    resumed = {k: fingerprint(cache.get(k)) for k in keys}
    check(
        resumed == reference,
        "resumed results bit-identical to the uninterrupted reference",
    )

    if artifact_dir is not None:
        shutil.copy(queue.journal.path, artifact_dir / "journal.nwj")
        print(f"  artifacts kept in {artifact_dir}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        help="keep the survivor journal + checkpoint journal here",
    )
    args = parser.parse_args()

    if "fork" not in multiprocessing.get_all_start_methods():
        print("skip: no fork start method on this platform")
        return

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        print("reference sweep (uninterrupted):")
        ref_queue = SweepQueue(root / "ref")
        ref_cache = ResultCache(root / "ref-cache")
        keys = ref_queue.submit(specs())
        stats = Worker(ref_queue, cache=ref_cache, worker_id="ref").run()
        check(stats.executed == len(keys), "every cell simulated once")
        reference = {k: fingerprint(ref_cache.get(k)) for k in keys}

        killed_sweep(root / "killed", root / "killed-cache", keys,
                      reference, EVERY, args.artifact_dir)
        killed_sweep(root / "recadenced", root / "recadenced-cache", keys,
                     reference, 2 * EVERY, None)

    print("resilience smoke: all checks passed")


if __name__ == "__main__":
    main()
