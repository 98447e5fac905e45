"""Checkpoint/resume for very large cells: snapshot digests + replay.

A simulation cell is a pure, deterministic function of its
:class:`~repro.core.batch.ExperimentSpec` (per-cell seeding lives in the
``RngRegistry`` substream machinery), so the cheapest *provably correct*
checkpoint is not a serialized heap but a **trajectory attestation**: at
every ``checkpoint_every`` simulated pcycles the engine pauses between
events and a :func:`state_fingerprint` — a SHA-256 over the machine's
observable state (event count, clock, metrics tallies, per-CPU accounts,
page-state census, ring occupancy, network bytes) — is appended to a
crash-safe checkpoint journal.

Resume (:func:`run_with_checkpoints` on an existing checkpoint file)
replays the cell from the start with the *same deterministic slicing*
and verifies every recorded fingerprint as its checkpoint passes; a
single divergent bit in any of those quantities raises
:class:`CheckpointDivergence`.  A resumed run is therefore **provably
bit-identical** to the interrupted one through its last checkpoint, and
— because bounded engine runs are trajectory-neutral (``try_jump``
refuses past a ``run(until=...)`` limit and the evented fallback is
bit-identical, the PR-6 contract) — to an uninterrupted run as well.

Slicing is in simulated time, never wall-clock: wall-clock checkpoints
would slice differently on every host and make fingerprints
incomparable.

This is the ``--checkpoint-every`` substrate used by ``repro run`` and
:class:`~repro.service.worker.Worker` for million-pcycle cells where a
wrong resumed result would silently poison a sweep.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.apps import make_app
from repro.core.batch import ExperimentSpec
from repro.core.machine import Machine, RunResult
from repro.core.runner import _audit_default, linear_scale
from repro.service.journal import Journal

#: bump when the fingerprint's contents or encoding change (old files
#: are refused).  v2: flat packed encoding instead of canonical JSON.
CHECKPOINT_VERSION = 2


class CheckpointMismatch(Exception):
    """The checkpoint file on disk belongs to a different cell/cadence."""


class CheckpointDivergence(Exception):
    """A resumed run's state stopped matching its recorded fingerprints.

    This means the replay is *not* reproducing the interrupted run —
    nondeterminism, a code change mid-sweep, or file damage — and the
    result can no longer be attested; the caller should clear the
    checkpoint and re-run the cell from scratch.
    """


#: the :class:`~repro.metrics.Metrics` tallies a fingerprint covers
_TALLIES = (
    "swapout",
    "swapout_wait",
    "fault_latency",
    "disk_hit_latency",
    "ring_hit_latency",
)


def state_fingerprint(machine: Machine) -> str:
    """SHA-256 digest of a machine's observable mid-run state.

    Covers every quantity a finished :class:`RunResult` is built from
    (so two runs with equal fingerprints at every checkpoint cannot
    produce different results) while excluding the quantities that are
    deliberately outside the bit-identity contract: ``events_jumped``,
    which measures *how* the trajectory was executed, not the
    trajectory itself.

    The encoding is flat and fixed-order, with no JSON: every float is
    packed as an exact little-endian IEEE-754 double, and everything
    else — ints, dict keys, which optional times are still ``None`` —
    goes into the ``repr`` of one list that fixes where each float
    belongs.  Counter and phase dicts contribute their sorted items,
    per-CPU times their fixed category order, and the PageState census
    its enum order.
    """
    m = machine.metrics
    engine = machine.engine
    ring = machine.ring
    shape: List[Any] = [
        engine.events_processed,
        sorted(m.counts.as_dict().items()),
    ]
    floats: List[float] = [engine.now]
    tallies = [getattr(m, name) for name in _TALLIES]
    tallies += [ctrl.combining for ctrl in machine.controllers]
    for t in tallies:
        # min/max are None exactly while n == 0, and n is in the shape;
        # the combining tallies' min/max are small ints, exact as doubles
        shape.append(t.n)
        floats += (t._mean, t._m2, t.total)
        floats += (t.min, t.max) if t.n else (0.0, 0.0)
    for name, snap in sorted(m.phases.items()):
        items = sorted(snap.items())
        shape.append((name, [k for k, _ in items]))
        floats += [v for _, v in items]
    for c in machine.cpus:
        shape.append(
            (
                sorted(c.stats.as_dict().items()),
                c.started_at is None,
                c.finished_at is None,
            )
        )
        # a TimeAccount holds exactly the CATEGORIES keys, in that order
        floats += c.acct.times.values()
        floats.append(0.0 if c.started_at is None else c.started_at)
        floats.append(0.0 if c.finished_at is None else c.finished_at)
    shape.append(machine.network.bytes_sent)
    shape.append(tuple(machine.vm.table.census().values()))
    shape.append(ring.total_stored if ring is not None else 0)
    digest = hashlib.sha256(repr(shape).encode("utf-8"))
    digest.update(struct.pack(f"<{len(floats)}d", *floats))
    return digest.hexdigest()


def build_machine(spec: ExperimentSpec) -> "tuple[Machine, Any]":
    """The (machine, workload) pair ``spec.run()`` would execute.

    Mirrors :func:`~repro.core.runner.run_experiment`'s resolution —
    including the ``NWCACHE_AUDIT`` default — on top of the spec's own
    :meth:`~repro.core.batch.ExperimentSpec.resolved_config`.
    """
    cfg = spec.resolved_config()
    if _audit_default() and not cfg.audit:
        cfg = cfg.replace(audit=True)
    workload = make_app(
        spec.app,
        scale=linear_scale(spec.app, spec.data_scale),
        page_size=cfg.page_size,
        **spec.app_params,
    )
    machine = Machine(
        cfg,
        system=spec.system,
        prefetch=spec.prefetch,
        drain_policy=spec.drain_policy,
        compiled_traces=spec.compiled_traces,
    )
    return machine, workload


def clear_checkpoint(path: "Path | str") -> None:
    """Remove a cell's checkpoint file (after completion, or to force a
    from-scratch re-run after a divergence)."""
    p = Path(path)
    try:
        p.unlink()
    except FileNotFoundError:
        pass
    lock = p.with_name(p.name + ".lock")
    try:
        lock.unlink()
    except FileNotFoundError:
        pass


def run_with_checkpoints(
    spec: ExperimentSpec,
    every: float,
    path: "Path | str",
    resume: bool = True,
    on_snapshot: Optional[Callable[[int, str], None]] = None,
) -> RunResult:
    """Run one cell with periodic checkpoints, resuming/verifying if a
    checkpoint file already exists.

    Parameters
    ----------
    spec:
        The cell to run (declarative, as in the batch runner).
    every:
        Checkpoint cadence in simulated **pcycles** (must be a positive
        finite number — simulated time keeps slicing deterministic).
    path:
        The checkpoint journal for this cell.  Callers key it by the
        cell's cache key (see :meth:`SweepQueue.checkpoint_path`).
    resume:
        When False an existing file is ignored and overwritten.
    on_snapshot:
        Optional hook ``(index, fingerprint)`` fired after every
        checkpoint is recorded or verified (tests use it to interrupt
        at exact points).

    Raises
    ------
    CheckpointMismatch:
        The file on disk was recorded for a different cell or cadence.
    CheckpointDivergence:
        Replay stopped matching the recorded fingerprints.
    """
    every = float(every)
    if not math.isfinite(every) or every <= 0:
        raise ValueError(
            f"checkpoint_every must be a positive finite number of "
            f"simulated pcycles, got {every!r}"
        )
    key = spec.key()
    journal = Journal(path)
    recorded: Dict[int, str] = {}
    if resume and journal.exists():
        records = journal.replay()
        if records:
            head = records[0]
            if (
                head.get("type") != "begin"
                or head.get("version") != CHECKPOINT_VERSION
                or head.get("key") != key
                or head.get("every") != repr(every)
            ):
                raise CheckpointMismatch(
                    f"{journal.path} was recorded for a different cell, "
                    f"cadence, or format (expected key {key[:12]}..., "
                    f"every {every:g})"
                )
            for rec in records[1:]:
                if rec.get("type") == "snap":
                    recorded[int(rec["k"])] = rec["fp"]
    if not recorded:
        # fresh start (or ignored/empty file): truncate and re-begin
        clear_checkpoint(journal.path)
        journal.append(
            {
                "type": "begin",
                "version": CHECKPOINT_VERSION,
                "key": key,
                "app": spec.app,
                "system": spec.system,
                "every": repr(every),
            }
        )

    machine, workload = build_machine(spec)
    seen = 0

    def on_checkpoint(m: Machine) -> None:
        nonlocal seen
        seen += 1
        fp = state_fingerprint(m)
        prior = recorded.get(seen)
        if prior is not None:
            if prior != fp:
                raise CheckpointDivergence(
                    f"checkpoint {seen} (t={m.engine.now:g}) diverged from "
                    f"the recorded run: {prior[:12]}... != {fp[:12]}...; "
                    "clear the checkpoint and re-run from scratch"
                )
        else:
            journal.append(
                {
                    "type": "snap",
                    "k": seen,
                    "t": repr(m.engine.now),
                    "events": m.engine.events_processed,
                    "fp": fp,
                }
            )
        if on_snapshot is not None:
            on_snapshot(seen, fp)

    return machine.run(
        workload, checkpoint_every=every, on_checkpoint=on_checkpoint
    )
