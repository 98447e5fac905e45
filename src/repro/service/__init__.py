"""The sweep executor: journaled work queue, leases, checkpointed runs.

Every grid runs here — ``run_batch`` (:mod:`repro.core.batch`) is a thin
client over a temporary sweep directory.  All coordination state lives
in an append-only, checksummed journal, so any number of workers — local
processes or remote hosts mounting the same path — can pull cells under
time-bounded leases, die at arbitrary points, and still converge the
sweep to exactly the results an uninterrupted run would have produced
(the content-addressed result cache makes re-execution idempotent).

Layers, bottom up:

* :mod:`repro.service.journal` — the crash-safe record log;
* :mod:`repro.service.lease` — the spec state machine
  (pending → leased → done/failed) and the on-disk :class:`SweepQueue`;
* :mod:`repro.service.checkpoint` — deterministic snapshot/verify
  checkpointing for very large cells;
* :mod:`repro.service.worker` — the leased worker loop: heartbeat
  renewal, per-cell process isolation and deadlines, graceful drain;
* :mod:`repro.service.server` — ``repro serve``: submit/status/results
  over HTTP with streaming progress.

See ``docs/robustness.md`` §3 for the protocol and a kill-and-resume
walkthrough.
"""

from repro.service.journal import Journal, JournalCorruption
from repro.service.lease import (
    SpecState,
    SweepQueue,
    SweepState,
    spec_from_dict,
    spec_to_dict,
)
from repro.service.worker import Worker

__all__ = [
    "Journal",
    "JournalCorruption",
    "SpecState",
    "SweepQueue",
    "SweepState",
    "Worker",
    "spec_from_dict",
    "spec_to_dict",
]
