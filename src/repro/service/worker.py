"""The leased sweep worker: claim, run, heartbeat, survive, drain.

A worker is just a process pointed at a sweep directory (and the shared
result cache).  Any number can run concurrently, on any hosts that see
the same paths; none of them is special, and the sweep's correctness
never depends on any one of them surviving:

* **claim** — the worker leases the oldest runnable cell
  (:meth:`SweepQueue.claim`), expiring stale leases as it looks;
* **dedupe** — if the content-addressed result cache already holds the
  cell's key (another worker finished it, or a previous life of this
  sweep did), the cell completes without simulating anything — this is
  what makes re-execution after *any* crash idempotent;
* **heartbeat** — while a cell runs, a daemon thread renews the lease at
  a third of its duration; a worker that dies or wedges stops renewing
  and its cell re-queues when the lease expires;
* **checkpoint** — with ``checkpoint_every`` set, long cells record
  verifiable snapshots (:mod:`repro.service.checkpoint`) so a killed
  worker's successor resumes with a bit-identity proof; a checkpoint it
  cannot verify or use (divergent, or recorded under another format or
  cadence) is cleared and the cell re-run from scratch;
* **drain** — SIGTERM/SIGINT request a graceful drain: the current cell
  finishes, its outcome is journaled, and the loop exits cleanly
  (exit 0) instead of abandoning a lease.

A cell that *raises* is confined: the worker records the failure (with
exponential backoff and the queue's retry budget) and moves on.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.batch import CacheArg, ExperimentSpec, resolve_cache
from repro.core.machine import RunResult
from repro.service.lease import SweepQueue, default_worker_id

ProgressFn = Callable[[str, ExperimentSpec, str], None]


@dataclass
class WorkerStats:
    """What one :meth:`Worker.run` call did."""

    executed: int = 0       #: cells actually simulated
    cached: int = 0         #: cells completed by cache dedupe
    failed: int = 0         #: failed attempts recorded (incl. terminal)
    drained: bool = False   #: loop exited on a drain request
    keys: List[str] = field(default_factory=list)


class _Heartbeat(threading.Thread):
    """Renews one lease until stopped (daemon: dies with the worker)."""

    def __init__(self, queue: SweepQueue, key: str, worker_id: str) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{key[:8]}")
        self.queue = queue
        self.key = key
        self.worker_id = worker_id
        self.interval = max(queue.lease_duration / 3.0, 0.05)
        self._stop = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.interval):
            try:
                self.queue.renew(self.key, self.worker_id)
            except Exception:
                # a failed heartbeat must never kill the simulation; the
                # worst case is the lease expiring and the cell being
                # claimed twice, which the cache dedupes
                pass

    def stop(self) -> None:
        self._stop.set()


class Worker:
    """A leased worker loop over one sweep directory.

    Parameters
    ----------
    queue:
        The :class:`SweepQueue` (or a path-like to build one).
    cache:
        Result-cache argument exactly as :func:`run_batch` takes it
        (None = default on-disk cache).  The cache is the dedupe layer;
        running a durable sweep without one (``False``) still converges
        but loses crash idempotence for *completed* cells.
    worker_id:
        Identity used in lease records (default ``host:pid``).
    poll_interval:
        Seconds to sleep when nothing is claimable yet.
    checkpoint_every:
        When set, run cells under
        :func:`~repro.service.checkpoint.run_with_checkpoints` at this
        cadence (simulated pcycles).
    max_cells:
        Stop after completing/failing this many cells (None = run until
        the sweep settles or a drain is requested).
    progress:
        Optional ``progress(event, spec, key)`` callback; events are
        ``"claim" | "cached" | "done" | "fail"``.
    """

    def __init__(
        self,
        queue: "SweepQueue | str",
        cache: CacheArg = None,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
        checkpoint_every: Optional[float] = None,
        max_cells: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
    ) -> None:
        self.queue = queue if isinstance(queue, SweepQueue) else SweepQueue(queue)
        self.cache = resolve_cache(cache)
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = float(poll_interval)
        self.checkpoint_every = checkpoint_every
        self.max_cells = max_cells
        self.progress = progress
        self.draining = False

    # ------------------------------------------------------------- signals
    def request_drain(self, signum=None, frame=None) -> None:
        """Finish the current cell, then exit the loop cleanly."""
        self.draining = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT become graceful drains (main thread only)."""
        signal.signal(signal.SIGTERM, self.request_drain)
        signal.signal(signal.SIGINT, self.request_drain)

    # ---------------------------------------------------------------- loop
    def run(self) -> WorkerStats:
        """Pull and run cells until the sweep settles, ``max_cells`` is
        reached, or a drain is requested.  Returns what happened."""
        stats = WorkerStats()
        while not self.draining:
            if (
                self.max_cells is not None
                and len(stats.keys) >= self.max_cells
            ):
                break
            claim = self.queue.claim(self.worker_id)
            if claim is None:
                state = self.queue.state()
                if state.settled:
                    break
                # backed-off or leased-elsewhere cells exist: wait for
                # them to become claimable (or for the sweep to settle)
                time.sleep(self.poll_interval)
                continue
            key, spec, attempt = claim
            stats.keys.append(key)
            self._emit("claim", spec, key)
            self._run_cell(stats, key, spec, attempt)
            # Heartbeats and retries grow the journal forever; fold it
            # down once it passes the queue's threshold so replay cost
            # stays bounded over long sweeps.
            self.queue.maybe_compact()
        stats.drained = self.draining
        return stats

    # ---------------------------------------------------------------- cell
    def _run_cell(
        self, stats: WorkerStats, key: str, spec: ExperimentSpec, attempt: int
    ) -> None:
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.queue.complete(key, self.worker_id, attempt, executed=False)
                stats.cached += 1
                self._emit("cached", spec, key)
                return
        beat = _Heartbeat(self.queue, key, self.worker_id)
        beat.start()
        try:
            res = self._execute(key, spec)
        except Exception as exc:  # noqa: BLE001 - confine to the cell
            beat.stop()
            self.queue.fail(
                key,
                self.worker_id,
                attempt,
                f"{type(exc).__name__}: {exc}",
            )
            stats.failed += 1
            self._emit("fail", spec, key)
            return
        beat.stop()
        if self.cache is not None and isinstance(res, RunResult):
            self.cache.put(key, res)
        from repro.service.checkpoint import clear_checkpoint

        clear_checkpoint(self.queue.checkpoint_path(key))
        self.queue.complete(key, self.worker_id, attempt, executed=True)
        stats.executed += 1
        self._emit("done", spec, key)

    def _execute(self, key: str, spec: ExperimentSpec) -> RunResult:
        if self.checkpoint_every:
            from repro.service.checkpoint import (
                CheckpointDivergence,
                CheckpointMismatch,
                clear_checkpoint,
                run_with_checkpoints,
            )

            path = self.queue.checkpoint_path(key)
            try:
                return run_with_checkpoints(
                    spec, self.checkpoint_every, path
                )
            except (CheckpointDivergence, CheckpointMismatch):
                # the recorded trajectory is unreproducible (code change
                # mid-sweep, damaged file) or was recorded under another
                # checkpoint format or cadence: fall back to a clean
                # re-run rather than failing the cell
                clear_checkpoint(path)
                return run_with_checkpoints(
                    spec, self.checkpoint_every, path, resume=False
                )
        return spec.run()

    def _emit(self, event: str, spec: ExperimentSpec, key: str) -> None:
        if self.progress is not None:
            self.progress(event, spec, key)
