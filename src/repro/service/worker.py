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
* **heartbeat** — while a cell runs, its lease is renewed at a third of
  its duration; a worker that dies or wedges stops renewing and its
  cell re-queues when the lease expires;
* **checkpoint** — with ``checkpoint_every`` set, long cells record
  verifiable snapshots (:mod:`repro.service.checkpoint`) so a killed
  worker's successor resumes with a bit-identity proof; a checkpoint it
  cannot verify or use (divergent, or recorded under another format or
  cadence) is cleared and the cell re-run from scratch;
* **drain** — SIGTERM/SIGINT request a graceful drain: the running
  cells finish, their outcomes are journaled, and the loop exits
  cleanly (exit 0) instead of abandoning a lease.

A failed cell is confined: its failure is journaled with a kind (and
the queue's backoff and retry budget) and the worker moves on.  With
``jobs == 1`` cells run in-process under a heartbeat thread and fail
only by raising (``"error"``).  With ``jobs > 1`` each runs in a forked
child with a result pipe; the single-threaded parent renews their
leases itself (never forking beside a thread or a held journal lock),
terminates a child past ``timeout`` (``"timeout"``), and reads pipe EOF
without a report as a ``"crash"`` with the child's exit code.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.batch import (
    CacheArg,
    ExperimentSpec,
    FailedSpec,
    resolve_cache,
    validate_timeout,
)
from repro.core.machine import RunResult
from repro.service.checkpoint import (
    CheckpointDivergence,
    CheckpointMismatch,
    clear_checkpoint,
    run_with_checkpoints,
)
from repro.service.lease import SweepQueue, default_worker_id

#: ``progress(event, spec, key, outcome)``; ``outcome`` is the RunResult
#: of a ``"cached"``/``"done"`` cell, the FailedSpec of a terminal
#: ``"fail"``, and None otherwise (a claim, or a failure that retries)
ProgressFn = Callable[[str, ExperimentSpec, str, Any], None]

#: a leased cell: ``(key, spec, attempt)``
Claim = Tuple[str, ExperimentSpec, int]


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
        self.interval = _renew_interval(queue)
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent
        while not self._halt.wait(self.interval):
            try:
                self.queue.renew(self.key, self.worker_id)
            except Exception:
                # a failed heartbeat must never kill the simulation; the
                # worst case is the lease expiring and the cell being
                # claimed twice, which the cache dedupes
                pass

    def stop(self) -> None:
        """Stop renewing; joining means no ``renew`` follows the outcome."""
        self._halt.set()
        self.join()


def _renew_interval(queue: SweepQueue) -> float:
    return max(queue.lease_duration / 3.0, 0.05)


def _execute_cell(
    spec: ExperimentSpec, checkpoint_every: Optional[float], ckpt: Path
) -> RunResult:
    if not checkpoint_every:
        return spec.run()
    try:
        return run_with_checkpoints(spec, checkpoint_every, ckpt)
    except (CheckpointDivergence, CheckpointMismatch):
        # the recorded trajectory is unreproducible (code change
        # mid-sweep, damaged file) or was recorded under another
        # checkpoint format or cadence: fall back to a clean re-run
        # rather than failing the cell
        clear_checkpoint(ckpt)
        return run_with_checkpoints(spec, checkpoint_every, ckpt, resume=False)


def _child_entry(spec, checkpoint_every, ckpt, conn) -> None:
    """Forked cell: send ``("ok", RunResult)`` or ``("error", message)``;
    a child that dies before sending anything shows up as pipe EOF."""
    try:
        conn.send(("ok", _execute_cell(spec, checkpoint_every, ckpt)))
    except BaseException as exc:  # noqa: BLE001 - report, don't judge
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


@dataclass
class _Child:
    """A forked cell: its claim, process, result pipe and deadline."""

    claim: Claim
    proc: Any
    conn: Any
    deadline: Optional[float]

    def kill(self) -> None:
        self.proc.terminate()
        self.proc.join()
        self.conn.close()


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
        Optional :data:`ProgressFn`; events are
        ``"claim" | "cached" | "done" | "fail"``.
    jobs:
        Cells run at once: ``1`` in-process, more in forked children.
    timeout:
        Per-cell deadline in seconds for forked cells (None: none).
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
        jobs: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        self.queue = queue if isinstance(queue, SweepQueue) else SweepQueue(queue)
        self.cache = resolve_cache(cache)
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = float(poll_interval)
        self.checkpoint_every = checkpoint_every
        self.max_cells = max_cells
        self.progress = progress
        self.jobs = jobs
        self.timeout = None if timeout is None else validate_timeout(timeout)
        self.draining = False

    # ------------------------------------------------------------- signals
    def request_drain(self, signum=None, frame=None) -> None:
        """Finish the running cells, then exit the loop cleanly."""
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
        running: Dict[Any, _Child] = {}
        interval = _renew_interval(self.queue)
        next_renew = time.monotonic() + interval
        try:
            while True:
                while len(running) < self.jobs:
                    claim = self._claim(stats)
                    if claim is None:
                        break
                    if self.jobs == 1:
                        self._run_here(stats, claim)
                    else:
                        child = self._fork(claim)
                        running[child.conn] = child
                if not running:
                    if self._stopping(stats) or self.queue.state().settled:
                        break
                    # backed-off or leased-elsewhere cells exist: wait for
                    # them to become claimable (or for the sweep to settle)
                    time.sleep(self.poll_interval)
                    continue
                # sleep until a child reports, a deadline passes, a
                # renewal is due, or (with a slot free) the next poll
                now = time.monotonic()
                wake = [next_renew]
                wake += [c.deadline for c in running.values() if c.deadline]
                if len(running) < self.jobs and not self._stopping(stats):
                    wake.append(now + self.poll_interval)
                from multiprocessing.connection import wait  # see _fork

                for conn in wait(list(running), max(0.0, min(wake) - now)):
                    self._reap(stats, running.pop(conn))
                now = time.monotonic()
                for conn, child in list(running.items()):
                    if child.deadline and child.deadline <= now:
                        del running[conn]
                        child.kill()
                        self._fail(stats, child.claim, "timeout",
                                   f"exceeded {self.timeout:g}s deadline")
                if now >= next_renew:
                    for child in running.values():
                        self.queue.renew(child.claim[0], self.worker_id)
                    next_renew = now + interval
                self.queue.maybe_compact()
        finally:
            # on an unexpected error, never leak child processes (their
            # leases expire and the cells retry)
            for child in running.values():
                child.kill()
        stats.drained = self.draining
        return stats

    def _stopping(self, stats: WorkerStats) -> bool:
        return self.draining or (
            self.max_cells is not None and len(stats.keys) >= self.max_cells
        )

    def _claim(self, stats: WorkerStats) -> Optional[Claim]:
        """Lease the next cell that needs simulating (None: nothing
        claimable now); cells the result cache holds complete here."""
        while not self._stopping(stats):
            claim = self.queue.claim(self.worker_id)
            if claim is None:
                return None
            key, spec, attempt = claim
            stats.keys.append(key)
            self._emit("claim", claim, None)
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is None:
                return claim
            self.queue.complete(key, self.worker_id, attempt, executed=False)
            stats.cached += 1
            self._emit("cached", claim, hit)
            # Heartbeats and retries grow the journal forever; fold it
            # down once it passes the queue's threshold so replay cost
            # stays bounded over long sweeps.
            self.queue.maybe_compact()
        return None

    # ---------------------------------------------------------------- cell
    def _run_here(self, stats: WorkerStats, claim: Claim) -> None:
        key, spec, _attempt = claim
        error = None
        beat = _Heartbeat(self.queue, key, self.worker_id)
        beat.start()
        try:
            res = self._execute(key, spec)
        except Exception as exc:  # noqa: BLE001 - confine to the cell
            error = f"{type(exc).__name__}: {exc}"
        finally:
            beat.stop()
        if error is None:
            self._finish(stats, claim, res)
        else:
            self._fail(stats, claim, "error", error)
        self.queue.maybe_compact()

    def _fork(self, claim: Claim) -> _Child:
        # imported on use, so in-process cells never load multiprocessing
        import multiprocessing

        key, spec, _attempt = claim
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else "spawn")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_entry, daemon=True, args=(
            spec, self.checkpoint_every, self.queue.checkpoint_path(key), send
        ))
        proc.start()
        send.close()  # the parent keeps only the read end
        timeout = self.timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        return _Child(claim, proc, recv, deadline)

    def _reap(self, stats: WorkerStats, child: _Child) -> None:
        """Collect a child that reported or died (its pipe is ready)."""
        try:
            msg = child.conn.recv()
        except (EOFError, OSError):
            msg = None
        child.conn.close()
        child.proc.join()
        if msg is None:
            self._fail(stats, child.claim, "crash",
                       f"worker died without reporting "
                       f"(exitcode {child.proc.exitcode})")
        elif msg[0] == "ok":
            self._finish(stats, child.claim, msg[1])
        else:
            self._fail(stats, child.claim, "error", msg[1])

    def _finish(self, stats: WorkerStats, claim: Claim, res: RunResult) -> None:
        key, _spec, attempt = claim
        if self.cache is not None and isinstance(res, RunResult):
            self.cache.put(key, res)
        clear_checkpoint(self.queue.checkpoint_path(key))
        self.queue.complete(key, self.worker_id, attempt, executed=True)
        stats.executed += 1
        self._emit("done", claim, res)

    def _fail(
        self, stats: WorkerStats, claim: Claim, kind: str, error: str
    ) -> None:
        key, spec, attempt = claim
        terminal = self.queue.fail(
            key, self.worker_id, attempt, error, kind=kind
        )
        stats.failed += 1
        outcome = FailedSpec(spec, kind, error, attempt) if terminal else None
        self._emit("fail", claim, outcome)

    def _execute(self, key: str, spec: ExperimentSpec) -> RunResult:
        return _execute_cell(
            spec, self.checkpoint_every, self.queue.checkpoint_path(key)
        )

    def _emit(self, event: str, claim: Claim, outcome: Any) -> None:
        if self.progress is not None:
            key, spec, _attempt = claim
            self.progress(event, spec, key, outcome)
