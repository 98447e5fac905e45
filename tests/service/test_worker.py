"""The leased worker loop: execution, dedupe, confinement, races.

Worker behavior is pinned with deterministic queue interactions — the
lease-expiry race is sequenced explicitly with ``now`` values rather
than real concurrency, so the arbitration outcome is reproducible.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.core.batch as batch_mod
from repro.cli import main
from repro.core.batch import ExperimentSpec
from repro.core.cache import ResultCache
from repro.core.export import result_to_full_dict
from repro.core.runner import run_experiment
from repro.service import SweepQueue, Worker
from repro.service.lease import DONE, FAILED

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker patching relies on the fork start method",
)

SCALE = 0.05


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


def _queue(tmp_path, **kw):
    return SweepQueue(tmp_path / "sweep", lease_duration=30.0, **kw)


def _full(res):
    d = result_to_full_dict(res)
    d["extras"] = {
        k: v for k, v in d["extras"].items() if not k.startswith("epoch_")
    }
    return d


def test_worker_drains_a_sweep(tmp_path):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    keys = q.submit([_spec(), _spec(app="fft")])
    events = []
    w = Worker(q, cache=cache, worker_id="w1",
               progress=lambda ev, spec, key, outcome: events.append(
                   (ev, spec.app)))
    stats = w.run()
    assert stats.executed == 2 and stats.cached == 0 and stats.failed == 0
    assert not stats.drained
    state = q.state()
    assert state.settled
    assert all(state.cells[k].status == DONE for k in keys)
    assert all(state.cells[k].executed_runs == 1 for k in keys)
    assert sorted(q.results(cache)) == sorted(keys)
    assert ("claim", "sor") in events and ("done", "fft") in events


def test_cache_is_the_dedupe_layer(tmp_path):
    """A second sweep over the same cells completes without simulating:
    this is what makes crash re-execution idempotent."""
    cache = ResultCache(tmp_path / "cache")
    specs = [_spec(), _spec(app="fft")]
    q1 = _queue(tmp_path / "a")
    q1.submit(specs)
    assert Worker(q1, cache=cache, worker_id="w1").run().executed == 2
    q2 = _queue(tmp_path / "b")
    q2.submit(specs)
    stats = Worker(q2, cache=cache, worker_id="w2").run()
    assert stats.executed == 0 and stats.cached == 2
    state = q2.state()
    assert state.settled
    assert all(c.executed_runs == 0 for c in state.cells.values())


def test_failing_cell_is_confined_and_terminal(tmp_path):
    q = _queue(tmp_path, retry_budget=2, backoff_base=0.01)
    cache = ResultCache(tmp_path / "cache")
    q.submit([_spec(app="fft")])
    # keys fine (JSON-clean) but blows up when the app is instantiated
    q.submit([_spec(app_params={"definitely_not_a_param": 1})])
    w = Worker(q, cache=cache, worker_id="w1", poll_interval=0.01)
    stats = w.run()
    assert stats.executed == 1  # the good cell still ran
    assert stats.failed == 2    # both attempts at the bad cell
    state = q.state()
    assert state.settled
    counts = state.counts()
    assert counts[DONE] == 1 and counts[FAILED] == 1
    (failed,) = q.failed_specs()
    assert failed.attempts == 2 and failed.retries == 1
    assert "definitely_not_a_param" in failed.error


def test_lease_expiry_race_one_result_wins(tmp_path):
    """Two workers end up claiming the same cell (the first's lease
    expired); both finish.  Exactly one result lives in the cache, the
    cell is done, and — because cells are deterministic — the accounting
    shows both completions converging on identical bytes."""
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    spec = _spec()
    (key,) = q.submit([spec])
    ref = _full(spec.run())

    # worker A claims, then stalls (no heartbeat) past its lease
    ka, spec_a, attempt_a = q.claim("worker-a", now=0.0)
    # worker B claims after expiry: same cell, next attempt
    kb, spec_b, attempt_b = q.claim("worker-b", now=100.0)
    assert ka == kb == key and (attempt_a, attempt_b) == (1, 2)

    # B finishes first and publishes
    res_b = spec_b.run()
    cache.put(key, res_b)
    q.complete(key, "worker-b", attempt_b, executed=True)
    # A wakes up and finishes too; its publish is a no-op rewrite of
    # identical bytes (content-addressed + deterministic)
    res_a = spec_a.run()
    assert _full(res_a) == _full(res_b) == ref
    cache.put(key, res_a)
    q.complete(key, "worker-a", attempt_a, executed=True)

    state = q.state()
    assert state.cells[key].status == DONE
    assert state.settled
    # truthful accounting: the race cost one duplicate execution
    assert state.cells[key].executed_runs == 2
    # but exactly one result exists, and it is the reference
    assert len(cache) == 1
    assert _full(cache.get(key)) == ref


def test_worker_respects_max_cells(tmp_path):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    q.submit([_spec(), _spec(app="fft"), _spec(app="lu")])
    stats = Worker(q, cache=cache, worker_id="w1", max_cells=1).run()
    assert len(stats.keys) == 1
    assert not q.state().settled


def test_drain_request_stops_after_current_cell(tmp_path):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    q.submit([_spec(), _spec(app="fft")])
    w = Worker(q, cache=cache, worker_id="w1")
    # drain requested mid-loop (as the SIGTERM handler would): the
    # in-flight cell finishes, the next is never claimed
    w.progress = (
        lambda ev, spec, key, outcome:
        w.request_drain() if ev == "claim" else None
    )
    stats = w.run()
    assert stats.drained
    assert len(stats.keys) == 1
    state = q.state()
    assert state.counts()[DONE] == 1  # the claimed cell was not abandoned


def test_worker_checkpoints_long_cells(tmp_path, monkeypatch):
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    (key,) = q.submit([_spec()])
    ckpt = q.checkpoint_path(key)

    import repro.service.worker as worker_mod

    snaps = []

    def spying_execute(self, k, spec):
        from repro.service.checkpoint import run_with_checkpoints

        return run_with_checkpoints(
            spec, self.checkpoint_every, self.queue.checkpoint_path(k),
            on_snapshot=lambda i, fp: snaps.append(i),
        )

    monkeypatch.setattr(worker_mod.Worker, "_execute", spying_execute)
    stats = Worker(q, cache=cache, worker_id="w1", checkpoint_every=1e5).run()
    assert stats.executed == 1
    assert snaps, "the cell ran under the checkpoint protocol"
    assert not ckpt.exists(), "checkpoint is cleared once the cell is done"
    assert _full(cache.get(key))["app"] == "sor"


def _stale_version(spec, path):
    """A checkpoint file from an older fingerprint format."""
    from repro.service.checkpoint import CHECKPOINT_VERSION
    from repro.service.journal import Journal

    Journal(path).append({
        "type": "begin", "version": CHECKPOINT_VERSION - 1,
        "key": spec.key(), "app": spec.app, "system": spec.system,
        "every": repr(1e5),
    })


def _other_cadence(spec, path):
    """A checkpoint file left by an interrupted worker with another
    ``--checkpoint-every``."""
    from repro.service.checkpoint import run_with_checkpoints

    class Interrupt(Exception):
        pass

    def bomb(k, fp):
        if k == 2:
            raise Interrupt()

    with pytest.raises(Interrupt):
        run_with_checkpoints(spec, 2e5, path, on_snapshot=bomb)


@pytest.mark.parametrize("stale", [_stale_version, _other_cadence],
                         ids=["version", "cadence"])
def test_mismatched_checkpoint_is_cleared_and_rerun(tmp_path, stale):
    """A checkpoint the worker cannot resume from (another format or
    cadence) must not fail the cell: it is cleared and the cell re-runs
    from scratch in the same attempt."""
    q = _queue(tmp_path)
    cache = ResultCache(tmp_path / "cache")
    spec = _spec()
    (key,) = q.submit([spec])
    ckpt = q.checkpoint_path(key)
    stale(spec, ckpt)
    assert ckpt.exists()

    stats = Worker(q, cache=cache, worker_id="w1", poll_interval=0.01,
                   checkpoint_every=1e5).run()
    assert stats.executed == 1 and stats.failed == 0
    cell = q.state().cells[key]
    assert cell.status == DONE
    assert cell.attempts == 1 and cell.executed_runs == 1
    assert not cell.fail_marks
    assert not ckpt.exists()
    assert _full(cache.get(key)) == _full(spec.run())


def _slow(monkeypatch, seconds, apps=("lu",)):
    """Make cells of ``apps`` sleep before running (forked children
    inherit the patch)."""
    def patched(app, *args, **kwargs):
        if app in apps:
            time.sleep(seconds)
        return run_experiment(app, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "run_experiment", patched)


def test_heartbeat_never_outlives_its_cell(tmp_path, monkeypatch):
    """A renewal under way when the cell ends is waited out: no heartbeat
    thread survives run(), and no renew record follows the outcome."""
    q = SweepQueue(tmp_path / "sweep", lease_duration=0.15)
    (key,) = q.submit([_spec()])
    real_renew = SweepQueue.renew

    def slow_renew(self, *args, **kwargs):
        time.sleep(0.2)
        real_renew(self, *args, **kwargs)

    monkeypatch.setattr(SweepQueue, "renew", slow_renew)
    _slow(monkeypatch, 0.1, apps=("sor",))
    Worker(q, cache=False, worker_id="w1").run()
    assert not [t for t in threading.enumerate()
                if t.name.startswith("heartbeat-")]
    types = [r["type"] for r in q.journal.replay() if r.get("key") == key]
    assert "renew" in types and types[-1] == "done"


@needs_fork
def test_forked_worker_starts_no_thread(tmp_path, monkeypatch):
    started = []
    real_start = threading.Thread.start

    def spy(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    q = _queue(tmp_path)
    q.submit([_spec(), _spec(app="fft")])
    stats = Worker(q, cache=False, worker_id="w1", jobs=2).run()
    assert stats.executed == 2
    assert started == []


@needs_fork
def test_forked_cells_keep_their_leases(tmp_path, monkeypatch):
    """The parent renews a forked cell that outlives lease_duration while
    the sibling slot keeps claiming (and so expiring stale leases)."""
    q = SweepQueue(tmp_path / "sweep", lease_duration=0.3)
    keys = q.submit([_spec(app="lu"), _spec(), _spec(app="fft"),
                     _spec(app="gauss"), _spec(app="radix")])
    _slow(monkeypatch, 1.2)
    stats = Worker(q, cache=False, worker_id="w1", jobs=2).run()
    assert stats.executed == 5 and stats.failed == 0
    records = q.journal.replay()
    assert not [r for r in records if r["type"] == "requeue"]
    slow = q.state().cells[keys[0]]
    assert slow.status == DONE and slow.attempts == 1
    assert any(r["type"] == "renew" and r["key"] == keys[0] for r in records)


@needs_fork
def test_failure_kinds_survive_compaction_and_status(tmp_path, monkeypatch,
                                                     capsys):
    root = tmp_path / "sweep"
    q = SweepQueue(root, retry_budget=1)
    crash, hang, ok = q.submit([_spec(app="lu"), _spec(app="fft"), _spec()])
    real = run_experiment

    def faulty(app, *args, **kwargs):
        if app == "lu":
            os._exit(13)
        if app == "fft":
            time.sleep(60)
        return real(app, *args, **kwargs)

    monkeypatch.setattr(batch_mod, "run_experiment", faulty)
    stats = Worker(q, cache=False, worker_id="w1", jobs=2, timeout=1.0).run()
    assert stats.executed == 1 and stats.failed == 2
    kinds = {f.spec.app: (f.kind, f.error) for f in q.failed_specs()}
    assert kinds == {
        "lu": ("crash", "worker died without reporting (exitcode 13)"),
        "fft": ("timeout", "exceeded 1s deadline"),
    }
    assert SweepQueue(root, compact_threshold=1).maybe_compact()
    assert [r["type"] for r in q.journal.replay()] == ["snapshot"] * 3
    assert {f.spec.app: (f.kind, f.error) for f in q.failed_specs()} == kinds

    assert main(["service", "status", str(root), "--json"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert cells[crash]["last_kind"] == "crash"
    assert cells[hang]["last_kind"] == "timeout"
    assert cells[ok]["status"] == DONE


def test_service_cli_submit_work_status(tmp_path, monkeypatch, capsys):
    import signal

    monkeypatch.setenv("NWCACHE_CACHE_DIR", str(tmp_path / "cache"))
    root = str(tmp_path / "sweep")
    assert main(["service", "submit", root, "--apps", "sor",
                 "--prefetch", "naive", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "2 cell(s) submitted (2 pending, 0 done)" in out

    handlers = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    try:  # `work` turns SIGTERM/SIGINT into drains; put pytest's back
        assert main(["service", "work", root]) == 0
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    captured = capsys.readouterr()
    assert "2 executed, 0 cached, 0 failed attempt(s)" in captured.out
    assert captured.err.count("done") == 2

    assert main(["service", "status", root]) == 0
    out = capsys.readouterr().out
    assert "2 done, 0 failed, 0 leased, 0 pending — settled" in out
    assert main(["service", "status", root, "--json"]) == 0
    state = json.loads(capsys.readouterr().out)
    assert state["settled"] and state["counts"]["done"] == 2
    assert {c["system"] for c in state["cells"].values()} == {
        "standard", "nwcache"}
