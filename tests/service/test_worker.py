"""The leased worker loop: execution, dedupe, confinement, races.

Worker behavior is pinned with deterministic queue interactions — the
lease-expiry race is sequenced explicitly with ``now`` values rather
than real concurrency, so the arbitration outcome is reproducible.
"""

import pytest

from repro.core.batch import ExperimentSpec
from repro.core.cache import ResultCache
from repro.core.export import result_to_full_dict
from repro.service import SweepQueue, Worker
from repro.service.lease import DONE, FAILED

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
               progress=lambda ev, spec, key: events.append((ev, spec.app)))
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
    w.progress = lambda ev, spec, key: w.request_drain() if ev == "claim" else None
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
