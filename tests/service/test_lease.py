"""The sweep state machine and the on-disk leased work queue.

Everything here drives :class:`SweepQueue` with explicit ``now`` values
so lease expiry, backoff, and retry exhaustion are deterministic — no
sleeps, no wall clocks.
"""

import json

import pytest

from repro.core.batch import ExperimentSpec, FailedSpec
from repro.service.journal import Journal
from repro.service.lease import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    SweepQueue,
    asdict_state,
    replay_state,
    spec_from_dict,
    spec_to_dict,
)

SCALE = 0.05


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


def _queue(tmp_path, **kw):
    kw.setdefault("lease_duration", 10.0)
    kw.setdefault("retry_budget", 3)
    kw.setdefault("backoff_base", 2.0)
    return SweepQueue(tmp_path / "sweep", **kw)


# ------------------------------------------------------------ spec crossing
def test_spec_roundtrips_through_journal_form():
    spec = _spec(app_params={"alpha": 0.9})
    d = spec_to_dict(spec)
    json.dumps(d)  # journal form must be JSON-able
    back = spec_from_dict(d)
    assert back.key() == spec.key()


def _roundtrip_cases():
    from repro.config import SimConfig
    from repro.core.runner import experiment_config

    cases = []
    for seed in (1999, 7):
        # the end-to-end benchmark's kernel and YCSB cells
        cases.append(pytest.param(ExperimentSpec(
            "sor", "nwcache", "naive", data_scale=0.2,
            cfg=experiment_config(0.2, seed=seed)), id=f"kernel-{seed}"))
        cases.append(pytest.param(ExperimentSpec(
            "ycsb-a", "standard", data_scale=0.5,
            cfg=experiment_config(0.5, seed=seed)), id=f"ycsb-{seed}"))
    cases.append(pytest.param(ExperimentSpec(
        "sor", "nwcache", "optimal", data_scale=0.25, min_free=2,
        cfg=experiment_config(0.25, min_free=2, ring_channel_bytes=16384),
    ), id="sweep-point"))
    cases.append(pytest.param(ExperimentSpec(
        "fft", cfg=SimConfig.tiny(mesh_shape=(2, 2))), id="tiny-mesh"))
    return cases


@pytest.mark.parametrize("spec", _roundtrip_cases())
def test_explicit_cfg_roundtrips_with_its_key(spec):
    back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    assert back.cfg == spec.cfg
    assert back.key() == spec.key()


def test_spec_to_dict_rejects_unserializable_specs():
    from repro.config import SimConfig

    with pytest.raises(ValueError, match="explicit cfg"):
        spec_to_dict(ExperimentSpec(
            "sor", "nwcache",
            cfg=SimConfig.tiny(faults="disk_transient_rate=0.01"),
        ))
    with pytest.raises(ValueError, match="JSON-encodable"):
        spec_to_dict(_spec(app_params={"f": object()}))
    with pytest.raises(ValueError, match="fault plans"):
        spec_to_dict(_spec(faults={"not": "a string"}))


def test_spec_from_dict_rejects_unknown_fields():
    d = spec_to_dict(_spec())
    d["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        spec_from_dict(d)


def test_env_faults_resolved_at_submit_time(monkeypatch):
    """A worker with a different NWCACHE_FAULTS still runs the cell the
    submitter keyed: the plan is frozen into the journal form."""
    monkeypatch.setenv("NWCACHE_FAULTS", "disk_transient_rate=0.1")
    d = spec_to_dict(_spec())
    assert d["faults"] == "disk_transient_rate=0.1"
    monkeypatch.setenv("NWCACHE_FAULTS", "disk_transient_rate=0.5")
    assert spec_from_dict(d).faults == "disk_transient_rate=0.1"


# ------------------------------------------------------------------ submit
def test_submit_is_idempotent(tmp_path):
    q = _queue(tmp_path)
    specs = [_spec(), _spec(app="fft"), _spec()]  # duplicate in the batch
    keys = q.submit(specs)
    assert keys[0] == keys[2] and keys[0] != keys[1]
    assert q.submit(specs) == keys  # resubmission appends nothing new
    state = q.state()
    assert len(state.cells) == 2
    assert state.counts() == {PENDING: 2, LEASED: 0, DONE: 0, FAILED: 0}


# ------------------------------------------------------------- claim/lease
def test_claim_complete_lifecycle(tmp_path):
    q = _queue(tmp_path)
    (key,) = q.submit([_spec()])
    got = q.claim("w1", now=100.0)
    assert got is not None
    k, spec, attempt = got
    assert k == key and attempt == 1 and spec.app == "sor"
    state = q.state()
    assert state.cells[key].status == LEASED
    assert state.cells[key].worker == "w1"
    assert q.claim("w2", now=101.0) is None  # nothing else to lease
    q.complete(key, "w1", attempt, executed=True)
    state = q.state()
    assert state.cells[key].status == DONE
    assert state.cells[key].executed_runs == 1
    assert state.settled


def test_claims_come_in_submission_order(tmp_path):
    q = _queue(tmp_path)
    keys = q.submit([_spec(), _spec(app="fft"), _spec(app="lu")])
    claimed = [q.claim(f"w{i}", now=float(i))[0] for i in range(3)]
    assert claimed == keys


def test_renew_extends_a_lease(tmp_path):
    q = _queue(tmp_path, lease_duration=10.0)
    (key,) = q.submit([_spec()])
    q.claim("w1", now=0.0)
    q.renew(key, "w1", now=8.0)  # extends to 18.0
    # at t=12 the original lease would have expired; the renewal holds it
    assert q.claim("w2", now=12.0) is None
    assert q.state().cells[key].lease_expires == pytest.approx(18.0)


def test_expired_lease_requeues_to_another_worker(tmp_path):
    q = _queue(tmp_path, lease_duration=10.0)
    (key,) = q.submit([_spec()])
    k1, _, a1 = q.claim("dead-worker", now=0.0)
    assert (k1, a1) == (key, 1)
    # lease expires at t=10; the next claimer requeues and re-leases
    k2, _, a2 = q.claim("survivor", now=20.0)
    assert (k2, a2) == (key, 2)
    state = q.state()
    assert state.cells[key].worker == "survivor"
    assert state.cells[key].attempts == 2


# ---------------------------------------------------------- failure/backoff
def test_fail_requeues_with_exponential_backoff(tmp_path):
    q = _queue(tmp_path, retry_budget=3, backoff_base=2.0)
    (key,) = q.submit([_spec()])
    _, _, attempt = q.claim("w1", now=0.0)
    assert not q.fail(key, "w1", attempt, "boom", now=5.0)
    state = q.state()
    assert state.cells[key].status == PENDING
    assert state.cells[key].not_before == pytest.approx(7.0)  # 5 + 2*2^0
    assert q.claim("w1", now=6.0) is None  # still backing off
    _, _, attempt2 = q.claim("w1", now=7.5)
    assert attempt2 == 2
    assert not q.fail(key, "w1", attempt2, "boom", now=8.0)
    # second failure backs off 2*2^1 = 4s
    assert q.state().cells[key].not_before == pytest.approx(12.0)


def test_retry_budget_exhaustion_is_terminal(tmp_path):
    q = _queue(tmp_path, retry_budget=2)
    (key,) = q.submit([_spec()])
    _, _, a1 = q.claim("w1", now=0.0)
    assert not q.fail(key, "w1", a1, "first", now=0.0)
    _, _, a2 = q.claim("w1", now=100.0)
    assert a2 == 2
    assert q.fail(key, "w1", a2, "second", now=100.0)  # terminal
    state = q.state()
    assert state.cells[key].status == FAILED
    assert state.settled
    (failed,) = q.failed_specs()
    assert isinstance(failed, FailedSpec)
    assert failed.attempts == 2 and failed.retries == 1
    assert failed.error == "second"
    assert q.claim("w1", now=1e9) is None  # terminal cells never re-lease


def test_lost_leases_spend_the_retry_budget(tmp_path):
    """A lease is an attempt: a cell whose holders keep dying without
    reporting ends as a terminal crash instead of re-leasing forever."""
    q = _queue(tmp_path, lease_duration=10.0, retry_budget=3)
    (key,) = q.submit([_spec()])
    for i in range(3):
        _, _, attempt = q.claim(f"doomed-{i}", now=11.0 * i)
        assert attempt == i + 1
    # the last attempt's lease expires too: no fourth lease
    assert q.claim("survivor", now=33.0) is None
    cell = q.state().cells[key]
    assert cell.status == FAILED and cell.attempts == 3
    (failed,) = q.failed_specs()
    assert failed.kind == "crash" and failed.attempts == 3
    assert "doomed-2 stopped renewing" in failed.error
    assert q.claim("survivor", now=1e9) is None


def test_failure_kinds_are_journaled(tmp_path):
    q = _queue(tmp_path, retry_budget=2)
    (key,) = q.submit([_spec()])
    _, _, a1 = q.claim("w1", now=0.0)
    q.fail(key, "w1", a1, "killed", now=0.0, kind="crash")
    assert q.state().cells[key].last_kind == "crash"
    _, _, a2 = q.claim("w1", now=100.0)
    assert q.fail(key, "w1", a2, "too slow", now=100.0, kind="timeout")
    (failed,) = q.failed_specs()
    assert (failed.kind, failed.error) == ("timeout", "too slow")


def test_records_without_a_kind_replay_as_errors(tmp_path):
    q = _queue(tmp_path, retry_budget=1)
    (key,) = q.submit([_spec()])
    _, _, attempt = q.claim("w1", now=0.0)
    q.journal.append({"type": "fail", "key": key, "worker": "w1",
                      "attempt": attempt, "error": "old", "terminal": True,
                      "not_before": 0.0})
    (failed,) = q.failed_specs()
    assert failed.kind == "error" and failed.error == "old"


def test_done_is_absorbing(tmp_path):
    """A late failure record (a zombie worker reporting after the cell
    finished elsewhere) cannot un-finish a cell."""
    q = _queue(tmp_path)
    (key,) = q.submit([_spec()])
    _, _, a1 = q.claim("w1", now=0.0)
    q.complete(key, "w2", 2, executed=True)  # another worker won
    q.fail(key, "w1", a1, "zombie says boom", now=50.0)
    assert q.state().cells[key].status == DONE


# ------------------------------------------------------------ replay safety
def test_replay_is_idempotent_under_duplication(tmp_path):
    q = _queue(tmp_path, retry_budget=3)
    (key,) = q.submit([_spec()])
    _, _, a = q.claim("w1", now=0.0)
    q.fail(key, "w1", a, "once", now=1.0)
    _, _, a2 = q.claim("w1", now=10.0)
    q.complete(key, "w1", a2, executed=True)

    journal = Journal(q.journal.path)
    records = journal.replay()
    once = replay_state(journal)
    twice_state = replay_state(journal)
    for rec in records:  # apply the whole history a second time
        twice_state.apply(rec)
    a, b = once.cells[key], twice_state.cells[key]
    assert (a.status, a.attempts, a.executed_runs) == (
        b.status, b.attempts, b.executed_runs,
    )
    assert a.executed_runs == 1  # duplicate done records never double-count


def test_truncated_journal_is_a_valid_earlier_state(tmp_path):
    q = _queue(tmp_path)
    (key,) = q.submit([_spec()])
    _, _, a = q.claim("w1", now=0.0)
    q.complete(key, "w1", a, executed=True)
    full = q.journal.path.read_bytes()
    lines = full.splitlines(keepends=True)
    for cut in range(len(lines) + 1):
        q.journal.path.write_bytes(b"".join(lines[:cut]))
        state = q.state()  # must never raise
        for cell in state.cells.values():
            assert cell.status in (PENDING, LEASED, DONE, FAILED)


def test_asdict_state_is_json_clean(tmp_path):
    q = _queue(tmp_path)
    q.submit([_spec(), _spec(app="fft")])
    q.claim("w1", now=0.0)
    view = asdict_state(q.state())
    json.dumps(view)
    assert view["counts"][PENDING] == 1 and view["counts"][LEASED] == 1
    assert not view["settled"]


def test_queue_validates_construction(tmp_path):
    with pytest.raises(ValueError, match="lease_duration"):
        SweepQueue(tmp_path / "s", lease_duration=0)
    with pytest.raises(ValueError, match="retry_budget"):
        SweepQueue(tmp_path / "s", retry_budget=0)
