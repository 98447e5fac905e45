"""Checkpoint/resume: sliced runs are bit-identical and attested.

The protocol under test (see :mod:`repro.service.checkpoint`): slicing
the event drain at simulated-time boundaries must not change results;
every recorded fingerprint must verify on replay; a divergent replay
must be *refused*, not silently accepted.
"""

import pytest

from repro.core.batch import ExperimentSpec
from repro.core.export import result_to_full_dict
from repro.service.checkpoint import (
    CheckpointDivergence,
    CheckpointMismatch,
    clear_checkpoint,
    run_with_checkpoints,
    state_fingerprint,
)
from repro.service.journal import Journal, parse_line, record_line

SCALE = 0.05
EVERY = 1e5  # small enough to yield several checkpoints at test scale


def _spec(app="sor", **kw):
    return ExperimentSpec(app, "nwcache", "naive", data_scale=SCALE, **kw)


def _full(res):
    d = result_to_full_dict(res)
    # epoch_* extras describe the execution strategy, not the machine;
    # they sit outside the bit-identity contract (and differ between
    # sliced and unsliced drains, whose jump limits differ)
    d["extras"] = {
        k: v for k, v in d["extras"].items() if not k.startswith("epoch_")
    }
    return d


@pytest.fixture(scope="module")
def reference():
    spec = _spec()
    return spec, _full(spec.run())


# ----------------------------------------------------------- bit identity
def test_sliced_run_is_bit_identical(tmp_path, reference):
    spec, ref = reference
    snaps = []
    res = run_with_checkpoints(
        spec, EVERY, tmp_path / "c.ckpt",
        on_snapshot=lambda k, fp: snaps.append((k, fp)),
    )
    assert len(snaps) >= 2, "cadence must produce several checkpoints"
    assert _full(res) == ref


def test_resume_verifies_every_fingerprint(tmp_path, reference):
    spec, ref = reference
    path = tmp_path / "c.ckpt"
    first = []
    run_with_checkpoints(spec, EVERY, path,
                         on_snapshot=lambda k, fp: first.append((k, fp)))
    second = []
    res = run_with_checkpoints(spec, EVERY, path,
                               on_snapshot=lambda k, fp: second.append((k, fp)))
    assert second == first  # replay walked the same attested trajectory
    assert _full(res) == ref


def test_interrupted_run_resumes_bit_identically(tmp_path, reference):
    """Kill-and-resume oracle at the API level: stop a run partway (as a
    SIGKILL would), then resume over the surviving journal."""
    spec, ref = reference

    class Interrupt(Exception):
        pass

    path = tmp_path / "c.ckpt"

    def bomb(k, fp):
        if k == 2:
            raise Interrupt()

    with pytest.raises(Interrupt):
        run_with_checkpoints(spec, EVERY, path, on_snapshot=bomb)
    assert Journal(path).replay(), "partial journal must survive"
    res = run_with_checkpoints(spec, EVERY, path)
    assert _full(res) == ref


def test_divergence_is_refused(tmp_path, reference):
    spec, _ = reference
    path = tmp_path / "c.ckpt"
    run_with_checkpoints(spec, EVERY, path)
    # corrupt one recorded fingerprint (re-checksummed, so the journal
    # layer accepts it — only the semantic layer can catch it)
    journal = Journal(path)
    records = journal.replay()
    snap = next(r for r in records if r["type"] == "snap")
    snap["fp"] = "0" * 64
    path.write_bytes(b"".join(record_line(r) for r in records))
    with pytest.raises(CheckpointDivergence, match="diverged"):
        run_with_checkpoints(spec, EVERY, path)


def test_foreign_checkpoint_is_refused(tmp_path, reference):
    spec, _ = reference
    path = tmp_path / "c.ckpt"
    run_with_checkpoints(spec, EVERY, path)
    with pytest.raises(CheckpointMismatch):
        run_with_checkpoints(_spec(app="fft"), EVERY, path)
    with pytest.raises(CheckpointMismatch):
        run_with_checkpoints(spec, EVERY * 2, path)  # different cadence
    # resume=False ignores the stale file instead of refusing
    res = run_with_checkpoints(_spec(app="fft"), EVERY, path, resume=False)
    assert res.app == "fft"


def test_clear_checkpoint(tmp_path, reference):
    spec, _ = reference
    path = tmp_path / "c.ckpt"
    run_with_checkpoints(spec, EVERY, path)
    assert path.exists()
    clear_checkpoint(path)
    assert not path.exists()
    clear_checkpoint(path)  # idempotent


@pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
def test_bad_cadence_is_rejected(tmp_path, bad, reference):
    spec, _ = reference
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_with_checkpoints(spec, bad, tmp_path / "c.ckpt")


# ------------------------------------------------------------ fingerprints
def test_fingerprint_distinguishes_different_states(tmp_path):
    """Two different cells reach different fingerprints at their first
    shared boundary (sanity: the digest actually covers the state)."""
    fps = {}
    for app in ("sor", "fft"):
        seen = []
        run_with_checkpoints(
            _spec(app=app), EVERY, tmp_path / f"{app}.ckpt",
            on_snapshot=lambda k, fp, seen=seen: seen.append(fp),
        )
        fps[app] = seen[0]
    assert fps["sor"] != fps["fft"]


# ------------------------------------------------------- fingerprint coverage
class _Pause(Exception):
    pass


@pytest.fixture
def paused():
    """A small NWCache open-loop cell stopped at its first checkpoint
    after the CPUs finished (the controllers are still writing back),
    with its ``measured`` phase mark, swap-outs, fault latencies and
    controller write combining already recorded."""
    from repro.service.checkpoint import build_machine

    spec = ExperimentSpec(
        "ycsb-a", "nwcache", "naive", data_scale=0.1,
        app_params={"warmup": 100, "requests": 600},
    )
    machine, workload = build_machine(spec)

    def stop(m):
        if m.cpus[3].finished_at is not None:
            raise _Pause()

    with pytest.raises(_Pause):
        machine.run(workload, checkpoint_every=1e6, on_checkpoint=stop)
    m = machine.metrics
    assert "measured" in m.phases
    assert m.swapout.n and m.fault_latency.n
    assert any(ctrl.combining.n for ctrl in machine.controllers)
    return machine


def _bump_phase(machine):
    snap = machine.metrics.phases["measured"]
    snap[sorted(snap)[0]] += 1.0


def _flip_page(machine):
    from repro.osim import PageState

    entry = next(
        e for e in machine.vm.table.entries() if e.state is PageState.ABSENT
    )
    entry.state = PageState.MEMORY


def _store_on_ring(machine):
    machine.ring.channels[0]._pages[10 ** 9] = 0.0


#: one perturbation per quantity the fingerprint covers
TAMPERS = {
    "events": lambda mc: setattr(
        mc.engine, "events_processed", mc.engine.events_processed + 1
    ),
    "clock": lambda mc: setattr(mc.engine, "_now", mc.engine.now + 1.0),
    "count": lambda mc: mc.metrics.counts.add("faults"),
    "tally-swapout": lambda mc: mc.metrics.swapout.record(1.0),
    "tally-swapout_wait": lambda mc: mc.metrics.swapout_wait.record(1.0),
    "tally-fault_latency": lambda mc: mc.metrics.fault_latency.record(1.0),
    "tally-disk_hit_latency": lambda mc: mc.metrics.disk_hit_latency.record(1.0),
    "tally-ring_hit_latency": lambda mc: mc.metrics.ring_hit_latency.record(1.0),
    "phase": _bump_phase,
    "cpu-times": lambda mc: mc.cpus[3].acct.charge("other", 1.0),
    "cpu-stats": lambda mc: mc.cpus[3].stats.add("barriers"),
    "cpu-started_at": lambda mc: setattr(
        mc.cpus[3], "started_at", mc.cpus[3].started_at + 1.0
    ),
    "cpu-finished_at": lambda mc: setattr(
        mc.cpus[3], "finished_at", mc.cpus[3].finished_at + 1.0
    ),
    "network-bytes": lambda mc: setattr(
        mc.network, "bytes_sent", mc.network.bytes_sent + 1
    ),
    "page-state": _flip_page,
    "ring-stored": _store_on_ring,
    "combining": lambda mc: mc.controllers[0].combining.record(2.0),
}


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_fingerprint_covers(paused, case):
    before = state_fingerprint(paused)
    assert state_fingerprint(paused) == before  # pure: no hidden state
    TAMPERS[case](paused)
    assert state_fingerprint(paused) != before


@pytest.mark.parametrize("field", ["n", "_mean", "_m2", "total", "min", "max"])
def test_fingerprint_covers_every_tally_field(paused, field):
    tally = paused.metrics.swapout
    before = state_fingerprint(paused)
    setattr(tally, field, getattr(tally, field) + 1)
    assert state_fingerprint(paused) != before


def test_fingerprint_ignores_events_jumped(paused):
    before = state_fingerprint(paused)
    paused.engine.events_jumped += 1000
    assert state_fingerprint(paused) == before
