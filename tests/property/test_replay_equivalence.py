"""Property: compiled replay never changes a result, only its speed.

``Cpu.run_compiled`` replays a compiled trace with the per-item work
inlined and every wait first attempted as an uncontended clock jump —
in the CPU loop, the fault paths, the swap-out crossings and the disk
controllers.  Its whole correctness contract is that this is
unobservable: for any application, system, data scale, RNG seed, and
fault schedule, the :class:`RunResult` must be *bit-identical* to the
pure event kernel's (``compiled_traces=False``).  Hypothesis drives the
sampling; the fixed equivalence matrix in the regression tier pins the
named configurations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES
from repro.config import SimConfig
from repro.core.runner import run_experiment


def _snapshot(res):
    d = dict(vars(res))
    d.pop("metrics", None)  # wall-clock noise lives there
    # epoch_events_jumped describes the *execution strategy*, not the
    # simulated machine: present only on the compiled path, and
    # excluded from the bit-identity contract.
    d["extras"] = {
        k: v for k, v in res.extras.items() if not k.startswith("epoch_")
    }
    return repr(d)


@given(
    app=st.sampled_from(sorted(APP_NAMES)),
    system=st.sampled_from(["standard", "nwcache"]),
    scale=st.sampled_from([0.02, 0.05, 0.08]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    faults=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_compiled_replay_bit_identical(app, system, scale, seed, faults):
    kwargs = dict(
        system=system,
        data_scale=scale,
        cfg=SimConfig(seed=seed),
    )
    if faults:
        # Transient disk faults land at event boundaries mid-run; every
        # clock jump must refuse around the retries they schedule.
        kwargs["faults"] = "disk_transient_rate=0.01"
    base = run_experiment(app, compiled_traces=False, **kwargs)
    fast = run_experiment(app, compiled_traces=True, **kwargs)
    assert _snapshot(base) == _snapshot(fast)


@given(
    app=st.sampled_from(["zipf", "ycsb-a", "radix"]),
    system=st.sampled_from(["standard", "nwcache"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window=st.sampled_from([2, 4]),
    faults=st.sampled_from(
        [None, "disk_transient_rate=0.02", "channel_failures=0;1@5e5"]
    ),
)
@settings(max_examples=10, deadline=None)
def test_eviction_dominated_replay_bit_identical(
    app, system, seed, window, faults
):
    """The contended regime: a resident window far smaller than the
    working set makes nearly every visit an eviction-and-fetch, so the
    jump guards run against live swap traffic on every bus and link —
    with disk faults or failed ring channels landing mid-run when the
    fault schedule says so."""
    kwargs = dict(
        system=system,
        data_scale=0.05,
        cfg=SimConfig(seed=seed, l2_resident_pages=window),
    )
    if faults:
        kwargs["faults"] = faults
    base = run_experiment(app, compiled_traces=False, **kwargs)
    fast = run_experiment(app, compiled_traces=True, **kwargs)
    assert _snapshot(base) == _snapshot(fast)
