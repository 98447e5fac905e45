"""Differential oracle: the two machines differ only in the I/O path.

The standard and NWCache machines run the *same* computation — identical
page-reference streams, identical per-CPU visit and barrier counts —
because the NWCache only changes where swapped-out pages live.  Any
divergence in compute work between the two systems is a simulator bug,
not a modelling result.  Both machines must also quiesce with every page
accounted for (resident or absent, nothing in flight)."""

import pytest

from repro.apps import make_app
from repro.core.machine import Machine, SYSTEM_NWCACHE, SYSTEM_STANDARD
from repro.core.runner import BEST_MIN_FREE, experiment_config, linear_scale
from repro.osim.pagetable import PageState

SCALE = 0.1
# two kernels + the open-loop generators: the oracle holds regardless of
# whether traffic is closed-loop compute or open-loop requests
APPS = ["sor", "radix", "fft", "zipf", "ycsb-a"]
PREFETCH = "naive"


def _build(app_name: str, system: str):
    cfg = experiment_config(
        SCALE, min_free=BEST_MIN_FREE[(system, PREFETCH)], audit=True
    )
    machine = Machine(cfg, system=system, prefetch=PREFETCH)
    app = make_app(app_name, scale=linear_scale(app_name, SCALE),
                   page_size=cfg.page_size)
    return machine, app


def _run_pair(app_name: str):
    std_m, std_app = _build(app_name, SYSTEM_STANDARD)
    nwc_m, nwc_app = _build(app_name, SYSTEM_NWCACHE)
    std = std_m.run(std_app)
    nwc = nwc_m.run(nwc_app)
    return (std_m, std), (nwc_m, nwc)


@pytest.mark.parametrize("app_name", APPS)
def test_identical_reference_streams(app_name):
    """Both machines materialize byte-identical per-CPU streams."""
    std_m, std_app = _build(app_name, SYSTEM_STANDARD)
    nwc_m, nwc_app = _build(app_name, SYSTEM_NWCACHE)
    std_pages = std_m.load(std_app)
    nwc_pages = nwc_m.load(nwc_app)
    assert std_pages == nwc_pages
    std_streams = [
        list(s) for s in std_app.streams(
            std_m.cfg.n_nodes, std_pages.start, std_m.rng)
    ]
    nwc_streams = [
        list(s) for s in nwc_app.streams(
            nwc_m.cfg.n_nodes, nwc_pages.start, nwc_m.rng)
    ]
    assert std_streams == nwc_streams


@pytest.mark.parametrize("app_name", APPS)
def test_identical_compute_work(app_name):
    """Visit/barrier counts per CPU match across systems (audited runs)."""
    (std_m, std), (nwc_m, nwc) = _run_pair(app_name)
    for std_cpu, nwc_cpu in zip(std_m.cpus, nwc_m.cpus):
        assert std_cpu.stats["visits"] == nwc_cpu.stats["visits"]
        assert std_cpu.stats["barriers"] == nwc_cpu.stats["barriers"]
    # both audited runs held every invariant to quiescence
    assert std.extras["audit_passes"] > 0
    assert nwc.extras["audit_passes"] > 0
    # total demand is conserved: same faults + resident hits overall
    assert std.app == nwc.app


@pytest.mark.parametrize("app_name", APPS[:2])
def test_quiescent_state_is_conserved(app_name):
    """At quiescence no page is mid-flight and counts cover the table."""
    for machine, _res in _run_pair(app_name):
        table = machine.vm.table
        per_state = table.census()
        assert per_state[PageState.INFLIGHT] == 0
        assert per_state[PageState.SWAPPING] == 0
        assert sum(per_state.values()) == len(table)
        resident = sum(len(list(r.pages())) for r in machine.vm.resident)
        assert resident == per_state[PageState.MEMORY]
        if machine.ring is not None:
            assert machine.ring.total_stored == per_state[PageState.RING]
