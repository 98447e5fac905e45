"""A run leaves nothing in a reference cycle.

``Machine.run`` turns the cyclic garbage collector off while it drains
the engine, so whatever a run strands in a reference cycle stays in
memory until the run ends.  These cells exercise every composed wait
the models build: the NACK/OK protocol on the standard machine, ring
slot waits on the NWCache machine, the open-loop generators, and the
fault injector's processes.  Each runs with the collector off, as a
batch worker would, and a full collection afterwards must find
nothing to free.

The machine is built and run here directly: ``run_batch`` imports
modules on its first call, which leaves collectable class objects
behind.  With ``NWCACHE_AUDIT=1`` the cells run audited, so the
engine drains through ``Engine.step`` instead of the inlined loop.
"""

import gc

import pytest

from repro.apps import make_app
from repro.config import env_flag
from repro.core.machine import Machine
from repro.core.runner import BEST_MIN_FREE, experiment_config, linear_scale

#: the fault-injection CI job's ``--faults`` menu
FAULT_MENU = (
    "disk_transient_rate=0.02,channel_drop_interval_pcycles=1e6,"
    "ring_page_loss_interval_pcycles=5e5,node_stall_interval_pcycles=1e6,"
    "link_stall_interval_pcycles=2e6"
)

CELLS = [
    pytest.param("gauss", "standard", 0.05, None, id="gauss-standard"),
    pytest.param("ycsb-a", "nwcache", 0.1, None, id="ycsb-a-nwcache"),
    pytest.param("zipf", "nwcache", 0.1, None, id="zipf-nwcache"),
    pytest.param("sor", "nwcache", 0.1, FAULT_MENU, id="sor-nwcache-faults"),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "generator"])
@pytest.mark.parametrize("app, system, scale, faults", CELLS)
def test_a_run_creates_no_reference_cycles(app, system, scale, faults, compiled):
    cfg = experiment_config(scale, min_free=BEST_MIN_FREE[(system, "optimal")])
    if faults is not None:
        cfg = cfg.replace(faults=faults)
    if env_flag("NWCACHE_AUDIT", False):
        cfg = cfg.replace(audit=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Clear what earlier tests left behind.  Collecting a process
        # abandoned mid-run closes its generator, whose ``finally``
        # blocks can leave garbage for the next pass: collect until a
        # pass finds nothing.
        for _ in range(10):
            if not gc.collect():
                break
        workload = make_app(app, scale=linear_scale(app, scale),
                            page_size=cfg.page_size)
        machine = Machine(cfg, system=system, prefetch="optimal",
                          compiled_traces=compiled)
        result = machine.run(workload)
        # the machine and its result stay referenced: only what the run
        # stranded is unreachable
        assert gc.collect() == 0
        assert result.events_processed > 0
    finally:
        if was_enabled:
            gc.enable()
