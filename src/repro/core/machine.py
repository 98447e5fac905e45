"""Machine assembly: build and run a (standard | NWCache) multiprocessor.

``Machine`` wires every substrate together exactly as in Figures 1/2 of
the paper: per-node CPU/TLB/cache/memory/buses, the wormhole mesh, disks
with controllers at the I/O-enabled nodes, and — on the NWCache machine —
the optical ring with one NWC interface per I/O node (the interfaces at
compute-only nodes have no queues or drains and are represented by the
ring access paths themselves).

``machine.run(app)`` executes a workload to completion and returns a
:class:`RunResult` with the execution-time breakdown and all the
measurements the paper's tables report.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.apps.base import Workload
from repro.config import SimConfig, env_flag
from repro.disk import Disk, DiskController, FileSystem, PrefetchMode
from repro.hw import (
    CacheModel,
    FramePool,
    MeshNetwork,
    Node,
    TimeAccount,
    Tlb,
    make_io_bus,
    make_memory_bus,
)
from repro.hw.cpu import Cpu
from repro.metrics import Metrics
from repro.optical import NWCacheInterface, OpticalRing
from repro.optical.interface import DRAIN_MOST_LOADED
from repro.osim import BarrierRegistry, SwapManager, VmSystem
from repro.sim import Engine, RngRegistry, Tally

SYSTEM_STANDARD = "standard"
SYSTEM_NWCACHE = "nwcache"


def _compiled_traces_default() -> bool:
    """Compiled traces are on unless ``NWCACHE_COMPILED_TRACES`` is off."""
    return env_flag("NWCACHE_COMPILED_TRACES", True)


def io_node_ids(cfg: SimConfig) -> List[int]:
    """Evenly-spaced I/O-enabled node ids (e.g. [0, 2, 4, 6] for 8/4)."""
    n, k = cfg.n_nodes, cfg.n_io_nodes
    return sorted({(i * n) // k for i in range(k)})


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    app: str
    system: str
    prefetch: str
    cfg: SimConfig
    exec_time: float                     #: pcycles, start to last CPU done
    breakdown: Dict[str, float]          #: mean per-CPU pcycles per category
    metrics: Metrics
    combining: Tally                     #: merged controller write-combining
    swapout_mean: float                  #: mean swap-out pcycles (Tables 3/4)
    ring_hit_rate: float                 #: Table 7
    disk_hit_latency: float              #: Table 8 (pcycles)
    events_processed: int
    per_cpu: List[TimeAccount] = field(default_factory=list)
    network_bytes: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def breakdown_fractions(self) -> Dict[str, float]:
        """Per-category fraction of mean execution time."""
        total = sum(self.breakdown.values())
        if total <= 0:
            return {k: 0.0 for k in self.breakdown}
        return {k: v / total for k, v in self.breakdown.items()}

    def speedup_vs(self, baseline: "RunResult") -> float:
        """Execution-time improvement over ``baseline`` (paper's "%"):
        ``1 - exec/baseline_exec``."""
        if baseline.exec_time <= 0:
            return 0.0
        return 1.0 - self.exec_time / baseline.exec_time


class Machine:
    """A simulated multiprocessor (standard or NWCache-equipped)."""

    def __init__(
        self,
        cfg: SimConfig,
        system: str = SYSTEM_STANDARD,
        prefetch: str = "optimal",
        drain_policy: str = DRAIN_MOST_LOADED,
        compiled_traces: Optional[bool] = None,
    ) -> None:
        if system not in (SYSTEM_STANDARD, SYSTEM_NWCACHE):
            raise ValueError(f"unknown system {system!r}")
        self.cfg = cfg
        self.system = system
        if compiled_traces is None:
            compiled_traces = _compiled_traces_default()
        self.compiled_traces = bool(compiled_traces)
        self.prefetch = PrefetchMode(prefetch)
        self.engine = Engine()
        self.rng = RngRegistry(cfg.seed)
        self.metrics = Metrics()

        eng = self.engine
        self.network = MeshNetwork(eng, cfg)
        self.mem_buses = [make_memory_bus(eng, cfg, n) for n in range(cfg.n_nodes)]
        self.io_buses = [make_io_bus(eng, cfg, n) for n in range(cfg.n_nodes)]
        self.pools = [
            FramePool(eng, cfg.frames_per_node, cfg.min_free_frames, name=f"pool{n}")
            for n in range(cfg.n_nodes)
        ]
        self.tlbs = [Tlb(cfg.tlb_entries, name=f"tlb{n}") for n in range(cfg.n_nodes)]
        self.caches = [CacheModel(cfg, name=f"cache{n}") for n in range(cfg.n_nodes)]

        # -- disk subsystem at the I/O-enabled nodes
        self.io_nodes = io_node_ids(cfg)
        self.fs = FileSystem(cfg, n_disks=len(self.io_nodes))
        self.disks = [
            Disk(eng, cfg, self.rng.stream(f"disk{i}"), name=f"disk{i}")
            for i in range(len(self.io_nodes))
        ]
        self.controllers = [
            DiskController(eng, cfg, disk, self.fs, self.prefetch, name=f"ctrl{i}")
            for i, disk in enumerate(self.disks)
        ]

        # -- optical ring (NWCache machine only)
        self.ring: Optional[OpticalRing] = None
        self.interfaces: Dict[int, NWCacheInterface] = {}
        if system == SYSTEM_NWCACHE:
            self.ring = OpticalRing(eng, cfg)
            for i, node in enumerate(self.io_nodes):
                self.interfaces[node] = NWCacheInterface(
                    eng, cfg, node, self.ring, self.controllers[i], drain_policy
                )

        # -- OS
        self.swap = SwapManager(
            eng,
            cfg,
            self.fs,
            self.network,
            self.mem_buses,
            self.io_buses,
            self.controllers,
            disk_nodes=self.io_nodes,
            metrics=self.metrics,
            ring=self.ring,
            interfaces=self.interfaces,
        )
        self.vm = VmSystem(
            eng,
            cfg,
            self.fs,
            self.pools,
            self.tlbs,
            self.caches,
            self.network,
            self.mem_buses,
            self.io_buses,
            self.swap,
            self.metrics,
        )
        self.barriers = BarrierRegistry(eng, cfg.n_nodes)
        self.cpus = [
            Cpu(
                eng,
                cfg,
                n,
                self.caches[n],
                self.vm,
                self.network,
                self.mem_buses,
                self.barriers,
            )
            for n in range(cfg.n_nodes)
        ]
        self.vm.install_cpus(self.cpus)

        # -- fault injection (imported only when a plan is configured)
        self.fault_injector = None
        if cfg.faults is not None and not cfg.faults.is_noop():
            from repro.sim.faults import FaultInjector

            self.fault_injector = FaultInjector(
                eng, cfg.faults, self.rng, self.metrics.faults
            )
            self.fault_injector.attach(self)

        # -- invariant auditing (imported only when enabled)
        self.auditor = None
        if cfg.audit:
            from repro.core.auditing import build_auditor

            self.auditor = build_auditor(self)
        self.nodes = [
            Node(
                index=n,
                cpu=self.cpus[n],
                tlb=self.tlbs[n],
                cache=self.caches[n],
                frames=self.pools[n],
                mem_bus=self.mem_buses[n],
                io_bus=self.io_buses[n],
                disk=self.disks[self.io_nodes.index(n)] if n in self.io_nodes else None,
                controller=(
                    self.controllers[self.io_nodes.index(n)]
                    if n in self.io_nodes
                    else None
                ),
                nwc=self.interfaces.get(n),
            )
            for n in range(cfg.n_nodes)
        ]

    # ---------------------------------------------------------------- running
    def load(self, app: Workload) -> range:
        """Allocate and register the app's mmap'd file pages."""
        pages = self.fs.allocate(app.total_pages)
        self.vm.register_pages(pages)
        return pages

    def _request_trace(self, app: Workload):
        """The app's compiled trace, or None to use the generator path.

        Ad-hoc workloads can opt out with ``trace_compilable = False``
        (e.g. streams that depend on shared RNG substreams or machine
        state); ``NWCACHE_COMPILED_TRACES=0`` or
        ``Machine(..., compiled_traces=False)`` disables the path
        machine-wide.  The compiled path is trajectory-neutral, so the
        choice never changes results.
        """
        if not self.compiled_traces:
            return None
        if not getattr(app, "trace_compilable", True):
            return None
        from repro.core.trace import get_trace

        return get_trace(app, self.cfg.n_nodes, self.cfg.seed)

    def run(
        self,
        app: Workload,
        until: Optional[float] = None,
        checkpoint_every: Optional[float] = None,
        on_checkpoint: Optional[Any] = None,
    ) -> RunResult:
        """Execute ``app`` to completion and collect results.

        With ``checkpoint_every`` set, the drain is sliced into bounded
        ``engine.run(until=k * checkpoint_every)`` segments and
        ``on_checkpoint(self)`` fires between events at each boundary
        (simulated pcycles, never wall-clock, so slicing is identical on
        every host).  Bounded drains are trajectory-neutral — ``try_jump``
        refuses to leap past a limit and the evented fallback is
        bit-identical — so a sliced run produces exactly the results of
        an unsliced one; :mod:`repro.service.checkpoint` builds its
        resume-verification protocol on this hook.
        """
        if checkpoint_every is not None:
            checkpoint_every = float(checkpoint_every)
            if not math.isfinite(checkpoint_every) or checkpoint_every <= 0:
                raise ValueError(
                    f"checkpoint_every must be a positive finite number of "
                    f"pcycles, got {checkpoint_every!r}"
                )
        if app.page_size != self.cfg.page_size:
            raise ValueError(
                f"app page size {app.page_size} != machine {self.cfg.page_size}"
            )
        pages = self.load(app)
        self._install_phase_marks(app)
        trace = self._request_trace(app)
        if trace is not None:
            # Compiled fast path: replay the workload's array-backed
            # trace (shared via repro.core.trace across the
            # standard/NWCache pair and every sweep/batch point).  The
            # CPUs, the fault paths, the swap-out crossings and the disk
            # controllers all attempt uncontended clock jumps first
            # (trajectory-neutral; see docs/performance.md "Clock jumps").
            self.vm.jump_transfers = True
            self.swap.jump_transfers = True
            for ctrl in self.controllers:
                ctrl.jump_clock = True
            procs = [
                self.engine.process(cpu.run_compiled(trace, n, pages.start))
                for n, cpu in enumerate(self.cpus)
            ]
        else:
            streams = app.streams(self.cfg.n_nodes, pages.start, self.rng)
            if len(streams) != self.cfg.n_nodes:
                raise ValueError("app produced wrong number of streams")
            procs = [
                self.engine.process(cpu.run(stream))
                for cpu, stream in zip(self.cpus, streams)
            ]
        if self.fault_injector is not None and procs:
            # Interval-driven fault processes keep timeouts queued, which
            # would stop the engine from ever quiescing; when the last
            # CPU finishes, tell the injector to wind down.
            injector = self.fault_injector
            done = self.engine.all_of(procs)
            done.callbacks.append(lambda _ev: injector.stop())
        # The drain loop allocates hundreds of thousands of short-lived
        # events that reference counting alone reclaims; pausing the
        # cyclic collector avoids repeated full-heap scans mid-run.  A
        # run creates no reference cycles (finished processes drop their
        # wake tokens, fired conditions leave their children's callback
        # lists; tests/core/test_run_memory.py pins it), so nothing it
        # drops waits for the collector.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if checkpoint_every is None:
                self.engine.run(until=until)
            else:
                self._run_sliced(checkpoint_every, on_checkpoint, until)
        finally:
            if gc_was_enabled:
                gc.enable()
        unfinished = [c.node for c in self.cpus if c.finished_at is None]
        if unfinished and until is None:
            raise RuntimeError(
                f"simulation quiesced with CPUs {unfinished} unfinished "
                "(model deadlock); page states: "
                + ", ".join(
                    f"{s.value}={n}" for s, n in self.vm.table.census().items()
                )
            )
        self.vm.check_invariants()
        if self.auditor is not None:
            self.auditor.check_all()
        return self._collect(app)

    def _run_sliced(
        self,
        every: float,
        on_checkpoint: Optional[Any],
        until: Optional[float],
    ) -> None:
        """Drain the engine in ``every``-pcycle slices with checkpoints.

        The slicing rule is a pure function of the trajectory (boundary
        ``k*every`` is visited iff an event falls at or before it, empty
        slices are skipped by jumping the boundary to the next multiple
        of ``every`` covering the next event), so a replayed run visits
        exactly the same boundaries in the same order — the invariant
        the checkpoint-verification protocol depends on.  A checkpoint
        only fires when events remain: the final state is attested by
        the result itself.
        """
        inf = float("inf")
        boundary = every
        while True:
            nxt = self.engine.peek()
            if nxt == inf or (until is not None and nxt > until):
                break
            if nxt > boundary:
                # skip empty slices (uncontended clock jumps leave long
                # event gaps); ceil can land one multiple short under
                # float division, hence the corrective loop
                boundary = math.ceil(nxt / every) * every
                while boundary < nxt:
                    boundary += every
            t = boundary if until is None else min(boundary, until)
            self.engine.run(until=t)
            if until is not None and t >= until:
                return
            if on_checkpoint is not None and self.engine.peek() != inf:
                on_checkpoint(self)
            boundary += every
        if until is not None:
            # match unsliced semantics: the clock advances exactly to
            # ``until`` even when no event falls on it
            self.engine.run(until=until)

    def _install_phase_marks(self, app: Workload) -> None:
        """Register the app's phase-mark barriers as metric observers.

        Workloads map barrier keys to phase names via ``phase_marks``
        (open-loop generators mark the warmup -> measured boundary);
        the barrier's release calls :meth:`Metrics.mark_phase`, which
        observes but never mutates simulation state — trajectories stay
        bit-identical across the generator and compiled paths.
        """
        marks = getattr(app, "phase_marks", None) or {}
        metrics = self.metrics
        for key, phase in marks.items():
            self.barriers.get(key).on_release = (
                lambda _b, _phase=phase: metrics.mark_phase(_phase)
            )

    def _collect(self, app: Workload) -> RunResult:
        combining = Tally()
        for ctrl in self.controllers:
            combining.merge(ctrl.combining)
        starts = [c.started_at or 0.0 for c in self.cpus]
        ends = [c.finished_at if c.finished_at is not None else self.engine.now
                for c in self.cpus]
        exec_time = max(ends) - min(starts)
        ncpu = len(self.cpus)
        breakdown = {
            cat: sum(c.acct.times[cat] for c in self.cpus) / ncpu
            for cat in self.cpus[0].acct.times
        }
        extras = {
            "disk_utilization": (
                sum(d.utilization(exec_time) for d in self.disks) / len(self.disks)
                if exec_time > 0
                else 0.0
            ),
            "max_link_utilization": self.network.max_link_utilization(exec_time)
            if exec_time > 0
            else 0.0,
            "ring_stored_peak": float(self.ring.total_stored) if self.ring else 0.0,
            "tlb_hit_rate": sum(t.hit_rate for t in self.tlbs) / ncpu,
        }
        if self.vm.jump_transfers:
            # How many events the compiled replay's clock jumps elided: a
            # diagnostic of the replay strategy, not of the simulated
            # machine, so it is absent on the generator path and
            # stripped from every bit-identity comparison.
            extras["epoch_events_jumped"] = float(self.engine.events_jumped)
        if self.auditor is not None:
            extras["audit_passes"] = float(self.auditor.passes)
            extras["audit_checks"] = float(self.auditor.checks)
        if self.fault_injector is not None:
            extras["faults_injected"] = float(self.fault_injector.n_injected)
        if getattr(app, "open_loop", False):
            # Open-loop accounting: offered (the arrival schedule) vs
            # completed (visits the CPUs executed), plus how skewed the
            # configured per-node rates and the completed per-node
            # request counts ended up (max / mean; 1.0 = uniform).
            visits = [float(c.stats["visits"]) for c in self.cpus]
            completed = sum(visits)
            extras["openloop_completed_requests"] = completed
            offered = getattr(app, "offered_requests", None)
            if callable(offered):
                extras["openloop_offered_requests"] = float(offered(ncpu))
            node_rates = getattr(app, "node_rates", None)
            if callable(node_rates):
                rates = node_rates(ncpu)
                mean_rate = sum(rates) / len(rates)
                extras["openloop_rate_skew"] = (
                    max(rates) / mean_rate if mean_rate else 0.0
                )
            mean_visits = completed / ncpu
            extras["openloop_request_skew"] = (
                max(visits) / mean_visits if mean_visits else 0.0
            )
        return RunResult(
            app=app.name,
            system=self.system,
            prefetch=self.prefetch.value,
            cfg=self.cfg,
            exec_time=exec_time,
            breakdown=breakdown,
            metrics=self.metrics,
            combining=combining,
            swapout_mean=self.metrics.swapout.mean,
            ring_hit_rate=self.metrics.ring_hit_rate,
            disk_hit_latency=self.metrics.disk_hit_latency.mean,
            events_processed=self.engine.events_processed,
            per_cpu=[c.acct for c in self.cpus],
            network_bytes=self.network.bytes_sent,
            extras=extras,
        )
