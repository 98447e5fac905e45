"""Seeded, schedulable fault injection for the simulated machine.

A :class:`FaultPlan` declares *what* can go wrong — transient or
degraded-mode disk errors, permanent cache-channel failures, transient
channel drops, page loss on the optical delay line, node stalls, and
interconnect-link stalls — and a :class:`FaultInjector` turns the plan
into simulation events.  Every stochastic choice draws from dedicated
``faults/...`` streams of the machine's :class:`~repro.sim.rng.RngRegistry`,
so fault schedules are a deterministic function of the master seed and
completely independent of the workload's own randomness: adding,
removing, or re-ordering fault modes never perturbs any other stream.

Injected faults flow through the ordinary event queue (each fault mode
is a simulation process), so the invariant auditor observes them like
any other model activity and two runs with identical configuration
produce identical fault logs *and* identical results.

With no plan configured nothing in this module is instantiated: the
per-component hooks (``Disk._faults``, the controller's ``_io``
dispatch, ``CacheChannel.failed``) stay on their zero-cost defaults and
trajectories are bit-identical to a build without the fault layer.

This module deliberately imports nothing from ``repro.config`` so that
``SimConfig`` can carry a :class:`FaultPlan` without an import cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.stats import Counter

#: (index, time_pcycles) schedule entry type for permanent faults
Schedule = Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every fault a run may suffer.

    Rates are probabilities per operation; intervals are the means of
    exponential inter-arrival distributions in pcycles (``0`` disables
    the mode).  Schedules are ``(index, time)`` pairs for faults that
    strike a specific component at a specific simulated time.
    """

    # ---------------------------------------------------------------- disks
    #: probability that any single disk operation fails transiently
    disk_transient_rate: float = 0.0
    #: (disk index, time) pairs: the disk enters degraded mode at `time`
    disk_degraded: Schedule = ()
    #: per-operation error probability once a disk is degraded
    disk_degraded_rate: float = 0.25
    #: extra service time per operation on a degraded disk
    disk_degraded_penalty_pcycles: float = 0.0
    #: controller retry policy: attempts after the first failure
    max_retries: int = 3
    #: base retry backoff; attempt ``k`` waits ``backoff * 2**(k-1)``
    retry_backoff_pcycles: float = 2_000.0
    #: penalty charged when an operation exhausts its retries
    retry_timeout_penalty_pcycles: float = 100_000.0

    # ---------------------------------------------------------------- optical
    #: (channel index, time) pairs: the channel fails permanently at `time`
    channel_failures: Schedule = ()
    #: mean pcycles between transient channel drops (0 = never)
    channel_drop_interval_pcycles: float = 0.0
    #: how long a dropped channel stays dark
    channel_drop_pcycles: float = 50_000.0
    #: mean pcycles between single-page losses on the delay line (0 = never)
    ring_page_loss_interval_pcycles: float = 0.0

    # ---------------------------------------------------------------- nodes/NIC
    #: mean pcycles between node stalls (0 = never)
    node_stall_interval_pcycles: float = 0.0
    #: cycles stolen from the stalled node's CPU
    node_stall_pcycles: float = 20_000.0
    #: mean pcycles between interconnect-link stalls (0 = never)
    link_stall_interval_pcycles: float = 0.0
    #: how long a stalled link stays held
    link_stall_pcycles: float = 20_000.0

    # -------------------------------------------------------------- predicates
    def is_noop(self) -> bool:
        """True when this plan can never inject anything."""
        return (
            self.disk_transient_rate <= 0.0
            and not self.disk_degraded
            and not self.channel_failures
            and self.channel_drop_interval_pcycles <= 0.0
            and self.ring_page_loss_interval_pcycles <= 0.0
            and self.node_stall_interval_pcycles <= 0.0
            and self.link_stall_interval_pcycles <= 0.0
        )

    @property
    def wants_disk_faults(self) -> bool:
        """True when the disk layer needs its fault hooks installed."""
        return self.disk_transient_rate > 0.0 or bool(self.disk_degraded)

    @property
    def wants_optical_faults(self) -> bool:
        """True when any optical fault mode is configured."""
        return (
            bool(self.channel_failures)
            or self.channel_drop_interval_pcycles > 0.0
            or self.ring_page_loss_interval_pcycles > 0.0
        )

    # -------------------------------------------------------------- validation
    def validate(self, cfg: Any) -> None:
        """Check the plan against a machine configuration (duck-typed
        ``cfg`` needs ``ring_channels`` and ``n_io_nodes``)."""
        for rate, label in (
            (self.disk_transient_rate, "disk_transient_rate"),
            (self.disk_degraded_rate, "disk_degraded_rate"),
        ):
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"{label} must be in [0, 1], got {rate}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        for value, label in (
            (self.disk_degraded_penalty_pcycles, "disk_degraded_penalty_pcycles"),
            (self.retry_backoff_pcycles, "retry_backoff_pcycles"),
            (self.retry_timeout_penalty_pcycles, "retry_timeout_penalty_pcycles"),
            (self.channel_drop_interval_pcycles, "channel_drop_interval_pcycles"),
            (self.channel_drop_pcycles, "channel_drop_pcycles"),
            (self.ring_page_loss_interval_pcycles, "ring_page_loss_interval_pcycles"),
            (self.node_stall_interval_pcycles, "node_stall_interval_pcycles"),
            (self.node_stall_pcycles, "node_stall_pcycles"),
            (self.link_stall_interval_pcycles, "link_stall_interval_pcycles"),
            (self.link_stall_pcycles, "link_stall_pcycles"),
        ):
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")
        for idx, t in self.channel_failures:
            if not (0 <= idx < cfg.ring_channels):
                raise ValueError(
                    f"channel_failures index {idx} out of range "
                    f"[0, {cfg.ring_channels})"
                )
            if t < 0:
                raise ValueError(f"channel_failures time {t} must be >= 0")
        for idx, t in self.disk_degraded:
            if not (0 <= idx < cfg.n_io_nodes):
                raise ValueError(
                    f"disk_degraded index {idx} out of range "
                    f"[0, {cfg.n_io_nodes})"
                )
            if t < 0:
                raise ValueError(f"disk_degraded time {t} must be >= 0")


def _parse_schedule(text: str) -> Schedule:
    """Parse ``"0@0;2@2e6"`` into ``((0, 0.0), (2, 2000000.0))``."""
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "@" in part:
            idx_s, t_s = part.split("@", 1)
        else:
            idx_s, t_s = part, "0"
        entries.append((int(idx_s), float(t_s)))
    return tuple(entries)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Build a :class:`FaultPlan` from a ``key=value,key=value`` string.

    Scalar fields take numbers; schedule fields (``channel_failures``,
    ``disk_degraded``) take ``index@time`` entries joined with ``;``
    (``@time`` optional, default 0)::

        disk_transient_rate=0.01,max_retries=2
        channel_failures=0;2@2e6,ring_page_loss_interval_pcycles=5e5
    """
    fields = {f.name: f for f in dataclasses.fields(FaultPlan)}
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad fault spec entry {part!r} (need key=value)")
        key, value = part.split("=", 1)
        key = key.strip()
        f = fields.get(key)
        if f is None:
            known = ", ".join(sorted(fields))
            raise ValueError(f"unknown fault spec key {key!r} (know: {known})")
        if f.type in ("Schedule", Schedule):
            kwargs[key] = _parse_schedule(value)
        elif f.type in ("int", int):
            kwargs[key] = int(float(value))
        else:
            kwargs[key] = float(value)
    return FaultPlan(**kwargs)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as logged by the injector."""

    time: float
    layer: str    #: "disk" | "optical" | "hw"
    kind: str     #: e.g. "channel_failed", "node_stall"
    target: str   #: component label, e.g. "channel3", "disk0"
    detail: str = ""


class DiskFaultState:
    """Per-disk fault hook installed as ``Disk._faults``.

    Rolls per-operation errors from the disk's own ``faults/disk<i>``
    stream and carries the degraded-mode flag.  Rolls happen only when
    the effective rate is positive, so a plan without disk faults never
    draws from the stream.
    """

    __slots__ = ("plan", "rng", "degraded")

    def __init__(self, plan: FaultPlan, rng: Any) -> None:
        self.plan = plan
        self.rng = rng
        self.degraded = False

    def service_penalty(self) -> float:
        """Extra service pcycles for the current operation."""
        return self.plan.disk_degraded_penalty_pcycles if self.degraded else 0.0

    def roll_error(self) -> bool:
        """Decide whether the operation that just completed failed."""
        rate = (
            self.plan.disk_degraded_rate
            if self.degraded
            else self.plan.disk_transient_rate
        )
        if rate <= 0.0:
            return False
        return float(self.rng.random()) < rate


class FaultInjector:
    """Schedules a :class:`FaultPlan` against one machine.

    The injector is duck-typed against the machine: it reads ``disks``,
    ``controllers``, ``ring``, ``vm``, ``cpus`` and ``network`` and
    installs hooks or spawns processes only for the fault modes the plan
    actually enables.  Each injected fault is appended to :attr:`log`
    and tallied in the shared fault :class:`~repro.sim.stats.Counter`.

    Interval-driven fault processes keep a pending timeout in the queue;
    the machine calls :meth:`stop` when the last CPU finishes so those
    processes exit at their next wakeup and the run can quiesce.
    """

    def __init__(
        self, engine: Any, plan: FaultPlan, rng_registry: Any, faults: Counter
    ) -> None:
        self.engine = engine
        self.plan = plan
        self.rng = rng_registry
        self.faults = faults
        self.log: List[FaultRecord] = []
        self.n_injected = 0
        self._stopped = False
        self._machine: Any = None

    # ---------------------------------------------------------------- logging
    def record(self, layer: str, kind: str, target: str, detail: str = "") -> None:
        """Log one injected fault and bump the shared counters."""
        self.log.append(
            FaultRecord(self.engine.now, layer, kind, target, detail)
        )
        self.n_injected += 1
        self.faults.add("injected")
        self.faults.add(kind)

    def stop(self) -> None:
        """No further injections; interval processes exit at next wakeup."""
        self._stopped = True

    # ---------------------------------------------------------------- wiring
    def attach(self, machine: Any) -> None:
        """Install hooks and spawn fault processes on ``machine``."""
        plan = self.plan
        self._machine = machine
        engine = self.engine
        if plan.wants_disk_faults:
            for i, (disk, ctrl) in enumerate(
                zip(machine.disks, machine.controllers)
            ):
                disk._faults = DiskFaultState(
                    plan, self.rng.stream(f"faults/disk{i}")
                )
                ctrl.enable_fault_policy(plan, self)
            for idx, t in plan.disk_degraded:
                engine.process(self._disk_degrade_proc(idx, t))
        if machine.ring is not None and plan.wants_optical_faults:
            machine.ring._faulty = True
            for idx, t in plan.channel_failures:
                engine.process(self._channel_failure_proc(idx, t))
            if plan.channel_drop_interval_pcycles > 0.0:
                engine.process(self._channel_drop_proc())
            if plan.ring_page_loss_interval_pcycles > 0.0:
                engine.process(self._page_loss_proc())
        if plan.node_stall_interval_pcycles > 0.0:
            engine.process(self._node_stall_proc())
        if plan.link_stall_interval_pcycles > 0.0:
            engine.process(self._link_stall_proc())

    # ---------------------------------------------------------------- helpers
    def _lose_channel_pages(self, channel: Any) -> None:
        """Lose every still-claimable page circulating on ``channel``.

        Pages whose drain is already streaming them off complete
        normally (the data left the fiber); everything still queued is
        lost and must be re-fetched from disk on the next fault.
        """
        vm = self._machine.vm
        for page in sorted(channel.pages()):
            if vm.lose_ring_page(page):
                self.faults.add("ring_pages_lost")

    # ---------------------------------------------------------------- processes
    def _disk_degrade_proc(
        self, idx: int, t: float
    ) -> Generator[Event, Any, None]:
        yield max(0.0, t)
        if self._stopped:
            return
        disk = self._machine.disks[idx]
        disk._faults.degraded = True
        disk.degraded = True
        self.record("disk", "disk_degraded", f"disk{idx}")

    def _channel_failure_proc(
        self, idx: int, t: float
    ) -> Generator[Event, Any, None]:
        yield max(0.0, t)
        if self._stopped:
            return
        channel = self._machine.ring.channels[idx]
        if not channel.failed:
            channel.fail()
            self.record("optical", "channel_failed", f"channel{idx}")
            self._lose_channel_pages(channel)

    def _channel_drop_proc(self) -> Generator[Event, Any, None]:
        plan = self.plan
        rng = self.rng.stream("faults/channel-drop")
        ring = self._machine.ring
        while True:
            yield float(rng.exponential(plan.channel_drop_interval_pcycles))
            if self._stopped:
                return
            live = [ch for ch in ring.channels if not ch.failed]
            if not live:
                return
            channel = live[int(rng.integers(len(live)))]
            channel.drop_until(self.engine.now + plan.channel_drop_pcycles)
            self.record("optical", "channel_drop", f"channel{channel.index}")
            self._lose_channel_pages(channel)

    def _page_loss_proc(self) -> Generator[Event, Any, None]:
        plan = self.plan
        rng = self.rng.stream("faults/page-loss")
        ring = self._machine.ring
        vm = self._machine.vm
        while True:
            yield float(rng.exponential(plan.ring_page_loss_interval_pcycles))
            if self._stopped:
                return
            pages = sorted(
                p for ch in ring.channels for p in ch.pages()
            )
            if not pages:
                continue
            page = pages[int(rng.integers(len(pages)))]
            if vm.lose_ring_page(page):
                self.faults.add("ring_pages_lost")
                self.record("optical", "page_loss", f"page{page}")

    def _node_stall_proc(self) -> Generator[Event, Any, None]:
        plan = self.plan
        rng = self.rng.stream("faults/node-stall")
        cpus = self._machine.cpus
        while True:
            yield float(rng.exponential(plan.node_stall_interval_pcycles))
            if self._stopped:
                return
            cpu = cpus[int(rng.integers(len(cpus)))]
            if cpu.finished_at is None:
                cpu.steal("other", plan.node_stall_pcycles)
                self.record("hw", "node_stall", f"node{cpu.node}")

    def _link_stall_proc(self) -> Generator[Event, Any, None]:
        plan = self.plan
        rng = self.rng.stream("faults/link-stall")
        net = self._machine.network
        links = [net._links[key] for key in sorted(net._links)]
        if not links:
            return
        while True:
            yield float(rng.exponential(plan.link_stall_interval_pcycles))
            if self._stopped:
                return
            res = links[int(rng.integers(len(links)))]
            tok = res.claim()
            yield tok
            try:
                if not self._stopped:
                    self.record("hw", "link_stall", res.name)
                    yield plan.link_stall_pcycles
            finally:
                res.release(tok)
