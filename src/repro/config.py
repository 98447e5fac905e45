"""Simulation configuration: Table 1 of the paper, plus scaled presets.

All times inside the simulator are expressed in **processor cycles**
(pcycles); per Table 1, 1 pcycle = 5 ns.  All rates are stored in *bytes
per pcycle* so that `BandwidthPipe` occupancies come out in pcycles
directly.  The constructors below accept the physical units the paper
quotes (MB/s, usec, msec) and convert.

Presets
-------
``SimConfig.paper()``
    The exact Table 1 machine: 8 nodes (4 I/O-enabled), 256 KB memory per
    node, 8 WDM channels with 64 KB each, 16 KB disk controller caches.
``SimConfig.small()``
    A half-scale machine for quick experiments.
``SimConfig.tiny()``
    A 4-node machine with very small memories, for unit tests.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.sim.faults import FaultPlan, parse_fault_spec

#: Simulated pcycles per second (1 pcycle = 5 ns, Table 1).
PCYCLES_PER_SEC = 200_000_000
#: Bytes per MByte as used by the paper's rate figures.
MB = 1_000_000
KB = 1024


#: spellings :func:`env_flag` accepts, compared case-insensitively
_FLAG_TRUE = frozenset({"1", "true", "yes", "on"})
_FLAG_FALSE = frozenset({"", "0", "false", "no", "off"})


def env_flag(name: str, default: bool) -> bool:
    """Read the boolean environment switch ``name``.

    Unset means ``default``; ``1/true/yes/on`` and ``0/false/no/off`` (or
    empty) are accepted in any case, surrounding whitespace ignored.
    Anything else raises ``ValueError`` naming the variable, so a typo
    cannot silently flip a switch.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if value in _FLAG_TRUE:
        return True
    if value in _FLAG_FALSE:
        return False
    raise ValueError(
        f"{name}={raw!r}: expected 1/true/yes/on or 0/false/no/off"
    )


def mbps_to_bytes_per_pcycle(mb_per_sec: float) -> float:
    """Convert a MBytes/sec rate to bytes per pcycle."""
    return mb_per_sec * MB / PCYCLES_PER_SEC


def usec_to_pcycles(usec: float) -> float:
    """Convert microseconds to pcycles."""
    return usec * 1e-6 * PCYCLES_PER_SEC


def msec_to_pcycles(msec: float) -> float:
    """Convert milliseconds to pcycles."""
    return msec * 1e-3 * PCYCLES_PER_SEC


@dataclass
class SimConfig:
    """Machine + OS + experiment parameters (defaults = paper Table 1)."""

    # ---------------------------------------------------------------- machine
    n_nodes: int = 8                      #: processors in the machine
    n_io_nodes: int = 4                   #: nodes with a disk attached
    page_size: int = 4 * KB               #: bytes per VM page (= disk block)

    # ---------------------------------------------------------------- latencies
    tlb_entries: int = 64                 #: TLB reach, in pages
    tlb_miss_pcycles: float = 100.0       #: page-table walk on TLB miss
    tlb_shootdown_pcycles: float = 500.0  #: initiator cost of a shootdown
    interrupt_pcycles: float = 400.0      #: per-CPU cost of being interrupted

    # ---------------------------------------------------------------- memory
    memory_per_node: int = 256 * KB       #: local memory per node
    mem_bus_mbps: float = 800.0           #: memory bus transfer rate
    io_bus_mbps: float = 300.0            #: I/O bus transfer rate

    # ---------------------------------------------------------------- network
    link_mbps: float = 200.0              #: mesh link transfer rate
    router_delay_pcycles: float = 20.0    #: per-hop wormhole routing delay
    message_overhead_pcycles: float = 50.0  #: fixed SW/NI overhead per message
    control_msg_bytes: int = 16           #: size of request/ACK/NACK messages

    # ---------------------------------------------------------------- optical ring
    ring_channels: int = 8                #: WDM cache channels (one per node)
    ring_round_trip_usec: float = 52.0    #: fiber round-trip latency
    ring_mbps: float = 1250.0             #: per-channel transfer rate
    ring_channel_bytes: int = 64 * KB     #: optical storage per channel

    # ---------------------------------------------------------------- disks
    disk_cache_bytes: int = 16 * KB       #: controller cache per disk
    seek_min_msec: float = 2.0            #: minimum (track-to-track) seek
    seek_max_msec: float = 22.0           #: full-stroke seek
    rotational_msec: float = 4.0          #: average rotational latency
    disk_mbps: float = 20.0               #: media transfer rate
    controller_overhead_pcycles: float = 500.0  #: fixed per-request overhead
    disk_cylinders: int = 2048            #: cylinders for the seek model
    blocks_per_cylinder: int = 64         #: 4KB blocks per cylinder

    # ---------------------------------------------------------------- file system
    pages_per_group: int = 32             #: striping unit (consecutive pages)

    # ---------------------------------------------------------------- OS policy
    min_free_frames: int = 2              #: frames the OS keeps free per node
    replacement_batch: int = 1            #: victims freed per daemon pass
    victim_caching: bool = True           #: NWCache: serve faults off the ring
                                          #: (False = write-staging only; ablation)
    replacement_policy: str = "lru"       #: page replacement: lru|fifo|clock
    os_reserved_fraction: float = 0.10    #: frames pinned by kernel/code/stacks
                                          #: and thus unavailable for file pages

    # ---------------------------------------------------------------- CPU cost model
    cpu_cycles_per_access: float = 2.0    #: busy cycles per memory access
    l2_resident_pages: int = 16           #: page-granularity L2 reuse window
    cold_miss_bytes: int = 1024           #: bytes fetched on a non-resident visit
    remote_latency_pcycles: float = 200.0  #: fixed cost of a remote fetch

    # ---------------------------------------------------------------- experiment
    seed: int = 1999                      #: master RNG seed
    mesh_shape: tuple = ()                #: (rows, cols); () = auto near-square

    # ---------------------------------------------------------------- auditing
    audit: bool = False                   #: run invariant checks during the sim
    audit_every_events: int = 512         #: events between audit passes

    # ---------------------------------------------------------------- faults
    #: fault-injection plan: a FaultPlan, a spec string (parsed on
    #: construction; see repro.sim.faults.parse_fault_spec), or None
    faults: Optional[FaultPlan] = None

    # -------------------------------------------------------------- derived
    @property
    def frames_per_node(self) -> int:
        """Page frames per node available for file pages (after the
        kernel/code reservation)."""
        raw = self.memory_per_node // self.page_size
        return max(2, raw - round(raw * self.os_reserved_fraction))

    @property
    def total_frames(self) -> int:
        """Page frames machine-wide."""
        return self.frames_per_node * self.n_nodes

    @property
    def mem_bus_rate(self) -> float:
        """Memory bus rate, bytes per pcycle."""
        return mbps_to_bytes_per_pcycle(self.mem_bus_mbps)

    @property
    def io_bus_rate(self) -> float:
        """I/O bus rate, bytes per pcycle."""
        return mbps_to_bytes_per_pcycle(self.io_bus_mbps)

    @property
    def link_rate(self) -> float:
        """Mesh link rate, bytes per pcycle."""
        return mbps_to_bytes_per_pcycle(self.link_mbps)

    @property
    def ring_rate(self) -> float:
        """Per-channel optical rate, bytes per pcycle."""
        return mbps_to_bytes_per_pcycle(self.ring_mbps)

    @property
    def ring_round_trip_pcycles(self) -> float:
        """Ring round-trip latency in pcycles."""
        return usec_to_pcycles(self.ring_round_trip_usec)

    @property
    def ring_slots_per_channel(self) -> int:
        """Pages one cache channel can store."""
        return self.ring_channel_bytes // self.page_size

    @property
    def ring_capacity_bytes(self) -> int:
        """Total optical storage on the ring."""
        return self.ring_channel_bytes * self.ring_channels

    @property
    def disk_cache_pages(self) -> int:
        """Controller cache capacity in pages."""
        return self.disk_cache_bytes // self.page_size

    @property
    def disk_rate(self) -> float:
        """Disk media rate, bytes per pcycle."""
        return mbps_to_bytes_per_pcycle(self.disk_mbps)

    @property
    def seek_min_pcycles(self) -> float:
        """Minimum seek in pcycles."""
        return msec_to_pcycles(self.seek_min_msec)

    @property
    def seek_max_pcycles(self) -> float:
        """Full-stroke seek in pcycles."""
        return msec_to_pcycles(self.seek_max_msec)

    @property
    def rotational_pcycles(self) -> float:
        """Average rotational latency in pcycles."""
        return msec_to_pcycles(self.rotational_msec)

    @property
    def mesh_dims(self) -> tuple:
        """Mesh (rows, cols): explicit ``mesh_shape`` or near-square auto."""
        if self.mesh_shape:
            rows, cols = self.mesh_shape
            if rows * cols != self.n_nodes:
                raise ValueError(
                    f"mesh_shape {self.mesh_shape} does not cover {self.n_nodes} nodes"
                )
            return (rows, cols)
        rows = 1
        for r in range(int(self.n_nodes**0.5), 0, -1):
            if self.n_nodes % r == 0:
                rows = r
                break
        return (rows, self.n_nodes // rows)

    # -------------------------------------------------------------- validation
    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if not (1 <= self.n_io_nodes <= self.n_nodes):
            raise ValueError(
                f"n_io_nodes must be in [1, {self.n_nodes}], got {self.n_io_nodes}"
            )
        if self.page_size < 512:
            raise ValueError(f"implausible page size {self.page_size}")
        if self.memory_per_node < 2 * self.page_size:
            raise ValueError("memory_per_node must hold at least two pages")
        if self.min_free_frames < 1:
            raise ValueError("min_free_frames must be >= 1")
        if self.min_free_frames >= self.frames_per_node:
            raise ValueError(
                f"min_free_frames ({self.min_free_frames}) must be below "
                f"frames_per_node ({self.frames_per_node})"
            )
        if self.ring_channels < self.n_nodes:
            raise ValueError(
                "need at least one cache channel per node "
                f"({self.ring_channels} < {self.n_nodes})"
            )
        if self.disk_cache_pages < 1:
            raise ValueError("disk cache must hold at least one page")
        if self.ring_slots_per_channel < 1:
            raise ValueError("ring channel must store at least one page")
        if self.replacement_policy not in ("lru", "fifo", "clock"):
            raise ValueError(
                f"unknown replacement policy {self.replacement_policy!r}"
            )
        if self.audit_every_events < 1:
            raise ValueError(
                f"audit_every_events must be >= 1, got {self.audit_every_events}"
            )
        # Every latency, overhead and per-access cost becomes a delay the
        # engine sleeps or jumps over; a negative one would run the clock
        # backwards on the jump path instead of failing.
        for name in _NONNEGATIVE_TIMES:
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if isinstance(self.faults, str):
            self.faults = parse_fault_spec(self.faults)
        if self.faults is not None:
            self.faults.validate(self)
        self.mesh_dims  # trigger shape validation

    # -------------------------------------------------------------- presets
    @classmethod
    def paper(cls, **overrides: Any) -> "SimConfig":
        """The exact Table 1 configuration."""
        return cls(**overrides)

    @classmethod
    def small(cls, **overrides: Any) -> "SimConfig":
        """Half-scale machine for fast experiments (same ratios as paper)."""
        params: Dict[str, Any] = dict(
            n_nodes=4,
            n_io_nodes=2,
            memory_per_node=128 * KB,
            ring_channels=4,
            ring_channel_bytes=32 * KB,
            ring_round_trip_usec=26.0,
            disk_cache_bytes=16 * KB,
            tlb_entries=32,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def tiny(cls, **overrides: Any) -> "SimConfig":
        """Minimal 4-node machine for unit tests (tens of frames)."""
        params: Dict[str, Any] = dict(
            n_nodes=4,
            n_io_nodes=2,
            memory_per_node=32 * KB,   # 8 frames per node
            ring_channels=4,
            ring_channel_bytes=16 * KB,  # 4 slots per channel
            ring_round_trip_usec=13.0,
            disk_cache_bytes=8 * KB,   # 2 pages
            tlb_entries=8,
            pages_per_group=8,
            l2_resident_pages=4,
            os_reserved_fraction=0.0,  # keep round frame counts in tests
        )
        params.update(overrides)
        return cls(**params)

    def replace(self, **changes: Any) -> "SimConfig":
        """A copy of this config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Human-readable parameter dump (mirrors Table 1)."""
        lines = [
            f"Number of Nodes                 {self.n_nodes}",
            f"Number of I/O-Enabled Nodes     {self.n_io_nodes}",
            f"Page Size                       {self.page_size // KB} KBytes",
            f"TLB Miss Latency                {self.tlb_miss_pcycles:.0f} pcycles",
            f"TLB Shootdown Latency           {self.tlb_shootdown_pcycles:.0f} pcycles",
            f"Interrupt Latency               {self.interrupt_pcycles:.0f} pcycles",
            f"Memory Size per Node            {self.memory_per_node // KB} KBytes",
            f"Memory Bus Transfer Rate        {self.mem_bus_mbps:.0f} MBytes/sec",
            f"I/O Bus Transfer Rate           {self.io_bus_mbps:.0f} MBytes/sec",
            f"Network Link Transfer Rate      {self.link_mbps:.0f} MBytes/sec",
            f"WDM Channels on Optical Ring    {self.ring_channels}",
            f"Optical Ring Round-Trip Latency {self.ring_round_trip_usec:.0f} usecs",
            f"Optical Ring Transfer Rate      {self.ring_mbps / 1000:.2f} GBytes/sec",
            f"Storage Capacity on Ring        {self.ring_capacity_bytes // KB} KBytes",
            f"Optical Storage per Channel     {self.ring_channel_bytes // KB} KBytes",
            f"Disk Controller Cache Size      {self.disk_cache_bytes // KB} KBytes",
            f"Min Seek Latency                {self.seek_min_msec:.0f} msec",
            f"Max Seek Latency                {self.seek_max_msec:.0f} msecs",
            f"Rotational Latency              {self.rotational_msec:.0f} msec",
            f"Disk Transfer Rate              {self.disk_mbps:.0f} MBytes/sec",
        ]
        return "\n".join(lines)


#: the SimConfig time and cost fields that must not be negative
_NONNEGATIVE_TIMES = tuple(
    f.name
    for f in dataclasses.fields(SimConfig)
    if f.name.endswith(("_pcycles", "_usec", "_msec"))
    or f.name == "cpu_cycles_per_access"
)
