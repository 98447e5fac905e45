"""Virtual-memory management: faults, replacement, victim reads.

This is the paper's Section 3.1 VM model plus the two NWCache
modifications (Ring-bit handling and driving the NWC interface):

* **Fast path** (:meth:`VmSystem.fast_access`): TLB lookup; on a miss, a
  page-table walk (``tlb_miss_pcycles``, charged lazily through the
  CPU's pending-time mechanism).  Pages resident anywhere in the machine
  are accessed remotely (DASH-style CC-NUMA — no second memory copy).
* **Slow path** (:meth:`VmSystem.resolve`): the fault loop.  A page being
  fetched by another node is a *Transit* wait; a page mid-swap-out is
  waited on and re-resolved; a page with the Ring bit set is claimed and
  snooped straight off the optical ring (victim caching); an absent page
  is fetched from its disk via the standard request/response protocol.
* **Replacement** (one daemon per node): keeps ``min_free_frames`` frames
  free using the configured policy (the paper's LRU by default, see
  :mod:`repro.osim.replacement`) over the node's resident pages;
  eviction downgrades the
  page (TLB shootdown: initiator pays ``tlb_shootdown_pcycles``, every
  other CPU is interrupted) and swaps dirty pages out via the
  :class:`~repro.osim.swap.SwapManager`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.config import SimConfig
from repro.disk.controller import PrefetchMode
from repro.disk.filesystem import FileSystem
from repro.hw.accounting import TimeAccount
from repro.hw.cache import CacheModel
from repro.hw.memory import FramePool
from repro.hw.network import MeshNetwork
from repro.hw.tlb import Tlb
from repro.metrics import Metrics
from repro.osim.pagetable import PageState, PageTable
from repro.osim.replacement import ReplacementPolicy, make_policy
from repro.osim.swap import SwapManager
from repro.sim import BandwidthPipe, Engine
from repro.sim.events import Event


class VmSystem:
    """Machine-wide virtual memory manager."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        fs: FileSystem,
        pools: List[FramePool],
        tlbs: List[Tlb],
        caches: List[CacheModel],
        network: MeshNetwork,
        mem_buses: List[BandwidthPipe],
        io_buses: List[BandwidthPipe],
        swap: SwapManager,
        metrics: Metrics,
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.fs = fs
        self.pools = pools
        self.tlbs = tlbs
        self.caches = caches
        self.network = network
        self.mem_buses = mem_buses
        self.io_buses = io_buses
        self.swap = swap
        self.metrics = metrics
        self.table = PageTable(engine)
        #: when True (set by the machine for compiled-trace replays), the
        #: fault paths first attempt uncontended clock jumps
        #: (``try_jump`` / ``try_jump_transfer``) before scheduling real
        #: events.  Off by default so the generator path stays purely
        #: evented, mechanism for mechanism.
        self.jump_transfers = False
        #: per-node resident-page replacement policy (paper: LRU)
        self.resident: List[ReplacementPolicy] = [
            make_policy(cfg.replacement_policy) for _ in range(cfg.n_nodes)
        ]
        #: CPUs, installed by the machine after construction (for cycle
        #: stealing during shootdowns and pending-time charging)
        self.cpus: List[Any] = []
        self._pending_free = [0] * cfg.n_nodes
        self._daemon_wakes: List[Optional[Event]] = [None] * cfg.n_nodes
        # Shootdowns broadcast to every node; pre-zip the per-node pairs
        # so _begin_eviction iterates one list instead of indexing two.
        self._shootdown_targets = list(zip(self.tlbs, self.caches))
        for iface in swap.interfaces.values():
            iface.ack_callback = self.ring_ack
        for node in range(cfg.n_nodes):
            engine.process(self._daemon(node))

    # ------------------------------------------------------------------ setup
    def install_cpus(self, cpus: List[Any]) -> None:
        """Wire the CPUs in (after both sides exist)."""
        if len(cpus) != self.cfg.n_nodes:
            raise ValueError("need exactly one CPU per node")
        self.cpus = list(cpus)

    def register_pages(self, pages: range) -> None:
        """Register an application's file pages with the page table."""
        self.table.register(pages)

    # ------------------------------------------------------------------ fast path
    def fast_access(self, node: int, page: int, is_write: bool) -> Optional[int]:
        """Non-blocking access attempt; returns the home node or None.

        Handles TLB hit/miss bookkeeping synchronously.  A TLB miss whose
        page-table walk finds the page resident installs the translation
        and costs ``tlb_miss_pcycles`` (charged via the CPU's pending
        mechanism).  Returns ``None`` when the page is not resident — the
        CPU must then take the slow path (:meth:`resolve`).
        """
        tlb = self.tlbs[node]
        # Tlb.lookup, inlined (this runs once per stream item): a hit is
        # a dict get plus the LRU refresh.
        entries = tlb._entries
        home = entries.get(page)
        if home is not None:
            del entries[page]
            entries[page] = home
            tlb._hits += 1
            # TLB hit: the page-table entry is only needed to mark writes
            # dirty, so the read hit — the hottest access of all — skips
            # the table lookup entirely.
            self.resident[home].touch(page)
            if is_write:
                self.table[page].dirty = True
            return home
        tlb._misses += 1
        cpu = self.cpus[node]
        cpu.add_pending("tlb", self.cfg.tlb_miss_pcycles)
        entry = self.table[page]
        if entry.state is not PageState.MEMORY:
            return None
        home = entry.node
        assert home is not None
        tlb.insert(page, home)
        self.resident[home].touch(page)
        if is_write:
            entry.dirty = True
        return home

    def _touch(self, page: int, home: int) -> None:
        """Record an access for the home node's replacement policy."""
        self.resident[home].touch(page)

    # ------------------------------------------------------------------ slow path
    def resolve(
        self, node: int, page: int, is_write: bool, acct: TimeAccount
    ) -> Generator[Event, Any, int]:
        """Fault loop: make ``page`` resident and return its home node."""
        entry = self.table[page]
        engine = self.engine
        jumps = self.jump_transfers
        while True:
            state = entry.state
            if state is PageState.MEMORY:
                home = entry.node
                assert home is not None
                self.tlbs[node].insert(page, home)
                self._touch(page, home)
                if is_write:
                    entry.dirty = True
                return home
            if state is PageState.INFLIGHT:
                # Another node is bringing the page in: Transit.
                t0 = engine._now
                yield entry.settle_event()
                acct.charge("transit", engine._now - t0)
                self.metrics.counts.add("transit_waits")
                continue
            if state is PageState.SWAPPING:
                # Mid-eviction: the frame still holds valid data, so ask
                # the swap-out to cancel and re-map (swap-cache reclaim).
                entry.request_reclaim()
                t0 = engine._now
                yield entry.settle_event()
                acct.charge("fault", engine._now - t0)
                self.metrics.counts.add("reclaim_waits")
                continue
            # RING or ABSENT: a fetch is needed.  The frame is allocated
            # *before* claiming a ring page: claiming pins the page's slot,
            # and freeing a frame may require an eviction that needs a slot
            # on that same channel, so alloc-after-claim can deadlock.
            pool = self.pools[node]
            frame = pool.try_alloc()
            if frame is None:
                frame = yield from pool.alloc(acct)  # charges nofree
            self._kick_daemon(node)
            state = entry.state  # may have changed during the stall
            if state is PageState.RING:
                iface = self.swap.interfaces.get(self.swap.io_node_of(page))
                channel = entry.ring_channel
                assert iface is not None and channel is not None
                if self.cfg.victim_caching and iface.try_claim(channel, page):
                    yield from self._fault_from_ring(node, page, entry, acct, frame)
                    continue
                # The drain already popped it; once the ACK lands the
                # page is ABSENT but hot in the disk controller cache.
                self.pools[node].free(frame)
                t0 = engine._now
                yield entry.settle_event()
                acct.charge("fault", engine._now - t0)
                continue
            if state is not PageState.ABSENT:
                # Another node resolved it while we stalled for the frame.
                self.pools[node].free(frame)
                continue
            # -- disk fetch, inlined at its only call site: the fault path
            # spans many events and each resume walks the generator chain,
            # so keeping the fetch in this frame (rather than a delegate
            # generator) drops one frame hop per event on the hottest path.
            entry.to_inflight(node)
            t0 = engine._now
            t_fetch = t0
            ctrl = self.swap.controller_of(page)
            io_node = self.swap.io_node_of(page)
            psize = self.cfg.page_size
            # Request message to the I/O node, service, data response.  The
            # data crosses the I/O node's I/O bus *and* memory bus on its
            # way to the network interface (Figure 1) — the crossing a ring
            # hit avoids (Section 5, "Contention").  Bus and network
            # crossings are BandwidthPipe.transfer / MeshNetwork.transfer,
            # inlined (identical events without a delegate generator).
            net = self.network
            nbytes = self.cfg.control_msg_bytes
            if not (jumps and net.try_jump_transfer(node, io_node, nbytes)):
                t0n = engine._now
                ent = net._route_cache.get((node, io_node))
                if ent is None:
                    ent = net._route_entry(node, io_node)
                links, fixed, _h = ent
                if not links:
                    yield fixed
                else:
                    tokens = []
                    try:
                        for res in links:
                            ntok = res.claim()
                            tokens.append(ntok)
                            yield ntok
                        yield fixed + nbytes / net._link_rate
                    finally:
                        for res, ntok in zip(links, tokens):
                            res.release(ntok)
                net.bytes_sent += nbytes
                net.latency.record(engine._now - t0n)
            if ctrl.prefetch is PrefetchMode.OPTIMAL:
                # Under idealized prefetching the read is the controller
                # overhead plus a cache touch — no disk, no delegate.
                if not (
                    jumps
                    and engine.try_jump(self.cfg.controller_overhead_pcycles, 1)
                ):
                    yield self.cfg.controller_overhead_pcycles
                result = ctrl.note_optimal_read(page)
            else:
                result = yield from ctrl.read(page)
            bus = self.io_buses[io_node]
            if not (jumps and bus.try_jump_transfer(psize)):
                tok = bus._server.claim()
                yield tok
                try:
                    yield bus.overhead + psize / bus.rate
                    bus.bytes_transferred += psize
                finally:
                    bus._server.release(tok)
            if io_node != node:
                bus = self.mem_buses[io_node]
                if not (jumps and bus.try_jump_transfer(psize)):
                    tok = bus._server.claim()
                    yield tok
                    try:
                        yield bus.overhead + psize / bus.rate
                        bus.bytes_transferred += psize
                    finally:
                        bus._server.release(tok)
                if not (jumps and net.try_jump_transfer(io_node, node, psize)):
                    # MeshNetwork.transfer, inlined (identical events).
                    t0n = engine._now
                    ent = net._route_cache.get((io_node, node))
                    if ent is None:
                        ent = net._route_entry(io_node, node)
                    links, fixed, _h = ent
                    tokens = []
                    try:
                        for res in links:
                            ntok = res.claim()
                            tokens.append(ntok)
                            yield ntok
                        yield fixed + psize / net._link_rate
                    finally:
                        for res, ntok in zip(links, tokens):
                            res.release(ntok)
                    net.bytes_sent += psize
                    net.latency.record(engine._now - t0n)
            bus = self.mem_buses[node]
            if not (jumps and bus.try_jump_transfer(psize)):
                tok = bus._server.claim()
                yield tok
                try:
                    yield bus.overhead + psize / bus.rate
                    bus.bytes_transferred += psize
                finally:
                    bus._server.release(tok)
            entry.to_memory(node, frame, dirty=False)
            self.resident[node].insert(page)
            now = engine._now
            latency = now - t_fetch
            acct.charge("fault", latency)
            self.metrics.counts.add("faults")
            self.metrics.fault_latency.record(now - t0)
            if result == "hit":
                self.metrics.counts.add("disk_cache_hits")
                self.metrics.disk_hit_latency.record(latency)
            else:
                self.metrics.counts.add("disk_reads")
            self._kick_daemon(node)

    # -- ring (victim cache) fetch ------------------------------------------------
    def _fault_from_ring(
        self, node: int, page: int, entry: Any, acct: TimeAccount, frame: int
    ) -> Generator[Event, Any, None]:
        assert self.swap.ring is not None
        channel = self.swap.ring.channels[entry.ring_channel]
        entry.to_inflight(node)
        engine = self.engine
        t0 = engine._now
        t_fetch = t0
        psize = self.cfg.page_size
        # Snoop the page off the cache channel, then cross the local
        # I/O and memory buses into the frame.  No network, no I/O node.
        # The bus crossings are BandwidthPipe.transfer, inlined (identical
        # events without a delegate generator per crossing — see cpu.py).
        jumps = self.jump_transfers
        read_delay = channel.read_delay(page)
        if not (jumps and engine.try_jump(read_delay, 1)):
            yield read_delay
        for bus in (self.io_buses[node], self.mem_buses[node]):
            if jumps and bus.try_jump_transfer(psize):
                continue
            tok = bus._server.claim()
            yield tok
            try:
                yield bus.overhead + psize / bus.rate
                bus.bytes_transferred += psize
            finally:
                bus._server.release(tok)
        channel.remove(page)
        # The disk copy is stale, so the page re-enters memory dirty.
        entry.to_memory(node, frame, dirty=True)
        self.resident[node].insert(page)
        now = engine._now
        acct.charge("fault", now - t_fetch)
        self.metrics.counts.add("faults")
        self.metrics.counts.add("ring_hits")
        self.metrics.ring_hit_latency.record(now - t0)
        self.metrics.fault_latency.record(now - t0)
        self._kick_daemon(node)

    # ------------------------------------------------------------------ drain ACK
    def ring_ack(self, page: int, swapper: int) -> None:
        """Drain ACK: the page is now (dirty) in the disk controller cache;
        free its ring slot and clear the Ring bit."""
        entry = self.table[page]
        if entry.state is not PageState.RING:
            raise RuntimeError(f"ACK for page {page} in state {entry.state}")
        assert self.swap.ring is not None
        self.swap.ring.channels[entry.ring_channel].remove(page)
        entry.to_absent()

    # ------------------------------------------------------------------ fault injection
    def lose_ring_page(self, page: int) -> bool:
        """Drop a page circulating on the optical ring (fault injection).

        Only pages still *claimable* — queued in the responsible
        interface's drain FIFO — can be lost; a page the drain is
        already streaming off completes its journey to the disk cache
        normally.  A lost page becomes ABSENT (settling any waiters), so
        the next fault re-fetches it from the disk copy.  Returns True
        when the page was actually lost.
        """
        entry = self.table[page]
        if entry.state is not PageState.RING:
            return False
        channel = entry.ring_channel
        iface = self.swap.interfaces.get(self.swap.io_node_of(page))
        if iface is None or channel is None or not iface.try_claim(channel, page):
            return False
        assert self.swap.ring is not None
        self.swap.ring.channels[channel].remove(page)
        entry.to_absent()
        return True

    # ------------------------------------------------------------------ replacement
    def _kick_daemon(self, node: int) -> None:
        ev = self._daemon_wakes[node]
        if ev is not None and not ev.triggered:
            ev.succeed()

    def _frame_deficit(self, node: int) -> int:
        pool = self.pools[node]
        return (pool.min_free + pool.n_waiting) - (
            pool.n_free + self._pending_free[node]
        )

    def _daemon(self, node: int) -> Generator[Event, Any, None]:
        """Per-node replacement daemon: keep ``min_free_frames`` free."""
        while True:
            if self._frame_deficit(node) > 0 and len(self.resident[node]):
                page = self.resident[node].victim()
                self._begin_eviction(node, page)
                continue
            ev = self.engine.event()
            self._daemon_wakes[node] = ev
            yield ev

    def _begin_eviction(self, node: int, page: int) -> None:
        """Synchronous part: downgrade rights machine-wide, then spawn
        the (possibly long) swap-out."""
        entry = self.table[page]
        self.resident[node].remove(page)
        entry.to_swapping()
        # TLB shootdown: drop translations and cached residency everywhere;
        # the initiator pays the shootdown, everyone else an interrupt.
        for tlb, cache in self._shootdown_targets:
            # Tlb.invalidate / CacheModel.invalidate, inlined: the
            # shootdown walks every processor for every eviction.
            e = tlb._entries
            if page in e:
                del e[page]
                tlb._shootdowns += 1
            cache._resident.pop(page, None)
        if self.cpus:
            interrupt = self.cfg.interrupt_pcycles
            self.cpus[node].steal("tlb", self.cfg.tlb_shootdown_pcycles)
            for m, cpu in enumerate(self.cpus):
                if m != node:
                    cpu.steal("tlb", interrupt)
        self._pending_free[node] += 1
        self.engine.process(self._evict(node, page, entry))

    def _evict(self, node: int, page: int, entry: Any) -> Generator[Event, Any, None]:
        # The shootdown window is a plain delay: jump it when nothing
        # else is due inside it (bit-identical to the evented sleep).
        engine = self.engine
        d = self.cfg.tlb_shootdown_pcycles
        if not (self.jump_transfers and engine.try_jump(d, 1)):
            yield d
        frame = entry.frame
        assert frame is not None
        outcome = "done"
        if entry.reclaim_requested:
            outcome = "cancelled"  # refaulted during the shootdown window
        elif entry.dirty:
            outcome = yield from self.swap.swap_out(node, page, entry)
        else:
            entry.to_absent()
            self.metrics.counts.add("clean_drops")
        if outcome == "cancelled":
            # The page never left its frame: re-map it where it was.
            entry.reinstall(node, frame, dirty=entry.dirty)
            self.resident[node].insert(page)
        else:
            self.pools[node].free(frame)
        self._pending_free[node] -= 1
        self._kick_daemon(node)

    # ------------------------------------------------------------------ invariants
    def check_invariants(self) -> None:
        """Assert structural consistency (used by tests; cheap)."""
        for n, res in enumerate(self.resident):
            for page in res.pages():
                entry = self.table[page]
                assert entry.state is PageState.MEMORY, (n, page, entry.state)
                assert entry.node == n, (n, page, entry.node)
        if self.swap.ring is not None:
            for ch in self.swap.ring.channels:
                for page in ch.pages():
                    entry = self.table[page]
                    assert entry.state is PageState.RING, (page, entry.state)
