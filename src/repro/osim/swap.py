"""Page swap-out paths: standard (over the mesh) and NWCache (onto the ring).

Standard machine (Section 3.1): the dirty page crosses the swapping
node's memory bus, the interconnection network, and the I/O node's
I/O bus to the disk controller, which ACKs (page placed in its cache) or
NACKs (cache full of swap-outs; the node re-sends after the controller's
OK).  The frame is reusable at the ACK.

NWCache machine (Section 3.2): if the node's cache channel has room, the
page crosses the memory and I/O buses to the local NWC interface and is
inserted on the channel; the frame is reusable *immediately* and a
control message queues the page at the responsible I/O node's interface
for the eventual drain to disk.  If the channel is full the swap-out
waits for an ACK/victim-read to free a slot.

Swap-out duration (Tables 3/4) is measured here: write initiation to
frame-reusable.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.config import SimConfig
from repro.disk.controller import DiskController
from repro.disk.filesystem import FileSystem
from repro.hw.network import MeshNetwork
from repro.metrics import Metrics
from repro.optical.interface import NWCacheInterface
from repro.optical.ring import OpticalRing
from repro.osim.pagetable import PageEntry
from repro.sim import BandwidthPipe, Engine
from repro.sim.events import Event


class SwapManager:
    """Executes swap-outs for the VM layer."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        fs: FileSystem,
        network: MeshNetwork,
        mem_buses: List[BandwidthPipe],
        io_buses: List[BandwidthPipe],
        controllers: List[DiskController],
        disk_nodes: List[int],
        metrics: Metrics,
        ring: Optional[OpticalRing] = None,
        interfaces: Optional[Dict[int, NWCacheInterface]] = None,
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.fs = fs
        self.network = network
        self.mem_buses = mem_buses
        self.io_buses = io_buses
        self.controllers = controllers
        self.disk_nodes = disk_nodes  #: disk index -> hosting node id
        self.metrics = metrics
        self.ring = ring
        self.interfaces = interfaces or {}
        #: attempt uncontended clock jumps on the swap-out crossings
        #: (set by the machine for compiled-trace replays; each jump
        #: is exactly equivalent to the evented sequence it replaces, so
        #: trajectories are bit-identical either way)
        self.jump_transfers = False

    @property
    def has_ring(self) -> bool:
        """True on the NWCache-equipped machine."""
        return self.ring is not None

    # -- helpers ----------------------------------------------------------
    def io_node_of(self, page: int) -> int:
        """The node hosting the disk that stores ``page``."""
        return self.disk_nodes[self.fs.disk_of(page)]

    def controller_of(self, page: int) -> DiskController:
        """The disk controller responsible for ``page``."""
        return self.controllers[self.fs.disk_of(page)]

    # -- entry point ----------------------------------------------------------
    def swap_out(
        self, node: int, page: int, entry: PageEntry
    ) -> Generator[Event, Any, str]:
        """Swap a dirty page out; returns when the frame is reusable.

        Returns ``"done"`` (frame reusable) or ``"cancelled"`` (a fault
        reclaimed the page mid-swap; the caller must re-install it).

        Dispatches by returning the path-specific generator rather than
        delegating with ``yield from``: a swap-out spans many events and
        every one of them resumes through the whole generator chain, so
        dropping the wrapper frame is measurable.  Duration/outcome
        metrics are recorded by the path methods themselves.
        """
        if self.has_ring:
            return self._ring_swap_out(node, page, entry)
        return self._standard_swap_out(node, page, entry)

    # -- standard path -----------------------------------------------------------
    def _standard_swap_out(
        self, node: int, page: int, entry: PageEntry
    ) -> Generator[Event, Any, str]:
        ctrl = self.controller_of(page)
        io_node = self.io_node_of(page)
        engine = self.engine
        t0 = engine.now
        psize = self.cfg.page_size
        csize = self.cfg.control_msg_bytes
        wait_total = 0.0
        # Routes are deterministic, so the two route entries this swap-out
        # uses are looked up once; the network crossings below are
        # MeshNetwork.transfer, inlined (identical events without a
        # delegate generator per message — see cpu.py).
        net = self.network
        ent_out = net._route_cache.get((node, io_node))
        if ent_out is None:
            ent_out = net._route_entry(node, io_node)
        ent_back = net._route_cache.get((io_node, node))
        if ent_back is None:
            ent_back = net._route_entry(io_node, node)
        # Every crossing below first attempts an uncontended clock jump
        # (try_jump_transfer: same clock adds, busy integrals, byte and
        # event counts as the evented sequence) and falls back to the
        # inlined claim/sleep/release path when the pipe or the
        # window is contended.
        jumps = self.jump_transfers
        while True:
            if entry.reclaim_requested:
                self.metrics.counts.add("swap_cancels")
                return "cancelled"
            # The page travels memory bus -> network -> the I/O node's
            # memory bus -> its I/O bus (Figure 1's data path).  Bus
            # crossings are BandwidthPipe.transfer, inlined (identical
            # events without a delegate generator — see cpu.py).
            bus = self.mem_buses[node]
            if not (jumps and bus.try_jump_transfer(psize)):
                tok = bus._server.claim()
                yield tok
                try:
                    yield bus.overhead + psize / bus.rate
                    bus.bytes_transferred += psize
                finally:
                    bus._server.release(tok)
            if io_node != node:
                if not (jumps and net.try_jump_transfer(node, io_node, psize)):
                    t0n = engine._now
                    links, fixed, _h = ent_out
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
                bus = self.mem_buses[io_node]
                if not (jumps and bus.try_jump_transfer(psize)):
                    tok = bus._server.claim()
                    yield tok
                    try:
                        yield bus.overhead + psize / bus.rate
                        bus.bytes_transferred += psize
                    finally:
                        bus._server.release(tok)
            bus = self.io_buses[io_node]
            if not (jumps and bus.try_jump_transfer(psize)):
                tok = bus._server.claim()
                yield tok
                try:
                    yield bus.overhead + psize / bus.rate
                    bus.bytes_transferred += psize
                finally:
                    bus._server.release(tok)
            if ctrl.try_accept_write(page):
                # ACK back to the swapping node.
                if not (jumps and net.try_jump_transfer(io_node, node, csize)):
                    t0n = engine._now
                    links, fixed, _h = ent_back
                    if not links:
                        yield fixed
                    else:
                        tokens = []
                        try:
                            for res in links:
                                ntok = res.claim()
                                tokens.append(ntok)
                                yield ntok
                            yield fixed + csize / net._link_rate
                        finally:
                            for res, ntok in zip(links, tokens):
                                res.release(ntok)
                    net.bytes_sent += csize
                    net.latency.record(engine._now - t0n)
                break
            # NACK; wait in the controller's FIFO for the OK, then re-send.
            # A reclaim arriving during the wait cancels the swap-out.
            self.metrics.counts.add("swap_nacks")
            if not (jumps and net.try_jump_transfer(io_node, node, csize)):
                t0n = engine._now
                links, fixed, _h = ent_back
                if not links:
                    yield fixed
                else:
                    tokens = []
                    try:
                        for res in links:
                            ntok = res.claim()
                            tokens.append(ntok)
                            yield ntok
                        yield fixed + csize / net._link_rate
                    finally:
                        for res, ntok in zip(links, tokens):
                            res.release(ntok)
                net.bytes_sent += csize
                net.latency.record(engine._now - t0n)
            t_wait = self.engine.now
            ok = ctrl.wait_for_room()
            reclaim = entry.reclaim_event()
            yield self.engine.any_of([ok, reclaim])
            if entry.reclaim_requested:
                ctrl.cancel_wait(ok)
                self.metrics.counts.add("swap_cancels")
                return "cancelled"
            # the OK message
            if not (jumps and net.try_jump_transfer(io_node, node, csize)):
                t0n = engine._now
                links, fixed, _h = ent_back
                if not links:
                    yield fixed
                else:
                    tokens = []
                    try:
                        for res in links:
                            ntok = res.claim()
                            tokens.append(ntok)
                            yield ntok
                        yield fixed + csize / net._link_rate
                    finally:
                        for res, ntok in zip(links, tokens):
                            res.release(ntok)
                net.bytes_sent += csize
                net.latency.record(engine._now - t0n)
            wait_total += self.engine.now - t_wait
        self.metrics.swapout_wait.record(wait_total)
        entry.to_absent()
        self.metrics.swapout.record(engine.now - t0)
        self.metrics.counts.add("swapouts")
        return "done"

    # -- NWCache path ------------------------------------------------------------
    def _ring_swap_out(
        self, node: int, page: int, entry: PageEntry
    ) -> Generator[Event, Any, str]:
        assert self.ring is not None
        channel = self.ring.best_channel(node)
        if channel is None:
            # Every channel this node owns is failed or dropped: degrade
            # gracefully to the standard interconnect path.
            self.metrics.faults.add("degraded_swapouts")
            return (yield from self._standard_swap_out(node, page, entry))
        psize = self.cfg.page_size
        t0 = self.engine.now
        if entry.reclaim_requested:
            self.metrics.counts.add("swap_cancels")
            return "cancelled"
        t_wait = t0
        # A swap-out may start only when the node's own channel has room;
        # a reclaim arriving during a channel-full wait cancels it.
        slot = channel.reserve_slot()
        if not slot.triggered:
            reclaim = entry.reclaim_event()
            yield self.engine.any_of([slot, reclaim])
            # A slot wait woken by a channel failure/drop carries the
            # "channel-failed" marker and holds no reservation.
            slot_failed = slot.triggered and slot.value == "channel-failed"
            if entry.reclaim_requested:
                if not slot_failed:
                    channel.cancel_reservation(slot)
                self.metrics.counts.add("swap_cancels")
                return "cancelled"
            if slot_failed:
                self.metrics.faults.add("degraded_swapouts")
                return (yield from self._standard_swap_out(node, page, entry))
        else:
            yield slot
        self.metrics.swapout_wait.record(self.engine.now - t_wait)
        # Page crosses the local memory and I/O buses to the NWC interface
        # (BandwidthPipe.transfer, inlined — identical events; jump-first
        # like the standard path above).
        engine = self.engine
        jumps = self.jump_transfers
        for bus in (self.mem_buses[node], self.io_buses[node]):
            if not (jumps and bus.try_jump_transfer(psize)):
                tok = bus._server.claim()
                yield tok
                try:
                    yield bus.overhead + psize / bus.rate
                    bus.bytes_transferred += psize
                finally:
                    bus._server.release(tok)
        ins = channel.insertion_time()
        if not (jumps and engine.try_jump(ins, 1)):
            yield ins
        if not channel.available():
            # The channel failed or dropped while the page was crossing
            # the buses: give the slot back and degrade.
            channel.release_reservation()
            self.metrics.faults.add("degraded_swapouts")
            return (yield from self._standard_swap_out(node, page, entry))
        channel.insert(page)
        entry.to_ring(channel=channel.index, swapper=node)
        # Control message to the responsible I/O node's interface.
        io_node = self.io_node_of(page)
        iface = self.interfaces.get(io_node)
        if iface is None:
            raise RuntimeError(f"no NWCache interface at I/O node {io_node}")
        iface.notify_swapout(channel=channel.index, page=page, swapper=node)
        self.metrics.swapout.record(engine.now - t0)
        self.metrics.counts.add("swapouts")
        return "done"
