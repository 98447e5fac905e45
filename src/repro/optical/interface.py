"""The per-node NWCache interface (the "NWC" box of Figure 1).

Every node's I/O bus carries an NWCache interface; the interfaces at
I/O-enabled nodes additionally front their disk controller and run the
*drain*: per Section 3.2, each interface keeps one FIFO per cache
channel recording the swap-outs destined for its disk, and whenever the
disk controller has room it snoops the **most heavily loaded** channel,
copying pages **in swap-out order** until that channel's FIFO is
exhausted (which is what batches consecutive swap-outs into combinable
disk writes), then ACKs each page back to the node that swapped it out.

A victim read (page fault that finds the Ring bit set) *claims* the page
first — removing it from the responsible interface's FIFO so it will not
also be written to disk — mirroring the paper's cancellation message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Optional, Tuple

from repro.config import SimConfig
from repro.disk.controller import DiskController
from repro.optical.ring import OpticalRing
from repro.sim import Counter, Engine
from repro.sim.events import Event

#: drain channel-selection policies (ablation: the paper uses most-loaded)
DRAIN_MOST_LOADED = "most-loaded"
DRAIN_ROUND_ROBIN = "round-robin"

#: ``ack(page, swapper)`` — installed by the VM layer; frees the ring
#: slot, clears the Ring bit, and settles the page-table entry.
AckCallback = Callable[[int, int], None]


class NWCacheInterface:
    """NWC interface of one node."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        node: int,
        ring: OpticalRing,
        controller: Optional[DiskController] = None,
        drain_policy: str = DRAIN_MOST_LOADED,
    ) -> None:
        if drain_policy not in (DRAIN_MOST_LOADED, DRAIN_ROUND_ROBIN):
            raise ValueError(f"unknown drain policy {drain_policy!r}")
        self.engine = engine
        self.cfg = cfg
        self.node = node
        self.ring = ring
        self.controller = controller
        self.drain_policy = drain_policy
        self.stats = Counter()
        #: set by the VM layer before the simulation starts
        self.ack_callback: Optional[AckCallback] = None
        self._fifos: Dict[int, Deque[Tuple[int, int, int]]] = {}
        self._fifo_seq = 0  # enqueue order stamp; see notify_swapout
        self._wake: Optional[Event] = None
        self._rr_next = 0
        if controller is not None:
            controller.add_room_listener(self._kick)
            engine.process(self._drain())

    # ------------------------------------------------------------- inbound
    def notify_swapout(self, channel: int, page: int, swapper: int) -> None:
        """Record a swap-out bound for this node's disk (control message
        carrying the swapping-node and page numbers, Section 3.2)."""
        if self.controller is None:
            raise RuntimeError(f"node {self.node} has no disk; bad routing")
        # The sequence stamp distinguishes a re-swapout of a claimed page
        # from the original queue entry, so FIFO discipline stays
        # checkable even though (page, swapper) pairs can recur.
        self._fifos.setdefault(channel, deque()).append(
            (page, swapper, self._fifo_seq)
        )
        self._fifo_seq += 1
        self.stats.add("notifications")
        self._kick()

    def try_claim(self, channel: int, page: int) -> bool:
        """Victim-read claim: remove ``page`` from the FIFO if still queued.

        Returns False when the drain already popped it (the page is on its
        way to — or already in — the disk controller cache), in which case
        the faulting node must fall back to a normal disk-cache read.
        """
        fifo = self._fifos.get(channel)
        if not fifo:
            return False
        for i, (p, _swapper, _seq) in enumerate(fifo):
            if p == page:
                del fifo[i]
                self.stats.add("claims")
                return True
        return False

    def pending(self, channel: int) -> int:
        """Queued swap-outs for ``channel`` at this interface."""
        return len(self._fifos.get(channel, ()))

    # ------------------------------------------------------------- drain
    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _pick_channel(self) -> Optional[int]:
        loaded = {ch: len(q) for ch, q in self._fifos.items() if q}
        if not loaded:
            return None
        if self.drain_policy == DRAIN_MOST_LOADED:
            # heaviest first; deterministic tie-break on channel index
            return min(loaded, key=lambda ch: (-loaded[ch], ch))
        n = self.cfg.ring_channels
        for off in range(n):
            ch = (self._rr_next + off) % n
            if loaded.get(ch):
                self._rr_next = (ch + 1) % n
                return ch
        return None  # pragma: no cover - loaded was non-empty

    def _drain(self) -> Generator[Event, Any, None]:
        """Copy swapped-out pages from the ring into the disk cache."""
        assert self.controller is not None
        ack_latency = self.cfg.message_overhead_pcycles
        while True:
            ch = self._pick_channel() if self.controller.has_room_for_write() else None
            if ch is None:
                self._wake = self.engine.event()
                yield self._wake
                continue
            fifo = self._fifos[ch]
            # "copies as many pages as possible": stay on this channel
            # until its swap-outs are exhausted or the cache fills.
            while fifo and self.controller.has_room_for_write():
                page, swapper, seq = fifo.popleft()
                channel = self.ring.channels[ch]
                yield channel.read_delay(page)
                if not self.controller.has_room_for_write():
                    # A degraded (standard-path) swap-out can fill the
                    # cache while the page is read off the ring; requeue
                    # at the head and wait for room again.
                    fifo.appendleft((page, swapper, seq))
                    break
                self.controller.place_dirty(page)
                yield ack_latency
                self._ack(page, swapper)
                self.stats.add("drained_pages")

    def _ack(self, page: int, swapper: int) -> None:
        if self.ack_callback is None:
            raise RuntimeError("ack_callback not installed (machine wiring bug)")
        self.ack_callback(page, swapper)
