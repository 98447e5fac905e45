"""Disk controller with cache, prefetching, and the swap-out protocol.

The controller cache (16 KB = 4 pages by default) holds a mix of *clean*
pages (demand reads, prefetches, already-flushed swap-outs) and *dirty*
pages (swap-outs awaiting their disk write).  Protocol, per Section 3.1:

* A swap-out that finds room is placed dirty and **ACK**\\ ed; writes have
  preference over prefetches, so an incoming swap-out may evict a clean
  page.  When every slot is dirty the controller **NACK**\\ s, records the
  requester in a FIFO, and sends **OK** when room appears, prompting a
  re-send.
* A background flusher writes dirty pages to disk oldest-first,
  **combining** pages that occupy consecutive disk blocks and sit in the
  cache simultaneously into a single disk write (Tables 5/6 measure the
  average combining factor).
* Reads hit the cache or go to disk.  Under **optimal** prefetching every
  read is satisfied from the cache with the disk untouched (the paper's
  idealization of perfect prefetch).  Under **naive** prefetching a miss
  additionally fills the cache with the pages sequentially following the
  missed one (never evicting dirty pages).
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from itertools import count
from typing import Any, Deque, Dict, Generator, List, Optional

from repro.config import SimConfig
from repro.disk.disk import PRIO_DEMAND, PRIO_PREFETCH, PRIO_WRITEBACK, Disk
from repro.disk.filesystem import FileSystem
from repro.sim import Counter, Engine, Tally
from repro.sim.events import Event


class PrefetchMode(str, enum.Enum):
    """The paper's two prefetching extremes, plus a realistic middle.

    The paper's Discussion expects "realistic and sophisticated
    prefetching techniques" to land between its two extremes; ``STREAM``
    implements one: a sequential-stream detector (in the spirit of the
    history-guided prefetchers the paper cites) that prefetches ahead
    only once it has seen consecutive reads, instead of after every miss.
    """

    OPTIMAL = "optimal"  #: every read hits the controller cache
    NAIVE = "naive"      #: sequential fill after each miss
    STREAM = "stream"    #: prefetch ahead of detected sequential streams

#: read-history window of the stream detector, pages
STREAM_HISTORY = 16


class _Slot:
    """One cached page."""

    __slots__ = ("page", "dirty", "order")

    def __init__(self, page: int, dirty: bool, order: int) -> None:
        self.page = page
        self.dirty = dirty
        self.order = order  # arrival sequence of the current dirty data


class DiskController:
    """Cache + protocol front-end for one :class:`~repro.disk.disk.Disk`."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        disk: Disk,
        fs: FileSystem,
        prefetch: PrefetchMode,
        name: str = "",
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.disk = disk
        self.fs = fs
        self.prefetch = PrefetchMode(prefetch)
        self.name = name
        self.capacity = cfg.disk_cache_pages
        self._slots: "OrderedDict[int, _Slot]" = OrderedDict()  # page -> slot, LRU
        self._order = count()
        self._write_waiters: Deque[Event] = deque()
        self._flush_kick: Optional[Event] = None
        self._inflight_prefetch: Dict[int, Event] = {}
        self._read_history: Deque[int] = deque(maxlen=STREAM_HISTORY)
        self._room_listeners: List[Any] = []
        #: swap-outs combined per disk write (Tables 5/6)
        self.combining = Tally()
        self.stats = Counter()
        #: disk-operation dispatch: the bare disk op by default, swapped
        #: for the retrying wrapper when a fault plan enables disk errors
        self._io = disk.io
        self._fault_plan: Any = None
        self._fault_injector: Any = None
        #: attempt an uncontended clock jump for the fixed controller
        #: overhead on reads (set by the machine for compiled-trace
        #: replays; bit-identical to the evented sleep either way)
        self.jump_clock = False
        engine.process(self._flusher())

    # ------------------------------------------------------------- inspection
    @property
    def n_cached(self) -> int:
        """Pages currently in the cache."""
        return len(self._slots)

    @property
    def n_dirty(self) -> int:
        """Dirty (unflushed swap-out) pages in the cache."""
        return sum(1 for s in self._slots.values() if s.dirty)

    def is_cached(self, page: int) -> bool:
        """True if ``page`` currently occupies a slot."""
        return page in self._slots

    def has_room_for_write(self) -> bool:
        """Can a swap-out be accepted right now?  (Writes may evict clean
        pages, so only an all-dirty cache refuses.)"""
        return len(self._slots) < self.capacity or self.n_dirty < self.capacity

    # ------------------------------------------------------------- listeners
    def add_room_listener(self, callback: Any) -> None:
        """``callback()`` runs whenever write room (re)appears (drain hook)."""
        self._room_listeners.append(callback)

    def _notify_room(self) -> None:
        freed = self.capacity - self.n_dirty
        while self._write_waiters and freed > 0:
            self._write_waiters.popleft().succeed()  # the paper's OK message
            freed -= 1
        for cb in self._room_listeners:
            cb()

    # ------------------------------------------------------------- writes
    def try_accept_write(self, page: int) -> bool:
        """Attempt to place a swap-out; True = ACK, False = NACK."""
        slot = self._slots.get(page)
        if slot is not None:
            slot.dirty = True
            slot.order = next(self._order)
            self._slots.move_to_end(page)
            self.stats.add("writes_accepted")
            self._kick_flusher()
            return True
        if len(self._slots) >= self.capacity:
            victim = self._lru_clean()
            if victim is None:
                self.stats.add("writes_nacked")
                return False
            del self._slots[victim]
        self._slots[page] = _Slot(page, dirty=True, order=next(self._order))
        self.stats.add("writes_accepted")
        self._kick_flusher()
        return True

    def wait_for_room(self) -> Event:
        """Join the NACK FIFO; the event fires on the controller's OK."""
        ev = self.engine.event()
        self._write_waiters.append(ev)
        return ev

    def cancel_wait(self, ev: Event) -> bool:
        """Leave the NACK FIFO (swap-out cancelled by a page reclaim)."""
        try:
            self._write_waiters.remove(ev)
            return True
        except ValueError:
            return False

    def place_dirty(self, page: int) -> None:
        """Place a page copied off the NWCache ring (drain path).

        The drain only calls this after checking :meth:`has_room_for_write`,
        so refusal here is a protocol bug.
        """
        if not self.try_accept_write(page):
            raise RuntimeError(f"{self.name}: drain placed a page with no room")

    # ------------------------------------------------------------- reads
    def note_optimal_read(self, page: int) -> str:
        """Bookkeeping for an OPTIMAL-mode read (see :meth:`read`).

        Under idealized prefetching a read never blocks on the disk, so
        the whole service is the controller-overhead timeout plus this
        cache touch.  The caller pays the timeout itself and calls this,
        skipping the :meth:`read` delegate generator on the fault path.
        """
        if page in self._slots:
            self._slots.move_to_end(page)
        self.stats.add("read_hits")
        return "hit"

    def read(self, page: int) -> Generator[Event, Any, str]:
        """Service a page read; returns ``"hit"`` or ``"miss"``.

        The caller models the data's journey to the requesting node (I/O
        bus, network, memory bus); this method models cache lookup, the
        disk operation on a miss, and naive prefetching.
        """
        d = self.cfg.controller_overhead_pcycles
        if not (self.jump_clock and self.engine.try_jump(d, 1)):
            yield d
        if self.prefetch is PrefetchMode.OPTIMAL:
            # Idealized prefetching: the page is always already cached
            # (read "in the background of page read requests").
            return self.note_optimal_read(page)
        streaming = False
        if self.prefetch is PrefetchMode.STREAM:
            streaming = (
                page - 1 in self._read_history or page - 2 in self._read_history
            )
            self._read_history.append(page)
        inflight = self._inflight_prefetch.get(page)
        if inflight is not None:
            # The page is on the platters under an in-flight prefetch op:
            # the read waits for that disk operation, so it pays (most of)
            # a disk access — classify as a miss, not a cache hit.
            yield inflight
            self.stats.add("read_prefetch_waits")
            if page in self._slots:
                self._slots.move_to_end(page)
                return "miss"
        slot = self._slots.get(page)
        if slot is not None:
            self._slots.move_to_end(page)
            self.stats.add("read_hits")
            if streaming:
                # keep running ahead of a detected sequential stream
                self._start_prefetch(page)
            return "hit"
        self.stats.add("read_misses")
        yield from self._io(self.fs.block_of(page), 1, PRIO_DEMAND)
        self._insert_clean(page)
        if self.prefetch is PrefetchMode.NAIVE or streaming:
            self._start_prefetch(page)
        return "miss"

    # ------------------------------------------------------------- fault policy
    def enable_fault_policy(self, plan: Any, injector: Any) -> None:
        """Route disk operations through the retry/backoff wrapper.

        Called by the fault injector when the plan enables disk errors;
        ``plan`` carries the retry parameters and ``injector`` the shared
        fault accounting.
        """
        self._fault_plan = plan
        self._fault_injector = injector
        self._io = self._retrying_io

    def _retrying_io(
        self, block: int, npages: int = 1, priority: int = PRIO_DEMAND
    ) -> Generator[Event, Any, bool]:
        """Disk op with retry, exponential backoff, and timeout.

        A failed operation is retried up to ``plan.max_retries`` times,
        waiting ``retry_backoff * 2**(attempt-1)`` between attempts.
        When retries are exhausted the controller declares a timeout,
        charges the timeout penalty, and recovers by proceeding as if the
        final attempt had succeeded (the model has no data to corrupt —
        only the time and the accounting differ).
        """
        plan = self._fault_plan
        faults = self._fault_injector.faults
        attempt = 0
        while True:
            ok = yield from self.disk.io(block, npages, priority)
            if ok:
                if attempt:
                    self.stats.add("io_recovered")
                    faults.add("io_recovered")
                return True
            attempt += 1
            self.stats.add("io_retries")
            faults.add("io_retries")
            if attempt > plan.max_retries:
                self.stats.add("io_timeouts")
                faults.add("io_timeouts")
                yield plan.retry_timeout_penalty_pcycles
                return False
            yield plan.retry_backoff_pcycles * (2.0 ** (attempt - 1))

    # ------------------------------------------------------------- internals
    def _lru_clean(self) -> Optional[int]:
        """Oldest-touched clean page, or None if all slots are dirty."""
        for p, slot in self._slots.items():
            if not slot.dirty:
                return p
        return None

    def _insert_clean(self, page: int) -> bool:
        """Cache a clean page if possible without evicting dirty data."""
        if page in self._slots:
            self._slots.move_to_end(page)
            return True
        if len(self._slots) >= self.capacity:
            victim = self._lru_clean()
            if victim is None:
                self.stats.add("read_bypass")
                return False
            del self._slots[victim]
        self._slots[page] = _Slot(page, dirty=False, order=-1)
        return True

    def _start_prefetch(self, missed_page: int) -> None:
        """Naive prefetch: queue the pages sequentially following a miss."""
        room = self.capacity - self.n_dirty - 1
        run: List[int] = []
        prev = missed_page
        while len(run) < room:
            nxt = prev + 1
            if not self.fs.consecutive_on_disk(prev, nxt):
                break
            if nxt not in self._slots and nxt not in self._inflight_prefetch:
                run.append(nxt)
            prev = nxt
        if run:
            self.engine.process(self._prefetcher(run))

    def _prefetcher(self, run: List[int]) -> Generator[Event, Any, None]:
        done = self.engine.event()
        for p in run:
            self._inflight_prefetch[p] = done
        try:
            yield from self._io(
                self.fs.block_of(run[0]), len(run), PRIO_PREFETCH
            )
            for p in run:
                self._insert_clean(p)
            self.stats.add("prefetch_pages", len(run))
        finally:
            for p in run:
                self._inflight_prefetch.pop(p, None)
            done.succeed()

    def _kick_flusher(self) -> None:
        if self._flush_kick is not None and not self._flush_kick.triggered:
            self._flush_kick.succeed()

    def _flusher(self) -> Generator[Event, Any, None]:
        """Write dirty pages to disk oldest-first, combining runs."""
        while True:
            dirty = [s for s in self._slots.values() if s.dirty]
            if not dirty:
                self._flush_kick = self.engine.event()
                yield self._flush_kick
                continue
            oldest = min(dirty, key=lambda s: s.order)
            run = self._combining_run(oldest.page)
            orders = {p: self._slots[p].order for p in run}
            yield from self._io(
                self.fs.block_of(run[0]), len(run), PRIO_WRITEBACK
            )
            ncombined = 0
            for p in run:
                slot = self._slots.get(p)
                # Only mark clean if the data we wrote is still current
                # (a re-swap during the disk write re-dirties the slot).
                if slot is not None and slot.dirty and slot.order == orders[p]:
                    slot.dirty = False
                    ncombined += 1
            self.stats.add("flush_ops")
            self.stats.add("flush_pages", ncombined)
            self.combining.record(len(run))
            self._notify_room()

    def _combining_run(self, page: int) -> List[int]:
        """Maximal run of cached-dirty, disk-consecutive pages around ``page``."""
        run = [page]
        p = page
        while True:
            q = p - 1
            slot = self._slots.get(q)
            if (
                slot is None
                or not slot.dirty
                or not self.fs.consecutive_on_disk(q, p)
            ):
                break
            run.insert(0, q)
            p = q
        p = page
        while True:
            q = p + 1
            slot = self._slots.get(q)
            if (
                slot is None
                or not slot.dirty
                or not self.fs.consecutive_on_disk(p, q)
            ):
                break
            run.append(q)
            p = q
        return run
