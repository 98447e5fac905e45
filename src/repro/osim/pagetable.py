"""The machine-wide page table.

One entry per file page.  The entry records where the single
beyond-the-disk-controller copy of the page lives (the NWCache coherence
invariant of Section 3.2: main memory XOR the optical ring), plus the
paper's two NWCache-specific fields: the **Ring bit** and the last
virtual-to-physical translation (``last_swapper``), which the faulting
node uses to locate the cache channel holding the page.

State machine::

    ABSENT ──fault──> INFLIGHT ──data arrives──> MEMORY
    MEMORY ──evict──> SWAPPING ──ACK (std, dirty)──> ABSENT
    MEMORY ──evict──> SWAPPING ──drop (clean)──────> ABSENT
    SWAPPING ──ring insert (dirty, NWCache)──> RING
    RING ──victim read──> INFLIGHT ──> MEMORY      (Ring bit cleared)
    RING ──drain + ACK──> ABSENT                   (Ring bit cleared)

Every transition *settles* the entry, waking processors that were
waiting on it (Transit waits, swap waits, drain races).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.sim import Counter, Engine
from repro.sim.events import Event


class PageState(enum.Enum):
    """Where the live copy of a page is."""

    ABSENT = "absent"        #: only on disk (possibly cached at the controller)
    INFLIGHT = "inflight"    #: a node is fetching it into its memory
    MEMORY = "memory"        #: resident in ``node``'s local memory
    SWAPPING = "swapping"    #: being evicted (shootdown / standard swap-out)
    RING = "ring"            #: stored on the NWCache (Ring bit set)


class PageEntry:
    """Page-table entry for one page."""

    __slots__ = (
        "page",
        "state",
        "node",
        "frame",
        "dirty",
        "ring_channel",
        "last_swapper",
        "_settle",
        "_reclaim",
        "reclaim_requested",
        "engine",
    )

    def __init__(self, engine: Engine, page: int) -> None:
        self.engine = engine
        self.page = page
        self.state = PageState.ABSENT
        self.node: Optional[int] = None        #: home node while MEMORY/INFLIGHT
        self.frame: Optional[int] = None       #: physical frame while MEMORY
        self.dirty = False
        self.ring_channel: Optional[int] = None  #: channel while RING
        self.last_swapper: Optional[int] = None  #: last v->p translation owner
        self._settle: Optional[Event] = None
        self._reclaim: Optional[Event] = None
        #: a faulting processor wants this mid-swap page re-mapped
        self.reclaim_requested = False

    # -- waiting ---------------------------------------------------------------
    def settle_event(self) -> Event:
        """Event firing at the entry's next state transition."""
        if self._settle is None or self._settle.triggered:
            self._settle = self.engine.event()
        return self._settle

    def settle(self) -> None:
        """Wake everything waiting for this entry to change state."""
        if self._settle is not None and not self._settle.triggered:
            self._settle.succeed()

    @property
    def ring_bit(self) -> bool:
        """The paper's Ring bit: the page is stored on the NWCache."""
        return self.state is PageState.RING

    # -- swap reclaim ----------------------------------------------------------
    def request_reclaim(self) -> None:
        """A fault hit this SWAPPING page: ask the swap-out to cancel.

        The frame still holds valid data until the swap completes, so the
        OS re-maps it instead of waiting out the (possibly very long)
        write — the swap-cache reclaim every real VM system performs.
        """
        if self.state is not PageState.SWAPPING:
            raise RuntimeError(f"page {self.page}: reclaim in {self.state}")
        self.reclaim_requested = True
        if self._reclaim is not None and not self._reclaim.triggered:
            self._reclaim.succeed()

    def reclaim_event(self) -> Event:
        """Event the swap-out can wait on alongside protocol events."""
        if self._reclaim is None or self._reclaim.triggered:
            self._reclaim = self.engine.event()
            if self.reclaim_requested:
                self._reclaim.succeed()
        return self._reclaim

    def reinstall(self, node: int, frame: int, dirty: bool) -> None:
        """Cancelled swap-out: the page stays mapped in its frame."""
        if self.state is not PageState.SWAPPING:
            raise RuntimeError(f"page {self.page}: reinstall from {self.state}")
        self.state = PageState.MEMORY
        self.node = node
        self.frame = frame
        self.dirty = dirty
        self.reclaim_requested = False
        self._reclaim = None
        self.settle()

    # -- transitions ------------------------------------------------------------
    def to_inflight(self, fetcher: int) -> None:
        """A node starts fetching the page."""
        if self.state not in (PageState.ABSENT, PageState.RING):
            raise RuntimeError(f"page {self.page}: bad fetch from {self.state}")
        self.state = PageState.INFLIGHT
        self.node = fetcher
        self.settle()

    def to_memory(self, node: int, frame: int, dirty: bool) -> None:
        """The page landed in ``node``'s memory."""
        if self.state is not PageState.INFLIGHT:
            raise RuntimeError(f"page {self.page}: arrival from {self.state}")
        self.state = PageState.MEMORY
        self.node = node
        self.frame = frame
        self.dirty = dirty
        self.ring_channel = None
        self.settle()

    def to_swapping(self) -> None:
        """Eviction begins (rights downgraded, shootdown issued)."""
        if self.state is not PageState.MEMORY:
            raise RuntimeError(f"page {self.page}: eviction from {self.state}")
        self.state = PageState.SWAPPING
        self.settle()

    def to_ring(self, channel: int, swapper: int) -> None:
        """Swap-out landed on the NWCache (sets the Ring bit)."""
        if self.state is not PageState.SWAPPING:
            raise RuntimeError(f"page {self.page}: ring insert from {self.state}")
        self.state = PageState.RING
        self.ring_channel = channel
        self.last_swapper = swapper
        self.node = None
        self.frame = None
        self.reclaim_requested = False
        self._reclaim = None
        self.settle()

    def to_absent(self) -> None:
        """The page's live copy is gone (flushed, dropped, or drained)."""
        if self.state not in (PageState.SWAPPING, PageState.RING):
            raise RuntimeError(f"page {self.page}: drop from {self.state}")
        self.state = PageState.ABSENT
        self.node = None
        self.frame = None
        self.ring_channel = None
        self.dirty = False
        self.reclaim_requested = False
        self._reclaim = None
        self.settle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PageEntry {self.page} {self.state.value}"
            f"{' dirty' if self.dirty else ''} node={self.node}>"
        )


class PageTable:
    """All page entries, created lazily per registered page."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._entries: Dict[int, PageEntry] = {}
        self.stats = Counter()

    def register(self, pages: range) -> None:
        """Create entries for an application's mmap'd file pages."""
        for p in pages:
            if p in self._entries:
                raise ValueError(f"page {p} registered twice")
            self._entries[p] = PageEntry(self.engine, p)

    def __getitem__(self, page: int) -> PageEntry:
        return self._entries[page]

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[PageEntry]:
        """All entries (inspection/tests)."""
        return list(self._entries.values())

    def census(self) -> Dict[PageState, int]:
        """Pages per state, every state in ``PageState`` order, from one
        pass over the entries (invariant checks, checkpoints, errors)."""
        states = [e.state for e in self._entries.values()]
        return {s: states.count(s) for s in PageState}
