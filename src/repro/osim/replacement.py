"""Page-replacement policies for the per-node replacement daemons.

The paper's base OS "uses LRU to pick a page to be replaced"; real
kernels approximate LRU with cheaper schemes.  The policy is pluggable
(``SimConfig.replacement_policy``) so the sensitivity of the NWCache
results to the replacement scheme can be measured:

* ``lru``   — exact least-recently-used (the paper's assumption).
* ``fifo``  — eviction in fault order; ignores recency entirely.
* ``clock`` — second-chance: a fault sets a reference bit; the clock
  hand skips (and clears) referenced pages once before evicting.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Iterator, Optional


class ReplacementPolicy(abc.ABC):
    """Tracks one node's resident pages and picks eviction victims."""

    name = ""

    @abc.abstractmethod
    def insert(self, page: int) -> None:
        """A page became resident on this node."""

    @abc.abstractmethod
    def touch(self, page: int) -> None:
        """The page was accessed (only meaningful while resident)."""

    @abc.abstractmethod
    def remove(self, page: int) -> None:
        """The page left this node's memory."""

    @abc.abstractmethod
    def victim(self) -> Optional[int]:
        """Choose (without removing) the next eviction victim."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __contains__(self, page: int) -> bool: ...

    @abc.abstractmethod
    def pages(self) -> Iterator[int]:
        """Iterate resident pages (order unspecified)."""


class LruPolicy(ReplacementPolicy):
    """Exact LRU via an ordered dict (oldest first)."""

    name = "lru"

    def __init__(self) -> None:
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def insert(self, page: int) -> None:
        self._pages[page] = None
        self._pages.move_to_end(page)

    def touch(self, page: int) -> None:
        if page in self._pages:
            self._pages.move_to_end(page)

    def remove(self, page: int) -> None:
        self._pages.pop(page, None)

    def victim(self) -> Optional[int]:
        return next(iter(self._pages), None)

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def pages(self) -> Iterator[int]:
        return iter(self._pages)


class FifoPolicy(ReplacementPolicy):
    """Evict in arrival order; accesses never refresh."""

    name = "fifo"

    def __init__(self) -> None:
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def insert(self, page: int) -> None:
        if page not in self._pages:
            self._pages[page] = None

    def touch(self, page: int) -> None:
        pass  # FIFO ignores recency

    def remove(self, page: int) -> None:
        self._pages.pop(page, None)

    def victim(self) -> Optional[int]:
        return next(iter(self._pages), None)

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def pages(self) -> Iterator[int]:
        return iter(self._pages)


class ClockPolicy(ReplacementPolicy):
    """Second-chance: referenced pages get one pass of the hand.

    Implemented as an ordered dict rotation: the "hand" is the front of
    the dict; a referenced page at the hand gets its bit cleared and is
    rotated to the back instead of being evicted.
    """

    name = "clock"

    def __init__(self) -> None:
        self._pages: "OrderedDict[int, bool]" = OrderedDict()  # page -> ref bit

    def insert(self, page: int) -> None:
        self._pages[page] = True

    def touch(self, page: int) -> None:
        if page in self._pages:
            self._pages[page] = True

    def remove(self, page: int) -> None:
        self._pages.pop(page, None)

    def victim(self) -> Optional[int]:
        if not self._pages:
            return None
        # at most one full revolution of clearing, then the front loses
        for _ in range(len(self._pages)):
            page, ref = next(iter(self._pages.items()))
            if not ref:
                return page
            self._pages[page] = False
            self._pages.move_to_end(page)
        return next(iter(self._pages))

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    def pages(self) -> Iterator[int]:
        return iter(list(self._pages))


POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; know {sorted(POLICIES)}"
        ) from None
