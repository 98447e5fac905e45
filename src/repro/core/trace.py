"""Compiled reference traces: array-backed streams with an on-disk cache.

Every simulated run re-executes the application drivers as pure-Python
generators, and the standard-vs-NWCache pairing that produces the paper
tables regenerates the *identical* reference stream twice per pair (the
differential oracle asserts the streams are equal).  Fidelity lives in
the access stream, not in how it is produced — so this module compiles a
:class:`~repro.apps.base.Workload`'s streams **once** into compact NumPy
array-backed per-processor traces and replays them on every subsequent
run.

A :class:`CompiledTrace` stores five parallel columns per processor:

* ``kind``   — ``KIND_VISIT`` or ``KIND_BARRIER`` (uint8);
* ``page``   — app-local page id for visits, barrier-key index for
  barriers (int64; barriers are encoded inline, in stream order);
* ``reads`` / ``writes`` — access counts (int64);
* ``think``  — pure-compute cycles (float64).

Barrier keys (arbitrary hashables such as ``("sor", 3)``) are interned
into :attr:`CompiledTrace.barrier_keys` and referenced by index.  Pages
are stored app-local (compiled with ``page_base=0``); the replayer adds
the machine's load base, exactly as the drivers do.

Compilation is **trajectory-neutral**: decoding a compiled trace yields
exactly the item sequence the generator would have produced, so
simulation results are bit-identical either way (asserted per app in
``tests/core/test_trace_equivalence.py``).

On-disk cache
-------------
Traces depend only on (workload class + parameters, n_nodes, seed), not
on the machine model, so one compilation serves a whole standard/NWCache
pair, every point of a parameter sweep, and every worker of a batch run.
:class:`TraceCache` stores them content-addressed under
``<cache-dir>/traces`` where ``<cache-dir>`` resolves exactly like the
result cache (``NWCACHE_CACHE_DIR``, then ``$XDG_CACHE_HOME/nwcache``,
then ``~/.cache/nwcache``).  Set ``NWCACHE_TRACE_CACHE=0`` to kill the
on-disk layer (in-process memoization still applies); bump
:data:`TRACE_FORMAT_VERSION` when a driver change alters streams for
identical parameters.

Traces share the result cache's checksummed-envelope format: a trace
file that fails validation on load is quarantined to
``<traces>/corrupt/`` with a warning and recompiled, never raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.apps.base import Item, Workload
from repro.config import env_flag
from repro.core.cache import (
    CORRUPT_DIR,
    CorruptCacheEntry,
    canonical,
    default_cache_dir,
    quarantine,
    read_envelope,
    write_envelope,
)
from repro.sim.rng import RngRegistry

#: Bump when a driver change alters the streams compiled from identical
#: workload parameters (the key covers inputs, not driver code).
#: v2: checksummed on-disk envelope (see repro.core.cache).
#: v3: ``reuse`` column (per-visit distinct-page reuse distance).
#: v4: the ``reuse`` column is gone again; older files are quarantined
#: and recompiled on first load.
TRACE_FORMAT_VERSION = 4

_TRACE_MAGIC = "nwcache-trace"

#: ``kind`` column codes
KIND_VISIT = 0
KIND_BARRIER = 1

#: items decoded per column slice by :meth:`CompiledTrace.rows`
ROW_CHUNK = 4096

#: Type accepted by trace-cache arguments: an explicit cache, ``None``
#: for the environment-resolved default, or ``False`` to disable.
TraceCacheArg = Union["TraceCache", None, bool]


@dataclass
class CompiledTrace:
    """A workload's reference streams, flattened into parallel arrays.

    The arrays are the only copy kept: replay decodes them a chunk at a
    time through :meth:`rows` on every run, so a memoized trace costs its
    array bytes and nothing more.
    """

    app: str
    n_nodes: int
    page_size: int
    total_pages: int
    seed: int
    kinds: List[np.ndarray]           #: uint8 per-proc item kinds
    pages: List[np.ndarray]           #: int64 page ids / barrier indices
    reads: List[np.ndarray]           #: int64 read counts
    writes: List[np.ndarray]          #: int64 write counts
    thinks: List[np.ndarray]          #: float64 think cycles
    barrier_keys: List[Any] = field(default_factory=list)
    version: int = TRACE_FORMAT_VERSION

    @property
    def n_items(self) -> int:
        """Total stream items across all processors."""
        return sum(len(k) for k in self.kinds)

    def rows(self, proc: int) -> Iterator[Tuple[int, int, int, int, float]]:
        """Processor ``proc``'s ``(kind, page, reads, writes, think)`` rows.

        Decoded :data:`ROW_CHUNK` items at a time, one bulk ``tolist()``
        per column slice: element-wise numpy indexing would box per
        item, and plain ints/floats keep replay arithmetic bit-identical
        to the generator path.  One chunk is held at a time, so replay
        memory does not grow with the trace; the decode costs about
        0.1 µs per item, against tens of µs of simulation per item.
        """
        cols = (self.kinds[proc], self.pages[proc], self.reads[proc],
                self.writes[proc], self.thinks[proc])
        return chain.from_iterable(
            zip(*[col[lo:lo + ROW_CHUNK].tolist() for col in cols])
            for lo in range(0, len(cols[0]), ROW_CHUNK)
        )

    def items(self, proc: int, page_base: int = 0) -> Iterator[Item]:
        """Decode processor ``proc``'s stream back into driver items.

        With ``page_base=0`` this reproduces exactly what the workload's
        generator emitted at compile time (the equivalence the tests
        pin); a nonzero base relocates visits like the drivers do.
        """
        barrier_keys = self.barrier_keys
        for kind, page, reads, writes, think in self.rows(proc):
            if kind == KIND_VISIT:
                yield ("visit", page_base + page, reads, writes, think)
            else:
                yield ("barrier", barrier_keys[page])

    def nbytes(self) -> int:
        """Approximate in-memory size of the array columns."""
        return sum(
            a.nbytes
            for cols in (self.kinds, self.pages, self.reads, self.writes,
                         self.thinks)
            for a in cols
        )


def workload_fingerprint(workload: Workload) -> Dict[str, Any]:
    """Canonical identity of a workload instance (class + parameters).

    ``vars(workload)`` captures every constructor-derived attribute
    (scale, page size, problem dimensions, …), so two instances built
    with the same arguments fingerprint identically while any parameter
    change produces a different trace key.
    """
    cls = type(workload)
    return {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "name": workload.name,
        "params": canonical(vars(workload)),
    }


def trace_key(workload: Workload, n_nodes: int, seed: int) -> str:
    """Hex digest identifying one compiled trace's complete inputs."""
    import hashlib

    payload = {
        "version": TRACE_FORMAT_VERSION,
        "workload": workload_fingerprint(workload),
        "n_nodes": int(n_nodes),
        "seed": int(seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compile_workload(
    workload: Workload, n_nodes: int, seed: int
) -> CompiledTrace:
    """Run a workload's generators once and flatten them into arrays.

    Streams are generated with ``page_base=0`` against a fresh
    :class:`RngRegistry` seeded with ``seed``; because every driver draws
    only from its own named substreams (``app/<name>/node<i>``), the
    compiled items are bit-identical to what the same workload would emit
    inside a machine whose master seed is ``seed``.
    """
    rng = RngRegistry(seed)
    streams = workload.streams(n_nodes, 0, rng)
    if len(streams) != n_nodes:
        raise ValueError("app produced wrong number of streams")
    intern: Dict[Any, int] = {}
    barrier_keys: List[Any] = []
    kinds: List[np.ndarray] = []
    pages: List[np.ndarray] = []
    reads: List[np.ndarray] = []
    writes: List[np.ndarray] = []
    thinks: List[np.ndarray] = []
    for stream in streams:
        k: List[int] = []
        p: List[int] = []
        r: List[int] = []
        w: List[int] = []
        t: List[float] = []
        for item in stream:
            kind = item[0]
            if kind == "visit":
                _, page, n_reads, n_writes, think = item
                k.append(KIND_VISIT)
                p.append(page)
                r.append(n_reads)
                w.append(n_writes)
                t.append(think)
            elif kind == "barrier":
                key = item[1]
                idx = intern.get(key)
                if idx is None:
                    idx = intern[key] = len(barrier_keys)
                    barrier_keys.append(key)
                k.append(KIND_BARRIER)
                p.append(idx)
                r.append(0)
                w.append(0)
                t.append(0.0)
            else:
                raise ValueError(f"unknown stream item {item!r}")
        kinds.append(np.asarray(k, dtype=np.uint8))
        pages.append(np.asarray(p, dtype=np.int64))
        reads.append(np.asarray(r, dtype=np.int64))
        writes.append(np.asarray(w, dtype=np.int64))
        thinks.append(np.asarray(t, dtype=np.float64))
    return CompiledTrace(
        app=workload.name,
        n_nodes=n_nodes,
        page_size=workload.page_size,
        total_pages=workload.total_pages,
        seed=int(seed),
        kinds=kinds,
        pages=pages,
        reads=reads,
        writes=writes,
        thinks=thinks,
        barrier_keys=barrier_keys,
    )


# ---------------------------------------------------------------- disk cache
def trace_cache_enabled() -> bool:
    """The on-disk layer's kill switch (``NWCACHE_TRACE_CACHE=0``)."""
    return env_flag("NWCACHE_TRACE_CACHE", True)


class TraceCache:
    """Pickle-backed store of :class:`CompiledTrace` keyed by input digest.

    Same concurrency contract as the result cache: atomic
    write-temp-then-rename, so concurrent batch workers never observe a
    partial trace.  Same robustness contract too: entries live in a
    checksummed envelope, and a file that fails validation is
    quarantined to ``corrupt/`` and read as a miss.
    """

    def __init__(self, directory: "Path | str | None" = None) -> None:
        self.directory = (
            Path(directory) if directory else default_cache_dir() / "traces"
        )
        self.hits = 0
        self.misses = 0

    @classmethod
    def default(cls) -> "TraceCache":
        """Cache at the environment-resolved default location."""
        return cls()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[CompiledTrace]:
        """Return the cached trace for ``key``, or None on a miss.

        Corrupt or foreign entries are quarantined and read as misses —
        the caller recompiles.
        """
        path = self._path(key)
        try:
            trace = read_envelope(path, _TRACE_MAGIC, TRACE_FORMAT_VERSION)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        except CorruptCacheEntry as exc:
            quarantine(path, self.directory, str(exc))
            self.misses += 1
            return None
        if (
            not isinstance(trace, CompiledTrace)
            or trace.version != TRACE_FORMAT_VERSION
        ):
            quarantine(path, self.directory, "payload is not a current trace")
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, key: str, trace: CompiledTrace) -> None:
        """Store ``trace`` under ``key`` (atomic, last-writer-wins)."""
        write_envelope(
            self._path(key), _TRACE_MAGIC, TRACE_FORMAT_VERSION, trace
        )

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def _entries(self):
        # The quarantine directory sits beside the two-level fanout, so
        # its files match the same glob and must be excluded.
        return (
            p
            for p in self.directory.glob("*/*.pkl")
            if p.parent.name != CORRUPT_DIR
        )

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every cached trace; returns how many were removed.

        Quarantined files are left in place (they are not entries)."""
        n = 0
        if not self.directory.exists():
            return 0
        for entry in list(self._entries()):
            try:
                entry.unlink()
                n += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceCache({str(self.directory)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def resolve_trace_cache(cache: TraceCacheArg) -> Optional[TraceCache]:
    """Normalize a trace-cache argument, honoring the kill switch.

    ``None`` resolves to the default on-disk cache unless
    ``NWCACHE_TRACE_CACHE=0``; ``False`` always disables the disk layer;
    an explicit :class:`TraceCache` is used as-is (the kill switch only
    governs the *default* cache).
    """
    if cache is False:
        return None
    if cache is None or cache is True:
        return TraceCache.default() if trace_cache_enabled() else None
    return cache


# ---------------------------------------------------------- in-process memo
#: compiled traces shared by every Machine in this process, keyed by digest
_memo: Dict[str, CompiledTrace] = {}


def clear_memo() -> None:
    """Drop the in-process trace memo (tests / long-lived servers)."""
    _memo.clear()


def get_trace(
    workload: Workload,
    n_nodes: int,
    seed: int,
    cache: TraceCacheArg = None,
) -> CompiledTrace:
    """The compiled trace for ``workload``, compiled at most once.

    Lookup order: in-process memo, then the on-disk :class:`TraceCache`
    (unless disabled), then a fresh compilation (which populates both).
    A standard/NWCache pair, a sweep, or a whole batch grid therefore
    shares one compilation per distinct (workload, n_nodes, seed).
    """
    key = trace_key(workload, n_nodes, seed)
    store = resolve_trace_cache(cache)
    trace = _memo.get(key)
    if trace is not None:
        if store is not None and key not in store:
            # Backfill: an earlier compile may have run with the disk
            # layer disabled; converge to a populated cache regardless.
            store.put(key, trace)
        return trace
    if store is not None:
        trace = store.get(key)
        if trace is not None:
            _memo[key] = trace
            return trace
    trace = compile_workload(workload, n_nodes, seed)
    _memo[key] = trace
    if store is not None:
        store.put(key, trace)
    return trace
