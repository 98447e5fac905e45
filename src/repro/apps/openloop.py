"""Open-loop request workloads: Poisson arrivals over Zipf-popular pages.

The seven Table 2 kernels are *closed-loop*: each processor computes,
touches pages, and only then thinks again, so offered load adapts to
the machine.  A production system instead faces *open-loop* traffic —
requests arrive on an exogenous schedule regardless of how fast the
machine serves them.  This module provides that family, modeled on the
Icarus simulator's workload generators:

``TruncatedZipfDist``
    A Zipf distribution truncated to ``n`` ranks, with exact pdf/cdf
    and inverse-CDF sampling.

``StationaryWorkload`` (registered as ``zipf``)
    Poisson arrivals (exponential inter-arrival gaps), Zipf page
    popularity over a fixed catalog, optional per-node rate skew, and
    a warmup -> measured phase boundary marked for metrics.

``YCSBWorkload`` (registered as ``ycsb-a`` .. ``ycsb-d``)
    YCSB-style read/update/insert mixes over a Zipf catalog, with the
    standard A-D presets.

``TraceDrivenWorkload``
    Replays a request schedule from file in bounded-memory chunks, so
    multi-million-request schedules never materialize in RAM.

Mapping onto the simulator: each request becomes one
``("visit", page, n_reads, n_writes, think)`` item whose *think* field
carries the exponential inter-arrival gap (in pcycles).  Arrival times
are therefore generated open-loop, while execution on a processor is
serialized — under overload the arrival schedule keeps its statistics
but requests queue behind their predecessors (a semi-open model, the
standard compromise for per-node request streams).  Offered versus
completed request accounting in ``RunResult.extras`` makes the
distinction visible.

Determinism: every draw comes from a dedicated ``workload/*`` Philox
substream (:func:`repro.apps.base.workload_stream`), never from a
shared generator, so open-loop runs compose with ``faults/*``
substreams and compile to reference traces bit-identically.  The
per-request draw order (operation coin, rank, gap) is fixed and is
part of the golden-trace contract.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.apps.base import (
    Item,
    Stream,
    Workload,
    barrier,
    scaled_dim,
    visit,
    workload_stream,
)
from repro.ioutil import atomic_write_text
from repro.sim.rng import RngRegistry

#: barrier key whose release marks the warmup -> measured boundary
MEASURED_BARRIER: Tuple[str, str] = ("openloop", "measured")

#: phase name recorded in :class:`repro.metrics.Metrics` at that release
MEASURED_PHASE = "measured"


class TruncatedZipfDist:
    """Zipf distribution truncated to ``n`` ranks (1-based).

    ``pdf(k) = k**-alpha / sum_{i=1..n} i**-alpha``.  ``alpha = 0`` is
    uniform; larger alpha concentrates mass on low ranks.  Sampling is
    inverse-CDF over the exact cumulative weights, so any uniform
    variate maps to a rank deterministically.
    """

    __slots__ = ("alpha", "n", "_pdf", "_cdf")

    def __init__(self, alpha: float = 1.0, n: int = 1000) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if n < 1:
            raise ValueError(f"need at least one rank, got {n}")
        self.alpha = float(alpha)
        self.n = int(n)
        ranks = np.arange(1, self.n + 1, dtype=np.float64)
        weights = ranks ** -self.alpha
        self._pdf = weights / weights.sum()
        self._cdf = np.cumsum(self._pdf)
        self._cdf[-1] = 1.0  # guard against accumulated rounding

    @property
    def probabilities(self) -> np.ndarray:
        """Exact rank probabilities, index 0 = rank 1 (read-only view)."""
        view = self._pdf.view()
        view.flags.writeable = False
        return view

    def pdf(self, rank: int) -> float:
        """Probability of ``rank`` (1-based)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} outside 1..{self.n}")
        return float(self._pdf[rank - 1])

    def cdf(self, rank: int) -> float:
        """P(R <= rank) for 1-based ``rank``."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} outside 1..{self.n}")
        return float(self._cdf[rank - 1])

    def rv(self, gen: np.random.Generator) -> int:
        """Draw one rank (1-based) via inverse CDF."""
        return int(np.searchsorted(self._cdf, gen.random(), side="right")) + 1

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` ranks at once (1-based)."""
        u = gen.random(size)
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64) + 1


class OpenLoopWorkload(Workload):
    """Shared machinery for generated open-loop request streams.

    Subclasses keep **only scalar attributes** in ``vars(self)`` (the
    trace fingerprint canonicalizes them) and implement
    :meth:`_node_state` / :meth:`_request`.  Every stream draws from
    its own ``workload/<name>/node<i>`` substream via
    :meth:`_substream`; tests tamper with that method to prove a
    shared-stream regression is caught.
    """

    open_loop = True
    phase_marks = {MEASURED_BARRIER: MEASURED_PHASE}

    def __init__(
        self,
        page_size: int = 4096,
        scale: float = 1.0,
        rate: float = 100.0,
        node_skew: float = 0.0,
        warmup: int = 600,
        requests: int = 3000,
    ) -> None:
        super().__init__(page_size=page_size, scale=scale)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if node_skew < 0:
            raise ValueError(f"node_skew must be >= 0, got {node_skew}")
        if warmup < 0 or requests < 1:
            raise ValueError("need warmup >= 0 and requests >= 1")
        self.rate = float(rate)
        self.node_skew = float(node_skew)
        self.warmup = 0 if warmup == 0 else scaled_dim(warmup, scale)
        self.requests = scaled_dim(requests, scale)

    # -- arrival process -------------------------------------------------------
    def node_rates(self, n_nodes: int) -> List[float]:
        """Per-node arrival rates (requests per Mcycle), summing to
        ``rate * n_nodes``.  ``node_skew`` is a Zipf exponent over
        nodes: 0 keeps every node at ``rate``; larger values
        concentrate traffic on low-numbered nodes.
        """
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        if self.node_skew == 0.0:
            return [self.rate] * n_nodes
        weights = TruncatedZipfDist(self.node_skew, n_nodes).probabilities
        return [self.rate * n_nodes * float(w) for w in weights]

    def offered_requests(self, n_nodes: int) -> int:
        """Requests offered across all nodes, warmup included."""
        return n_nodes * (self.warmup + self.requests)

    def measured_requests(self, n_nodes: int) -> int:
        """Requests offered across all nodes after the warmup mark."""
        return n_nodes * self.requests

    # -- stream assembly -------------------------------------------------------
    def _substream(self, rng: RngRegistry, node: int) -> np.random.Generator:
        """The node's dedicated Philox substream (``workload/*``)."""
        return workload_stream(rng, self.name, node)

    def _node_state(self, n_nodes: int, node: int) -> Any:
        """Build per-stream sampler state (distributions, recency lists).

        Called once per stream *inside* ``streams()`` so distribution
        tables never land in ``vars(self)`` (the trace fingerprint must
        stay scalar-only).
        """
        raise NotImplementedError

    def _request(
        self,
        gen: np.random.Generator,
        state: Any,
        page_base: int,
        mean_gap: float,
    ) -> Item:
        """Draw one request.  Draw order is fixed per subclass and is
        part of the golden-trace contract."""
        raise NotImplementedError

    def streams(self, n_nodes: int, page_base: int, rng: RngRegistry) -> List[Stream]:
        rates = self.node_rates(n_nodes)
        return [
            self._stream(n_nodes, node, page_base, rng, rates[node])
            for node in range(n_nodes)
        ]

    def _stream(
        self,
        n_nodes: int,
        node: int,
        page_base: int,
        rng: RngRegistry,
        rate: float,
    ) -> Stream:
        gen = self._substream(rng, node)
        state = self._node_state(n_nodes, node)
        mean_gap = 1e6 / rate  # rate is requests per Mcycle
        yield barrier((self.name, "start"))
        for _ in range(self.warmup):
            yield self._request(gen, state, page_base, mean_gap)
        yield barrier(MEASURED_BARRIER)
        for _ in range(self.requests):
            yield self._request(gen, state, page_base, mean_gap)
        yield barrier((self.name, "end"))


class StationaryWorkload(OpenLoopWorkload):
    """Poisson arrivals over a Zipf-popular page catalog (``zipf``).

    Each request touches one catalog page chosen by rank from a
    ``TruncatedZipfDist`` (rank 1 = page 0, the identity mapping —
    popularity is then directly visible in page ids), performs
    ``reads_per_request`` reads, and with probability
    ``write_fraction`` also performs ``writes_per_request`` writes
    (read-modify-write).  Inter-arrival gaps are exponential with
    per-node mean ``1e6 / node_rate`` pcycles.

    Per-request draw order: rank, write coin, gap.
    """

    name = "zipf"

    def __init__(
        self,
        page_size: int = 4096,
        scale: float = 1.0,
        catalog_pages: int = 2048,
        alpha: float = 0.8,
        rate: float = 100.0,
        node_skew: float = 0.0,
        warmup: int = 600,
        requests: int = 3000,
        reads_per_request: int = 32,
        writes_per_request: int = 16,
        write_fraction: float = 0.3,
    ) -> None:
        super().__init__(
            page_size=page_size,
            scale=scale,
            rate=rate,
            node_skew=node_skew,
            warmup=warmup,
            requests=requests,
        )
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction outside [0, 1]: {write_fraction}")
        if reads_per_request < 0 or writes_per_request < 0:
            raise ValueError("negative access counts")
        self.catalog_pages = scaled_dim(catalog_pages, scale, minimum=16)
        self.alpha = float(alpha)
        self.reads_per_request = int(reads_per_request)
        self.writes_per_request = int(writes_per_request)
        self.write_fraction = float(write_fraction)

    @property
    def total_pages(self) -> int:
        return self.catalog_pages

    def _node_state(self, n_nodes: int, node: int) -> TruncatedZipfDist:
        return TruncatedZipfDist(self.alpha, self.catalog_pages)

    def _request(
        self,
        gen: np.random.Generator,
        state: TruncatedZipfDist,
        page_base: int,
        mean_gap: float,
    ) -> Item:
        rank = state.rv(gen)
        is_write = gen.random() < self.write_fraction
        gap = float(gen.exponential(mean_gap))
        return visit(
            page_base + rank - 1,
            self.reads_per_request,
            self.writes_per_request if is_write else 0,
            gap,
        )

    def describe(self) -> str:
        return (
            f"{self.name}: {self.catalog_pages}-page catalog, "
            f"Zipf alpha={self.alpha}, {self.rate} req/Mcycle/node "
            f"({self.warmup} warmup + {self.requests} measured per node)"
        )


#: YCSB core-workload operation mixes (read / update / insert fractions)
YCSB_PRESETS: Dict[str, Dict[str, float]] = {
    "a": {"read": 0.5, "update": 0.5, "insert": 0.0},
    "b": {"read": 0.95, "update": 0.05, "insert": 0.0},
    "c": {"read": 1.0, "update": 0.0, "insert": 0.0},
    "d": {"read": 0.95, "update": 0.0, "insert": 0.05},
}


class _YcsbState:
    """Per-stream sampler state for :class:`YCSBWorkload`."""

    __slots__ = ("catalog", "latest", "inserted", "insert_cursor", "n_nodes", "node")

    def __init__(
        self,
        catalog: TruncatedZipfDist,
        latest: Optional[TruncatedZipfDist],
        n_nodes: int,
        node: int,
    ) -> None:
        self.catalog = catalog
        self.latest = latest
        self.inserted: List[int] = []  # app-relative page ids, oldest first
        self.insert_cursor = 0
        self.n_nodes = n_nodes
        self.node = node


class YCSBWorkload(OpenLoopWorkload):
    """YCSB-style read/update/insert mixes (``ycsb-a`` .. ``ycsb-d``).

    Presets follow the YCSB core workloads: A = 50/50 read/update,
    B = 95/5 read/update, C = read-only, D = 95/5 read-latest/insert.
    Reads and updates select a catalog page by Zipf rank; preset D's
    inserts activate pages from a shared ``insert_reserve`` region
    (node ``i``'s ``k``-th insert takes slot ``(k * n_nodes + i) %
    insert_reserve``, wrapping log-style when the reserve fills), and
    its reads prefer *this node's* recently inserted pages via a Zipf
    over recency ranks — a per-node simplification of YCSB's global
    "latest" distribution that keeps streams independent.

    Per-request draw order: operation coin, rank (reads/updates only),
    gap.
    """

    def __init__(
        self,
        preset: str = "a",
        page_size: int = 4096,
        scale: float = 1.0,
        catalog_pages: int = 2048,
        alpha: float = 0.8,
        rate: float = 100.0,
        node_skew: float = 0.0,
        warmup: int = 600,
        requests: int = 3000,
        reads_per_request: int = 16,
        writes_per_request: int = 16,
        insert_reserve: int = 256,
        latest_window: int = 64,
    ) -> None:
        super().__init__(
            page_size=page_size,
            scale=scale,
            rate=rate,
            node_skew=node_skew,
            warmup=warmup,
            requests=requests,
        )
        preset = str(preset).lower()
        if preset not in YCSB_PRESETS:
            raise ValueError(
                f"unknown YCSB preset {preset!r}; know {sorted(YCSB_PRESETS)}"
            )
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if reads_per_request < 0 or writes_per_request < 0:
            raise ValueError("negative access counts")
        if insert_reserve < 1 or latest_window < 1:
            raise ValueError("need insert_reserve >= 1 and latest_window >= 1")
        self.preset = preset
        self.name = f"ycsb-{preset}"
        self.catalog_pages = scaled_dim(catalog_pages, scale, minimum=16)
        self.alpha = float(alpha)
        self.reads_per_request = int(reads_per_request)
        self.writes_per_request = int(writes_per_request)
        self.insert_reserve = scaled_dim(insert_reserve, scale, minimum=4)
        self.latest_window = int(latest_window)

    @property
    def mix(self) -> Dict[str, float]:
        """The preset's read/update/insert fractions."""
        return dict(YCSB_PRESETS[self.preset])

    @property
    def total_pages(self) -> int:
        if YCSB_PRESETS[self.preset]["insert"] > 0:
            return self.catalog_pages + self.insert_reserve
        return self.catalog_pages

    def _node_state(self, n_nodes: int, node: int) -> _YcsbState:
        latest = None
        if YCSB_PRESETS[self.preset]["insert"] > 0:
            latest = TruncatedZipfDist(self.alpha, self.latest_window)
        return _YcsbState(
            TruncatedZipfDist(self.alpha, self.catalog_pages), latest, n_nodes, node
        )

    def _request(
        self,
        gen: np.random.Generator,
        state: _YcsbState,
        page_base: int,
        mean_gap: float,
    ) -> Item:
        mix = YCSB_PRESETS[self.preset]
        op = gen.random()
        if op < mix["read"]:
            page = self._read_page(gen, state)
            gap = float(gen.exponential(mean_gap))
            return visit(page_base + page, self.reads_per_request, 0, gap)
        if op < mix["read"] + mix["update"]:
            rank = state.catalog.rv(gen)
            gap = float(gen.exponential(mean_gap))
            return visit(
                page_base + rank - 1,
                self.reads_per_request,
                self.writes_per_request,
                gap,
            )
        # insert: activate the next reserved slot (write-only touch)
        slot = (state.insert_cursor * state.n_nodes + state.node) % self.insert_reserve
        state.insert_cursor += 1
        page = self.catalog_pages + slot
        state.inserted.append(page)
        gap = float(gen.exponential(mean_gap))
        return visit(page_base + page, 0, self.writes_per_request, gap)

    def _read_page(self, gen: np.random.Generator, state: _YcsbState) -> int:
        """App-relative page for a read: latest-biased when inserting."""
        if state.latest is not None and state.inserted:
            rank = state.latest.rv(gen)
            if rank <= len(state.inserted):
                return state.inserted[-rank]
            return state.catalog.rv(gen) - 1
        return state.catalog.rv(gen) - 1

    def describe(self) -> str:
        mix = YCSB_PRESETS[self.preset]
        return (
            f"{self.name}: {int(mix['read'] * 100)}/{int(mix['update'] * 100)}"
            f"/{int(mix['insert'] * 100)} read/update/insert over "
            f"{self.catalog_pages}-page Zipf({self.alpha}) catalog, "
            f"{self.rate} req/Mcycle/node"
        )


class TraceDrivenWorkload(Workload):
    """Replays a request schedule from file in bounded-memory chunks.

    The schedule is line-oriented text — ``node page reads writes
    think`` per request, ``#`` comments and blank lines ignored, think
    written with ``repr`` so floats round-trip exactly.  Construction
    makes one bounded-memory pass to size the catalog (max page + 1
    unless ``catalog_pages`` overrides it), count per-node requests,
    and fingerprint the file contents (SHA-256), so the compiled-trace
    cache key covers the schedule itself.  ``streams()`` then gives
    each node its own file handle read in ``chunk_requests``-line
    blocks, so the generator path never holds the full schedule.

    Replay is bounded on both paths: compiled replay decodes the trace
    arrays a chunk at a time (:meth:`CompiledTrace.rows
    <repro.core.trace.CompiledTrace.rows>`).  Compilation is not: it
    gathers each node's whole schedule into Python lists before
    packing them into arrays, and the arrays (in the process-wide memo
    and the on-disk trace cache) hold the whole schedule.

    ``warmup`` > 0 inserts the measured-phase barrier after that many
    of *each node's* requests (nodes with fewer emit it after their
    last), mirroring the generated workloads' phase accounting.
    """

    name = "openloop-trace"
    open_loop = True

    def __init__(
        self,
        path: str,
        page_size: int = 4096,
        chunk_requests: int = 65536,
        warmup: int = 0,
        catalog_pages: Optional[int] = None,
    ) -> None:
        super().__init__(page_size=page_size, scale=1.0)
        if chunk_requests < 1:
            raise ValueError(f"chunk_requests must be >= 1, got {chunk_requests}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.path = str(path)
        self.chunk_requests = int(chunk_requests)
        self.warmup = int(warmup)

        digest = hashlib.sha256()
        max_page = -1
        max_node = -1
        counts: Dict[int, int] = {}
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                digest.update(raw)
                line = raw.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                node, page, _, _, _ = _parse_request(line, self.path, lineno)
                counts[node] = counts.get(node, 0) + 1
                if page > max_page:
                    max_page = page
                if node > max_node:
                    max_node = node
        if max_node < 0:
            raise ValueError(f"trace {self.path!r} contains no requests")
        self.digest = digest.hexdigest()
        self.n_nodes_hint = max_node + 1
        self.node_counts = tuple(counts.get(n, 0) for n in range(self.n_nodes_hint))
        if catalog_pages is not None and catalog_pages < max_page + 1:
            raise ValueError(
                f"catalog_pages={catalog_pages} smaller than max trace page "
                f"{max_page} + 1"
            )
        self.catalog_pages = int(catalog_pages) if catalog_pages else max_page + 1

    @property
    def total_pages(self) -> int:
        return self.catalog_pages

    @property
    def phase_marks(self) -> Dict[Any, str]:
        # a property (not an instance attribute) so the trace
        # fingerprint over vars(self) stays scalar-only
        return {MEASURED_BARRIER: MEASURED_PHASE} if self.warmup else {}

    def offered_requests(self, n_nodes: int) -> int:
        return sum(self.node_counts)

    def streams(self, n_nodes: int, page_base: int, rng: RngRegistry) -> List[Stream]:
        if n_nodes < self.n_nodes_hint:
            raise ValueError(
                f"trace {self.path!r} references node {self.n_nodes_hint - 1} "
                f"but the machine has only {n_nodes} nodes"
            )
        return [self._stream(node, page_base) for node in range(n_nodes)]

    def _stream(self, node: int, page_base: int) -> Stream:
        yield barrier((self.name, "start"))
        count = 0
        for page, reads, writes, think in self._node_requests(node):
            if self.warmup and count == self.warmup:
                yield barrier(MEASURED_BARRIER)
            count += 1
            yield visit(page_base + page, reads, writes, think)
        if self.warmup and count <= self.warmup:
            yield barrier(MEASURED_BARRIER)
        yield barrier((self.name, "end"))

    def _node_requests(self, node: int) -> Iterator[Tuple[int, int, int, float]]:
        """This node's requests, read in bounded-memory chunks."""
        with open(self.path, "r", encoding="utf-8") as fh:
            lineno = 0
            while True:
                chunk = list(itertools.islice(fh, self.chunk_requests))
                if not chunk:
                    return
                for line in chunk:
                    lineno += 1
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    owner, page, reads, writes, think = _parse_request(
                        line, self.path, lineno
                    )
                    if owner != node:
                        continue
                    yield page, reads, writes, think

    def describe(self) -> str:
        return (
            f"{self.name}: {sum(self.node_counts)} requests over "
            f"{self.n_nodes_hint} nodes from {self.path} "
            f"(sha256 {self.digest[:12]})"
        )


def _parse_request(
    line: str, path: str, lineno: int
) -> Tuple[int, int, int, int, float]:
    """Parse one ``node page reads writes [think]`` schedule line."""
    fields = line.split()
    if len(fields) not in (4, 5):
        raise ValueError(
            f"{path}:{lineno}: expected 'node page reads writes [think]', "
            f"got {line!r}"
        )
    try:
        node = int(fields[0])
        page = int(fields[1])
        reads = int(fields[2])
        writes = int(fields[3])
        think = float(fields[4]) if len(fields) == 5 else 0.0
    except ValueError:
        raise ValueError(f"{path}:{lineno}: malformed request line {line!r}") from None
    if node < 0 or page < 0 or reads < 0 or writes < 0:
        raise ValueError(f"{path}:{lineno}: negative field in {line!r}")
    return node, page, reads, writes, think


def save_request_schedule(
    workload: Workload, n_nodes: int, path: str, seed: int = 1999
) -> int:
    """Materialize an open-loop workload's requests to a schedule file.

    Writes one ``node page reads writes think`` line per request (think
    via ``repr`` so floats round-trip exactly); barriers are dropped —
    :class:`TraceDrivenWorkload` re-adds start/end barriers, and its
    ``warmup`` parameter reproduces the measured-phase mark.  Pages are
    written app-relative (page_base 0).  Returns the request count.
    """
    rng = RngRegistry(seed)
    written = 0
    lines = [
        f"# request schedule: app={workload.name} n_nodes={n_nodes} seed={seed}\n"
        "# node page reads writes think_pcycles\n"
    ]
    for node, stream in enumerate(workload.streams(n_nodes, 0, rng)):
        for item in stream:
            if item[0] != "visit":
                continue
            _, page, reads, writes, think = item
            lines.append(f"{node} {page} {reads} {writes} {think!r}\n")
            written += 1
    # single atomic publish: a reader (or a survivor of a mid-write
    # kill) never sees a truncated schedule
    atomic_write_text(path, "".join(lines))
    return written


__all__ = [
    "MEASURED_BARRIER",
    "MEASURED_PHASE",
    "OpenLoopWorkload",
    "StationaryWorkload",
    "TraceDrivenWorkload",
    "TruncatedZipfDist",
    "YCSBWorkload",
    "YCSB_PRESETS",
    "save_request_schedule",
]
