"""Wormhole-routed 2D mesh interconnect with per-link contention.

Nodes are laid out row-major on a ``rows x cols`` mesh and messages use
dimension-order (XY) routing: first along the row, then along the
column.  A message acquires each unidirectional link on its path in path
order, holds all of them for the serialization time (virtual
cut-through approximation of wormhole flit pipelining), then releases
them.  Because XY routing's channel-dependency graph is acyclic, the
ordered acquisition cannot deadlock.

The paper routes *all* traffic of the standard machine through this mesh
(page reads, swap-outs, control messages); the NWCache machine moves
swap-outs and ring-hit reads off of it, which is the "contention" benefit
quantified in Table 8.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.config import SimConfig
from repro.sim import Engine, Resource, Tally
from repro.sim.events import Event

Link = Tuple[int, int]  #: directed link (from_node, to_node)


class MeshNetwork:
    """The multiprocessor's wormhole mesh.

    Parameters
    ----------
    engine, cfg:
        Simulation engine and machine configuration (uses ``mesh_dims``,
        ``link_rate``, ``router_delay_pcycles``,
        ``message_overhead_pcycles``).
    """

    def __init__(self, engine: Engine, cfg: SimConfig) -> None:
        self.engine = engine
        self.cfg = cfg
        self.rows, self.cols = cfg.mesh_dims
        self._links: Dict[Link, Resource] = {}
        for node in range(cfg.n_nodes):
            r, c = divmod(node, self.cols)
            for dr, dc in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                nr, nc = r + dr, c + dc
                if 0 <= nr < self.rows and 0 <= nc < self.cols:
                    nbr = nr * self.cols + nc
                    self._links[(node, nbr)] = Resource(
                        engine, capacity=1, name=f"link{node}->{nbr}"
                    )
        #: total bytes injected (traffic accounting, Table 8 discussion)
        self.bytes_sent = 0
        #: observed end-to-end message latency
        self.latency = Tally()
        # The mesh is static, so a (src, dst) pair's link sequence and the
        # fixed part of its latency never change.  transfer() is one of the
        # hottest call sites in a run; memoize per-pair so the per-message
        # work is a dict lookup instead of recomputing XY routes.  The
        # cached values are derived with route()/base_latency()'s own
        # arithmetic, so latencies stay bit-identical.
        self._link_rate = cfg.link_rate
        self._route_cache: Dict[Tuple[int, int], Tuple[List[Resource], float, int]] = {}

    def _route_entry(self, src: int, dst: int) -> Tuple[List[Resource], float, int]:
        """(link resources, fixed latency, hop count) for ``src``→``dst``."""
        path = self.route(src, dst)
        h = len(path)
        fixed = (
            self.cfg.message_overhead_pcycles
            + h * self.cfg.router_delay_pcycles
        )
        entry = ([self._links[link] for link in path], fixed, h)
        self._route_cache[(src, dst)] = entry
        return entry

    # -- routing ----------------------------------------------------------
    def coords(self, node: int) -> Tuple[int, int]:
        """(row, col) of ``node``."""
        if not (0 <= node < self.cfg.n_nodes):
            raise ValueError(f"node {node} out of range")
        return divmod(node, self.cols)

    def route(self, src: int, dst: int) -> List[Link]:
        """The XY-routed link sequence from ``src`` to ``dst``."""
        (r0, c0), (r1, c1) = self.coords(src), self.coords(dst)
        path: List[Link] = []
        cur = src
        step = 1 if c1 > c0 else -1
        for c in range(c0 + step, c1 + step, step) if c1 != c0 else ():
            nxt = r0 * self.cols + c
            path.append((cur, nxt))
            cur = nxt
        step = 1 if r1 > r0 else -1
        for r in range(r0 + step, r1 + step, step) if r1 != r0 else ():
            nxt = r * self.cols + c1
            path.append((cur, nxt))
            cur = nxt
        return path

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes."""
        (r0, c0), (r1, c1) = self.coords(src), self.coords(dst)
        return abs(r0 - r1) + abs(c0 - c1)

    # -- latency model ------------------------------------------------------
    def base_latency(self, src: int, dst: int, nbytes: int) -> float:
        """End-to-end latency with zero contention, in pcycles."""
        h = self.hops(src, dst)
        serialization = nbytes / self.cfg.link_rate if h else 0.0
        return (
            self.cfg.message_overhead_pcycles
            + h * self.cfg.router_delay_pcycles
            + serialization
        )

    def transfer(
        self, src: int, dst: int, nbytes: int, priority: int = 0
    ) -> Generator[Event, Any, None]:
        """Send ``nbytes`` from ``src`` to ``dst`` (generator; yields until
        delivered).  Contention: holds every path link for the message's
        occupancy."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        engine = self.engine
        t0 = engine._now
        entry = self._route_cache.get((src, dst))
        if entry is None:
            entry = self._route_entry(src, dst)
        links, fixed, h = entry
        if not links:
            # src == dst: no links to hold, just the message overhead
            # (serialization is zero at zero hops) — skip the claim
            # bookkeeping entirely.
            yield fixed
            self.bytes_sent += nbytes
            self.latency.record(engine._now - t0)
            return
        tokens = []
        try:
            for res in links:
                tok = res.claim(priority)
                tokens.append(tok)
                yield tok
            # == base_latency(src, dst, nbytes), from the memoized parts.
            yield fixed + nbytes / self._link_rate if h else fixed
        finally:
            for res, tok in zip(links, tokens):
                res.release(tok)
        self.bytes_sent += nbytes
        self.latency.record(engine._now - t0)

    def try_jump_transfer(self, src: int, dst: int, nbytes: float) -> bool:
        """Complete an uncontended message as a clock jump, if possible.

        Exactly equivalent to :meth:`transfer` when every link on the XY
        route is idle and the engine can leap over the occupancy window:
        the per-link grants and the serialization sleep collapse into
        one ``Engine.try_jump(..., hops + 1)``, each link's busy integral
        advances by the same window the release path would have added,
        and the latency tally records the identical ``now - t0``.
        Returns False (no state touched) when any route link is held or
        queued, or another event is due inside the window.
        """
        entry = self._route_cache.get((src, dst))
        if entry is None:
            entry = self._route_entry(src, dst)
        links, fixed, h = entry
        for res in links:
            if res.users or res.queue:
                return False
        engine = self.engine
        t0 = engine._now
        delay = fixed + nbytes / self._link_rate if h else fixed
        # try_jump's own queue test, made here first: a queue head inside
        # the window refuses the jump without the call.
        queue = engine._queue
        if queue and queue[0][0] <= t0 + delay:
            return False
        if not engine.try_jump(delay, len(links) + 1):
            return False
        now = engine._now
        dt = now - t0
        for res in links:
            res._busy_integral += dt
            res._last_change = now
        self.bytes_sent += nbytes
        self.latency.record(dt)
        return True

    # -- reporting --------------------------------------------------------
    def max_link_utilization(self, total_time: float) -> float:
        """Utilization of the hottest link (contention indicator)."""
        if not self._links:
            return 0.0
        return max(l.utilization(total_time) for l in self._links.values())
