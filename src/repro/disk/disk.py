"""Disk mechanics: seek + rotation + media transfer, with queueing.

Table 1 parameters: 2 ms minimum seek, 22 ms full-stroke seek, 4 ms
average rotational latency, 20 MB/s media rate.  The seek curve follows
the standard square-root-of-distance model between the two endpoints;
rotational latency is sampled uniformly in ``[0, 2 * average)`` from the
disk's own deterministic RNG stream.

The mechanism is a single server: concurrent requests queue, with
priorities (demand reads before write-backs before prefetches).
"""

from __future__ import annotations

import math
from typing import Any, Generator

import numpy as np

from repro.config import SimConfig
from repro.sim import Engine, Resource, Tally
from repro.sim.events import Event

#: request priorities on the disk arm
PRIO_DEMAND = 0
PRIO_WRITEBACK = 1
PRIO_PREFETCH = 2


class Disk:
    """One disk: a single mechanism serving multi-page transfers."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        rng: np.random.Generator,
        name: str = "",
    ) -> None:
        self.engine = engine
        self.cfg = cfg
        self.rng = rng
        self.name = name
        self.mechanism = Resource(engine, capacity=1, name=f"{name}.arm")
        self.current_cylinder = 0
        #: completed operations / pages moved
        self.n_ops = 0
        self.pages_moved = 0
        #: service time (seek+rotation+transfer, no queueing) per op
        self.service = Tally()
        #: total time ops spent queued + in service
        self.response = Tally()
        #: fault hook (repro.sim.faults.DiskFaultState) — None when the
        #: fault layer is off, keeping the io() path zero-cost
        self._faults: Any = None
        #: operations that completed with an injected error
        self.n_errors = 0
        #: latched true once the disk enters degraded mode
        self.degraded = False

    # -- timing model -------------------------------------------------------
    def cylinder_of(self, block: int) -> int:
        """Cylinder holding ``block``."""
        return (block // self.cfg.blocks_per_cylinder) % self.cfg.disk_cylinders

    def seek_time(self, distance: int) -> float:
        """Seek pcycles for a ``distance``-cylinder move (0 -> no seek)."""
        if distance < 0:
            raise ValueError(f"negative seek distance {distance}")
        if distance == 0:
            return 0.0
        span = max(self.cfg.disk_cylinders - 1, 1)
        frac = math.sqrt(distance / span)
        return self.cfg.seek_min_pcycles + frac * (
            self.cfg.seek_max_pcycles - self.cfg.seek_min_pcycles
        )

    def transfer_time(self, npages: int) -> float:
        """Media transfer pcycles for ``npages`` consecutive pages."""
        return npages * self.cfg.page_size / self.cfg.disk_rate

    # -- operation -------------------------------------------------------------
    def io(
        self, block: int, npages: int = 1, priority: int = PRIO_DEMAND
    ) -> Generator[Event, Any, bool]:
        """Perform one (multi-page, consecutive) disk operation.

        Generator: yields until the transfer completes.  Reads and writes
        cost the same in this model; ``priority`` orders queued requests.
        Returns True on success, False when the fault layer injected an
        error into this operation (the mechanism time is still consumed;
        the controller decides whether to retry).
        """
        if npages < 1:
            raise ValueError(f"npages must be >= 1, got {npages}")
        t_queue = self.engine.now
        tok = self.mechanism.claim(priority)
        yield tok
        try:
            cyl = self.cylinder_of(block)
            seek = self.seek_time(abs(cyl - self.current_cylinder))
            rotation = float(self.rng.uniform(0.0, 2.0 * self.cfg.rotational_pcycles))
            xfer = self.transfer_time(npages)
            self.current_cylinder = cyl
            faults = self._faults
            service = seek + rotation + xfer
            if faults is not None:
                service += faults.service_penalty()
            yield service
            self.n_ops += 1
            self.pages_moved += npages
            self.service.record(service)
            self.response.record(self.engine.now - t_queue)
            if faults is not None and faults.roll_error():
                self.n_errors += 1
                return False
            return True
        finally:
            self.mechanism.release(tok)

    def utilization(self, total_time: float) -> float:
        """Fraction of ``total_time`` the mechanism was busy."""
        return self.mechanism.utilization(total_time)
