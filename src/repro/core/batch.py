"""Batch execution: fan an experiment grid out over crash-safe workers.

The paper's evaluation is a grid of *independent* simulations (7 apps x 2
systems x up to 3 prefetchers, plus ablation sweeps).  Each cell is a
pure, deterministic function of its inputs, so cells can run in any
order, on any worker, with bit-identical results — per-cell seeding lives
entirely in :class:`~repro.config.SimConfig` (see
:class:`~repro.sim.rng.RngRegistry`).

:func:`run_batch` is the single entry point, a thin client of the
sweep service (:mod:`repro.service`): one
:class:`~repro.service.worker.Worker` serves hits from the
content-addressed :class:`~repro.core.cache.ResultCache`, runs the
misses (in forked children when ``jobs > 1``) and stores the fresh
results; everything comes back in spec order.

Crash safety
------------
A grid run must survive any single cell going bad.  A cell that raises,
exceeds the per-cell ``timeout`` (default: ``NWCACHE_BATCH_TIMEOUT``
seconds; forked cells only), or kills its child process outright
(segfault, OOM-kill) is retried once and, if it fails again, recorded
as a structured :class:`FailedSpec` in its slot — every *other* cell's
result is still returned.  Callers that need all-or-nothing semantics
can pass results through :func:`raise_failures`.

::

    from repro.core.batch import ExperimentSpec, run_batch
    specs = [ExperimentSpec("sor", sys, "optimal", data_scale=0.2)
             for sys in ("standard", "nwcache")]
    std, nwc = run_batch(specs, jobs=4)
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import SimConfig
from repro.core.cache import ResultCache, cache_key
from repro.core.machine import RunResult, SYSTEM_NWCACHE, SYSTEM_STANDARD
from repro.core.runner import (
    BEST_MIN_FREE,
    env_fault_spec,
    experiment_config,
    run_experiment,
    scaled_min_free,
)

#: Type accepted by run_batch's ``cache`` parameter: an explicit cache,
#: ``None`` for the default on-disk cache, or ``False`` to disable caching.
CacheArg = Union[ResultCache, None, bool]


@dataclass
class ExperimentSpec:
    """One cell of the evaluation grid (the inputs of ``run_experiment``)."""

    app: str
    system: str = SYSTEM_STANDARD
    prefetch: str = "optimal"
    data_scale: float = 1.0
    min_free: Optional[int] = None
    drain_policy: str = "most-loaded"
    cfg: Optional[SimConfig] = None
    audit: bool = False
    #: trace-fed CPU fast path (trajectory-neutral, so deliberately NOT
    #: part of key(): generator and compiled runs are interchangeable)
    compiled_traces: Optional[bool] = None
    #: fault-injection plan (FaultPlan, spec string, or None to defer to
    #: the NWCACHE_FAULTS environment variable) — part of key()
    faults: Any = None
    app_params: Dict[str, Any] = field(default_factory=dict)

    def resolved_config(self) -> SimConfig:
        """The exact SimConfig ``run_experiment`` would simulate with."""
        min_free = self.min_free
        if min_free is None:
            min_free = BEST_MIN_FREE[(self.system, self.prefetch)]
        if self.cfg is None:
            cfg = experiment_config(self.data_scale, min_free=min_free)
        else:
            cfg = self.cfg.replace(
                min_free_frames=scaled_min_free(
                    min_free, self.data_scale, self.cfg.frames_per_node
                )
            )
        if self.audit and not cfg.audit:
            cfg = cfg.replace(audit=True)
        # Mirror run_experiment's fault resolution (spec field, then the
        # environment) so key() always covers the plan actually simulated.
        faults = self.faults
        if faults is None:
            faults = env_fault_spec()
        if faults is not None:
            cfg = cfg.replace(faults=faults)
        return cfg

    def key(self) -> str:
        """Content hash of every input that determines this cell's result."""
        if not isinstance(self.app, str):
            raise TypeError(
                f"cache keys need a string app name, got {self.app!r}; "
                "run Workload instances through run_experiment directly"
            )
        return cache_key(
            self.resolved_config(),
            self.app,
            self.system,
            self.prefetch,
            drain_policy=self.drain_policy,
            data_scale=self.data_scale,
            app_params=self.app_params,
        )

    def run(self) -> RunResult:
        """Execute this cell serially (the worker function)."""
        return run_experiment(
            self.app,
            self.system,
            self.prefetch,
            data_scale=self.data_scale,
            min_free=self.min_free,
            cfg=self.cfg,
            drain_policy=self.drain_policy,
            audit=self.audit or None,
            compiled_traces=self.compiled_traces,
            faults=self.faults,
            **self.app_params,
        )


@dataclass
class FailedSpec:
    """A grid cell whose every attempt failed; fills the cell's slot.

    ``kind`` distinguishes how the last attempt died: ``"error"`` (the
    cell raised), ``"timeout"`` (exceeded the per-cell deadline and was
    terminated), or ``"crash"`` (its process died without reporting —
    segfault, OOM-kill, ``os._exit`` — or its lease expired unrenewed).
    """

    spec: ExperimentSpec
    kind: str
    error: str
    attempts: int

    @property
    def retries(self) -> int:
        """Re-attempts spent beyond the first try (``attempts - 1``)."""
        return max(0, self.attempts - 1)

    def __bool__(self) -> bool:
        # Failed slots are falsy so ``isinstance``-free call sites can
        # filter with ``if res:`` — a RunResult is always truthy.
        return False


#: What fills one slot of a batch result list.
BatchResult = Union[RunResult, FailedSpec]

ProgressFn = Callable[["ExperimentSpec", "BatchResult", bool], None]


def raise_failures(results: Sequence[BatchResult]) -> List[RunResult]:
    """Return ``results`` unchanged unless any slot failed.

    All-or-nothing adapter for callers (sweeps, table builders) that
    cannot tolerate holes: raises one RuntimeError naming every failed
    cell instead of letting a FailedSpec masquerade as a result.
    """
    failures = [r for r in results if isinstance(r, FailedSpec)]
    if failures:
        lines = "; ".join(
            f"{f.spec.app}/{f.spec.system}/{f.spec.prefetch}: "
            f"{f.kind} after {f.attempts} attempt(s) ({f.error})"
            for f in failures
        )
        raise RuntimeError(
            f"{len(failures)} batch cell(s) failed: {lines}"
        )
    return list(results)  # type: ignore[arg-type]  # no FailedSpec left


def resolve_cache(cache: CacheArg) -> Optional[ResultCache]:
    """Normalize run_batch's ``cache`` argument (None -> default cache)."""
    if cache is False:
        return None
    if cache is None or cache is True:
        return ResultCache.default()
    return cache


def default_jobs() -> int:
    """Worker count when ``jobs`` is unspecified: one per available core."""
    env = os.environ.get("NWCACHE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"NWCACHE_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def validate_timeout(value: Any, source: str = "timeout") -> float:
    """A per-cell deadline must be a positive finite number of seconds.

    Zero, negative, NaN/inf, and non-numeric values are configuration
    mistakes, not requests to disable the deadline — disabling is
    explicit (unset the environment variable, or pass ``None``) — so
    every one of them raises a ``ValueError`` naming the offender.
    """
    try:
        t = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a number of seconds, got {value!r}"
        ) from None
    if not math.isfinite(t) or t <= 0:
        raise ValueError(
            f"{source} must be a positive finite number of seconds, got "
            f"{value!r}; unset it (or pass None) to disable the deadline"
        )
    return t


def batch_timeout() -> Optional[float]:
    """Per-cell wall-clock deadline from ``NWCACHE_BATCH_TIMEOUT`` (s).

    Unset or empty disables the deadline; anything else must be a
    positive finite number (see :func:`validate_timeout`).
    """
    env = os.environ.get("NWCACHE_BATCH_TIMEOUT")
    if env is None or not env.strip():
        return None
    return validate_timeout(env, "NWCACHE_BATCH_TIMEOUT")


def run_batch(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: CacheArg = None,
    progress: Optional[ProgressFn] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
) -> List[BatchResult]:
    """Run a grid of experiment cells, cached, parallel, and crash-safe.

    The specs go into a :class:`~repro.service.lease.SweepQueue` in a
    temporary directory, so they must be journal-able (see
    :func:`~repro.service.lease.spec_to_dict`), and one
    :class:`~repro.service.worker.Worker` settles it.

    Parameters
    ----------
    specs:
        The cells to evaluate; results come back in the same order.
    jobs:
        Cells run at once (default: ``NWCACHE_JOBS`` env or CPU count).
        ``1`` runs them in-process, one after another; more runs each
        cell in its own forked child.
    cache:
        ``None`` (default) uses the on-disk :class:`ResultCache` at its
        environment-resolved location; ``False`` disables caching; or
        pass an explicit :class:`ResultCache`.
    progress:
        Optional callback ``progress(spec, result, was_cached)`` invoked
        as each cell settles; ``result`` may be a :class:`FailedSpec`.
    timeout:
        Per-cell wall-clock deadline in seconds for forked cells
        (default: the ``NWCACHE_BATCH_TIMEOUT`` environment variable;
        unset/empty means no deadline).  Must be positive and finite —
        zero or negative values raise ``ValueError`` rather than
        silently disabling the deadline.  A child past its deadline is
        terminated and the attempt counts as a ``"timeout"`` failure.
    retries:
        How many times a failed cell is re-attempted before its slot
        becomes a :class:`FailedSpec` (default 1: every cell gets up to
        two attempts).  Must be a non-negative integer.

    Returns
    -------
    One entry per spec, in spec order: the :class:`RunResult`, or a
    :class:`FailedSpec` (around the caller's own spec object) if every
    attempt at that cell failed.  A bad cell never takes down the batch
    — see :func:`raise_failures` for all-or-nothing callers.
    """
    # the service builds on this module, so it is imported on use
    from repro.service import SweepQueue, Worker

    specs = list(specs)
    if timeout is None:
        timeout = batch_timeout()  # the Worker validates an explicit one
    if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
        raise ValueError(
            f"retries must be a non-negative integer, got {retries!r}"
        )
    jobs = default_jobs() if jobs is None else max(1, jobs)
    results: List[Optional[BatchResult]] = [None] * len(specs)
    slots: Dict[str, List[int]] = {}

    def settle(event: str, _spec: Any, key: str, outcome: Any) -> None:
        if outcome is None:
            return  # a claim, or a failed attempt that will retry
        for i in slots[key]:
            res = outcome
            if isinstance(outcome, FailedSpec):
                res = replace(outcome, spec=specs[i])
            results[i] = res
            if progress is not None:
                progress(specs[i], res, event == "cached")

    with tempfile.TemporaryDirectory(prefix="repro-batch-") as root:
        queue = SweepQueue(root, retry_budget=retries + 1, backoff_base=0)
        for i, key in enumerate(queue.submit(specs)):
            slots.setdefault(key, []).append(i)
        Worker(queue, cache=cache, progress=settle, jobs=jobs,
               timeout=timeout).run()
    return results  # type: ignore[return-value]  # every slot is filled


def grid_specs(
    apps: Sequence[str],
    systems: Sequence[str] = (SYSTEM_STANDARD, SYSTEM_NWCACHE),
    prefetches: Sequence[str] = ("optimal",),
    data_scale: float = 1.0,
    **kwargs: Any,
) -> List[ExperimentSpec]:
    """The full cross product of (app, system, prefetch) cells."""
    return [
        ExperimentSpec(app, system, prefetch, data_scale=data_scale, **kwargs)
        for app in apps
        for system in systems
        for prefetch in prefetches
    ]


def run_pairs_batch(
    apps: Sequence[str],
    prefetch: str = "optimal",
    data_scale: float = 1.0,
    jobs: Optional[int] = None,
    cache: CacheArg = None,
    progress: Optional[ProgressFn] = None,
    **kwargs: Any,
) -> Dict[str, Tuple[BatchResult, BatchResult]]:
    """(standard, nwcache) result pairs for each app, via one batch.

    A cell that failed occupies its half of the pair as a
    :class:`FailedSpec`; the other half is still a real result.
    """
    specs = grid_specs(
        apps, prefetches=(prefetch,), data_scale=data_scale, **kwargs
    )
    results = run_batch(specs, jobs=jobs, cache=cache, progress=progress)
    by_cell = {(s.app, s.system): r for s, r in zip(specs, results)}
    return {
        app: (by_cell[app, SYSTEM_STANDARD], by_cell[app, SYSTEM_NWCACHE])
        for app in apps
    }
