"""Core library: machine assembly, experiment running, reporting.

This is the primary public surface of the reproduction:

* :class:`~repro.core.machine.Machine` — build a standard or
  NWCache-equipped multiprocessor from a :class:`~repro.config.SimConfig`
  and run a workload on it.
* :func:`~repro.core.runner.run_experiment` — one (application, system,
  prefetch) cell of the paper's evaluation, with the paper's best
  min-free-frames setting applied automatically.
* :func:`~repro.core.batch.run_batch` — run an experiment grid through
  the sweep executor (:mod:`repro.service`), backed by the
  content-addressed on-disk :class:`~repro.core.cache.ResultCache`.
* :mod:`~repro.core.report` — the text tables/figures of Section 5.
"""

from repro.core.batch import (
    ExperimentSpec,
    grid_specs,
    run_batch,
    run_pairs_batch,
)
from repro.core.cache import ResultCache, cache_key
from repro.core.export import (
    load_full_results,
    load_results,
    result_from_full_dict,
    result_to_dict,
    result_to_full_dict,
    save_full_results,
    save_results,
)
from repro.core.machine import Machine, RunResult, SYSTEM_NWCACHE, SYSTEM_STANDARD
from repro.core.runner import (
    BEST_MIN_FREE,
    experiment_config,
    run_experiment,
    run_pair,
)
from repro.core.sweep import sweep, tabulate

__all__ = [
    "BEST_MIN_FREE",
    "ExperimentSpec",
    "Machine",
    "ResultCache",
    "RunResult",
    "SYSTEM_NWCACHE",
    "SYSTEM_STANDARD",
    "cache_key",
    "experiment_config",
    "grid_specs",
    "load_full_results",
    "load_results",
    "result_from_full_dict",
    "result_to_dict",
    "result_to_full_dict",
    "run_batch",
    "run_experiment",
    "run_pair",
    "run_pairs_batch",
    "save_full_results",
    "save_results",
    "sweep",
    "tabulate",
]
