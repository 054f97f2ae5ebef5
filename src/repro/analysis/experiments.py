"""Experiment orchestration: store-backed metrics and evaluations.

The coherence simulation of one workload is the expensive step; every
filter configuration replays its recorded trace.  Simulation metrics,
traces, and evaluations are kept in an
:class:`~repro.analysis.store.ExperimentStore` keyed by a complete
configuration fingerprint (workload spec, full system geometry, seed).
By default the store is in-memory, but pointing it at a file
(``set_store(path)`` or the ``REPRO_STORE`` environment variable) makes
every result durable across invocations.  Batched/parallel execution
lives in :mod:`repro.analysis.runner`; the calls here are one metrics
call (:func:`workload_metrics`) and one evaluation call
(:func:`evaluate_filter`), each a single cell of its front door,
:func:`~repro.analysis.runner.run_sweep`, on the same store.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import runner, store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.metrics import SimResult
from repro.core.stats import FilterEvaluation
from repro.energy.accounting import EnergyAccountant, EnergyReduction
from repro.traces.workloads import WORKLOADS, get_workload

_STORE: ExperimentStore | None = None
_ACCOUNTANTS: dict[int, EnergyAccountant] = {}


def get_store() -> ExperimentStore:
    """The process-wide experiment store.

    Defaults to an in-memory store; set the ``REPRO_STORE`` environment
    variable (or call :func:`set_store`) to persist results on disk.
    """
    global _STORE
    if _STORE is None:
        _STORE = ExperimentStore(os.environ.get("REPRO_STORE") or None)
    return _STORE


def set_store(target: ExperimentStore | str | Path | None) -> ExperimentStore:
    """Replace the process-wide store (a path opens/creates a SQLite file)."""
    global _STORE
    if _STORE is not None:
        _STORE.close()
    if target is None or isinstance(target, (str, Path)):
        _STORE = ExperimentStore(target)
    else:
        _STORE = target
    return _STORE


def workload_metrics(
    name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> SimResult:
    """Simulation statistics for one workload (store-backed).

    The one metrics call for exhibits that read counters (tables,
    stability, energy): it is satisfied by a stored ``sim-metrics`` row
    (written by every recording and streamed run).  On a miss it runs
    a pure record job through the front door
    (:func:`repro.analysis.runner.evaluate`, one
    :func:`~repro.analysis.runner.run_sweep` cell with no filters),
    which restores the row from an already-recorded trace's manifest or
    records the trace, so a later :func:`evaluate_filter` on the same
    workload only replays: the workload simulates once.
    """
    spec = get_workload(name)
    store = get_store()
    metrics = store.get_sim_metrics(
        store_mod.sim_metrics_key(spec, system, seed)
    )
    if metrics is None:
        metrics = runner.evaluate(
            spec, system, (), seed, experiment_store=store
        ).metrics
    return metrics


def evaluate_filter(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> FilterEvaluation:
    """One filter's evaluation on one workload (store-backed).

    Each node gets its own freshly built filter; the returned evaluation
    is the system-wide merge, as the paper reports.  A stored evaluation
    is returned as is; otherwise the workload's trace is recorded if it
    is missing (one simulation, which also stores the metrics) and the
    filter replays it.  Evaluating N filters at once, or streaming them
    without persisting a trace, is :func:`repro.analysis.runner.evaluate`.
    """
    spec = get_workload(workload)
    store = get_store()
    evaluation = store.get_eval(
        store_mod.eval_key(spec, filter_name, system, seed)
    )
    if evaluation is None:
        outcome = runner.evaluate(
            spec, system, (filter_name,), seed, experiment_store=store
        )
        evaluation = outcome.evaluations[filter_name]
    return evaluation


def coverage_for(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> float:
    """Snoop-miss coverage of one filter on one workload (paper §4.3)."""
    return evaluate_filter(workload, filter_name, system, seed).coverage.coverage


def _accountant(system: SystemConfig) -> EnergyAccountant:
    """One accountant per process (paper-scale pricing is system-independent)."""
    if 0 not in _ACCOUNTANTS:
        _ACCOUNTANTS[0] = EnergyAccountant()
    return _ACCOUNTANTS[0]


def energy_reduction_for(
    workload: str,
    filter_name: str,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
) -> EnergyReduction:
    """Figure 6's four reduction numbers for one (workload, filter)."""
    result = workload_metrics(workload, system, seed)
    evaluation = evaluate_filter(workload, filter_name, system, seed)
    return _accountant(system).reduction(result.aggregate, evaluation, filter_name)


@dataclass(frozen=True)
class NWaySummary:
    """The §4.3.4 scaling summary for one SMP width."""

    n_cpus: int
    snoop_miss_of_all: float
    mean_coverage: float


def summarize_nway(
    n_cpus: int,
    filter_name: str = "HJ(IJ-10x4x7, EJ-32x4)",
    seed: int = 1,
    workloads: tuple[str, ...] | None = None,
) -> NWaySummary:
    """Reproduce the paper's 8-way summary for any SMP width.

    The paper reports that on an 8-way SMP snoop-induced misses grow to
    76.4% of all L2 accesses (vs 54.5% on 4-way) and best-HJ coverage
    rises to 79%.
    """
    system = SCALED_SYSTEM.with_cpus(n_cpus)
    names = workloads if workloads is not None else tuple(WORKLOADS)
    miss_fracs = []
    coverages = []
    for name in names:
        result = workload_metrics(name, system, seed)
        miss_fracs.append(result.snoop_miss_fraction_of_all)
        coverages.append(coverage_for(name, filter_name, system, seed))
    return NWaySummary(
        n_cpus=n_cpus,
        snoop_miss_of_all=sum(miss_fracs) / len(miss_fracs),
        mean_coverage=sum(coverages) / len(coverages),
    )


def clear_caches() -> None:
    """Drop every stored result (tests use this)."""
    get_store().clear()
