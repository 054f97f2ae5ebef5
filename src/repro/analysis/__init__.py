"""Reproduction harness: analytical models, experiments, tables, figures.

Every exhibit in the paper's evaluation maps to one builder here; the
checked table of all of them, with the claims each must keep, is
:mod:`repro.analysis.exhibits`:

* Table 1  — :func:`repro.analysis.tables.build_table1`
* Figure 2 — :func:`repro.analysis.figures.build_figure2`
* Table 2  — :func:`repro.analysis.tables.build_table2`
* Table 3  — :func:`repro.analysis.tables.build_table3`
* Figure 4 — :func:`repro.analysis.figures.build_figure4a` / ``4b``
* Figure 5 — :func:`repro.analysis.figures.build_figure5a` / ``5b``
* Table 4  — :func:`repro.analysis.tables.build_table4`
* Figure 6 — :func:`repro.analysis.figures.build_figure6`
* §4.3.4 8-way summary — :func:`repro.analysis.experiments.summarize_nway`

Results live in a persistent :class:`ExperimentStore` keyed by a complete
configuration fingerprint (workload spec, system geometry, seed), so
exhibits, examples, and repeated CLI invocations share runs.  Every
evaluation goes through one front door, :func:`run_sweep` (one
:class:`SweepJob` per workload and seed, one :func:`execute` call);
:func:`workload_metrics`, :func:`evaluate_filter` and :func:`evaluate`
are single cells of it.  The :mod:`repro.analysis.runner` engine fans
sweeps out over supervised workers with bitwise-deterministic results.
"""

from repro.analysis.analytical import (
    AnalyticalEnergyModel,
    SnoopEnergyInputs,
    snoop_miss_energy_fraction,
)
from repro.analysis.experiments import (
    coverage_for,
    energy_reduction_for,
    evaluate_filter,
    get_store,
    set_store,
    summarize_nway,
    workload_metrics,
)
from repro.analysis.runner import (
    SweepJob,
    evaluate,
    execute,
    record_trace,
    run_sweep,
)
from repro.analysis.store import ExperimentStore
from repro.analysis.figures import (
    build_figure2,
    build_figure4a,
    build_figure4b,
    build_figure5a,
    build_figure5b,
    build_figure6,
)
from repro.analysis.report import render_figure
from repro.analysis.tables import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
)

__all__ = [
    "AnalyticalEnergyModel",
    "ExperimentStore",
    "SnoopEnergyInputs",
    "build_figure2",
    "build_figure4a",
    "build_figure4b",
    "build_figure5a",
    "build_figure5b",
    "build_figure6",
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "SweepJob",
    "coverage_for",
    "energy_reduction_for",
    "evaluate",
    "evaluate_filter",
    "execute",
    "get_store",
    "record_trace",
    "render_figure",
    "run_sweep",
    "set_store",
    "snoop_miss_energy_fraction",
    "summarize_nway",
    "workload_metrics",
]
