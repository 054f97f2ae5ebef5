"""Reproduction of "JETTY: Filtering Snoops for Reduced Energy Consumption
in SMP Servers" (Moshovos, Memik, Falsafi, Choudhary — HPCA 2001).

The package is organised as:

* :mod:`repro.core` — the JETTY snoop filters (the paper's contribution);
* :mod:`repro.coherence` — the snoopy-bus MOESI SMP simulator;
* :mod:`repro.traces` — synthetic SPLASH-2-style workloads;
* :mod:`repro.energy` — the Kamble-Ghose / CACTI-lite energy model;
* :mod:`repro.analysis` — experiment harness and exhibit builders.

Quickstart::

    from repro import coverage_for, workload_metrics

    # Evaluating first records the trace (and its metrics) once.
    print(coverage_for("raytrace", "HJ(IJ-10x4x7, EJ-32x4)"))
    result = workload_metrics("raytrace")
    print(result.snoop_miss_fraction_of_snoops)       # ~1.0

See README.md, DESIGN.md and the ``examples/`` directory.
"""

from repro.analysis.experiments import (
    coverage_for,
    energy_reduction_for,
    evaluate_filter,
    summarize_nway,
    workload_metrics,
)
from repro.coherence.config import PAPER_SYSTEM, SCALED_SYSTEM, SystemConfig
from repro.coherence.smp import SMPSystem, simulate_streaming
from repro.core.config import (
    PAPER_EJ_NAMES,
    PAPER_HJ_NAMES,
    PAPER_IJ_NAMES,
    PAPER_VEJ_NAMES,
    build_filter,
    parse_filter_name,
)
from repro.core.exclude import ExcludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.include import IncludeJetty
from repro.core.null import NullFilter, OracleFilter
from repro.core.stats import EventReplayer
from repro.core.vector_exclude import VectorExcludeJetty
from repro.energy.accounting import EnergyAccountant
from repro.traces.workloads import WORKLOADS, build_workload_stream, get_workload

__version__ = "1.0.0"

__all__ = [
    "EnergyAccountant",
    "EventReplayer",
    "ExcludeJetty",
    "HybridJetty",
    "IncludeJetty",
    "NullFilter",
    "OracleFilter",
    "PAPER_EJ_NAMES",
    "PAPER_HJ_NAMES",
    "PAPER_IJ_NAMES",
    "PAPER_SYSTEM",
    "PAPER_VEJ_NAMES",
    "SCALED_SYSTEM",
    "SMPSystem",
    "SystemConfig",
    "VectorExcludeJetty",
    "WORKLOADS",
    "__version__",
    "build_filter",
    "build_workload_stream",
    "coverage_for",
    "energy_reduction_for",
    "evaluate_filter",
    "get_workload",
    "parse_filter_name",
    "simulate_streaming",
    "summarize_nway",
    "workload_metrics",
]
