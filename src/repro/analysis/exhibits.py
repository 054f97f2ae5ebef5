"""The paper's exhibits as one checked table.

Each :class:`Exhibit` names the store cells it reads (its :class:`Grid`),
builds its data with the builders in :mod:`repro.analysis.tables`,
:mod:`~repro.analysis.figures`, :mod:`~repro.analysis.stability` and
:func:`~repro.analysis.experiments.summarize_nway`, renders it as text,
and carries the reproduction's claims about it as :class:`Check` rows
with fixed bounds.  :func:`run` fills the store with one
:func:`~repro.analysis.runner.execute` call over the union of the
selected exhibits' grids, then builds and checks each exhibit;
``repro exhibits [NAME ...]`` prints them, the check table and that
call's report, and exits 1 if any check fails.  A failed check is a
finding about the reproduction, to be reported; its bound is never
loosened.

Tables 1-4 are ``table1``..``table4``; Figure 2 (32- and 64-byte lines)
``figure2a``/``figure2b``; Figures 4-5 ``figure4a``..``figure5b``;
Figure 6's four panels ``figure6`` and its raytrace size remark
``figure6-raytrace-size``; §3.2's index overlap, footnote 3's hashed
include filter and the no-subblocking results are the three
``ablation-*`` exhibits; §4.3.4's 8-way summary is ``nway-scaling``.
``profile-matrix`` crosses the sharing-profile suites with the best
filter of each family, phase by phase, and checks that no filter ever
drops a snoop that would have hit.  ``seed-stability`` and
``streaming-memory`` check the reproduction itself: headline numbers
across seeds, and flat streamed memory over a 100x longer trace.
"""

from __future__ import annotations

import operator
import tracemalloc
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from repro.analysis import experiments, figures, runner, tables
from repro.analysis.analytical import AnalyticalEnergyModel
from repro.analysis.experiments import (
    coverage_for,
    energy_reduction_for,
    summarize_nway,
    workload_metrics,
)
from repro.analysis.report import render_figure
from repro.analysis.stability import coverage_stability, snoop_miss_stability
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.core.config import (
    PAPER_EJ_NAMES,
    PAPER_HJ_NAMES,
    PAPER_IJ_NAMES,
    IJConfig,
)
from repro.errors import ConfigurationError
from repro.traces.suite import SUITE_ORDER, SUITES
from repro.traces.workloads import (
    WORKLOADS,
    PaperReference,
    WorkloadSpec,
    get_workload,
)
from repro.utils.text import format_percent, render_table

BEST_HJ = "HJ(IJ-10x4x7, EJ-32x4)"
MID_HJ = "HJ(IJ-9x4x7, EJ-32x4)"
SMALL_HJ = "HJ(IJ-8x4x7, EJ-16x2)"

#: ``op`` -> test of ``(measured, bound)``; ``in`` is an open interval,
#: ``within`` a closed one.
_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda measured, bound: bound[0] < measured < bound[1],
    "within": lambda measured, bound: bound[0] <= measured <= bound[1],
}


@dataclass(frozen=True)
class Grid:
    """Store cells an exhibit reads: every workload x filter, per seed."""

    workloads: tuple[str, ...]
    filters: tuple[str, ...] = ()
    system: SystemConfig = SCALED_SYSTEM
    #: Offsets from the run's seed.
    seeds: tuple[int, ...] = (0,)


@dataclass(frozen=True)
class Outcome:
    """A check's measured value against its bound."""

    id: str
    measured: Any
    op: str
    bound: Any
    passed: bool


@dataclass(frozen=True)
class Check:
    """One claim: ``measure(data, seed)`` gives ``(measured, bound)``."""

    id: str
    op: str
    measure: Callable[[Any, int], tuple[Any, Any]]

    def evaluate(self, data: Any, seed: int) -> Outcome:
        measured, bound = self.measure(data, seed)
        return Outcome(self.id, measured, self.op, bound,
                       bool(_OPS[self.op](measured, bound)))


@dataclass(frozen=True)
class Exhibit:
    """One exhibit: its grids, builder (of the seed), text and checks."""

    name: str
    build: Callable[[int], Any]
    render: Callable[[Any], str]
    checks: tuple[Check, ...]
    grids: tuple[Grid, ...] = ()


@dataclass(frozen=True)
class Result:
    """A built exhibit: its text and its checks' outcomes."""

    text: str
    outcomes: tuple[Outcome, ...]


def _series(fig: figures.FigureData, label: str) -> dict[str, float]:
    return next(s.values for s in fig.series if s.label == label)


def _avg(fig: figures.FigureData, label: str) -> float:
    return next(s.average for s in fig.series if s.label == label)


def _best(fig: figures.FigureData) -> str:
    """The label with the highest average (the first one on a tie)."""
    averages = {s.label: s.average for s in fig.series}
    return max(averages, key=averages.get)


def _breaks(values: Sequence, descending: bool = False) -> int:
    """Adjacent pairs out of order: 0 exactly when ``values`` is sorted."""
    return sum((b > a) if descending else (b < a)
               for a, b in zip(values, values[1:]))


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _lines(title: str, lines) -> str:
    return "\n".join([title, *lines])


# -- Tables 1-4 ---------------------------------------------------------

def _table(name: str, builder, checks, grids=()) -> Exhibit:
    title = f"Table {name[-1]}"
    return Exhibit(name, builder, lambda t: render_table(*t, title=title),
                   checks, grids)


def _l2_shares(table) -> list[int]:
    return [int(row[4].rstrip("%")) for row in table[1]]


def _aggregates(seed: int) -> dict:
    return {n: workload_metrics(n, seed=seed).aggregate for n in WORKLOADS}


def _snoop_share(name: str, seed: int) -> float:
    agg = workload_metrics(name, seed=seed).aggregate
    return agg.snoop_tag_probes / agg.l2_local_accesses


def _zero_hit(name: str, seed: int) -> float:
    return workload_metrics(name, seed=seed).bus.remote_hit_fractions()[0]


def _least_zero_hit(seed: int) -> str:
    zero = {name: _zero_hit(name, seed) for name in WORKLOADS}
    return ", ".join(sorted(sorted(zero, key=zero.get)[:2]))


def _storage(table, name: str) -> str:
    return next(row[3] for row in table[1] if row[0] == name)


_ALL = (Grid(tuple(WORKLOADS)),)

_TABLES = (
    _table("table1", lambda seed: tables.build_table1(), (
        # The L2's share of power grows with its size, to about a third
        # (pads in the total) at 2 MB.
        Check("table1.l2-share-rises", "==",
              lambda t, s: (_breaks(_l2_shares(t)), 0)),
        Check("table1.l2-share-2mb", "within",
              lambda t, s: (_l2_shares(t)[-1], (30, 40))),
    )),
    _table("table2", lambda seed: tables.build_table2(seed=seed), (
        Check("table2.rows", "==", lambda t, s: (len(t[1]), len(WORKLOADS))),
        # L1 filters far more than L2 for every application, and every
        # L2 hit rate lands near the paper's (measured: the worst app).
        Check("table2.l1-above-l2", ">", lambda t, s: (min(
            a.l1_hit_rate - a.l2_local_hit_rate
            for a in _aggregates(s).values()), 0)),
        Check("table2.l2-near-paper", "<", lambda t, s: (max(
            abs(a.l2_local_hit_rate - WORKLOADS[n].paper.l2_hit_rate)
            for n, a in _aggregates(s).items()), 0.22)),
        Check("table2.em3d-snoopier-than-fmm", ">", lambda t, s: (
            _snoop_share("em3d", s), _snoop_share("fmm", s))),
    ), _ALL),
    _table("table3", lambda seed: tables.build_table3(seed=seed), (
        # Most snoop-induced tag accesses miss (paper: 91% on average;
        # measured: the lowest app) and most snoops find no remote copy
        # (paper: 79.6%), essentially all for radix and raytrace.
        Check("table3.miss-per-snoop", ">", lambda t, s: (min(
            workload_metrics(n, seed=s).snoop_miss_fraction_of_snoops
            for n in WORKLOADS), 0.7)),
        Check("table3.zero-hit-mean", "in", lambda t, s: (
            _mean(_zero_hit(n, s) for n in WORKLOADS), (0.65, 0.95))),
        Check("table3.radix-zero-hit", ">",
              lambda t, s: (_zero_hit("radix", s), 0.97)),
        Check("table3.raytrace-zero-hit", ">",
              lambda t, s: (_zero_hit("raytrace", s), 0.97)),
        # The sharing-heavy apps have the fewest zero-hit snoops.
        Check("table3.least-zero-hit", "==",
              lambda t, s: (_least_zero_hit(s), "barnes, unstructured")),
        # Snoop misses are about half of all L2 accesses (paper: 55%).
        Check("table3.miss-of-all-mean", "in", lambda t, s: (_mean(
            workload_metrics(n, seed=s).snoop_miss_fraction_of_all
            for n in WORKLOADS), (0.4, 0.7))),
    ), _ALL),
    _table("table4", lambda seed: tables.build_table4(), (
        # Exact for the rows the caption's 14-bit counters explain; the
        # p-bit arrays stay tiny; storage shrinks down the table.
        Check("table4.ij-10x4x7-bytes", "==",
              lambda t, s: (_storage(t, "IJ-10x4x7"), "7168")),
        Check("table4.ij-8x4x7-bytes", "==",
              lambda t, s: (_storage(t, "IJ-8x4x7"), "1792")),
        Check("table4.pbit-bytes", "==",
              lambda t, s: (IJConfig(10, 4, 7).pbit_bits() // 8, 512)),
        Check("table4.storage-shrinks", "==", lambda t, s: (
            _breaks([int(row[3]) for row in t[1]], descending=True), 0)),
    )),
)


# -- Figures 2, 4, 5 and 6 ----------------------------------------------

def _figure(name: str, builder, names, checks) -> Exhibit:
    return Exhibit(name, lambda seed: builder(seed=seed), render_figure,
                   checks, (Grid(tuple(WORKLOADS), names),))


def _model_gap(local: float) -> float:
    """64-byte minus 32-byte snoop-miss energy fraction at R=10%."""
    return (AnalyticalEnergyModel(block_bytes=64).fraction(local, 0.1)
            - AnalyticalEnergyModel(block_bytes=32).fraction(local, 0.1))


def _margin(fig, other: str, seed: int) -> float:
    """Smallest per-workload coverage of the best HJ minus ``other``'s."""
    return min(value - coverage_for(workload, other, seed=seed)
               for workload, value in _series(fig, BEST_HJ).items())


def _raytrace_sizes(seed: int) -> dict:
    return {name: (energy_reduction_for("raytrace", name, seed=seed),
                   coverage_for("raytrace", name, seed=seed))
            for name in (BEST_HJ, MID_HJ, SMALL_HJ)}


def _render_raytrace_sizes(results: dict) -> str:
    return _lines(
        "raytrace energy reduction vs JETTY size (serial, over snoops):",
        (f"  {name:26s} {reduction.over_snoops_serial * 100:5.1f}% "
         f"(coverage {coverage * 100:.1f}%)"
         for name, (reduction, coverage) in results.items()))


def _panel(panels, key: str) -> float:
    return _avg(panels[key], BEST_HJ)


_FIGURES = (
    Exhibit("figure2a", lambda seed: figures.build_figure2(block_bytes=32),
            render_figure, (
        # The paper's anchor, ~33% at L=0.5, R=10%, and curves falling
        # along the local hit rate.
        Check("figure2a.paper-anchor", "<", lambda f, s: (abs(
            AnalyticalEnergyModel(block_bytes=32).fraction(0.5, 0.1) - 0.33
        ), 0.035)),
        Check("figure2a.top-series-falls", "==", lambda f, s: (_breaks(
            list(f.series[0].values.values()), descending=True), 0)),
    )),
    Exhibit("figure2b", lambda seed: figures.build_figure2(block_bytes=64),
            render_figure, (
        # 64-byte lines sit below 32-byte ones (the data array costs
        # relatively more); measured: the largest 64B - 32B gap.
        Check("figure2b.64b-below-32b", "<", lambda f, s: (
            max(_model_gap(local) for local in (0.1, 0.5, 0.9)), 0)),
    )),
    _figure("figure4a", figures.build_figure4a, PAPER_EJ_NAMES, (
        # §4.3.1: EJ-32x4 is best on average (paper: 45%), more sets and
        # ways never hurt much, and every EJ filters a useful fraction.
        Check("figure4a.best", "==", lambda f, s: (_best(f), "EJ-32x4")),
        Check("figure4a.ej-32x4-vs-ej-8x2", ">=", lambda f, s: (
            _avg(f, "EJ-32x4"), _avg(f, "EJ-8x2"))),
        Check("figure4a.ej-16x4-vs-ej-8x4", ">=", lambda f, s: (
            _avg(f, "EJ-16x4"), _avg(f, "EJ-8x4") - 0.02)),
        Check("figure4a.ej-8x2-filters", ">",
              lambda f, s: (_avg(f, "EJ-8x2"), 0.10)),
        Check("figure4a.ej-32x4-range", "in",
              lambda f, s: (_avg(f, "EJ-32x4"), (0.25, 0.60))),
    )),
    _figure("figure4b", figures.build_figure4b, figures.FIGURE4B_NAMES, (
        # §4.3.2: presence vectors beat the same-geometry EJ on average,
        # most visibly on em3d's streaming sweep.
        Check("figure4b.vej-32x4-8-vs-ej-32x4", ">=", lambda f, s: (
            _avg(f, "VEJ-32x4-8"), _avg(f, "EJ-32x4"))),
        Check("figure4b.vej-16x4-8-vs-ej-16x4", ">=", lambda f, s: (
            _avg(f, "VEJ-16x4-8"), _avg(f, "EJ-16x4") - 0.02)),
        Check("figure4b.em3d-vej-vs-ej", ">", lambda f, s: (
            _series(f, "VEJ-32x4-8")["em3d"], _series(f, "EJ-32x4")["em3d"])),
    )),
    _figure("figure5a", figures.build_figure5a,
            PAPER_IJ_NAMES + ("EJ-32x4",), (
        # §4.3.3: the largest IJ is best and coverage falls with size;
        # on raytrace the IJ captures virtually every snoop that misses,
        # far more than the EJ.
        Check("figure5a.best", "==", lambda f, s: (_best(f), "IJ-10x4x7")),
        Check("figure5a.falls-with-size", "==", lambda f, s: (_breaks(
            [_avg(f, n) for n in ("IJ-10x4x7", "IJ-8x4x7", "IJ-6x5x6")],
            descending=True), 0)),
        Check("figure5a.raytrace", ">",
              lambda f, s: (_series(f, "IJ-10x4x7")["raytrace"], 0.85)),
        Check("figure5a.raytrace-vs-ej", ">", lambda f, s: (
            _series(f, "IJ-10x4x7")["raytrace"],
            coverage_for("raytrace", "EJ-32x4", seed=s) + 0.3)),
    )),
    _figure("figure5b", figures.build_figure5b,
            PAPER_HJ_NAMES + ("IJ-10x4x7", "EJ-32x4"), (
        # §4.3.4: the big HJ is best, the small one stays competitive,
        # and the HJ beats both its components on every workload
        # (measured: the smallest per-workload margin).
        Check("figure5b.best", "==", lambda f, s: (_best(f), BEST_HJ)),
        Check("figure5b.small-hj-gap", "<", lambda f, s: (
            _avg(f, BEST_HJ) - _avg(f, SMALL_HJ), 0.15)),
        Check("figure5b.hj-vs-ij", ">=",
              lambda f, s: (_margin(f, "IJ-10x4x7", s), -1e-9)),
        Check("figure5b.hj-vs-ej", ">=",
              lambda f, s: (_margin(f, "EJ-32x4", s), -1e-9)),
    )),
    Exhibit(
        "figure6", lambda seed: figures.build_figure6(seed=seed),
        lambda panels: "\n\n".join(map(render_figure, panels.values())),
        (
            # §4.4: the best HJ saves energy on average in every panel
            # (paper: 56%, 30%, 63%, 41%), a parallel L2 saves more than
            # a serial one, and savings over snoops exceed savings over
            # all accesses.
            Check("figure6.a", ">", lambda p, s: (_panel(p, "a"), 0.3)),
            Check("figure6.b", ">", lambda p, s: (_panel(p, "b"), 0.05)),
            Check("figure6.c-vs-a", ">",
                  lambda p, s: (_panel(p, "c"), _panel(p, "a"))),
            Check("figure6.d-vs-b", ">",
                  lambda p, s: (_panel(p, "d"), _panel(p, "b"))),
            Check("figure6.c", ">", lambda p, s: (_panel(p, "c"), 0.5)),
            Check("figure6.d", ">", lambda p, s: (_panel(p, "d"), 0.15)),
            Check("figure6.a-vs-b", ">",
                  lambda p, s: (_panel(p, "a"), _panel(p, "b"))),
            # Savings follow coverage: radix and ocean (near-total
            # coverage) beat barnes and unstructured.
            Check("figure6.radix-vs-barnes", ">", lambda p, s: (
                _series(p["a"], BEST_HJ)["radix"],
                _series(p["a"], BEST_HJ)["barnes"])),
            Check("figure6.ocean-vs-unstructured", ">", lambda p, s: (
                _series(p["a"], BEST_HJ)["ocean"],
                _series(p["a"], BEST_HJ)["unstructured"])),
            # With a parallel L2 the best HJ saves energy on every
            # workload (measured: the smallest panel-c saving).
            Check("figure6.parallel-every-workload", ">", lambda p, s: (
                min(_series(p["c"], BEST_HJ).values()), 0.2)),
        ),
        (Grid(tuple(WORKLOADS), PAPER_HJ_NAMES),),
    ),
    Exhibit(
        # Where coverage saturates the smaller JETTY saves more: the two
        # largest HJs cover raytrace alike, and the paper finds savings
        # "inversely proportional to JETTY's energy dissipation".
        "figure6-raytrace-size", _raytrace_sizes, _render_raytrace_sizes,
        (
            Check("figure6-raytrace-size.equal-coverage", "<", lambda r, s: (
                abs(r[BEST_HJ][1] - r[MID_HJ][1]), 0.05)),
            Check("figure6-raytrace-size.smaller-saves-more", ">",
                  lambda r, s: (r[MID_HJ][0].over_snoops_serial,
                                r[BEST_HJ][0].over_snoops_serial)),
        ),
        (Grid(("raytrace",), (BEST_HJ, MID_HJ, SMALL_HJ)),),
    ),
)


# -- Ablations and the 8-way summary ------------------------------------

_OVERLAP_WORKLOADS = ("barnes", "cholesky", "fmm", "unstructured")
_OVERLAP_NAMES = tuple(f"IJ-10x4x{skip}" for skip in (10, 7, 5, 3))
_HASHED_WORKLOADS = ("barnes", "em3d", "fmm", "raytrace", "unstructured")
_HASHED_NAMES = ("IJ-10x4x7", "HIJ-12x2", "HIJ-12x4", "HIJ-12x6")
_SUBBLOCK_WORKLOADS = ("barnes", "em3d", "lu", "unstructured")
_NSB_SYSTEM = SCALED_SYSTEM.without_subblocking()
_SCALING_WORKLOADS = ("cholesky", "em3d", "lu", "radix", "unstructured")


def _mean_coverages(workloads, names) -> Callable[[int], dict[str, float]]:
    return lambda seed: {
        name: _mean(coverage_for(w, name, seed=seed) for w in workloads)
        for name in names
    }


def _render_overlap(means: dict[str, float]) -> str:
    return _lines(
        "IJ index-overlap ablation (mean coverage over 4 workloads):",
        (f"  {name}: overlap {max(10 - int(name.rsplit('x', 1)[1]), 0):2d} "
         f"bits -> {format_percent(mean)}" for name, mean in means.items()))


def _render_hashed(means: dict[str, float]) -> str:
    return _lines(
        "Field-sliced IJ vs hashed include (equal 4096-bit p-bit budget):",
        (f"  {name:10s} mean coverage {format_percent(mean)}"
         for name, mean in means.items()))


def _subblocking_rows(seed: int) -> list[tuple]:
    """Per workload: miss/snoop, EJ and best-HJ coverage, SB then NSB."""
    return [
        (workload, *(
            workload_metrics(workload, system, seed)
            .snoop_miss_fraction_of_snoops
            for system in (SCALED_SYSTEM, _NSB_SYSTEM)
        ), *(
            coverage_for(workload, name, system, seed)
            for name in ("EJ-32x4", BEST_HJ)
            for system in (SCALED_SYSTEM, _NSB_SYSTEM)
        ))
        for workload in _SUBBLOCK_WORKLOADS
    ]


def _render_subblocking(rows: list[tuple]) -> str:
    return _lines(
        "subblocking ablation (SB = subblocked, NSB = not):",
        [f"{'workload':14s} {'miss/snoop SB':>14s} {'NSB':>6s} "
         f"{'EJ cov SB':>10s} {'NSB':>6s} {'HJ cov SB':>10s} {'NSB':>6s}"]
        + [f"{name:14s} " + " ".join(
            format_percent(value).rjust(width)
            for value, width in zip(values, (14, 6, 10, 6, 10, 6)))
           for name, *values in rows])


def _render_scaling(summaries) -> str:
    return _lines("SMP-width scaling (paper Section 4.3.4):", [
        f"  {s.n_cpus}-way: snoop misses {format_percent(s.snoop_miss_of_all)}"
        f" of all L2 accesses, best-HJ coverage "
        f"{format_percent(s.mean_coverage)}" for s in summaries
    ] + ["  paper: 54.5% -> 76.4% snoop-miss share; 75.6% -> 79% coverage"])


_ABLATIONS = (
    Exhibit(
        # §3.2: "using partially overlapped indices results in better
        # accuracy" (skip 10 gives disjoint index fields).
        "ablation-ij-overlap",
        _mean_coverages(_OVERLAP_WORKLOADS, _OVERLAP_NAMES), _render_overlap,
        (
            Check("ablation-ij-overlap.beats-disjoint", ">", lambda m, s: (
                min(v for k, v in m.items() if k != "IJ-10x4x10"),
                m["IJ-10x4x10"])),
            Check("ablation-ij-overlap.filters", ">",
                  lambda m, s: (min(m.values()), 0.3)),
        ),
        (Grid(_OVERLAP_WORKLOADS, _OVERLAP_NAMES),),
    ),
    Exhibit(
        # Footnote 3: one hashed p-bit array with the IJ-10x4x7's
        # 4096-bit budget in place of its field-sliced sub-arrays; more
        # hash functions help up to the load optimum.
        "ablation-hashed-include",
        _mean_coverages(_HASHED_WORKLOADS, _HASHED_NAMES), _render_hashed,
        (
            Check("ablation-hashed-include.filters", ">",
                  lambda m, s: (min(m.values()), 0.3)),
            Check("ablation-hashed-include.k4-vs-k2", ">=", lambda m, s: (
                m["HIJ-12x4"], m["HIJ-12x2"] - 0.02)),
        ),
        (Grid(_HASHED_WORKLOADS, _HASHED_NAMES),),
    ),
    Exhibit(
        # Without subblocking the paper's snoop misses drop from 91% to
        # 68% of snoops and best-HJ coverage from 76% to 68%.
        "ablation-subblocking", _subblocking_rows, _render_subblocking,
        (
            Check("ablation-subblocking.ej-coverage-drops", "<", lambda r, s: (
                _mean(row[4] for row in r), _mean(row[3] for row in r))),
            Check("ablation-subblocking.miss-per-snoop-drops", "<",
                  lambda r, s: (_mean(row[2] for row in r),
                                _mean(row[1] for row in r))),
        ),
        tuple(Grid(_SUBBLOCK_WORKLOADS, ("EJ-32x4", BEST_HJ), system)
              for system in (SCALED_SYSTEM, _NSB_SYSTEM)),
    ),
    Exhibit(
        # §4.3.4: a wider SMP raises the snoop-miss share of all L2
        # accesses and does not hurt coverage.
        "nway-scaling",
        lambda seed: tuple(summarize_nway(n, seed=seed,
                                          workloads=_SCALING_WORKLOADS)
                           for n in (4, 8)),
        _render_scaling,
        (
            Check("nway-scaling.snoop-miss-share-rises", ">", lambda n, s: (
                n[1].snoop_miss_of_all, n[0].snoop_miss_of_all)),
            Check("nway-scaling.coverage-holds", ">", lambda n, s: (
                n[1].mean_coverage, n[0].mean_coverage - 0.03)),
        ),
        tuple(Grid(_SCALING_WORKLOADS, (BEST_HJ,), SCALED_SYSTEM.with_cpus(n))
              for n in (4, 8)),
    ),
)


# -- The sharing-profile suites ----------------------------------------

def _suite_evaluations(seed: int) -> dict[str, dict]:
    """Per suite, per filter: its evaluation, whole run and per phase."""
    return {
        suite: {name: experiments.evaluate_filter(suite, name, seed=seed)
                for name in runner.DEFAULT_SWEEP_FILTERS}
        for suite in SUITE_ORDER
    }


def _false_exclusions(per_filter: dict) -> int:
    """Snoops filtered beyond the would-miss ones, over every phase.

    A filter may drop only snoops that would miss in the L2; anything
    past that is a snoop that would have hit a remote copy.
    """
    return sum(max(0, phase.coverage.filtered
                   - phase.coverage.snoop_would_miss)
               for evaluation in per_filter.values()
               for phase in evaluation.phases.values())


def _phase_rate(coverage) -> float:
    """Filtered snoops over all snoops (0 with no snoops)."""
    return coverage.filtered / coverage.snoops if coverage.snoops else 0.0


def _render_profile_matrix(suites: dict[str, dict]) -> str:
    """The per-phase rate table, then each suite's whole-run winner."""
    rate_rows, winner_rows = [], []
    for suite, per_filter in suites.items():
        for phase in SUITES[suite].phase_names():
            rate_rows.append([suite, phase, *(
                format_percent(_phase_rate(e.phases[phase].coverage))
                for e in per_filter.values())])
        winner = max(per_filter,
                     key=lambda name: per_filter[name].coverage.coverage)
        whole = per_filter[winner].coverage
        violations = _false_exclusions(per_filter)
        winner_rows.append([
            suite, winner, format_percent(whole.coverage),
            f"{whole.filtered:,}",
            "none" if violations == 0 else f"VIOLATION x{violations}",
        ])
    return render_table(
        ["workload", "phase", *runner.DEFAULT_SWEEP_FILTERS], rate_rows,
        title="Per-phase filtering rate (filtered snoops / all snoops)",
    ) + "\n\n" + render_table(
        ["workload", "winner", "coverage", "probes saved", "false excl"],
        winner_rows, title="Workload-class winners (whole-run coverage)",
    )


_PROFILES = (
    Exhibit(
        "profile-matrix", _suite_evaluations, _render_profile_matrix,
        (
            # JETTY is safe only if no filter, in no phase of any suite,
            # drops a snoop that would have hit (measured: the sum).
            Check("profile-matrix.no-false-exclusions", "==", lambda m, s: (
                sum(map(_false_exclusions, m.values())), 0)),
        ),
        (Grid(SUITE_ORDER, runner.DEFAULT_SWEEP_FILTERS),),
    ),
)


# -- The reproduction's own checks --------------------------------------

_STABILITY_WORKLOADS = ("em3d", "lu", "raytrace")


def _stability(seed: int) -> tuple[tuple[int, ...], list]:
    seeds = (seed, seed + 1, seed + 2)
    return seeds, [
        stats
        for workload in _STABILITY_WORKLOADS
        for stats in (coverage_stability(workload, BEST_HJ, seeds=seeds),
                      snoop_miss_stability(workload, seeds=seeds))
    ]


def _render_stability(result) -> str:
    seeds, rows = result
    return _lines(f"seed stability over seeds {seeds}:", (
        f"  {stats.label:45s} mean {format_percent(stats.mean)} "
        f"spread {format_percent(stats.spread)} "
        f"stddev {stats.stddev * 100:.2f}pp" for stats in rows))


#: Streamed trace lengths: the tracemalloc peak must stay flat over 100x.
STREAM_SIZES = (20_000, 200_000, 2_000_000)
STREAM_CHUNK = 8_192
STREAM_FILTERS = ("EJ-32x4",)


def _stream_spec(n_accesses: int) -> WorkloadSpec:
    return WorkloadSpec(
        name="bench-stream", abbrev="bs",
        description="streaming memory bench: private sets with hand-off",
        paper=PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0),
                             1.0, 0.5),
        n_accesses=n_accesses, warmup_accesses=10_000, repeat_frac=0.5,
        recipe=(
            ("private", dict(weight=0.8, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer",
             dict(weight=0.2, n_pairs=2, buffer_bytes=4096)),
        ),
    )


def _streamed_peaks(seed: int) -> dict[int, int]:
    """``tracemalloc`` peak of one streamed pass per trace length.

    One untraced pass of the shortest length runs first, so that the
    shortest traced pass -- the check's baseline -- holds no one-time
    first-call allocations when this exhibit runs first in a process.
    """
    def stream(n_accesses: int) -> None:
        runner.compute_stream(_stream_spec(n_accesses), SCALED_SYSTEM, seed,
                              STREAM_FILTERS, chunk_size=STREAM_CHUNK)

    stream(STREAM_SIZES[0])
    peaks = {}
    for n_accesses in STREAM_SIZES:
        tracemalloc.start()
        try:
            stream(n_accesses)
            peaks[n_accesses] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


_QUALITY = (
    Exhibit(
        "seed-stability", _stability, _render_stability,
        (
            # Headline quantities move by a few points at most across
            # seeds (measured: the widest spread).
            Check("seed-stability.spread", "<", lambda r, s: (
                max(stats.spread for stats in r[1]), 0.06)),
        ),
        (Grid(_STABILITY_WORKLOADS, (BEST_HJ,), seeds=(0, 1, 2)),),
    ),
    Exhibit(
        # The streamed engine never accumulates events: over a 100x
        # longer trace its peak stays within 2x of the shortest's.
        "streaming-memory", _streamed_peaks,
        lambda peaks: render_table(
            ["accesses", "streamed peak"],
            [[f"{n:,}", f"{peak / 1e6:.2f} MB"] for n, peak in peaks.items()],
            title=f"tracemalloc peaks, chunk={STREAM_CHUNK}, "
            f"filters={STREAM_FILTERS}",
        ),
        (
            Check("streaming-memory.flat-peak", "<", lambda p, s: (
                p[STREAM_SIZES[-1]], 2 * p[STREAM_SIZES[0]])),
        ),
    ),
)


#: Every exhibit, by name, in print order.
EXHIBITS: dict[str, Exhibit] = {
    exhibit.name: exhibit
    for exhibit in _TABLES + _FIGURES + _ABLATIONS + _PROFILES + _QUALITY
}


def check_ids() -> list[str]:
    """Every check id, in print order."""
    return [check.id for exhibit in EXHIBITS.values()
            for check in exhibit.checks]


def select(names: Sequence[str] = ()) -> list[Exhibit]:
    """The named exhibits, each once (all of them when ``names`` is empty)."""
    unknown = [name for name in names if name not in EXHIBITS]
    if unknown:
        raise ConfigurationError(
            f"unknown exhibit {', '.join(map(repr, unknown))}; choose from: "
            + ", ".join(EXHIBITS)
        )
    return [EXHIBITS[name] for name in dict.fromkeys(names or EXHIBITS)]


def warm(selected: Sequence[Exhibit], seed: int) -> runner.ExecutionReport:
    """Store every cell the exhibits read, in one ``execute`` call.

    One :class:`~repro.analysis.runner.SweepJob` per grid cell
    ``(system, workload, seed)``: ``execute`` fuses the jobs on one
    simulation into one recording replayed for the union of their
    filters, so each workload simulates once per system and seed.
    """
    jobs = [
        runner.SweepJob(get_workload(workload), grid.filters, grid.system,
                        seed + offset)
        for exhibit in selected
        for grid in exhibit.grids
        for workload in grid.workloads
        for offset in grid.seeds
    ]
    return runner.execute(jobs, mode="replay",
                          experiment_store=experiments.get_store())


def run(
    names: Sequence[str] = (), *, seed: int = 1
) -> tuple[runner.ExecutionReport, Iterator[Result]]:
    """Warm the store for the named exhibits (all by default), then
    build and check them one by one as the iterator is drawn.

    Returns the warming call's report and the results.
    """
    selected = select(names)
    report = warm(selected, seed)
    return report, (_result(exhibit, seed) for exhibit in selected)


def _result(exhibit: Exhibit, seed: int) -> Result:
    data = exhibit.build(seed)
    return Result(exhibit.render(data), tuple(
        check.evaluate(data, seed) for check in exhibit.checks))


def _format(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return ", ".join(map(_format, value))
    return str(value)


def render_checks(outcomes: Sequence[Outcome]) -> str:
    """The check table: measured value against bound, pass or FAIL."""
    brackets = {"in": "({})", "within": "[{}]"}
    rows = [
        [o.id, _format(o.measured),
         f"{o.op} " + brackets.get(o.op, "{}").format(_format(o.bound)),
         "pass" if o.passed else "FAIL"]
        for o in outcomes
    ]
    failed = sum(not o.passed for o in outcomes)
    return render_table(
        ["check", "measured", "bound", "result"], rows,
        title=f"checks: {len(outcomes) - failed} passed, {failed} failed",
    )
