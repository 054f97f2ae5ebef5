"""Builders for the paper's figures (2, 4, 5, 6) as data series.

Figures are reproduced as the numeric series behind the plots: each
builder returns labelled per-workload values (plus the AVG column the
paper prints), which :mod:`repro.analysis.exhibits` renders as tables
and checks for the paper's shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.analytical import AnalyticalEnergyModel
from repro.analysis.experiments import coverage_for, energy_reduction_for
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.core.config import (
    PAPER_EJ_NAMES,
    PAPER_HJ_NAMES,
    PAPER_IJ_NAMES,
    PAPER_VEJ_NAMES,
)
from repro.traces.workloads import WORKLOADS


@dataclass
class FigureSeries:
    """One labelled series over the workloads (plus its average)."""

    label: str
    values: dict[str, float] = field(default_factory=dict)

    @property
    def average(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values.values()) / len(self.values)


@dataclass
class FigureData:
    """A reproduced figure: title, x-labels, and one series per config."""

    figure_id: str
    title: str
    series: list[FigureSeries] = field(default_factory=list)

    def workloads(self) -> list[str]:
        seen: list[str] = []
        for s in self.series:
            for name in s.values:
                if name not in seen:
                    seen.append(name)
        return seen


def build_figure2(
    block_bytes: int = 32,
    remote_hit_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    local_hit_points: int = 11,
) -> FigureData:
    """Figure 2: analytical snoop-miss energy fraction curves.

    One series per remote hit rate; the series' "workload" keys are the
    local-hit-rate grid points formatted as strings.
    """
    model = AnalyticalEnergyModel(block_bytes=block_bytes)
    local_hits = [i / (local_hit_points - 1) for i in range(local_hit_points)]
    data = FigureData(
        figure_id=f"figure2-{block_bytes}B",
        title=(
            "Energy of snoop-induced tag accesses that miss, as a fraction "
            f"of all L2 energy ({block_bytes}-byte lines)"
        ),
    )
    for remote in remote_hit_rates:
        series = FigureSeries(label=f"R={remote:.0%}")
        for local in local_hits:
            series.values[f"L={local:.2f}"] = model.fraction(local, remote)
        data.series.append(series)
    return data


def _coverage_figure(
    figure_id: str,
    title: str,
    config_names: tuple[str, ...],
    system: SystemConfig,
    seed: int,
) -> FigureData:
    data = FigureData(figure_id=figure_id, title=title)
    for config_name in config_names:
        series = FigureSeries(label=config_name)
        for workload in WORKLOADS:
            series.values[workload] = coverage_for(
                workload, config_name, system, seed
            )
        data.series.append(series)
    return data


def build_figure4a(
    system: SystemConfig = SCALED_SYSTEM, seed: int = 1
) -> FigureData:
    """Figure 4(a): exclude-JETTY coverage, six configurations."""
    return _coverage_figure(
        "figure4a", "Exclude-JETTY snoop-miss coverage",
        PAPER_EJ_NAMES, system, seed,
    )


#: Figure 4(b)'s series: the paper's VEJs next to their base EJs.
FIGURE4B_NAMES = (
    "VEJ-32x4-8", "VEJ-32x4-4", "EJ-32x4",
    "VEJ-16x4-8", "VEJ-16x4-4", "EJ-16x4",
)


def build_figure4b(
    system: SystemConfig = SCALED_SYSTEM, seed: int = 1
) -> FigureData:
    """Figure 4(b): vector-exclude-JETTY coverage vs the base EJs."""
    assert set(PAPER_VEJ_NAMES) <= set(FIGURE4B_NAMES)
    return _coverage_figure(
        "figure4b", "Vector-Exclude-JETTY snoop-miss coverage",
        FIGURE4B_NAMES, system, seed,
    )


def build_figure5a(
    system: SystemConfig = SCALED_SYSTEM, seed: int = 1
) -> FigureData:
    """Figure 5(a): include-JETTY coverage, five configurations."""
    return _coverage_figure(
        "figure5a", "Include-JETTY snoop-miss coverage",
        PAPER_IJ_NAMES, system, seed,
    )


def build_figure5b(
    system: SystemConfig = SCALED_SYSTEM, seed: int = 1
) -> FigureData:
    """Figure 5(b): hybrid-JETTY coverage, six (IJ, EJ) combinations."""
    return _coverage_figure(
        "figure5b", "Hybrid-JETTY snoop-miss coverage",
        PAPER_HJ_NAMES, system, seed,
    )


#: The HJ configurations of Figure 6(b)-(d) (Figure 6(a) uses all six).
FIGURE6_BCD_NAMES = (
    "HJ(IJ-10x4x7, EJ-32x4)",
    "HJ(IJ-9x4x7, EJ-32x4)",
    "HJ(IJ-8x4x7, EJ-32x4)",
)


def build_figure6(
    system: SystemConfig = SCALED_SYSTEM, seed: int = 1
) -> dict[str, FigureData]:
    """Figure 6: energy reductions — four panels.

    (a) over snoop accesses, serial tag/data; (b) over all L2 accesses,
    serial; (c) over snoops, parallel; (d) over all, parallel.
    """
    panels = {
        "a": FigureData("figure6a", "Energy reduction over snoop accesses (serial L2)"),
        "b": FigureData("figure6b", "Energy reduction over all L2 accesses (serial L2)"),
        "c": FigureData("figure6c", "Energy reduction over snoop accesses (parallel L2)"),
        "d": FigureData("figure6d", "Energy reduction over all L2 accesses (parallel L2)"),
    }
    panel_configs = {
        "a": PAPER_HJ_NAMES,
        "b": FIGURE6_BCD_NAMES,
        "c": FIGURE6_BCD_NAMES,
        "d": FIGURE6_BCD_NAMES,
    }
    for panel, config_names in panel_configs.items():
        for config_name in config_names:
            series = FigureSeries(label=config_name)
            for workload in WORKLOADS:
                reduction = energy_reduction_for(workload, config_name, system, seed)
                series.values[workload] = {
                    "a": reduction.over_snoops_serial,
                    "b": reduction.over_all_serial,
                    "c": reduction.over_snoops_parallel,
                    "d": reduction.over_all_parallel,
                }[panel]
            panels[panel].series.append(series)
    return panels
