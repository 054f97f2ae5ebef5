"""Seed-stability analysis for reproduced results.

Synthetic workloads are stochastic; a claim like "HJ covers 92% of snoop
misses" only means something with its seed variance attached.  This
module reruns (workload, filter) pairs across seeds and reports
mean/min/max/stddev; the ``seed-stability`` exhibit checks that the
reproduction's headline quantities are stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from repro.analysis.experiments import coverage_for, workload_metrics
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SeedStatistics:
    """Summary of one scalar quantity across seeds."""

    label: str
    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(
            sum((v - mu) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def spread(self) -> float:
        """max - min across seeds."""
        return max(self.values) - min(self.values)


def coverage_stability(
    workload: str,
    filter_name: str,
    seeds: Sequence[int] = (1, 2, 3),
    system: SystemConfig = SCALED_SYSTEM,
) -> SeedStatistics:
    """Coverage of one filter on one workload across seeds."""
    if not seeds:
        raise ConfigurationError("need at least one seed")
    values = tuple(
        coverage_for(workload, filter_name, system, seed) for seed in seeds
    )
    return SeedStatistics(label=f"{filter_name} on {workload}", values=values)


def snoop_miss_stability(
    workload: str,
    seeds: Sequence[int] = (1, 2, 3),
    system: SystemConfig = SCALED_SYSTEM,
) -> SeedStatistics:
    """Snoop-miss share of all L2 accesses across seeds (Table 3)."""
    if not seeds:
        raise ConfigurationError("need at least one seed")
    values = tuple(
        workload_metrics(workload, system, seed).snoop_miss_fraction_of_all
        for seed in seeds
    )
    return SeedStatistics(label=f"snoop-miss/all on {workload}", values=values)
