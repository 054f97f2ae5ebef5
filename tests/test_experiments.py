"""Tests for the experiment harness, using a tiny injected workload.

The real workloads simulate hundreds of thousands of accesses; unit tests
register a miniature spec under a reserved name so the full pipeline
(simulate -> record a trace -> replay filters -> price energy) runs in
milliseconds.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

TINY_NAME = "test-tiny"


def tiny_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name=TINY_NAME,
        abbrev="tt",
        description="miniature workload for harness tests",
        paper=PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5),
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.2,
        recipe=(
            ("private", dict(weight=0.7, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer", dict(weight=0.3, n_pairs=2, buffer_bytes=4096)),
        ),
    )


@pytest.fixture(autouse=True)
def register_tiny_workload():
    WORKLOADS[TINY_NAME] = tiny_spec()
    experiments.clear_caches()
    yield
    del WORKLOADS[TINY_NAME]
    experiments.clear_caches()


class TestRunWorkload:
    def test_produces_statistics(self):
        result = experiments.workload_metrics(TINY_NAME)
        assert result.accesses == 4_000  # warm-up excluded by reset
        agg = result.aggregate
        assert agg.local_accesses == 4_000
        assert agg.snoops_observed > 0

    def test_cached_identity(self):
        first = experiments.workload_metrics(TINY_NAME)
        second = experiments.workload_metrics(TINY_NAME)
        assert first is second

    def test_seed_distinguishes_cache_entries(self):
        first = experiments.workload_metrics(TINY_NAME, seed=1)
        second = experiments.workload_metrics(TINY_NAME, seed=2)
        assert first is not second

    def test_system_distinguishes_cache_entries(self):
        four = experiments.workload_metrics(TINY_NAME)
        eight = experiments.workload_metrics(TINY_NAME, SCALED_SYSTEM.with_cpus(8))
        assert eight.n_cpus == 8
        assert four is not eight

    def test_l1_geometry_distinguishes_cache_entries(self):
        """Regression: the old cache key omitted L1 geometry, so systems
        differing only in their L1 collided."""
        from dataclasses import replace

        from repro.analysis import store as store_mod

        small = experiments.workload_metrics(TINY_NAME, SCALED_SYSTEM)
        big_l1 = replace(SCALED_SYSTEM, l1=replace(
            SCALED_SYSTEM.l1, capacity_bytes=2 * SCALED_SYSTEM.l1.capacity_bytes
        ))
        # The store's actual keying path must see every L1 geometry field.
        assert store_mod.system_fingerprint(big_l1) != (
            store_mod.system_fingerprint(SCALED_SYSTEM)
        )
        spec = WORKLOADS[TINY_NAME]
        assert store_mod.sim_metrics_key(spec, big_l1, 1) != (
            store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        )
        big = experiments.workload_metrics(TINY_NAME, big_l1)
        assert big is not small
        # A bigger L1 changes L1 behaviour, which a colliding cache key
        # would have masked entirely.
        assert vars(big.aggregate) != vars(small.aggregate)


class TestEvaluateFilter:
    def test_merged_over_nodes(self):
        result = experiments.workload_metrics(TINY_NAME)
        evaluation = experiments.evaluate_filter(TINY_NAME, "oracle")
        agg = result.aggregate
        assert evaluation.coverage.snoops == agg.snoops_observed
        assert evaluation.coverage.coverage == 1.0

    def test_null_zero_coverage(self):
        assert experiments.coverage_for(TINY_NAME, "null") == 0.0

    def test_hj_between_null_and_oracle(self):
        coverage = experiments.coverage_for(TINY_NAME, "HJ(IJ-8x4x7, EJ-16x2)")
        assert 0.0 < coverage <= 1.0

    def test_eval_cache(self):
        first = experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        second = experiments.evaluate_filter(TINY_NAME, "EJ-8x2")
        assert first is second


class TestEnergyReduction:
    def test_reduction_fields_consistent(self):
        reduction = experiments.energy_reduction_for(
            TINY_NAME, "HJ(IJ-9x4x7, EJ-32x4)"
        )
        assert reduction.over_snoops_parallel > reduction.over_all_parallel
        assert reduction.over_snoops_serial > reduction.over_all_serial
        assert -1.0 < reduction.over_all_serial < 1.0

    def test_oracle_beats_null(self):
        oracle = experiments.energy_reduction_for(TINY_NAME, "oracle")
        null = experiments.energy_reduction_for(TINY_NAME, "null")
        assert oracle.over_snoops_serial > null.over_snoops_serial
        assert null.over_snoops_serial == 0.0  # free, filters nothing


class TestNWaySummary:
    def test_summary_shape(self):
        summary = experiments.summarize_nway(
            2, filter_name="EJ-8x2", workloads=(TINY_NAME,)
        )
        assert summary.n_cpus == 2
        assert 0.0 <= summary.snoop_miss_of_all <= 1.0
        assert 0.0 <= summary.mean_coverage <= 1.0
