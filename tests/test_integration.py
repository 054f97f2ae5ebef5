"""End-to-end integration: trace -> coherence -> filters -> energy.

These tests run a miniature but complete pipeline and check the paper's
qualitative claims hold on it:

* most snoops miss, and JETTY filters a large fraction of those misses;
* a hybrid JETTY covers at least as much as its best component;
* filtering is always safe (enforced inside replay);
* a useful filter reduces snoop energy; the null filter changes nothing.
"""

from __future__ import annotations

import pytest

from repro.coherence.config import CacheConfig, SystemConfig
from repro.coherence.smp import check_coherence_invariants, SMPSystem
from repro.core.config import build_filter
from repro.core.stats import EventReplayer, merge_evaluations
from repro.energy.accounting import EnergyAccountant
from repro.traces.synth import PrivateWorkingSet, ProducerConsumer, WorkloadMix


@pytest.fixture(scope="module")
def small_system() -> SystemConfig:
    return SystemConfig(
        n_cpus=4,
        l1=CacheConfig(capacity_bytes=1024, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=8192, block_bytes=64, subblock_bytes=32),
        wb_entries=4,
        address_bits=26,
    )


@pytest.fixture(scope="module")
def machine(small_system) -> SMPSystem:
    mix = WorkloadMix(
        [
            (
                PrivateWorkingSet(
                    [0, 1, 2, 3],
                    [0x100000 * (i + 1) for i in range(4)],
                    ws_bytes=32 * 1024,
                    alpha=1.5,
                ),
                0.8,
            ),
            (
                ProducerConsumer([(0, 1), (2, 3)], [0x900000, 0xA00000],
                                 buffer_bytes=2048),
                0.2,
            ),
        ]
    )
    system = SMPSystem(small_system)
    for i, (cpu, address, is_write) in enumerate(mix.generate(30_000, seed=11)):
        system.access(cpu, address, is_write)
        if i == 6_000:
            system.begin_measurement()
    check_coherence_invariants(system)
    system.finish()
    return system


@pytest.fixture(scope="module")
def sim_result(machine):
    return machine.result("integration")


@pytest.fixture(scope="module")
def event_streams(machine):
    """Every node's whole event stream (never detached into shards)."""
    return [node.events for node in machine.nodes]


def evaluate(event_streams, small_system, name):
    evaluations = []
    for stream in event_streams:
        replayer = EventReplayer(
            build_filter(
                name,
                counter_bits=small_system.ij_counter_bits,
                addr_bits=small_system.block_address_bits,
            ),
            stream.node_id,
        )
        replayer.feed(stream.events)
        evaluations.append(replayer.finish())
    return merge_evaluations(evaluations)


class TestPipeline:
    def test_snoops_mostly_miss(self, sim_result):
        """Paper §4.2: the common case is a snoop miss."""
        assert sim_result.snoop_miss_fraction_of_snoops > 0.5

    def test_filters_cover_misses(self, event_streams, small_system):
        hj = evaluate(event_streams, small_system, "HJ(IJ-8x4x7, EJ-16x2)")
        assert hj.coverage.coverage > 0.4

    def test_hybrid_at_least_components(self, event_streams, small_system):
        hj = evaluate(event_streams, small_system, "HJ(IJ-8x4x7, EJ-16x2)")
        ij = evaluate(event_streams, small_system, "IJ-8x4x7")
        ej = evaluate(event_streams, small_system, "EJ-16x2")
        assert hj.coverage.coverage >= max(
            ij.coverage.coverage, ej.coverage.coverage
        ) - 1e-9

    def test_oracle_bounds_all_filters(self, event_streams, small_system):
        """The oracle filters exactly the block-absent misses — the upper
        bound for any block-granularity filter.  (Snoops that miss on an
        invalid *subblock* of a present block are unfilterable at block
        granularity, so oracle coverage can fall just short of 100%.)"""
        from repro.core.stats import MARKER, SNOOP

        oracle = evaluate(event_streams, small_system, "oracle")
        block_absent_misses = 0
        measuring = False
        for stream in event_streams:
            measuring = False
            for kind, _block, flag in stream.triples():
                if kind == MARKER:
                    measuring = True
                elif kind == SNOOP and measuring and not flag & 2:
                    block_absent_misses += 1
        assert oracle.coverage.filtered == block_absent_misses
        assert oracle.coverage.coverage > 0.99
        for name in ("EJ-32x4", "IJ-8x4x7", "HJ(IJ-8x4x7, EJ-16x2)"):
            assert (
                evaluate(event_streams, small_system, name).coverage.coverage
                <= oracle.coverage.coverage
            )

    def test_bigger_ej_no_worse(self, event_streams, small_system):
        big = evaluate(event_streams, small_system, "EJ-32x4")
        small = evaluate(event_streams, small_system, "EJ-8x2")
        assert big.coverage.coverage >= small.coverage.coverage - 0.02

    def test_energy_reduction_positive_for_hj(
        self, sim_result, event_streams, small_system
    ):
        accountant = EnergyAccountant()
        hj = evaluate(event_streams, small_system, "HJ(IJ-8x4x7, EJ-16x2)")
        reduction = accountant.reduction(sim_result.aggregate, hj)
        assert reduction.over_snoops_serial > 0
        assert reduction.over_snoops_parallel > reduction.over_snoops_serial

    def test_null_filter_changes_nothing(
        self, sim_result, event_streams, small_system
    ):
        accountant = EnergyAccountant()
        null = evaluate(event_streams, small_system, "null")
        base = accountant.breakdown(sim_result.aggregate)
        with_null = accountant.breakdown(sim_result.aggregate, null, "null")
        assert with_null.total_j == pytest.approx(base.total_j)

    def test_measurement_window_counts(self, sim_result):
        agg = sim_result.aggregate
        assert agg.local_accesses == 30_000 - 6_000 - 1

    def test_event_streams_per_node(self, event_streams):
        assert len(event_streams) == 4
        for stream in event_streams:
            snoops, allocs, _evicts = stream.counts()
            assert snoops > 0
            assert allocs > 0
