"""Unit tests for SystemConfig and its derived transformations."""

from dataclasses import replace

import pytest

from repro.analysis.store import system_fingerprint
from repro.coherence.config import (
    PAPER_SYSTEM,
    SCALED_SYSTEM,
    CacheConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError


class TestSystemConfig:
    def test_paper_system_geometry(self):
        assert PAPER_SYSTEM.l2.capacity_bytes == 1 << 20
        assert PAPER_SYSTEM.l2.subblocks_per_block == 2
        assert PAPER_SYSTEM.l1.block_bytes == PAPER_SYSTEM.l2.subblock_bytes
        assert PAPER_SYSTEM.address_bits == 36

    def test_paper_counter_width(self):
        """Table 4's pessimistic 14-bit counters: log2(16384 blocks)."""
        assert PAPER_SYSTEM.ij_counter_bits == 14

    def test_paper_block_address_bits(self):
        assert PAPER_SYSTEM.block_address_bits == 30

    def test_scaled_preserves_block_structure(self):
        assert SCALED_SYSTEM.l2.block_bytes == PAPER_SYSTEM.l2.block_bytes
        assert SCALED_SYSTEM.l2.subblock_bytes == PAPER_SYSTEM.l2.subblock_bytes
        ratio = PAPER_SYSTEM.l2.capacity_bytes // SCALED_SYSTEM.l2.capacity_bytes
        assert ratio == PAPER_SYSTEM.l1.capacity_bytes // SCALED_SYSTEM.l1.capacity_bytes

    def test_without_subblocking(self):
        nsb = SCALED_SYSTEM.without_subblocking()
        assert not nsb.l2.subblocked
        assert nsb.l1.block_bytes == nsb.l2.block_bytes
        # The original is untouched (frozen dataclasses).
        assert SCALED_SYSTEM.l2.subblocked

    def test_with_cpus(self):
        eight = SCALED_SYSTEM.with_cpus(8)
        assert eight.n_cpus == 8
        assert eight.l2 == SCALED_SYSTEM.l2

    def test_l1_l2_unit_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(
                l1=CacheConfig(4096, 64, 64),  # 64 B L1 blocks
                l2=CacheConfig(65536, 64, 32),  # but 32 B coherence units
            )

    def test_single_cpu_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(n_cpus=1)

    def test_zero_wb_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(wb_entries=0)

    def test_more_subblocks_than_the_inclusion_mask_holds_rejected(self):
        l2 = CacheConfig(capacity_bytes=1 << 16, block_bytes=4096,
                         subblock_bytes=32)
        with pytest.raises(ConfigurationError, match="at most 64"):
            SystemConfig(l2=l2)

    @pytest.mark.parametrize("level", ["l1", "l2"])
    def test_set_associative_level_rejected(self, level):
        two_way = replace(getattr(SCALED_SYSTEM, level), ways=2)
        with pytest.raises(ConfigurationError, match=level.upper()):
            replace(SCALED_SYSTEM, **{level: two_way})

    def test_fingerprint_keeps_direct_mapped_ways(self):
        """Store keys hash ``ways: 1`` for both levels, as they always did."""
        fingerprint = system_fingerprint(SCALED_SYSTEM)
        assert fingerprint["l1"]["ways"] == 1
        assert fingerprint["l2"]["ways"] == 1


class TestMetrics:
    def test_node_stats_merge(self):
        from repro.coherence.metrics import NodeStats

        a = NodeStats()
        a.local_reads = 3
        a.snoop_hits = 1
        b = NodeStats()
        b.local_reads = 4
        b.snoop_misses = 2
        merged = a.merged_with(b)
        assert merged.local_reads == 7
        assert merged.snoop_hits == 1
        assert merged.snoop_misses == 2

    def test_hit_rates_guard_division(self):
        from repro.coherence.metrics import NodeStats

        empty = NodeStats()
        assert empty.l1_hit_rate == 0.0
        assert empty.l2_local_hit_rate == 0.0

    def test_bus_stats_fractions(self):
        from repro.coherence.metrics import BusStats

        bus = BusStats(reads=6, read_exclusives=2, upgrades=2,
                       remote_hit_histogram=(5, 3, 2, 0))
        assert bus.snoopable == 10
        assert bus.remote_hit_fractions() == (0.5, 0.3, 0.2, 0.0)

    def test_bus_stats_empty(self):
        from repro.coherence.metrics import BusStats

        bus = BusStats(remote_hit_histogram=(0, 0))
        assert bus.remote_hit_fractions() == (0.0, 0.0)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro import errors

        for name in (
            "ConfigurationError", "FilterNameError", "CoherenceError",
            "FilterSafetyError", "TraceError", "WorkloadError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_filter_name_error_is_configuration_error(self):
        from repro.errors import ConfigurationError, FilterNameError

        assert issubclass(FilterNameError, ConfigurationError)
