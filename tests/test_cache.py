"""Unit tests for the direct-mapped L2 and L1 models."""

import pytest

from repro.coherence.cache import (
    DIRTY,
    EMPTY,
    LINE_SHIFT,
    WRITABLE,
    L1Cache,
    L2Cache,
)
from repro.coherence.config import CacheConfig, SystemConfig
from repro.coherence.smp import SMPSystem
from repro.coherence.states import MOESI
from repro.errors import ConfigurationError, TraceError


def l2_config(capacity=2048, block=64, subblock=32) -> CacheConfig:
    return CacheConfig(
        capacity_bytes=capacity, block_bytes=block, subblock_bytes=subblock,
    )


class TestCacheConfig:
    def test_derived_quantities(self):
        config = l2_config()
        assert config.n_blocks == 32
        assert config.n_sets == 32
        assert config.subblocks_per_block == 2
        assert config.block_offset_bits == 6
        assert config.index_bits == 5
        assert config.subblocked

    def test_no_subblocking(self):
        config = l2_config(subblock=64)
        assert not config.subblocked
        assert config.subblocks_per_block == 1

    def test_subblock_larger_than_block_rejected(self):
        with pytest.raises(ConfigurationError):
            l2_config(block=32, subblock=64)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            l2_config(capacity=3000)


def l2_system(subblock=32) -> SMPSystem:
    """A 2-CPU system whose L2 is :func:`l2_config` (32 sets)."""
    return SMPSystem(SystemConfig(
        n_cpus=2,
        l1=CacheConfig(capacity_bytes=256, block_bytes=subblock,
                       subblock_bytes=subblock),
        l2=l2_config(subblock=subblock),
        address_bits=24,
    ))


def valid_subblocks(l2: L2Cache, block: int) -> list[int]:
    return [
        i for i, state in enumerate(l2.subblock_states(block))
        if state is not MOESI.I
    ]


class TestCacheGeometry:
    """The address arithmetic the node applies on the L2's geometry."""

    def test_block_number(self):
        system = l2_system()
        l2 = system.nodes[0].l2
        system.access(0, 0, False)
        system.access(0, 63, False)
        assert l2.resident_blocks() == [0]
        system.access(0, 64, False)
        assert sorted(l2.resident_blocks()) == [0, 1]

    def test_subblock_index(self):
        system = l2_system()
        l2 = system.nodes[0].l2
        system.access(0, 31, False)
        assert valid_subblocks(l2, 0) == [0]
        system.access(0, 32, False)
        assert valid_subblocks(l2, 0) == [0, 1]
        system.access(0, 64, False)
        assert valid_subblocks(l2, 1) == [0]
        system.access(0, 64 + 63, False)
        assert valid_subblocks(l2, 1) == [0, 1]

    def test_subblock_index_without_subblocking(self):
        system = l2_system(subblock=64)
        system.access(0, 48, False)
        l2 = system.nodes[0].l2
        assert len(l2.subblock_states(0)) == 1
        assert valid_subblocks(l2, 0) == [0]

    def test_set_index_wraps(self):
        system = l2_system()  # 32 sets
        l2 = system.nodes[0].l2
        system.access(0, 0, False)
        system.access(0, 32 * 64, False)
        assert l2.find(0) == -1
        system.access(0, 33 * 64, False)
        assert sorted(l2.resident_blocks()) == [32, 33]
        assert l2.tags[0] == 32 and l2.tags[1] == 33


class TestSetAssocCache:
    """The L2 model, :class:`L2Cache`, as the node drives it."""

    def test_miss_on_empty(self):
        cache = L2Cache(l2_config())
        assert cache.find(0x10) == -1
        assert cache.subblock_states(0x10) is None

    def test_allocate_then_find(self):
        system = l2_system()
        cache = system.nodes[0].l2
        system.access(0, 0x10 * 64 + 32, False)
        assert cache.find(0x10) == 0x10
        assert cache.subblock_states(0x10) == [MOESI.I, MOESI.E]
        assert cache.in_l1[0x10] == 0b10

    def test_conflicting_allocation_evicts(self):
        system = l2_system()  # 32 sets, direct-mapped
        node = system.nodes[0]
        system.access(0, 0x10 * 64, True)
        system.access(0, (0x10 + 32) * 64, False)  # same set
        assert node.stats.l2_block_evictions == 1
        assert node.wb.probe(0x10) == bytes([MOESI.M, MOESI.I])
        assert node.l2.find(0x10) == -1

    def test_clean_eviction_not_dirty(self):
        system = l2_system()
        node = system.nodes[0]
        system.access(0, 0x10 * 64 + 32, False)
        system.access(0, (0x10 + 32) * 64, False)
        assert node.stats.l2_block_evictions == 1
        assert node.stats.l2_dirty_evictions == 0
        assert len(node.wb) == 0

    def test_evicted_l1_subblocks_reported(self):
        system = l2_system()
        node = system.nodes[0]
        system.access(0, 0x10 * 64 + 32, True)
        assert node.l1.find(0x10 * 2 + 1) >= 0
        system.access(0, (0x10 + 32) * 64, False)
        # Inclusion: the victim's L1 copy left with it, written back.
        assert node.l1.find(0x10 * 2 + 1) == -1
        assert node.stats.l1_writebacks == 1

    def test_restore_rejects_frame_that_does_not_fit(self):
        cache = L2Cache(l2_config())  # two subblocks per block
        for frame in ([0x10, "I", 0], [0x10, "III", 0], [-1, "II", 0]):
            with pytest.raises(TraceError, match="does not fit"):
                cache.restore({"frames": [frame]})
        assert cache.resident_blocks() == []


class TestL1Cache:
    def config(self) -> CacheConfig:
        return CacheConfig(capacity_bytes=128, block_bytes=32, subblock_bytes=32)

    def test_fill_and_find(self):
        l1 = L1Cache(self.config())
        assert l1.fill(0x5, writable=True) is None
        slot = l1.find(0x5)
        assert slot >= 0
        assert l1.lines[slot] == 0x5 << LINE_SHIFT | WRITABLE  # clean

    def test_refill_updates_permission_in_place(self):
        l1 = L1Cache(self.config())
        l1.fill(0x5, writable=False)
        displaced = l1.fill(0x5, writable=True)
        assert displaced is None
        assert l1.lines[l1.find(0x5)] & WRITABLE
        assert len(l1.resident_blocks()) == 1

    def test_refill_never_cleans(self):
        l1 = L1Cache(self.config())
        l1.fill(0x5, writable=True, dirty=True)
        l1.fill(0x5, writable=False)
        assert l1.lines[l1.find(0x5)] == 0x5 << LINE_SHIFT | DIRTY

    def test_conflict_displaces(self):
        l1 = L1Cache(self.config())  # 4 sets direct-mapped
        l1.fill(0x0, writable=False, dirty=True)
        displaced = l1.fill(0x4, writable=False)  # same set
        assert displaced == (0x0, True)

    def test_invalidate(self):
        l1 = L1Cache(self.config())
        l1.fill(0x5, writable=True)
        dropped = l1.invalidate(0x5)
        assert dropped is not None and dropped >> LINE_SHIFT == 0x5
        assert l1.find(0x5) == -1
        assert l1.lines.count(EMPTY) == len(l1.lines)

    def test_invalidate_missing_returns_none(self):
        l1 = L1Cache(self.config())
        assert l1.invalidate(0x99) is None
