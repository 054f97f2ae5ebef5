"""Unit tests for the set-associative L2 model and the L1 model."""

import pytest

from repro.coherence.cache import (
    DIRTY,
    EMPTY,
    LINE_SHIFT,
    WRITABLE,
    CacheGeometry,
    L1Cache,
    SetAssocCache,
)
from repro.coherence.config import CacheConfig
from repro.coherence.states import MOESI
from repro.errors import ConfigurationError


def l2_config(capacity=2048, block=64, subblock=32, ways=1) -> CacheConfig:
    return CacheConfig(
        capacity_bytes=capacity, block_bytes=block, subblock_bytes=subblock,
        ways=ways,
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


class TestCacheGeometry:
    def test_block_number(self):
        geom = CacheGeometry(l2_config())
        assert geom.block_number(0) == 0
        assert geom.block_number(63) == 0
        assert geom.block_number(64) == 1

    def test_subblock_index(self):
        geom = CacheGeometry(l2_config())
        assert geom.subblock_index(0) == 0
        assert geom.subblock_index(31) == 0
        assert geom.subblock_index(32) == 1
        assert geom.subblock_index(63) == 1
        assert geom.subblock_index(64) == 0

    def test_subblock_index_without_subblocking(self):
        geom = CacheGeometry(l2_config(subblock=64))
        assert geom.subblock_index(48) == 0

    def test_set_index_wraps(self):
        geom = CacheGeometry(l2_config())
        assert geom.set_index(0) == 0
        assert geom.set_index(32) == 0
        assert geom.set_index(33) == 1


class TestSetAssocCache:
    def test_miss_on_empty(self):
        cache = SetAssocCache(l2_config())
        assert cache.find(0x10) is None

    def test_allocate_then_find(self):
        cache = SetAssocCache(l2_config())
        frame, evicted = cache.allocate(0x10)
        assert evicted is None
        assert frame.block == 0x10
        assert all(s is MOESI.I for s in frame.states)
        assert cache.find(0x10) is frame

    def test_conflicting_allocation_evicts(self):
        cache = SetAssocCache(l2_config())  # 32 sets, direct-mapped
        cache.allocate(0x10)
        frame = cache.find(0x10)
        frame.states[0] = MOESI.M
        _new, evicted = cache.allocate(0x10 + 32)  # same set
        assert evicted is not None
        assert evicted.block == 0x10
        assert evicted.dirty
        assert evicted.dirty_subblocks == ((0, MOESI.M),)
        assert cache.find(0x10) is None

    def test_clean_eviction_not_dirty(self):
        cache = SetAssocCache(l2_config())
        cache.allocate(0x10)
        cache.find(0x10).states[1] = MOESI.S
        _new, evicted = cache.allocate(0x10 + 32)
        assert evicted is not None and not evicted.dirty

    def test_lru_within_set(self):
        cache = SetAssocCache(l2_config(ways=2))  # 16 sets, 2 ways
        cache.allocate(0x00)
        cache.allocate(0x10)  # same set (16-set cache)
        cache.find(0x00, touch=True)  # refresh block 0
        _new, evicted = cache.allocate(0x20)
        assert evicted.block == 0x10

    def test_snoop_find_does_not_touch_lru(self):
        cache = SetAssocCache(l2_config(ways=2))
        cache.allocate(0x00)
        cache.allocate(0x10)
        cache.find(0x00, touch=False)  # snoop-style lookup
        _new, evicted = cache.allocate(0x20)
        assert evicted.block == 0x00  # block 0 was still LRU

    def test_deallocate(self):
        cache = SetAssocCache(l2_config())
        cache.allocate(0x10)
        cache.deallocate(0x10)
        assert cache.find(0x10) is None
        assert cache.resident_blocks() == []

    def test_evicted_l1_subblocks_reported(self):
        cache = SetAssocCache(l2_config())
        frame, _ = cache.allocate(0x10)
        frame.in_l1[1] = True
        _new, evicted = cache.allocate(0x10 + 32)
        assert evicted.l1_subblocks == (1,)

    def test_valid_subblock_count(self):
        cache = SetAssocCache(l2_config())
        frame, _ = cache.allocate(0x10)
        assert cache.valid_subblock_count() == 0
        frame.states[0] = MOESI.E
        frame.states[1] = MOESI.S
        assert cache.valid_subblock_count() == 2


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
