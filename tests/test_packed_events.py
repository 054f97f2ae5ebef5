"""Packed-event encoding and store GC.

Two contracts:

* :func:`pack_event` / :func:`unpack_event` round-trip every kind, flag
  mask, and block number (up to 2**60 as plain ints; ``array('q')``
  shard storage covers every simulable address space);
* the experiment store's LRU garbage collector evicts by recency down
  to a byte budget.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.store import ExperimentStore
from repro.core.stats import (
    ALLOC,
    EVICT,
    MARKER,
    SNOOP,
    NodeEventStream,
    pack_event,
    unpack_event,
)


class TestPackedRoundTrip:
    BLOCKS = (0, 1, 5, 0xFFFF, (1 << 20) + 3, (1 << 40) - 1, 1 << 59, 1 << 60)

    def test_all_kinds_blocks_and_flags_round_trip(self):
        for kind, block, flag in itertools.product(
            (SNOOP, ALLOC, EVICT, MARKER), self.BLOCKS, (0, 1, 2, 3)
        ):
            packed = pack_event(kind, block, flag)
            assert unpack_event(packed) == (kind, block, flag), (
                kind, block, flag
            )

    def test_stream_methods_pack_exactly(self):
        stream = NodeEventStream(0)
        stream.snoop(0xABC, 3)
        stream.alloc(0xDEF)
        stream.evict(0x123)
        stream.marker()
        assert stream.triples() == [
            (SNOOP, 0xABC, 3),
            (ALLOC, 0xDEF, 0),
            (EVICT, 0x123, 0),
            (MARKER, 0, 0),
        ]

    def test_array_storage_holds_59_bit_blocks(self):
        """array('q') shards cover every simulable block-address width."""
        stream = NodeEventStream(0)
        big = (1 << 59) - 1
        stream.snoop(big, 2)
        assert stream.triples() == [(SNOOP, big, 2)]

    def test_counts_decode_packed_events(self):
        stream = NodeEventStream(0)
        for _ in range(3):
            stream.snoop(8, 0)
        stream.alloc(8)
        stream.evict(8)
        stream.marker()
        assert stream.counts() == (3, 1, 1)

    def test_constructor_round_trips_packed_events(self):
        events = [pack_event(SNOOP, 7, 2), pack_event(ALLOC, 9)]
        stream = NodeEventStream(1, events)
        assert list(stream.events) == events
        assert stream.triples() == [(SNOOP, 7, 2), (ALLOC, 9, 0)]


class TestStoreGC:
    def _fill(self, store: ExperimentStore, n: int = 4) -> list[str]:
        keys = []
        for i in range(n):
            key = f"key-{i}"
            store.put_blob(
                key, bytes(100), kind="eval", workload="w",
                filter_name="f", n_cpus=4, seed=i,
            )
            keys.append(key)
        return keys

    @pytest.mark.parametrize("persistent", (False, True))
    def test_gc_evicts_least_recently_used_first(self, tmp_path, persistent):
        store = ExperimentStore(tmp_path / "s.sqlite" if persistent else None)
        keys = self._fill(store)
        # Refresh key-0 and key-1; key-2 becomes the oldest.
        assert store.get_blob(keys[0]) is not None
        assert store.get_blob(keys[1]) is not None
        removed, freed = store.gc(max_bytes=250)
        assert (removed, freed) == (2, 200)
        assert store.get_blob(keys[2]) is None
        assert store.get_blob(keys[3]) is None
        assert store.get_blob(keys[0]) is not None
        assert store.get_blob(keys[1]) is not None

    def test_gc_within_budget_removes_nothing(self):
        store = ExperimentStore()
        self._fill(store)
        assert store.gc(max_bytes=10_000) == (0, 0)
        assert store.stats().evals == 4

    def test_gc_zero_budget_empties_store(self, tmp_path):
        store = ExperimentStore(tmp_path / "s.sqlite")
        self._fill(store)
        removed, freed = store.gc(max_bytes=0)
        assert removed == 4 and freed == 400
        assert store.stats().payload_bytes == 0

    def test_gc_rejects_negative_budget(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentStore().gc(max_bytes=-1)

    def test_recency_survives_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ExperimentStore(path) as store:
            keys = self._fill(store)
            assert store.get_blob(keys[0]) is not None
        with ExperimentStore(path) as reopened:
            removed, _freed = reopened.gc(max_bytes=150)
            assert removed == 3
            assert reopened.get_blob(keys[0]) is not None

    def test_contains_counts_as_use_for_gc(self, tmp_path):
        """The warm-sweep path checks presence only; that must refresh
        recency, or daily-warm entries would age out in write order."""
        store = ExperimentStore(tmp_path / "s.sqlite")
        keys = self._fill(store)
        assert store.contains(keys[0])  # oldest-written, freshly used
        removed, _freed = store.gc(max_bytes=100)
        assert removed == 3
        assert store.contains(keys[0])
        assert not store.contains(keys[1])

    def test_readonly_store_still_serves_reads(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ExperimentStore(path) as store:
            self._fill(store)
        path.chmod(0o444)
        try:
            with ExperimentStore(path) as readonly:
                # Recency cannot be written; reads must still succeed.
                assert readonly.get_blob("key-0") == bytes(100)
                assert readonly.contains("key-1")
        finally:
            path.chmod(0o644)

    def test_stats_reports_bytes_per_kind(self):
        store = ExperimentStore()
        store.put_blob("a", bytes(10), kind="sim", workload="w",
                       filter_name=None, n_cpus=4, seed=1)
        store.put_blob("b", bytes(20), kind="eval", workload="w",
                       filter_name="f", n_cpus=4, seed=1)
        store.put_blob("c", bytes(30), kind="sim-metrics", workload="w",
                       filter_name=None, n_cpus=4, seed=1)
        assert dict(store.stats().bytes_by_kind) == {
            "sim": 10, "eval": 20, "sim-metrics": 30,
        }
