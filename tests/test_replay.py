"""Unit tests for event-stream replay and coverage accounting."""

import pytest

from repro.core.config import build_filter
from repro.core.exclude import ExcludeJetty
from repro.core.null import NullFilter, OracleFilter
from repro.core.stats import (
    CoverageStats,
    EventReplayer,
    NodeEventStream,
    merge_evaluations,
)
from repro.errors import FilterSafetyError


def replay_events(snoop_filter, stream):
    """Replay one whole stream through ``snoop_filter`` (which it mutates)."""
    replayer = EventReplayer(snoop_filter, stream.node_id)
    replayer.feed(stream.events)
    return replayer.finish()


def snoop_flag(sub_hit: bool, block_present: bool) -> int:
    return (1 if sub_hit else 0) | (2 if block_present else 0)


class TestReplay:
    def test_null_filter_zero_coverage(self):
        stream = NodeEventStream(0)
        for block in range(10):
            stream.snoop(block, snoop_flag(False, False))
        result = replay_events(NullFilter(), stream)
        assert result.coverage.snoops == 10
        assert result.coverage.snoop_would_miss == 10
        assert result.coverage.coverage == 0.0

    def test_oracle_full_coverage(self):
        stream = NodeEventStream(0)
        stream.alloc(0x1)
        stream.snoop(0x1, snoop_flag(True, True))
        for block in range(0x10, 0x20):
            stream.snoop(block, snoop_flag(False, False))
        result = replay_events(OracleFilter(), stream)
        assert result.coverage.coverage == 1.0
        assert result.coverage.snoop_would_hit == 1

    def test_ej_coverage_on_repeated_snoops(self):
        stream = NodeEventStream(0)
        for _ in range(5):
            stream.snoop(0x7, snoop_flag(False, False))
        result = replay_events(ExcludeJetty(8, 2), stream)
        # First snoop trains the EJ; the remaining four are filtered.
        assert result.coverage.filtered == 4
        assert result.coverage.coverage == pytest.approx(0.8)

    def test_safety_violation_detected(self):
        class LyingFilter(NullFilter):
            def _probe(self, block):
                return False  # claims everything absent

        stream = NodeEventStream(0)
        stream.snoop(0x1, snoop_flag(True, True))
        with pytest.raises(FilterSafetyError):
            replay_events(LyingFilter(), stream)

    def test_filtering_block_present_subblock_missing_is_violation(self):
        """A block whose tag is allocated must never be filtered even if
        the snooped subblock is invalid."""
        class LyingFilter(NullFilter):
            def _probe(self, block):
                return False

        stream = NodeEventStream(0)
        stream.snoop(0x1, snoop_flag(False, True))
        with pytest.raises(FilterSafetyError):
            replay_events(LyingFilter(), stream)

    def test_marker_resets_statistics_not_state(self):
        stream = NodeEventStream(0)
        stream.snoop(0x7, snoop_flag(False, False))  # trains the EJ
        stream.marker()
        stream.snoop(0x7, snoop_flag(False, False))  # filtered, measured
        result = replay_events(ExcludeJetty(8, 2), stream)
        assert result.coverage.snoops == 1
        assert result.coverage.filtered == 1
        assert result.coverage.coverage == 1.0

    def test_alloc_evict_counted(self):
        stream = NodeEventStream(0)
        stream.alloc(0x1)
        stream.alloc(0x2)
        stream.evict(0x1)
        result = replay_events(NullFilter(), stream)
        assert result.allocs == 2
        assert result.evicts == 1

    def test_stream_counts(self):
        stream = NodeEventStream(3)
        stream.snoop(1, 0)
        stream.alloc(2)
        stream.evict(2)
        stream.marker()
        assert stream.counts() == (1, 1, 1)


class TestCoverageStats:
    def test_coverage_zero_without_misses(self):
        assert CoverageStats(snoops=5, snoop_would_hit=5).coverage == 0.0

    def test_unfiltered_tag_probes(self):
        stats = CoverageStats(snoops=10, snoop_would_miss=8, filtered=6)
        assert stats.unfiltered_tag_probes == 4

    def test_merge(self):
        a = CoverageStats(snoops=4, snoop_would_miss=4, filtered=2)
        b = CoverageStats(snoops=6, snoop_would_miss=2, snoop_would_hit=4, filtered=1)
        merged = a.merged_with(b)
        assert merged.snoops == 10
        assert merged.filtered == 3
        assert merged.coverage == pytest.approx(0.5)


class TestMergeEvaluations:
    def test_merges_same_config(self):
        streams = [NodeEventStream(i) for i in range(2)]
        for stream in streams:
            stream.snoop(0x1, 0)
        evaluations = [
            replay_events(build_filter("EJ-8x2"), stream) for stream in streams
        ]
        merged = merge_evaluations(evaluations)
        assert merged.coverage.snoops == 2
        assert merged.events.probes == 2

    def test_rejects_mixed_configs(self):
        stream = NodeEventStream(0)
        stream.snoop(0x1, 0)
        a = replay_events(build_filter("EJ-8x2"), stream)
        b = replay_events(build_filter("EJ-8x4"), NodeEventStream(1))
        with pytest.raises(ValueError):
            merge_evaluations([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_evaluations([])
