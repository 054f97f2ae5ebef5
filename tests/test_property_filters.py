"""Property-based tests: the JETTY safety guarantee under random event
streams.

Requirement 3 of the paper (§2): a JETTY must *never* report "not cached"
while the block is locally cached.  We drive every filter variant with
arbitrary interleavings of snoops, allocations, and evictions while
maintaining a reference set of cached blocks; any filter claiming absence
of a cached block fails the test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import build_filter
from repro.core.include import IncludeJetty

FILTER_NAMES = [
    "EJ-8x2",
    "EJ-32x4",
    "VEJ-8x2-4",
    "VEJ-16x4-8",
    "IJ-6x5x6",
    "IJ-8x4x7",
    "HJ(IJ-6x5x6, EJ-8x2)",
    "HJ(IJ-8x4x7, VEJ-8x2-4)",
    "oracle",
]

# Events over a small block space so aliasing and reuse are frequent:
# ("snoop", block) / ("alloc", block) / ("evict", block).
events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["snoop", "alloc", "evict"]),
        st.integers(min_value=0, max_value=255),
    ),
    max_size=300,
)


def run_stream(filter_name: str, events: list[tuple[str, int]]) -> None:
    snoop_filter = build_filter(filter_name, counter_bits=9, addr_bits=16)
    cached: set[int] = set()
    for kind, block in events:
        if kind == "alloc":
            if block not in cached:
                cached.add(block)
                snoop_filter.on_block_allocated(block)
        elif kind == "evict":
            if block in cached:
                cached.remove(block)
                snoop_filter.on_block_evicted(block)
        else:
            may_be_cached = snoop_filter.probe(block)
            present = block in cached
            # The safety guarantee, verbatim.
            assert may_be_cached or not present, (
                f"{filter_name} filtered cached block {block:#x}"
            )
            snoop_filter.on_snoop_outcome(block, present)


@pytest.mark.parametrize("filter_name", FILTER_NAMES)
@given(events=events_strategy)
@settings(max_examples=60, deadline=None)
def test_safety_guarantee_holds(filter_name: str, events):
    run_stream(filter_name, events)


@given(events=events_strategy)
@settings(max_examples=60, deadline=None)
def test_oracle_is_exact(events):
    """The oracle filters everything absent and nothing present."""
    snoop_filter = build_filter("oracle")
    cached: set[int] = set()
    for kind, block in events:
        if kind == "alloc" and block not in cached:
            cached.add(block)
            snoop_filter.on_block_allocated(block)
        elif kind == "evict" and block in cached:
            cached.remove(block)
            snoop_filter.on_block_evicted(block)
        elif kind == "snoop":
            assert snoop_filter.probe(block) == (block in cached)


@given(events=events_strategy)
@settings(max_examples=60, deadline=None)
def test_include_jetty_counters_stay_consistent(events):
    """IJ counters equal the number of cached blocks mapping to each
    entry, for every sub-array, at every point in time."""
    ij = IncludeJetty(entry_bits=4, n_arrays=3, skip=3, counter_bits=8,
                      addr_bits=16)
    cached: set[int] = set()
    for kind, block in events:
        if kind == "alloc" and block not in cached:
            cached.add(block)
            ij.on_block_allocated(block)
        elif kind == "evict" and block in cached:
            cached.remove(block)
            ij.on_block_evicted(block)
    assert ij.tracked_blocks() == len(cached)
    for array_index in range(ij.n_arrays):
        expected = [0] * (1 << ij.entry_bits)
        for block in cached:
            expected[ij.indexes(block)[array_index]] += 1
        assert ij.counters(array_index) == expected


@given(events=events_strategy)
@settings(max_examples=40, deadline=None)
def test_hybrid_never_weaker_than_components(events):
    """HJ filters a snoop whenever either component would (same input)."""
    hj = build_filter("HJ(IJ-6x5x6, EJ-8x2)", counter_bits=9, addr_bits=16)
    ij = build_filter("IJ-6x5x6", counter_bits=9, addr_bits=16)
    cached: set[int] = set()
    for kind, block in events:
        if kind == "alloc" and block not in cached:
            cached.add(block)
            hj.on_block_allocated(block)
            ij.on_block_allocated(block)
        elif kind == "evict" and block in cached:
            cached.remove(block)
            hj.on_block_evicted(block)
            ij.on_block_evicted(block)
        elif kind == "snoop":
            hj_passes = hj.probe(block)
            ij_passes = ij.probe(block)
            if not ij_passes:
                assert not hj_passes  # IJ filtering implies HJ filtering
            present = block in cached
            if hj_passes:
                hj.on_snoop_outcome(block, present)
