"""Oracle-parity suite for the compiled replay kernels.

The compiled kernels (:mod:`repro.core.vector_replay`) are exact
re-implementations, not approximations: for every supported filter
family they must reproduce the per-event Python oracle
(:class:`~repro.core.stats.EventReplayer`) **byte for byte** — the same
encoded :class:`~repro.core.stats.FilterEvaluation` payload for any
batch size, the same exception type/message/flushed statistics on a
safety violation or IJ underflow, and MARKER warm-up resets anywhere in
a batch.  Unsupported families must *fall back* to the oracle rather
than silently vectorise.

Everything here also runs (reduced) without a C compiler: the
fallback-selection and oracle cases need no native core at all, which
is the CI job proving the compiler really is optional.
"""

from __future__ import annotations

import copy
import logging
import os
import shutil
import sqlite3
import subprocess
import sys
import textwrap
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.coherence.smp import simulate_streaming
from repro.core import _cmachine, vector_replay
from repro.core.config import (
    PAPER_EJ_NAMES,
    PAPER_HJ_NAMES,
    PAPER_IJ_NAMES,
    PAPER_VEJ_NAMES,
    build_filter,
)
from repro.core.exclude import ExcludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.stats import (
    ALLOC,
    EVICT,
    EventReplayer,
    MARKER,
    NodeEventStream,
    PackedSegment,
    PHASE_FLAG,
    SNOOP,
    StreamingFilterBank,
    TraceReader,
    pack_event,
    replay_trace,
)
from repro.traces.suite import Phase, Suite
from repro.errors import (
    CoherenceError,
    FilterSafetyError,
    InvariantError,
)
from repro.traces.workloads import (
    WORKLOADS,
    PaperReference,
    WorkloadSpec,
    simulate_workload_accesses,
)
from tests.conftest import oracle_replay
from tests.test_streaming import _CollectingSink

requires_native = pytest.mark.skipif(
    _cmachine.library() is None,
    reason="the compiled kernels need a C compiler",
)

#: One member of each supported family, both hybrid flavours included.
PARITY_FILTERS = (
    "EJ-16x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-16x2)",
    "HJ(IJ-8x4x7, VEJ-16x2-4)",
)

#: Feeding batch sizes: tiny (every span crosses many batches), prime
#: (boundaries never align with anything), and one full trace segment.
CHUNK_SIZES = (512, 1_777, 1 << 18)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: The golden miniatures (mirrors ``test_golden_metrics``): the two ends
#: of the snoop-locality spectrum, with warm-up MARKERs mid-stream.
GOLDEN_WORKLOADS = (
    WorkloadSpec(
        name="vector-golden-mix",
        abbrev="vm",
        description="parity miniature: private sets with pairwise hand-off",
        paper=_PAPER,
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.2,
        recipe=(
            ("private", dict(weight=0.7, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer", dict(weight=0.3, n_pairs=2,
                                       buffer_bytes=4096)),
        ),
    ),
    WorkloadSpec(
        name="vector-golden-stream",
        abbrev="vs",
        description="parity miniature: streaming sweeps with migration",
        paper=_PAPER,
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.1,
        recipe=(
            ("streaming", dict(weight=0.6, partition_bytes=64 * 1024,
                               remote_frac=0.1)),
            ("migratory", dict(weight=0.3, n_objects=24)),
            ("shared_readonly", dict(weight=0.1, region_bytes=8 * 1024)),
        ),
    ),
)


#: A two-phase suite miniature: its simulated event streams carry PHASE
#: markers mid-stream (the whole trace is far below one 2^18 trace
#: segment, so every boundary lands *inside* a segment).
SUITE_SPEC = Suite(
    [Phase("fill", "zipf-hot", 1_500), Phase("drain", "scan-stream", 2_500)],
    name="vector-suite",
    warmup_accesses=1_000,
)


def _event_streams(spec) -> list[NodeEventStream]:
    """Per-node event streams of one simulation, reassembled from shards."""
    accesses, warmup = simulate_workload_accesses(
        spec, n_cpus=SCALED_SYSTEM.n_cpus, seed=1
    )
    sink = _CollectingSink(SCALED_SYSTEM.n_cpus)
    simulate_streaming(
        SCALED_SYSTEM, accesses, spec.name, warmup=warmup, sinks=[sink],
        phase_marks=runner._phase_plan(spec)[0],
    )
    return [
        NodeEventStream(node_id, events)
        for node_id, events in enumerate(sink.events)
    ]


@pytest.fixture(scope="module")
def suite_streams():
    """Per-node event streams of the suite miniature (PHASE markers in)."""
    return _event_streams(SUITE_SPEC)


@pytest.fixture(scope="module")
def golden_streams():
    """``workload -> per-node event streams`` for the golden miniatures."""
    for spec in GOLDEN_WORKLOADS:
        WORKLOADS[spec.name] = spec
    try:
        yield {spec.name: _event_streams(spec) for spec in GOLDEN_WORKLOADS}
    finally:
        for spec in GOLDEN_WORKLOADS:
            del WORKLOADS[spec.name]


def _replay_bytes(filter_name, streams, chunk, phase_names=(), *,
                  oracle=False):
    """Encoded evaluation of one filter over per-node streams, batched.

    ``oracle`` runs the bank on the per-event oracle instead of the
    default replayers.
    """
    with oracle_replay(oracle):
        bank = StreamingFilterBank(
            runner._build_filters(filter_name, SCALED_SYSTEM),
            phase_names=phase_names,
        )
        for node_id, stream in enumerate(streams):
            events = stream.events
            for lo in range(0, len(events), chunk):
                bank.feed_node(node_id, events[lo:lo + chunk])
        return store_mod.encode_eval(bank.finish())


def _single_filter(name: str):
    return build_filter(
        name,
        counter_bits=SCALED_SYSTEM.ij_counter_bits,
        addr_bits=SCALED_SYSTEM.block_address_bits,
    )


def _snoop(block, would_hit=False, present=False):
    return pack_event(SNOOP, block, (2 if present else 0) | (1 if would_hit else 0))


# ----------------------------------------------------------------------
# Byte-identity against the oracle
# ----------------------------------------------------------------------

@requires_native
class TestOracleParity:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_golden_byte_identity(self, golden_streams, filter_name, chunk):
        """Every family, every golden, every batch size: identical bytes."""
        for workload, streams in golden_streams.items():
            oracle = _replay_bytes(filter_name, streams, chunk, oracle=True)
            vector = _replay_bytes(filter_name, streams, chunk)
            assert vector == oracle, (workload, filter_name, chunk)

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_batch_boundaries_never_matter(self, golden_streams, filter_name):
        """The vector kernels are batch-size invariant, like the oracle."""
        streams = next(iter(golden_streams.values()))
        payloads = {
            _replay_bytes(filter_name, streams, chunk)
            for chunk in CHUNK_SIZES
        }
        assert len(payloads) == 1

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_marker_mid_segment(self, filter_name):
        """A warm-up MARKER inside one batch resets stats, keeps state."""
        block = 0x40
        events = [
            _snoop(block),          # miss -> EJ-side entry allocated
            _snoop(block),          # hit -> filtered (EJ families)
            pack_event(ALLOC, 0x81),
            pack_event(MARKER, 0),
            _snoop(block),          # state persisted across the marker
            pack_event(EVICT, 0x81),
            _snoop(block + 16),
        ]
        oracle = EventReplayer(_single_filter(filter_name), 0)
        oracle.feed(events)
        vector = vector_replay.replayer_for(_single_filter(filter_name), 0)
        assert vector is not None
        vector.feed(events)
        assert store_mod.encode_eval(vector.finish()) == (
            store_mod.encode_eval(oracle.finish())
        )
        # Post-marker tallies only.
        assert vector.stats.snoops == 2
        assert vector.allocs == 0 and vector.evicts == 1

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_phase_marker_mid_segment(self, suite_streams, filter_name, chunk):
        """PHASE markers inside a segment: identical bytes, phases split."""
        names = SUITE_SPEC.phase_names()
        oracle = _replay_bytes(filter_name, suite_streams, chunk, names,
                               oracle=True)
        vector = _replay_bytes(filter_name, suite_streams, chunk, names)
        assert vector == oracle, (filter_name, chunk)
        evaluation = store_mod.decode_eval(vector)
        # Canonical encoding sorts keys; consumers look phases up by name.
        assert set(evaluation.phases) == set(names)
        split = sum(p.coverage.snoops for p in evaluation.phases.values())
        assert split == evaluation.coverage.snoops

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_phase_boundary_exactly_at_segment_cut(self, filter_name):
        """PHASE markers as a batch's last/first event: cut-invariant."""
        block = 0x40
        batches = [
            # Warm-up reset then PHASE(0), both flush at the cut itself.
            [_snoop(block), pack_event(ALLOC, 0x81), pack_event(MARKER, 0),
             pack_event(MARKER, 0, PHASE_FLAG)],
            # PHASE(1) lands exactly at the *end* of this batch.
            [_snoop(block), _snoop(block),
             pack_event(MARKER, 1, PHASE_FLAG)],
            [_snoop(block + 16), pack_event(EVICT, 0x81),
             _snoop(block + 16)],
        ]
        names = ("first", "second")
        oracle = EventReplayer(_single_filter(filter_name), 0, names)
        vector = vector_replay.replayer_for(
            _single_filter(filter_name), 0, names
        )
        assert vector is not None
        for batch in batches:
            oracle.feed(list(batch))
            vector.feed(list(batch))
        oracle_eval, vector_eval = oracle.finish(), vector.finish()
        assert store_mod.encode_eval(vector_eval) == (
            store_mod.encode_eval(oracle_eval)
        )
        assert vector_eval.phases["first"].coverage.snoops == 2
        assert vector_eval.phases["second"].coverage.snoops == 2
        assert vector_eval.phases["second"].evicts == 1
        # The warm-up MARKER right before PHASE(0) cleared pre-phase
        # tallies: totals equal the per-phase sums.
        assert vector_eval.coverage.snoops == 4


# ----------------------------------------------------------------------
# Error parity: same exception, same message, same flushed statistics
# ----------------------------------------------------------------------

@requires_native
class TestErrorParity:
    def _both(self, filter_name, events):
        """Feed both kernels; return (oracle, vector, exceptions)."""
        oracle = EventReplayer(_single_filter(filter_name), 3)
        vector = vector_replay.replayer_for(_single_filter(filter_name), 3)
        assert vector is not None
        excs = []
        for replayer in (oracle, vector):
            with pytest.raises((FilterSafetyError, CoherenceError)) as info:
                replayer.feed(list(events))
            excs.append(info.value)
        return oracle, vector, excs

    @pytest.mark.parametrize(
        "filter_name",
        ("EJ-16x2", "VEJ-16x2-4", "HJ(IJ-8x4x7, EJ-16x2)",
         "HJ(IJ-8x4x7, VEJ-16x2-4)"),
    )
    def test_safety_violation_parity(self, filter_name):
        """Filtering a snoop for a cached block raises identically."""
        block = 0x40
        events = [
            _snoop(block),                 # allocates the exclude entry
            _snoop(0x200),                 # unrelated traffic before the raise
            _snoop(block),                 # repeat hit: filtered
            _snoop(block, present=True),   # cached block would be filtered
            _snoop(0x300),                 # must never be consumed
        ]
        oracle, vector, (e1, e2) = self._both(filter_name, events)
        assert type(e1) is FilterSafetyError and type(e2) is FilterSafetyError
        assert str(e1) == str(e2)
        assert f"block {block:#x} on node 3" in str(e2)
        assert vars(vector.stats) == vars(oracle.stats)
        assert vector.stats.snoops == 4  # the violating snoop is tallied
        assert (vector.allocs, vector.evicts) == (oracle.allocs, oracle.evicts)

    @pytest.mark.parametrize(
        "filter_name", ("IJ-8x4x7", "HJ(IJ-8x4x7, EJ-16x2)")
    )
    def test_ij_underflow_parity(self, filter_name):
        """An EVICT with no matching ALLOC raises identically."""
        events = [
            pack_event(ALLOC, 0x90),
            _snoop(0x90, present=True),    # IJ passes: the block is present
            pack_event(EVICT, 0x90),
            pack_event(EVICT, 0x90),       # second evict underflows
            _snoop(0x123),                 # must never be consumed
        ]
        oracle, vector, (e1, e2) = self._both(filter_name, events)
        assert type(e1) is CoherenceError and type(e2) is CoherenceError
        assert "IJ counter underflow" in str(e2)
        assert str(e1) == str(e2)
        assert vars(vector.stats) == vars(oracle.stats)
        assert (vector.allocs, vector.evicts) == (1, 2)
        assert (oracle.allocs, oracle.evicts) == (1, 2)


# ----------------------------------------------------------------------
# Regression: the oracle itself must flush locals when it raises
# ----------------------------------------------------------------------

class TestOracleFlushOnRaise:
    def test_stats_survive_a_mid_batch_safety_violation(self):
        """``EventReplayer.feed`` once dropped every locally-accumulated
        counter when a safety violation raised mid-batch; post-mortem
        state must reflect all events consumed up to (and including) the
        violating snoop."""
        replayer = EventReplayer(_single_filter("EJ-16x2"), 0)
        block = 0x40
        with pytest.raises(FilterSafetyError):
            replayer.feed([
                _snoop(block),                # allocates the entry
                _snoop(block),                # filtered
                pack_event(ALLOC, 0x999),
                _snoop(block),                # entry untouched: filtered again
                _snoop(block, present=True),  # violation
            ])
        assert replayer.stats.snoops == 4
        assert replayer.stats.snoop_would_miss == 4
        assert replayer.stats.filtered == 2
        assert replayer.allocs == 1

    def test_stats_survive_a_hook_error(self):
        """Any mid-batch raise flushes — not just safety violations."""
        class Exploding(ExcludeJetty):
            def _on_block_allocated(self, blk):
                raise RuntimeError("boom")

        replayer = EventReplayer(Exploding(16, 2), 0)
        with pytest.raises(RuntimeError):
            replayer.feed([_snoop(0x40), _snoop(0x50), pack_event(ALLOC, 0x40)])
        assert replayer.stats.snoops == 2
        assert replayer.allocs == 1


# ----------------------------------------------------------------------
# Stream-order walks: error ordering and checkpoint warm starts
# ----------------------------------------------------------------------

@requires_native
class TestStreamOrderFirstError:
    """The EJ/VEJ/HJ kernels walk each span in stream order across all
    sets; with violations pending in two sets, the one that comes first
    in the stream must raise — not the one in the lower-indexed set —
    with the oracle's flushed statistics up to that snoop."""

    @pytest.mark.parametrize(
        "filter_name",
        ("EJ-16x2", "VEJ-16x2-4", "HJ(IJ-8x4x7, EJ-16x2)",
         "HJ(IJ-8x4x7, VEJ-16x2-4)"),
    )
    def test_interleaved_per_set_violations(self, filter_name):
        # Two violating sets: the lower-indexed set's violation comes
        # *later* in stream order.
        high, low = 0x409, 0x102
        events = [
            _snoop(high),                 # allocates in the high set
            _snoop(low),                  # allocates in the low set
            _snoop(0x209),                # extra traffic in the high set
            _snoop(high, present=True),   # the stream-order-first violation
            _snoop(low, present=True),    # group-order-first violation
            _snoop(0x300),                # must never be consumed
        ]
        oracle = EventReplayer(_single_filter(filter_name), 1)
        vector = vector_replay.replayer_for(_single_filter(filter_name), 1)
        assert vector is not None
        messages = []
        for replayer in (oracle, vector):
            with pytest.raises(FilterSafetyError) as info:
                replayer.feed(list(events))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"block {high:#x}" in messages[1]
        assert vars(vector.stats) == vars(oracle.stats)
        assert vector.stats.snoops == 4  # flushed up to the first violation


# ----------------------------------------------------------------------
# The walk's span contract: bounds, stops, flushed tallies
# ----------------------------------------------------------------------

#: Clean traffic for one span: a repeat, a would-hit snoop, and a P1
#: snoop of a block between its ALLOC and EVICT (safe in every family).
_SPAN = [
    _snoop(0x40), _snoop(0x40, would_hit=True), pack_event(ALLOC, 0x81),
    _snoop(0x81, present=True), pack_event(EVICT, 0x81), _snoop(0x50),
    _snoop(0x40),
]


def _violation(block=0x300):
    """A P0 then a P1 snoop of ``block``: a safety violation in every
    ``PARITY_FILTERS`` family (the exclude side allocated the block on
    the P0 snoop; a lone IJ's lanes for it are still zero)."""
    return [_snoop(block), _snoop(block, present=True)]


def _vector(filter_name):
    replayer = vector_replay.replayer_for(_single_filter(filter_name), 0)
    assert replayer is not None
    return replayer


def _oracle_fed(filter_name, events):
    oracle = EventReplayer(_single_filter(filter_name), 0)
    oracle.feed(list(events))
    return oracle


def _payload(replayer) -> bytes:
    return store_mod.encode_eval(replayer.finish())


#: Every shape ``feed`` accepts, built from one event list.
FEED_SHAPES = {
    "list": list,
    "tuple": tuple,
    "generator": lambda events: (event for event in events),
    "array": lambda events: array("q", events),
    "segment-of-list": lambda events: PackedSegment(list(events)),
    "segment-of-array": lambda events: PackedSegment(array("q", events)),
}


def _group(filter_name, size):
    """A walk group of ``size`` replayers led by ``filter_name``'s: the
    rest are the other ``PARITY_FILTERS``, each on its own filter."""
    others = [name for name in PARITY_FILTERS if name != filter_name]
    return [_vector(name) for name in [filter_name, *others][:size]]


#: A group of one (a replayer fed alone) and a group of
#: every ``PARITY_FILTERS`` family.
GROUP_SIZES = (1, len(PARITY_FILTERS))


@requires_native
class TestWalkSpans:
    """``vector_replay.walk`` reads exactly ``events[lo:hi]`` of the
    buffer a job hands it and returns the index of the first MARKER
    (``hi`` when none); each member's span then flushes the oracle's
    tallies for every event its filter consumed, the stopping one
    included, and raises at its first error."""

    @pytest.mark.parametrize("size", GROUP_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_span_bounds_are_honoured(self, filter_name, size):
        # A violation on either side: reading past either bound raises.
        events = array("q", [*_violation(), *_SPAN, *_violation()])
        lo, hi = 2, 2 + len(_SPAN)
        group = _group(filter_name, size)
        [(stop, spans)] = vector_replay.walk([(group, events, lo, hi)])
        assert stop == hi
        for vector, span in zip(group, spans):
            assert vector._take(events, span) == hi
            name = vector.snoop_filter.name
            assert _payload(vector) == _payload(_oracle_fed(name, _SPAN))

    @pytest.mark.parametrize("marker", [
        pytest.param(pack_event(MARKER, 0), id="warm-up"),
        pytest.param(pack_event(MARKER, 1, PHASE_FLAG), id="phase"),
    ])
    @pytest.mark.parametrize("size", GROUP_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_walk_stops_at_a_marker(self, filter_name, size, marker):
        events = array("q", [*_SPAN, marker, *_violation()])
        group = _group(filter_name, size)
        [(stop, spans)] = vector_replay.walk(
            [(group, events, 0, len(events))]
        )
        assert stop == len(_SPAN) and events[stop] == marker
        for vector, span in zip(group, spans):
            assert vector._take(events, span) == stop
            name = vector.snoop_filter.name
            assert _payload(vector) == _payload(_oracle_fed(name, _SPAN))

    @pytest.mark.parametrize("size", GROUP_SIZES)
    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_error_stop_flushes_through_the_violating_snoop(
        self, filter_name, size
    ):
        span = [*_SPAN, *_violation()]
        events = array("q", [pack_event(MARKER, 0), *span, _snoop(0x500)])
        group = _group(filter_name, size)
        [(_stop, spans)] = vector_replay.walk(
            [(group, events, 1, len(events))]
        )
        for vector, walked in zip(group, spans):
            name = vector.snoop_filter.name
            with pytest.raises(FilterSafetyError) as raised:
                vector._take(events, walked)
            oracle = EventReplayer(_single_filter(name), 0)
            with pytest.raises(FilterSafetyError) as expected:
                oracle.feed(span)
            assert str(raised.value) == str(expected.value)
            assert vars(vector.stats) == vars(oracle.stats)
            assert vector.stats.snoops == 7  # the violating snoop is tallied
            assert (vector.allocs, vector.evicts) == (
                oracle.allocs, oracle.evicts
            ) == (1, 1)

    def test_a_stopped_member_leaves_the_others_walking(self):
        """The EJ errs at the P1 snoop its entry filters; the IJ, whose
        lanes hold the block, walks on to the MARKER and beyond."""
        events = array("q", [
            pack_event(ALLOC, 0x40), _snoop(0x40),
            _snoop(0x40, present=True), *_SPAN, pack_event(MARKER, 0),
            *_SPAN,
        ])
        marker = 3 + len(_SPAN)
        ej, ij = group = [_vector("EJ-16x2"), _vector("IJ-8x4x7")]
        spans = vector_replay.walk_segment(group, events)
        assert [span[:2] for span in spans[ej]] == [(2, True)]
        assert [span[:2] for span in spans[ij]] == [
            (marker, False), (len(events), False)
        ]
        alone = _vector("IJ-8x4x7")
        assert spans[ij] == vector_replay.walk_segment([alone], events)[alone]

        # Through a shared segment: the first member fed walks it for
        # both and raises its own error; the other applies its walked
        # spans and finishes as if fed alone.
        ej, ij = group = [_vector("EJ-16x2"), _vector("IJ-8x4x7")]
        segment = PackedSegment(events, group)
        with pytest.raises(FilterSafetyError) as raised:
            ej.feed_segment(segment)
        assert f"block {0x40:#x}" in str(raised.value)
        ij.feed_segment(segment)
        assert segment.spans == {}
        alone = _vector("IJ-8x4x7")
        alone.feed_segment(PackedSegment(events))
        assert _payload(ij) == _payload(alone)

    @pytest.mark.parametrize("shape", sorted(FEED_SHAPES))
    def test_feed_accepts_every_event_shape(self, golden_streams, shape):
        """Sequences, generators, ``array('q')`` buffers and segments
        wrapping them all replay to the oracle's bytes, and a buffer the
        walk reads in place is left untouched."""
        filter_name = "HJ(IJ-8x4x7, VEJ-16x2-4)"
        events = list(golden_streams["vector-golden-mix"][0].events)
        batch = FEED_SHAPES[shape](events)
        vector = _vector(filter_name)
        vector.feed(batch)
        assert _payload(vector) == _payload(_oracle_fed(filter_name, events))
        if type(batch) is PackedSegment:
            batch = batch.events
        if type(batch) is array:
            assert batch == array("q", events)


#: A hybrid and the IJ of its include geometry: one lane set in a walk.
_SHARERS = ("HJ(IJ-8x4x7, EJ-16x2)", "IJ-8x4x7")

#: Event lists on which members of one lane set stop in each of three
#: ways, after the lanes have moved, or walk to the end; with the index
#: of the stop and the members it stops.  IJ-8x4x7 indexes lane j on
#: block bits [7j, 7j + 8).
_SHARED_STOPS = {
    # Both walk to the end, through a MARKER.
    "none": ([
        pack_event(ALLOC, 0x40), *_SPAN, pack_event(MARKER, 0), *_SPAN,
    ], None, ()),
    # The hybrid's EJ entry for 0x40 filters its P1 snoop; the IJ's
    # lanes hold the block, so it walks on past a MARKER.
    "exclude-side": ([
        pack_event(ALLOC, 0x40), _snoop(0x40), _snoop(0x40, present=True),
        *_SPAN, pack_event(ALLOC, 0x2), pack_event(MARKER, 0), *_SPAN,
        pack_event(EVICT, 0x2),
    ], 2, _SHARERS[:1]),
    # No lane counts 0x300: the lanes filter its P1 snoop for both.
    "lane-filtered-p1": ([
        pack_event(ALLOC, 0x40), *_SPAN, _snoop(0x300, present=True),
        pack_event(ALLOC, 0x300), _snoop(0x40),
    ], 1 + len(_SPAN), _SHARERS),
    # 0x101 shares lane 0's counter with 0x1 but not lane 1's: the evict
    # takes lane 0 down to zero, then underflows lane 1, for both.
    "underflow": ([
        pack_event(ALLOC, 0x1), *_SPAN, pack_event(EVICT, 0x101),
        pack_event(ALLOC, 0x101), _snoop(0x1),
    ], 1 + len(_SPAN), _SHARERS),
}


def _walked_alone(replayer_of, events) -> tuple:
    """A lone walk of ``events``: its spans, lanes bytes and totals."""
    alone = replayer_of()
    spans = vector_replay.walk_segment([alone], events)[alone]
    return spans, alone._lanes.tobytes(), alone._lane_totals.tolist()


@requires_native
class TestSharedLanes:
    """Members whose lanes have the same geometry and counters walk one
    lane set; each ends with its lone walk's spans, lanes bytes and lane
    totals, whichever stops first and in whichever group order."""

    @pytest.mark.parametrize("order", ["hybrid-first", "ij-first"])
    @pytest.mark.parametrize("stop", sorted(_SHARED_STOPS))
    def test_each_sharer_ends_as_if_alone(self, stop, order):
        events, at, stoppers = _SHARED_STOPS[stop]
        events = array("q", events)
        names = _SHARERS if order == "hybrid-first" else _SHARERS[::-1]
        group = [_vector(name) for name in names]
        spans = vector_replay.walk_segment(group, events)
        for name, member in zip(names, group):
            walked = (spans[member], member._lanes.tobytes(),
                      member._lane_totals.tolist())
            assert walked == _walked_alone(lambda: _vector(name), events)
            erred = [span[:2] for span in spans[member] if span[1]]
            assert erred == ([(at, True)] if name in stoppers else [])
        if stop == "underflow":
            assert group[0]._lanes[0x1] == 0  # lane 0 went down first

    def test_a_stopped_lane_set_leaves_the_others_walking(self):
        """IJ-10x4x7 alone filters the P1 snoop of a block differing from
        0x40 only in bit 29 (its lane 3 reads bits 21-30, IJ-8x4x7's
        21-28), so its lane set stops; the hybrid's walks on, and its
        verdicts still reach the hybrid's EJ."""
        names = ("IJ-10x4x7", _SHARERS[0])
        events = array("q", [
            pack_event(ALLOC, 0x40), _snoop(0x40 | 1 << 29, present=True),
            _snoop(0x300), _snoop(0x40), _snoop(0x300), *_SPAN,
        ])
        group = [_vector(name) for name in names]
        spans = vector_replay.walk_segment(group, events)
        for name, member in zip(names, group):
            walked = (spans[member], member._lanes.tobytes(),
                      member._lane_totals.tolist())
            assert walked == _walked_alone(lambda: _vector(name), events)
        assert [span[:2] for span in spans[group[0]]] == [(1, True)]
        assert not spans[group[1]][0][1]

    def test_unequal_counters_never_share(self):
        """Two IJs and a hybrid of one geometry, the second IJ restored
        from a warmed snapshot: the fresh pair shares lanes, the warmed
        IJ walks its own, and only the fresh ones stop at 0x300's P1."""
        warmer = _vector("IJ-8x4x7")
        warmer.feed([pack_event(ALLOC, 0x300), pack_event(ALLOC, 0x40)])
        state = warmer.snapshot()

        def warmed():
            replayer = _vector("IJ-8x4x7")
            replayer.restore(state)
            return replayer

        makers = [lambda: _vector(_SHARERS[1]), warmed,
                  lambda: _vector(_SHARERS[0])]
        events = array("q", [
            *_SPAN, _snoop(0x300, present=True), pack_event(EVICT, 0x300),
            _snoop(0x40, present=True),
        ])
        group = [make() for make in makers]
        spans = vector_replay.walk_segment(group, events)
        for make, member in zip(makers, group):
            walked = (spans[member], member._lanes.tobytes(),
                      member._lane_totals.tolist())
            assert walked == _walked_alone(make, events)
        assert [any(span[1] for span in spans[member]) for member in group
                ] == [True, False, True]


#: Blocks crowding a few sets of every ``PARITY_FILTERS`` geometry: the
#: EJ indexes on the low four bits and the VEJ on bits 2-5 (4-block
#: chunks), so both see repeats, conflicts and evictions within a set.
_RANDOM_BLOCKS = (0x0, 0x1, 0x4, 0x10, 0x11, 0x40, 0x44, 0x100, 0x104, 0x140)
_RANDOM_PHASES = ("p0", "p1", "p2")


@st.composite
def _random_feeds(draw):
    """A short random event list and the cut points of its batches.

    Snoops (flag bit 0 would-hit, bit 1 present: P0/P1), ALLOCs, EVICTs
    (an EVICT before its ALLOC underflows the IJ), warm-up MARKERs and
    PHASE markers, weighted towards snoops.
    """
    block = st.sampled_from(_RANDOM_BLOCKS)
    snoop = st.builds(
        lambda b, f: pack_event(SNOOP, b, f), block, st.integers(0, 3)
    )
    event = st.one_of(
        snoop,
        snoop,  # listed twice: snoops dominate real traces
        st.builds(lambda b: pack_event(ALLOC, b), block),
        st.builds(lambda b: pack_event(EVICT, b), block),
        st.just(pack_event(MARKER, 0)),
        st.builds(lambda i: pack_event(MARKER, i, PHASE_FLAG),
                  st.integers(0, len(_RANDOM_PHASES) - 1)),
    )
    events = draw(st.lists(event, max_size=48))
    cuts = draw(st.lists(st.integers(0, len(events)), max_size=4))
    return events, sorted(cuts)


def _feed_batches(replayer, events, cuts):
    """Feed ``events`` cut at ``cuts``; the first exception, or ``None``."""
    bounds = [0, *cuts, len(events)]
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            replayer.feed(events[lo:hi])
    except Exception as exc:  # compared against the oracle, not handled
        return exc
    return None


@requires_native
class TestRandomDifferential:
    """Random short streams over a few crowded sets, fed in random batch
    sizes: the vector kernel either encodes the oracle's evaluation
    byte for byte, or raises the oracle's first error (type and
    message) with the same flushed statistics."""

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    @given(feed=_random_feeds())
    # A snoop the IJ filtered leaves no EJ entry, so the next snoop of
    # its block is no repeat-hit: an ALLOC in another set (0x1) fills
    # the IJ counter 0x0 lacked, and the second snoop allocates.
    @example(feed=(
        [pack_event(ALLOC, 0x100), _snoop(0x0), pack_event(ALLOC, 0x1),
         _snoop(0x0)],
        [],
    ))
    # A repeat-hit before a violation must count as filtered in the
    # statistics flushed on the raise.
    @example(feed=(
        [_snoop(0x40), _snoop(0x40), _snoop(0x40, present=True)], [],
    ))
    # A P1 snoop hitting a VEJ chunk (another of its blocks recorded
    # absent) still touches the set's LRU order, so the next conflict
    # evicts the other chunk and 0x0 stays filtered.
    @example(feed=(
        [_snoop(0x0), _snoop(0x40), _snoop(0x1, present=True),
         _snoop(0x100), _snoop(0x0)],
        [],
    ))
    # An IJ-filtered P1 snoop (0x0's lane-1 counter is still zero) and
    # an underflowing EVICT (0x4's lane-0 counter) in one span, in both
    # orders: whichever comes first in the stream raises.
    @example(feed=(
        [pack_event(ALLOC, 0x100), _snoop(0x40),
         _snoop(0x0, present=True), pack_event(EVICT, 0x4)],
        [],
    ))
    @example(feed=(
        [pack_event(ALLOC, 0x100), _snoop(0x40), pack_event(EVICT, 0x4),
         _snoop(0x0, present=True)],
        [],
    ))
    @settings(max_examples=60, deadline=None)
    def test_vector_kernel_matches_oracle(self, filter_name, feed):
        events, cuts = feed
        oracle = EventReplayer(_single_filter(filter_name), 2, _RANDOM_PHASES)
        vector = vector_replay.replayer_for(
            _single_filter(filter_name), 2, _RANDOM_PHASES
        )
        assert vector is not None
        e1 = _feed_batches(oracle, events, cuts)
        e2 = _feed_batches(vector, events, cuts)
        if e1 is None and e2 is None:
            assert store_mod.encode_eval(vector.finish()) == (
                store_mod.encode_eval(oracle.finish())
            )
            return
        assert (type(e2), str(e2)) == (type(e1), str(e1))
        assert vars(vector.stats) == vars(oracle.stats)
        assert (vector.allocs, vector.evicts) == (
            oracle.allocs, oracle.evicts
        )


#: The paper's 21 configurations, every one a compiled family.
PAPER_FILTERS = (
    PAPER_EJ_NAMES + PAPER_VEJ_NAMES + PAPER_IJ_NAMES + PAPER_HJ_NAMES
)

#: Blocks that share the low bits every paper geometry indexes on, so
#: EJ sets, VEJ chunks and IJ counters all see repeats and conflicts.
_GROUP_BLOCKS = (0x0, 0x1, 0x8, 0x20, 0x40, 0x101, 0x400, 0x1000, 0x2008)

#: Stream steps, weighted towards snoops; the last two are faults.
_GROUP_STEPS = (
    *["snoop"] * 8, *["alloc"] * 3, *["evict"] * 3, "warm-up", "phase",
    "unsafe-snoop", "underflow",
)


@st.composite
def _group_replays(draw):
    """Two nodes' packed streams cut into segments, and a bank order,
    which often holds a hybrid and the IJ of its include geometry.

    Each node's stream follows its own cache: an ALLOC brings a block
    in, an EVICT takes it out, and a snoop's present bit says whether
    it is cached.  Faults are rare: a present-bit snoop of a block not
    cached (a safety violation wherever the filter filters it) and an
    EVICT of one (an IJ underflow where its counters are zero).  Warm-up
    and PHASE markers fall anywhere.
    """
    nodes = []
    for _node in range(2):
        cached, events = set(), []
        steps = draw(st.lists(
            st.tuples(st.sampled_from(_GROUP_STEPS),
                      st.sampled_from(_GROUP_BLOCKS), st.booleans()),
            min_size=10, max_size=80,
        ))
        for step, block, flag in steps:
            if step == "snoop":
                events.append(_snoop(block, would_hit=flag,
                                     present=block in cached))
            elif step == "alloc" and block not in cached:
                cached.add(block)
                events.append(pack_event(ALLOC, block))
            elif step == "evict" and block in cached:
                cached.discard(block)
                events.append(pack_event(EVICT, block))
            elif step == "warm-up":
                events.append(pack_event(MARKER, 0))
            elif step == "phase":
                events.append(pack_event(
                    MARKER, block % len(_RANDOM_PHASES), PHASE_FLAG
                ))
            elif step == "unsafe-snoop" and block not in cached:
                events.append(_snoop(block, present=True))
            elif step == "underflow" and block not in cached:
                events.append(pack_event(EVICT, block))
        cuts = sorted(draw(st.lists(st.integers(0, len(events)),
                                    max_size=3)))
        bounds = [0, *cuts, len(events)]
        nodes.append([array("q", events[lo:hi])
                      for lo, hi in zip(bounds, bounds[1:])])
    names = draw(st.lists(st.sampled_from(PAPER_FILTERS), min_size=1,
                          max_size=6, unique=True))
    if draw(st.booleans()):
        # A hybrid and the IJ of its include geometry: one lane set.
        hybrid = draw(st.sampled_from(PAPER_HJ_NAMES))
        pair = [hybrid, hybrid[len("HJ("):hybrid.index(",")]]
        names = draw(st.permutations(
            [*pair, *(name for name in names if name not in pair)]
        ))
    return nodes, names


def _reader(nodes) -> TraceReader:
    return TraceReader([len(segments) for segments in nodes],
                       lambda node_id, index: nodes[node_id][index])


def _bank(filter_name, oracle=False) -> StreamingFilterBank:
    with oracle_replay(oracle):
        return StreamingFilterBank(
            [_single_filter(filter_name) for _node in range(2)],
            phase_names=_RANDOM_PHASES,
        )


def _alone(filter_name, nodes, oracle=False):
    """Replay ``nodes`` through one bank: ``(bank, None)`` when it
    finishes, else ``(bank, (segment position, node, exception))`` at its
    first error."""
    bank = _bank(filter_name, oracle)
    for position, (node_id, events) in enumerate(_reader(nodes)):
        try:
            bank.feed_node(node_id, PackedSegment(events))
        except (FilterSafetyError, CoherenceError) as exc:
            return bank, (position, node_id, exc)
    return bank, None


def _stats(replayer) -> tuple:
    return vars(replayer.stats), replayer.allocs, replayer.evicts


@requires_native
class TestGroupReplay:
    """``replay_trace`` walks each segment once through every compiled
    bank, and each bank ends as if it had been replayed alone: the same
    evaluation bytes, or the same first error in (segment, bank) order
    with the erring bank's statistics flushed as its lone walk's."""

    @given(replay=_group_replays())
    @settings(max_examples=100, deadline=None)
    def test_group_equals_each_filter_alone(self, replay):
        nodes, names = replay
        alone = [_alone(name, nodes) for name in names]
        banks = [_bank(name) for name in names]
        try:
            replay_trace(_reader(nodes), banks)
        except (FilterSafetyError, CoherenceError) as exc:
            raised = exc
        else:
            raised = None
        errors = [
            (error[0], index, error)
            for index, (_bank_alone, error) in enumerate(alone) if error
        ]
        if not errors:
            assert raised is None
            for name, bank, (bank_alone, _none) in zip(names, banks, alone):
                payload = store_mod.encode_eval(bank.finish())
                assert payload == store_mod.encode_eval(bank_alone.finish())
                oracle, _none = _alone(name, nodes, oracle=True)
                assert payload == store_mod.encode_eval(oracle.finish())
            return
        _position, first, (_at, node_id, expected) = min(errors)
        assert (type(raised), str(raised)) == (type(expected), str(expected))
        assert _stats(banks[first].replayers[node_id]) == (
            _stats(alone[first][0].replayers[node_id])
        )

    @given(replay=_group_replays())
    @settings(max_examples=100, deadline=None)
    def test_every_member_walks_as_if_alone(self, replay):
        """Each member's walked spans, segment by segment, equal its
        lone walk's, while other members stop at their errors around
        it; a member stops walking at its own first error."""
        nodes, names = replay

        def walked(together: bool) -> list:
            spans = []
            for segments in nodes:
                walking = [_vector(name) for name in names]
                node_spans = {replayer: [] for replayer in walking}
                for events in segments:
                    if together:
                        result = vector_replay.walk_segment(walking, events)
                    else:
                        result = {
                            replayer: vector_replay.walk_segment(
                                [replayer], events
                            )[replayer]
                            for replayer in walking
                        }
                    for replayer in walking:
                        node_spans[replayer] += result[replayer]
                    walking = [
                        replayer for replayer in walking
                        if not any(span[1] for span in result[replayer])
                    ]
                spans.append(list(node_spans.values()))
            return spans

        assert walked(together=True) == walked(together=False)

    @pytest.mark.parametrize("order", ["ij-first", "ej-first"])
    def test_the_first_bank_in_bank_order_raises(self, order):
        """The EJ errs at event 2 and the IJ at event 4 of one segment:
        whichever bank comes first raises its own error, with its
        statistics flushed as its lone walk's, as when every bank
        walked the segment in turn."""
        events = array("q", [
            pack_event(ALLOC, 0x40), _snoop(0x40),
            _snoop(0x40, present=True),      # the EJ's entry filters it
            _snoop(0x80), pack_event(EVICT, 0x123),  # the IJ underflows
            _snoop(0x300),
        ])
        names = ["IJ-10x4x7", "EJ-32x4"]
        if order == "ej-first":
            names.reverse()
        nodes = [[events], [array("q")]]
        banks = [_bank(name) for name in names]
        with pytest.raises((FilterSafetyError, CoherenceError)) as raised:
            replay_trace(_reader(nodes), banks)
        bank_alone, (_position, node_id, expected) = _alone(names[0], nodes)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)
        assert "underflow" in str(expected) or "0x40 on node 0" in str(
            expected
        )
        assert _stats(banks[0].replayers[node_id]) == (
            _stats(bank_alone.replayers[node_id])
        )


@requires_native
class TestWarmStartParity:
    """Restoring a warmed snapshot into fresh filters (what checkpoint
    resume does) must reproduce the cold full-stream feed byte for byte,
    on the oracle and on the vector kernels alike."""

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_fast_forward_equals_full_feed(self, golden_streams, filter_name):
        marker = pack_event(MARKER, 0)
        for streams in golden_streams.values():
            for node_id, stream in enumerate(streams[:2]):
                events = list(stream.events)
                cut = events.index(marker) + 1
                warm, measured = events[:cut], events[cut:]

                full = EventReplayer(_single_filter(filter_name), node_id)
                full.feed(list(events))
                expected = store_mod.encode_eval(full.finish())

                # Warm through the MARKER (stats reset, state kept),
                # snapshot, restore into fresh filters — the filter half
                # of a checkpoint resume.
                warmer = EventReplayer(_single_filter(filter_name), node_id)
                warmer.feed(list(warm))
                state = warmer.snoop_filter.snapshot()

                for make in (EventReplayer, vector_replay.replayer_for):
                    fresh = _single_filter(filter_name)
                    fresh.restore(state)
                    replayer = make(fresh, node_id)
                    assert replayer is not None
                    replayer.feed(list(measured))
                    assert store_mod.encode_eval(replayer.finish()) == (
                        expected
                    ), (filter_name, node_id, make)


def _buffers(snoop_filter) -> dict:
    """Where each of a filter's storage buffers lives: name -> the
    buffer's ``(address, length)``."""
    parts = {"": snoop_filter}
    if type(snoop_filter) is HybridJetty:
        parts = {"include.": snoop_filter.include,
                 "exclude.": snoop_filter.exclude}
    return {
        prefix + name: getattr(part, name).buffer_info()
        for prefix, part in parts.items()
        for name in ("_lanes", "_rows", "_fill", "_vecs")
        if hasattr(part, name)
    }


def _priced(state: dict) -> dict:
    """A replayer snapshot less what no evaluation reads: a hybrid's
    component probe and filtered counts.  The walk tallies the hybrid's
    lookups, which :meth:`HybridJetty.energy_counts` prices, and not
    each component's."""
    state = copy.deepcopy(state)
    parts = state["filter"]["state"]
    if "include" in parts:
        for part in (parts["include"], parts["exclude"]):
            del part["counts"]["probes"], part["counts"]["filtered"]
    return state


@requires_native
class TestAdoptedBuffers:
    """A compiled replayer walks its filter's own buffers, which the
    filter's Python methods (the oracle) work on too: no copy in either
    direction, so the two can take turns on one filter."""

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_walk_reads_the_filters_buffers(self, filter_name):
        snoop_filter = _single_filter(filter_name)
        replayer = vector_replay.replayer_for(snoop_filter, 0)
        context = replayer._context
        for name, (address, _length) in _buffers(snoop_filter).items():
            field = {"_lanes": "lanes", "_rows": "rows", "_fill": "fill",
                     "_vecs": "vecs"}[name.rpartition(".")[2]]
            assert getattr(context, field) == address, name

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_oracle_and_walk_take_turns_on_one_filter(
        self, golden_streams, filter_name
    ):
        """Fed alternately through its Python methods and the compiled
        walk, handing over by snapshot and in-place restore, one filter
        ends with an all-oracle run's snapshot (:func:`_priced`) and
        evaluation bytes, on the buffers it was built with."""
        chunk = 97
        for streams in golden_streams.values():
            for node_id, stream in enumerate(streams[:2]):
                events = list(stream.events)
                oracle = EventReplayer(_single_filter(filter_name), node_id)
                oracle.feed(events)
                shared = _single_filter(filter_name)
                buffers = _buffers(shared)
                turns = [EventReplayer(shared, node_id),
                         vector_replay.replayer_for(shared, node_id)]
                for turn, lo in enumerate(range(0, len(events), chunk)):
                    replayer = turns[turn % 2]
                    if turn:
                        replayer.restore(turns[1 - turn % 2].snapshot())
                    replayer.feed(events[lo:lo + chunk])
                assert turn >= 3
                assert _buffers(shared) == buffers
                assert _priced(replayer.snapshot()) == (
                    _priced(oracle.snapshot())
                )
                assert store_mod.encode_eval(replayer.finish()) == (
                    store_mod.encode_eval(oracle.finish())
                ), (filter_name, node_id)


# ----------------------------------------------------------------------
# Checkpoints: one snapshot format, restorable under either kernel
# ----------------------------------------------------------------------

def _oracle_replayer(filter_name, node_id, names):
    return EventReplayer(_single_filter(filter_name), node_id, names)


def _vector_replayer(filter_name, node_id, names):
    replayer = vector_replay.replayer_for(
        _single_filter(filter_name), node_id, names
    )
    assert replayer is not None
    return replayer


def _cuts(events) -> dict[str, int]:
    """Snapshot positions around one node's warm-up and PHASE markers."""
    warm = events.index(pack_event(MARKER, 0))
    phases = [
        index for index, event in enumerate(events)
        if event & 0b11 == MARKER and event & 0b1100
    ]
    assert len(phases) >= 2 and warm < phases[0]
    return {
        "in warm-up": warm // 2,
        "right after the warm-up MARKER": warm + 1,
        "inside the first phase": (phases[0] + phases[1]) // 2,
        "right after the second PHASE marker": phases[1] + 1,
        "near the end": len(events) - 7,
    }


@requires_native
class TestSnapshotRoundTrip:
    """A vector replayer's snapshot is the oracle's checkpoint format:
    taken mid-stream by either kernel and restored into a fresh replayer
    of either kernel, the continued replay finishes with the oracle's
    uninterrupted payload."""

    KERNELS = {"python": _oracle_replayer, "numpy": _vector_replayer}

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_every_kernel_pair_resumes_to_the_oracle(
        self, suite_streams, filter_name
    ):
        names = SUITE_SPEC.phase_names()
        for node_id, stream in enumerate(suite_streams[:2]):
            events = list(stream.events)
            full = _oracle_replayer(filter_name, node_id, names)
            full.feed(events)
            expected = store_mod.encode_eval(full.finish())
            for where, cut in _cuts(events).items():
                for writer, make_writer in self.KERNELS.items():
                    before = make_writer(filter_name, node_id, names)
                    before.feed(events[: cut // 2])
                    before.feed(events[cut // 2 : cut])
                    state = store_mod.decode_checkpoint(
                        store_mod.encode_checkpoint(before.snapshot())
                    )
                    for reader, make_reader in self.KERNELS.items():
                        after = make_reader(filter_name, node_id, names)
                        after.restore(state)
                        after.feed(events[cut:])
                        assert store_mod.encode_eval(after.finish()) == (
                            expected
                        ), (filter_name, node_id, where, writer, reader)

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_snapshot_has_the_oracle_shape(self, suite_streams, filter_name):
        """Same keys, totals and phase marks; the filter snapshot prices
        the same energy counts (way placement is free to differ)."""
        names = SUITE_SPEC.phase_names()
        events = list(suite_streams[0].events)
        cut = _cuts(events)["right after the second PHASE marker"]
        states = []
        for make in self.KERNELS.values():
            replayer = make(filter_name, 0, names)
            replayer.feed(events[:cut])
            states.append(replayer.snapshot())
        oracle, vector = states
        assert vector.keys() == oracle.keys() and "phases" in vector
        for key in ("stats", "allocs", "evicts", "phases"):
            assert vector[key] == oracle[key], key
        counts = []
        for state in states:
            restored = _single_filter(filter_name)
            restored.restore(state["filter"])
            counts.append(vars(restored.energy_counts()))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_vector_snapshot_is_idempotent(self, suite_streams, filter_name):
        """Restoring a vector snapshot and snapshotting again changes
        nothing, and snapshotting never disturbs the running replay."""
        events = list(suite_streams[1].events)
        cut = _cuts(events)["inside the first phase"]
        replayer = _vector_replayer(filter_name, 1, ())
        replayer.feed(events[:cut])
        state = replayer.snapshot()
        clone = _vector_replayer(filter_name, 1, ())
        clone.restore(state)
        assert clone.snapshot() == state
        replayer.feed(events[cut:])
        clone.feed(events[cut:])
        assert store_mod.encode_eval(clone.finish()) == (
            store_mod.encode_eval(replayer.finish())
        )


# ----------------------------------------------------------------------
# Kernel / fallback selection
# ----------------------------------------------------------------------

class TestKernelSelection:
    def test_oracle_banks_never_vectorise(self, oracle_banks):
        for name in PARITY_FILTERS:
            bank = StreamingFilterBank(
                runner._build_filters(name, SCALED_SYSTEM)
            )
            assert all(type(r) is EventReplayer for r in bank.replayers), name

    @pytest.mark.parametrize("filter_name", PARITY_FILTERS)
    def test_degrades_without_the_native_core(self, monkeypatch, filter_name):
        monkeypatch.setattr(_cmachine, "_lib", None)
        bank = StreamingFilterBank(
            runner._build_filters(filter_name, SCALED_SYSTEM)
        )
        assert all(type(r) is EventReplayer for r in bank.replayers)

    @requires_native
    def test_vectorises_supported_families(self):
        for name in PARITY_FILTERS:
            bank = StreamingFilterBank(
                runner._build_filters(name, SCALED_SYSTEM)
            )
            assert all(
                not isinstance(r, EventReplayer) for r in bank.replayers
            ), name

    @requires_native
    def test_order_sensitive_families_fall_back(self):
        """Families the kernels do not cover use the per-event oracle."""
        for name in ("null", "oracle", "HIJ-10x2"):
            bank = StreamingFilterBank(
                runner._build_filters(name, SCALED_SYSTEM)
            )
            assert all(type(r) is EventReplayer for r in bank.replayers), name

    @requires_native
    def test_subclasses_fall_back(self):
        """Exact-type dispatch: a subclass may override anything the
        kernels hard-code, so it must not be silently vectorised."""
        class Tweaked(ExcludeJetty):
            pass

        assert vector_replay.replayer_for(Tweaked(16, 2), 0) is None

    @requires_native
    def test_oversized_geometries_vectorise(self, golden_streams):
        """IJ lanes of any index space, lanes whose field starts past bit
        63 (lanes 10 and 11 of IJ-4x12x7 start at bits 70 and 77) and
        exclude structures of any set count compile, with the oracle's
        payload; VEJ vectors wider than the walk's ``uint64`` take the
        oracle."""
        events = list(golden_streams["vector-golden-mix"][0].events)
        for make in (
            lambda: _single_filter("IJ-17x1x7"),
            lambda: _single_filter("HJ(IJ-17x1x7, EJ-16x2)"),
            lambda: _single_filter("IJ-4x12x7"),
            lambda: _single_filter("HJ(IJ-4x12x7, EJ-16x2)"),
            lambda: ExcludeJetty(1 << 17, 1),
        ):
            oracle = EventReplayer(make(), 0)
            vector = vector_replay.replayer_for(make(), 0)
            assert vector is not None
            for replayer in (oracle, vector):
                replayer.feed(events)
            assert store_mod.encode_eval(vector.finish()) == (
                store_mod.encode_eval(oracle.finish())
            )
        for name in ("VEJ-16x2-128", "HJ(IJ-8x4x7, VEJ-16x2-128)"):
            assert vector_replay.replayer_for(_single_filter(name), 0) is None


# ----------------------------------------------------------------------
# The native core's loader
# ----------------------------------------------------------------------

class TestCompiledMachineLoader:
    def test_loads_wherever_a_compiler_exists(self):
        """Fails rather than skips: a host with ``cc`` must never run
        only the oracle and the Python codec without anyone noticing."""
        if shutil.which("cc") is None:
            return
        lib = _cmachine.library()
        assert lib is not None
        for name in ("walk", "delta_encode", "delta_decode"):
            assert hasattr(lib, name), name

    def test_malformed_filter_state_is_typed(self):
        """Filters refuse, on restore, state the walk would overrun with
        an :class:`InvariantError`, never a bare ``ValueError``."""
        short = _single_filter("IJ-8x4x7")
        state = short.snapshot()
        state["state"]["lanes"] = [0] * (255 * 4)
        with pytest.raises(InvariantError, match="malformed lanes"):
            short.restore(state)
        for name in ("EJ-16x2", "VEJ-16x2-4"):
            crowded = _single_filter(name)
            state = crowded.snapshot()
            state["state"]["rows"] = state["state"]["rows"][:-1]
            with pytest.raises(InvariantError, match="malformed sets"):
                crowded.restore(state)
        hybrid = _single_filter("HJ(IJ-8x4x7, EJ-16x2)")
        state = hybrid.snapshot()
        state["state"]["exclude"]["state"]["rows"][0] = [1, 2, 3]
        with pytest.raises(InvariantError, match="malformed sets"):
            hybrid.restore(state)

    def test_broken_compiler_falls_back(
        self, monkeypatch, tmp_path, caplog, golden_streams
    ):
        monkeypatch.setattr(
            _cmachine, "compiler", lambda: [str(tmp_path / "no-cc")]
        )
        monkeypatch.setattr(_cmachine, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(_cmachine, "_lib", _cmachine._UNLOADED)
        streams = golden_streams["vector-golden-mix"]
        with caplog.at_level(logging.WARNING, logger="repro.cmachine"):
            payloads = {
                name: _replay_bytes(name, streams, 1 << 18)
                for name in PARITY_FILTERS
            }
        assert _cmachine._lib is None
        warnings = [r for r in caplog.records if r.name == "repro.cmachine"]
        assert len(warnings) == 1
        assert "no-cc" in warnings[0].getMessage()
        for name, payload in payloads.items():
            assert payload == _replay_bytes(
                name, streams, 1 << 18, oracle=True
            )

    @pytest.mark.skipif(shutil.which("cc") is None, reason="needs cc")
    def test_second_load_reuses_the_cached_library(self, monkeypatch, tmp_path):
        builds = []
        build = _cmachine._build
        monkeypatch.setattr(
            _cmachine, "_build",
            lambda *args: builds.append(args) or build(*args),
        )
        assert _cmachine.load(tmp_path) is not None
        assert _cmachine.load(tmp_path) is not None
        assert len(builds) == 1
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


# ----------------------------------------------------------------------
# Runner wiring: default and oracle banks end to end, identical rows
# ----------------------------------------------------------------------

class TestRunnerKernelWiring:
    WORKLOAD = "vector-golden-mix"

    @pytest.fixture(autouse=True)
    def _workloads(self, golden_streams):
        """Reuse the module-scoped golden registration."""

    def test_streamed_rows_are_kernel_invariant(self):
        """Live banks run the default replayers: they and the oracle
        store the same bytes at every chunk size, phase splits included."""
        filters = (
            *runner.DEFAULT_SWEEP_FILTERS, "HJ(IJ-10x4x7, VEJ-32x4-8)",
        )
        specs = {self.WORKLOAD: WORKLOADS[self.WORKLOAD],
                 SUITE_SPEC.name: SUITE_SPEC}
        dumps = {}
        for oracle in (True, False):
            for chunk in (512, 1_777):
                store = ExperimentStore()
                with oracle_replay(oracle):
                    runner.execute(
                        [runner.SweepJob(spec, filters, SCALED_SYSTEM, 1,
                                         chunk)
                         for spec in specs.values()],
                        mode="stream", experiment_store=store,
                        backend="serial",
                    )
                dumps[oracle, chunk] = store.dump()
                for name in filters:
                    phases = store.get_eval(store_mod.eval_key(
                        SUITE_SPEC, name, SCALED_SYSTEM, 1
                    )).phases
                    assert set(phases) == set(SUITE_SPEC.phase_names())
                store.close()
        reference = dumps[True, 512]
        assert len(reference) == len(specs) * (len(filters) + 1)
        for run, dump in dumps.items():
            assert dump == reference, run

    @requires_native
    def test_replay_sweep_rows_are_kernel_invariant(self, tmp_path):
        rows = {}
        for oracle in (True, False):
            store = ExperimentStore(tmp_path / f"oracle-{oracle}.sqlite")
            with oracle_replay(oracle):
                runner.run_sweep(
                    (self.WORKLOAD,), PARITY_FILTERS,
                    experiment_store=store, replay=True, backend="serial",
                )
            rows[oracle] = {
                e.key: store.get_blob(e.key)
                for e in store.entries() if e.kind == "eval"
            }
            store.close()
        assert rows[True] == rows[False]
        assert len(rows[True]) == len(PARITY_FILTERS)


#: A small replay sweep over one member of each compiled family.
_SWEEP_FILTERS = ["EJ-32x4", "VEJ-32x4-8", "IJ-10x4x7", "HJ(IJ-10x4x7, EJ-32x4)"]
_SWEEP_ARGS = [
    "sweep", "--workers", "1", "--workloads", "lu",
    "--filters", *_SWEEP_FILTERS, "--accesses", "10000", "--warmup", "3000",
]


def _cli_sweep(store, prologue: str, epilogue: str = "") -> dict:
    """Run ``_SWEEP_ARGS`` into ``store`` in a fresh interpreter, with
    ``prologue`` run before anything imports; the stored eval rows."""
    script = textwrap.dedent(prologue) + textwrap.dedent(f"""
        from repro.cli import main
        assert main(["--store", {str(store)!r}, *{_SWEEP_ARGS!r}]) == 0
    """) + textwrap.dedent(epilogue)
    path = [str(Path(_cmachine.__file__).parents[2])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    with sqlite3.connect(store) as db:
        return dict(db.execute(
            "SELECT key, payload FROM results WHERE kind = 'eval'"
        ).fetchall())


@requires_native
def test_core_package_loads_the_replayers():
    """A first ``StreamingFilterBank`` pays no module load: the package
    import brings ``vector_replay`` in, so its import in the bank's
    ``__init__`` (kept there for the import cycle) finds it loaded."""
    path = [str(Path(_cmachine.__file__).parents[2])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro.core.stats; "
         "assert 'repro.core.vector_replay' in sys.modules"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


class TestNumpyOffTheResultPath:
    """Nothing in the package imports NumPy: a replay sweep runs the same
    compiled kernels, and stores the oracle's bytes, when it cannot be
    imported, and never imports it when it can."""

    def test_sweep_without_numpy_matches_the_oracle(self, tmp_path):
        compiled = _cli_sweep(tmp_path / "no-numpy.sqlite", f"""
            import sys
            sys.modules["numpy"] = None
            from repro.analysis import runner
            from repro.coherence.config import SCALED_SYSTEM
            from repro.core import vector_replay
            for name in {_SWEEP_FILTERS!r}:
                for node, f in enumerate(
                    runner._build_filters(name, SCALED_SYSTEM)
                ):
                    replayer = vector_replay.replayer_for(f, node)
                    assert type(replayer) is vector_replay.VectorReplayer
        """)
        oracle = _cli_sweep(tmp_path / "oracle.sqlite", """
            from repro.core import _cmachine
            _cmachine._lib = None
        """)
        assert len(compiled) == 4
        assert compiled == oracle

    def test_sweep_never_imports_numpy(self, tmp_path):
        _cli_sweep(tmp_path / "default.sqlite", "", """
            import sys
            assert "numpy" not in sys.modules
        """)
