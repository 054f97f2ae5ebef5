"""Compiled replay for the JETTY filter families.

The per-event loop in :class:`repro.core.stats.EventReplayer` pays the
full interpreter dispatch price — decode, probe call, hook call — for
every packed event.  On snoop-dense traces (em3d-class) that loop is the
replay bottleneck.  The replayers here hand a whole packed segment to
``walk`` in ``machine.c`` instead: the segment's ``array('q')`` buffer
itself, no copy, walked in stream order through the filters' state.

One walk serves a whole *group* of replayers: every compiled replayer
registered on a shared :class:`~repro.core.stats.PackedSegment` (the
node's replayers of every bank fed the events, live or replaying:
:func:`~repro.core.stats.shared_segment`).  Events are the outer loop
and filters the inner one, so each event is decoded and its tallies
counted once, however many filters walk it.  Within an event, each
distinct *lane set* steps once: members whose IJ lanes have the same
geometry and the same counters when the walk begins — an IJ and the
hybrids built on it — share one, because an IJ's counters change only
on the node's allocs and evicts.  The exclude machines then step in one
run per family.  Whichever member is fed first walks the segment for
all of them; each member then applies its own spans.  A replayer fed
alone — a test, a bank of the only filter fed — is a group of one, on
the same walk and the same path.

One native call walks a whole *round*: one segment per node, each with
its node's group (a live chunk's node shards, or a slice of a trace's
segment k of every node: :func:`~repro.core.stats.share_round`).  The
first member fed any segment of the round walks them all
(:func:`walk_shared`, :func:`walk_round`; :func:`walk_segment` is the
round of one).  Nodes share no buffer, so ``walk`` in ``machine.c``
walks each node's group on its own thread, up to
:func:`~repro.core._cmachine.thread_budget` — the CPUs for a process's
main thread, one in a pool worker — and each group walks exactly as it
would alone: the thread count never changes a byte.

**Exactness contract.**  A vector replayer is *not* an approximation:
for every supported filter family it reproduces the oracle
(:class:`EventReplayer` driving the real filter object) bit for bit —
the same :class:`~repro.core.stats.FilterEvaluation` payload, the same
exception type, message, and flushed statistics on a safety violation or
IJ counter underflow.  The oracle-parity suite
(``tests/test_vector_replay.py``) pins this against every golden store.

One walk serves every family.  An IJ is its counter lanes: each alloc
adds one per sub-array and each evict takes one away, stopping at the
first underflow.  An EJ or VEJ is one exclude *machine*: a stack machine
for the EJ (each set a bounded MRU-first list of valid blocks) and a
vector machine for the VEJ (each set its valid chunks LRU-first with
their presence vectors).  That is the whole *observable* state of a set
— way indexes are never reported — and the filters store nothing
else.  An HJ is both: the lanes' verdict
reaches the exclude machine, and a snoop is filtered when either side
filters it.  The walk returns at each MARKER.  A filter stops at its
first safety violation or underflow, with its tallies up to and
including that event, while the rest of its group walks on; an
underflow stops every sharer of the lane set at that event, with the
same partial decrement, and a stopper's lanes stay as its stop left
them.  So each member's flushed statistics and lanes match a lone
walk's, and the oracle's, exactly, and the first error raised is the
first member's to apply its spans — in a round, node then bank, so in a
replay the first in the trace reader's order.  After every span the
lanes' totals are checked against the allocs and evicts walked
(:class:`~repro.errors.InvariantError` on a break).

There is no import and no export: every filter keeps its state in the
walk's own layout (an EJ's MRU-first rows and fill counts, a VEJ's
LRU-first rows and presence vectors, an IJ's flat lanes), its Python
methods — the oracle — work on those buffers, and a replayer points
its walk context at them as they are.  A checkpoint restore writes the
filter's buffers in place, so the addresses hold, and
:meth:`VectorReplayer.snapshot` is the filter's own snapshot: one
format whichever kernel wrote or reads it.

Everything else (hashed-include, null filters, subclasses, VEJ vectors
wider than the walk's ``uint64``) falls back to the per-event loop —
selection happens in :func:`replayer_for`, which every
:class:`~repro.core.stats.StreamingFilterBank` asks per node and which
returns ``None`` for unsupported filters.  Without the native core
(:func:`repro.core._cmachine.library` returns ``None``) it returns
``None`` for every filter and every bank runs the oracle; the parity
tests reach the oracle through that same seam, by setting
``_cmachine._lib`` to ``None``.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import replace

from repro.core import _cmachine
from repro.core.base import FilterEventCounts, SnoopFilter
from repro.core.exclude import ExcludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.include import IncludeJetty
from repro.core.stats import (
    CoverageStats,
    EVICT,
    MARKER,
    PackedSegment,
    Replayer,
)
from repro.core.vector_exclude import VectorExcludeJetty
from repro.errors import CoherenceError, FilterSafetyError, InvariantError

#: The walk holds each VEJ presence vector in one ``uint64``.
_MAX_VECTOR_BITS = 64


def replayer_for(snoop_filter: SnoopFilter, node_id: int, phase_names=()):
    """A compiled replayer for ``snoop_filter``, or ``None`` to fall back.

    Selection is deliberately exact-type-based: a *subclass* of a
    supported family may override behaviour the walk hard-codes, and
    silently compiling it would break the byte-parity contract.
    """
    if _cmachine.library() is None:
        return None
    kind = type(snoop_filter)
    if kind is IncludeJetty:
        return VectorReplayer(snoop_filter, node_id, phase_names)
    exclude = snoop_filter
    if kind is HybridJetty:
        if type(snoop_filter.include) is not IncludeJetty:
            return None
        exclude = snoop_filter.exclude
    if type(exclude) is ExcludeJetty or (
        type(exclude) is VectorExcludeJetty
        and exclude.vector_bits <= _MAX_VECTOR_BITS
    ):
        return VectorReplayer(snoop_filter, node_id, phase_names)
    return None


class WalkContext(ctypes.Structure):
    """One filter as the native ``walk`` sees it (``walk_ctx`` in
    ``repro/core/machine.c``): where it reports, and the flat buffers
    of the filter's IJ lanes and exclude structure."""

    _fields_ = [
        ("out", ctypes.c_void_p),
        ("lanes", ctypes.c_void_p),
        ("lane_totals", ctypes.c_void_p),
        *((name, ctypes.c_int64) for name in ("n_arrays", "skip", "lane_mask")),
        ("rows", ctypes.c_void_p),
        ("vecs", ctypes.c_void_p),
        ("fill", ctypes.c_void_p),
        *((name, ctypes.c_int64)
          for name in ("ways", "set_mask", "vshift", "vmask")),
    ]


class VectorReplayer(Replayer):
    """IJ, EJ, VEJ and HJ replay on the compiled walk.

    Mirrors the :class:`~repro.core.stats.EventReplayer` surface
    (``feed`` / ``feed_segment`` / ``finish`` / ``snapshot`` /
    ``restore``) so :class:`~repro.core.stats.StreamingFilterBank` can
    hold either interchangeably, live or replaying.  The walk updates
    the wrapped filter's own buffers in place — there is no import at
    construction and no export for a snapshot — but never calls the
    filter's methods.  The replayer synthesises the
    :class:`FilterEventCounts` itself (``filtered``/``probes`` count the
    filter, ``entry_writes`` the exclude structure, ``cnt_updates``/
    ``pbit_writes`` the lanes: exactly the composition of
    :meth:`repro.core.hybrid.HybridJetty.energy_counts`) and hands them
    to the filter for a snapshot, which is then the filter's own, in
    exactly the oracle's checkpoint shape.
    """

    def __init__(
        self, snoop_filter: SnoopFilter, node_id: int, phase_names=()
    ) -> None:
        super().__init__(snoop_filter, node_id, phase_names)
        self.counts = FilterEventCounts()
        #: The walk's span results (see ``walk`` in ``machine.c``).
        self._out = array("q", bytes(8 * 8))
        kind = type(snoop_filter)
        include = exclude = None
        if kind is HybridJetty:
            include, exclude = snoop_filter.include, snoop_filter.exclude
        elif kind is IncludeJetty:
            include = snoop_filter
        else:
            exclude = snoop_filter
        self._include, self._exclude = include, exclude
        context = WalkContext(out=self._out.buffer_info()[0])
        self._lanes = self._lane_totals = None
        self._n_arrays = 0
        if include is not None:
            self._lanes = include._lanes
            self._n_arrays = include.n_arrays
            self._lane_totals = array("q", bytes(8 * include.n_arrays))
            context.lanes = self._lanes.buffer_info()[0]
            context.lane_totals = self._lane_totals.buffer_info()[0]
            context.n_arrays = include.n_arrays
            context.skip = include.skip
            context.lane_mask = include._index_mask
        if exclude is not None:
            context.rows = exclude._rows.buffer_info()[0]
            context.fill = exclude._fill.buffer_info()[0]
            context.ways = exclude.ways
            context.set_mask = exclude._index_mask
            if type(exclude) is VectorExcludeJetty:
                context.vecs = exclude._vecs.buffer_info()[0]
                context.vshift = exclude._vec_shift
                context.vmask = exclude._vec_mask
        self._context = context  # kept alive for its address
        self._address = ctypes.addressof(context)
        self._count_lanes()

    def _count_lanes(self) -> None:
        """Start the lanes' conservation count from their current total
        (zero for a fresh filter, the warmed total after a restore)."""
        #: The lanes' total when the count started, and the allocs minus
        #: evicts walked since.
        self._lane_base = (
            0 if self._include is None else self._include.tracked_blocks()
        )
        self._walked = 0

    def _share_counts(self) -> None:
        """Hand the synthesised counts to the wrapped filter."""
        counts, snoop_filter = self.counts, self.snoop_filter
        include, exclude = self._include, self._exclude
        if include is None or exclude is None:
            snoop_filter.counts = replace(counts)
            return
        # Split the counts along HybridJetty.energy_counts(): the hybrid
        # counts lookups, each component the storage updates it prices.
        snoop_filter.counts = FilterEventCounts(
            probes=counts.probes, filtered=counts.filtered
        )
        exclude.counts = FilterEventCounts(entry_writes=counts.entry_writes)
        include.counts = FilterEventCounts(
            cnt_updates=counts.cnt_updates, pbit_writes=counts.pbit_writes
        )

    def _event_counts(self) -> FilterEventCounts:
        return self.counts

    def snapshot(self) -> dict:
        """The :class:`EventReplayer` snapshot of the same replay."""
        self._share_counts()
        return super().snapshot()

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken under either kernel: the filter writes
        its buffers in place, where the walk reads them."""
        super().restore(state)
        self._count_lanes()
        self.counts = replace(self.snoop_filter.energy_counts())

    def feed(self, events) -> None:
        """Consume one batch of packed events (any iterable shape)."""
        if type(events) is not PackedSegment:
            if type(events) is not array or events.typecode != "q":
                events = array("q", events)
            events = PackedSegment(events)
        self.feed_segment(events)

    def feed_segment(self, segment: PackedSegment) -> None:
        """Consume a shared decoded segment, span by span.

        The segment is walked once for its whole ``group`` (every
        compiled replayer registered on it), and with it every segment
        of its ``round``, by whichever member of the round is fed first
        (:func:`walk_shared`); a replayer outside the group walks it
        alone.  Each member then applies its own spans here.  A bare
        MARKER resets statistics and synthesised counts exactly as the
        oracle's warm-up reset does; a PHASE marker (non-zero flag) only
        snapshots the running totals, closing the phase's slice.  Filter
        state carries across both.
        """
        events = segment.events
        spans = segment.spans.pop(self, None)
        if spans is None:
            if self in segment.group:
                walk_shared(segment.round or (segment,))
                spans = segment.spans.pop(self)
            else:
                spans = walk_segment((self,), events)[self]
        for span in spans:
            stop = self._take(events, span)
            if stop == len(events):
                break
            event = events[stop]
            if event & 0b1100:  # PHASE: close the running slice.
                self._phase_marks.append((event >> 4, self._totals()))
            else:  # warm-up MARKER: statistics restart, state persists.
                self.stats = CoverageStats()
                self.allocs = self.evicts = 0
                self.counts = FilterEventCounts()
                self._phase_marks.clear()

    def _span(self, stop: int) -> tuple:
        """This replayer's results of the last walk, which stopped the
        group at ``stop``: ``(stop, erred, tallies, lane totals)``."""
        out = self._out
        totals = self._lane_totals
        return (out[7], out[7] != stop, out[:7],
                None if totals is None else totals.tolist())

    def _take(self, events, span) -> int:
        """Flush one walked span of ``events`` and return its stop (a
        MARKER's index, or the span's end); raise the oracle's error
        where the filter erred, then check the lanes' conservation."""
        stop, erred, tallies, totals = span
        snoops, would_hit, allocs, evicts, filtered, entry_writes, pbits = (
            tallies
        )
        stats = self.stats
        stats.snoops += snoops
        stats.snoop_would_hit += would_hit
        stats.snoop_would_miss += snoops - would_hit
        stats.filtered += filtered
        self.allocs += allocs
        self.evicts += evicts
        self._walked += allocs - evicts
        counts = self.counts
        counts.probes += snoops
        counts.filtered += filtered
        counts.entry_writes += entry_writes
        counts.cnt_updates += self._n_arrays * (allocs + evicts)
        counts.pbit_writes += pbits
        if erred:
            block = events[stop] >> 4
            if events[stop] & 3 == EVICT:
                raise CoherenceError(
                    f"IJ counter underflow for block {block:#x} in "
                    f"{self._include.name}: eviction without a matching "
                    "allocation"
                )
            raise FilterSafetyError(
                f"{self.snoop_filter.name} filtered a snoop for block "
                f"{block:#x} on node {self.node_id}, but the block "
                "is cached — JETTY safety guarantee violated"
            )
        if totals is not None:
            self._check_lanes(totals)
        return stop

    def _check_lanes(self, totals: list) -> None:
        """Check lane conservation: every lane totals the count's base
        plus the allocs minus the evicts walked since (which warm-up
        MARKERs do not reset)."""
        expected = self._lane_base + self._walked
        if totals.count(expected) != len(totals):
            raise InvariantError(
                f"{self._include.name} lane counter totals "
                f"{totals} break "
                f"conservation: {self._lane_base} at the start + "
                f"{self._walked} allocs net of evicts = {expected}"
            )


class WalkJob(ctypes.Structure):
    """One job of a round as the native ``walk`` sees it (``walk_job``
    in ``repro/core/machine.c``): a group's contexts, the span of events
    it walks, and where the walk stopped."""

    _fields_ = [
        ("group", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("events", ctypes.c_void_p),
        *((name, ctypes.c_int64) for name in ("lo", "hi", "stop")),
    ]


#: Walk steps (events times group members) each thread of a round is
#: given at least; below it a round walks on fewer threads, one at the
#: least.  On a 2-core x86-64 host, starting and joining a thread cost
#: 55-90 us, and a second thread paid for itself from about 3,000 steps
#: per thread for a lone EJ and about 25,000 for the 21 paper filters
#: (whose walk has fixed costs per member).
MIN_THREAD_STEPS = 1 << 15


def walk(jobs, threads: int = 1) -> list[tuple[int, list]]:
    """Walk every job ``(group, events, lo, hi)`` of a round in one
    native call, on up to ``threads`` threads: ``events[lo:hi]``
    through every replayer of ``group``, up to the first MARKER.

    The groups must share no replayer -- each is one node's -- so that
    no buffer is walked by two threads.  Returns, per job, the MARKER's
    index (``hi`` when none) and each member's span, in group order:
    ``(stop, erred, tallies, lane totals)``, its stop being the group's
    or, earlier, its own first error, where it stopped while the others
    walked on.  Every event is decoded and tallied once for the whole
    group, and a job walks exactly as it would alone, on any thread.
    """
    contexts = []  # kept alive for their addresses
    native = (WalkJob * len(jobs))()
    for job, (group, events, lo, hi) in zip(native, jobs):
        contexts.append((ctypes.c_void_p * len(group))(
            *[replayer._address for replayer in group]
        ))
        job.group, job.n = ctypes.addressof(contexts[-1]), len(group)
        job.events, job.lo, job.hi = events.buffer_info()[0], lo, hi
    if _cmachine.library().walk(native, len(jobs), threads) < 0:
        raise MemoryError("the native walk could not allocate its walkers")
    return [
        (job.stop, [replayer._span(job.stop) for replayer in group])
        for job, (group, *_rest) in zip(native, jobs)
    ]


def _round_threads(jobs) -> int:
    """One thread per job, up to :func:`~repro.core._cmachine.thread_budget`,
    lowered so that each thread walks at least :data:`MIN_THREAD_STEPS`."""
    if len(jobs) < 2:
        return 1
    steps = sum(len(group) * (hi - lo) for group, _events, lo, hi in jobs)
    return max(1, min(len(jobs), _cmachine.thread_budget(),
                      steps // MIN_THREAD_STEPS))


def walk_round(pairs, threads: int | None = None) -> list[dict]:
    """Walk a round of whole segments, one ``(group, events)`` per node,
    span by span: each pair's member -> its spans, up to its own first
    error or the segment's end.

    Each native call walks the next span of every segment still walking
    (:func:`walk`), on ``threads`` threads or, by default, on
    :func:`_round_threads`; whatever it is, the spans are the same.
    """
    walked, pending = [], []
    for group, events in pairs:
        if type(events) is not array or events.typecode != "q":
            events = array("q", events)
        spans = {replayer: [] for replayer in group}
        walked.append(spans)
        if group and events:
            pending.append((list(group), events, 0, spans))
    while pending:
        jobs = [(group, events, lo, len(events))
                for group, events, lo, _spans in pending]
        count = _round_threads(jobs) if threads is None else threads
        walking = []
        for (group, events, _lo, spans), (stop, results) in zip(
            pending, walk(jobs, count)
        ):
            still = []
            for replayer, span in zip(group, results):
                spans[replayer].append(span)
                if not span[1]:
                    still.append(replayer)
            if still and stop + 1 < len(events):
                walking.append((still, events, stop + 1, spans))
        pending = walking
    return walked


def walk_segment(group, events) -> dict:
    """Walk a whole segment through ``group``: a round of one."""
    return walk_round([(group, events)], threads=1)[0]


def walk_shared(segments) -> None:
    """Walk a round of shared segments (one per node) for their groups,
    leaving each member's spans in its segment's ``spans``."""
    walked = walk_round([(segment.group, segment.events)
                         for segment in segments])
    for segment, spans in zip(segments, walked):
        segment.round = None
        segment.spans.update(spans)
