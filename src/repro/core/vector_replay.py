"""Vectorised NumPy replay kernels for the JETTY filter families.

The per-event loop in :class:`repro.core.stats.EventReplayer` pays the
full interpreter dispatch price — decode, probe call, hook call — for
every packed event.  On snoop-dense traces (em3d-class) that loop is the
replay bottleneck.  The replayers here consume a whole packed segment as
a NumPy ``int64`` array instead and evaluate it with shift/mask/argsort/
cumsum/bincount arithmetic, dropping into a tight Python loop only where
order-dependent LRU state genuinely requires one.

**Exactness contract.**  A vector replayer is *not* an approximation:
for every supported filter family it reproduces the oracle
(:class:`EventReplayer` driving the real filter object) bit for bit —
the same :class:`~repro.core.stats.FilterEvaluation` payload, the same
exception type, message, and flushed statistics on a safety violation or
IJ counter underflow.  The oracle-parity suite
(``tests/test_vector_replay.py``) pins this against every golden store.

Per family:

* **IJ** — fully vectorised.  A lane's counter value *before* each event
  is a grouped running sum over events hitting the same counter index:
  stable-argsort the per-event indexes (cast to ``uint16`` — severalfold
  faster than sorting ``int64`` keys), cumsum the +1/-1
  allocate/evict deltas in sorted order, and subtract each group's
  starting prefix.  Presence (``counter > 0``) at every snoop, pbit
  transitions, and underflow positions all read off that array.
* **EJ / VEJ / HJ** — one exclude *machine* per structure, run set by
  set: a stack machine for the EJ (a bounded MRU-first list of valid
  blocks) and a vector machine for the VEJ (an insertion-ordered
  ``chunk -> vector`` dict, LRU chunk first).  That is the whole
  *observable* state of a set (way indexes are never reported and
  replay never snapshots), so a machine loops over pre-extracted
  (block, code) Python lists with no per-event decode or method
  dispatch.  Each machine also takes the IJ verdict per item.  A hybrid
  puts an IJ in front of the exclude structure and filters when either
  side does, so a plain EJ/VEJ is the same machine behind an IJ that
  passes every snoop (``itertools.repeat(True)``), and an HJ feeds it
  its IJ lanes' ``all_pass`` verdicts, vectorised as above.

  One span body serves all three.  Consecutive same-set, same-block P0
  snoops are pure repeat-hits when the first passed the IJ (it leaves
  the entry at MRU; the second just counts ``filtered``), so they are
  dropped vectorially and counted in bulk.  An HJ's items stop at an IJ
  underflow.  The residual items are grouped set-major from the same
  stable argsort that found the repeats: sets are independent, so each
  set's items run through the machine with the set's state hoisted to
  a local.  A safety violation (rare, and fatal to the replay) restores
  the touched sets from their pre-span copies and feeds the residual
  items to the same machine in stream order, one item per call, until
  the first violation — so the flushed post-mortem statistics match the
  oracle exactly.

Every replayer *imports* the wrapped filter's current storage state at
construction (freshly built filters are empty, so the cold path is
unchanged).  This is what lets measured-region-only traces replay from
a restored fast-forward snapshot: the runner restores the warmed state
into the filter objects and the kernels pick it up from there.

Everything else (hashed-include, null filters, oversized geometries,
subclasses) falls back to the per-event loop — selection happens in
:func:`replayer_for`, which returns ``None`` for unsupported filters.

NumPy is an optional dependency: when it is missing,
:func:`numpy_available` is ``False`` and every caller degrades to the
Python kernel.
"""

from __future__ import annotations

import hashlib
from itertools import repeat

from repro.core.base import FilterEventCounts, SnoopFilter
from repro.core.exclude import ExcludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.include import IncludeJetty
from repro.core.stats import (
    CoverageStats,
    FilterEvaluation,
    MARKER,
    PackedSegment,
    phases_from_marks,
)
from repro.core.vector_exclude import VectorExcludeJetty
from repro.errors import CoherenceError, ConfigurationError, FilterSafetyError

try:  # pragma: no cover - exercised via the numpy-free CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Set counts / counter-index spaces above this fall back to the Python
#: kernel: the grouped-sort machinery keys on ``uint16`` set indexes
#: (sorting 16-bit keys is severalfold faster than 64-bit ones).
_MAX_INDEX_SPACE = 1 << 16


def numpy_available() -> bool:
    """True when the vector kernels can run at all."""
    return _np is not None


def replayer_for(snoop_filter: SnoopFilter, node_id: int, phase_names=()):
    """A vector replayer for ``snoop_filter``, or ``None`` to fall back.

    Selection is deliberately exact-type-based: a *subclass* of a
    supported family may override behaviour the kernels hard-code, and
    silently vectorising it would break the byte-parity contract.
    """
    if _np is None:
        return None
    kind = type(snoop_filter)
    if kind is ExcludeJetty:
        if snoop_filter.sets <= _MAX_INDEX_SPACE:
            return _ExcludeReplayer(snoop_filter, node_id, phase_names)
    elif kind is VectorExcludeJetty:
        if snoop_filter.sets <= _MAX_INDEX_SPACE:
            return _ExcludeReplayer(snoop_filter, node_id, phase_names)
    elif kind is IncludeJetty:
        if snoop_filter.entry_bits <= 16:
            return _IncludeReplayer(snoop_filter, node_id, phase_names)
    elif kind is HybridJetty:
        include, exclude = snoop_filter.include, snoop_filter.exclude
        if (
            type(include) is IncludeJetty
            and include.entry_bits <= 16
            and type(exclude) in (ExcludeJetty, VectorExcludeJetty)
            and exclude.sets <= _MAX_INDEX_SPACE
        ):
            return _ExcludeReplayer(snoop_filter, node_id, phase_names)
    return None


# ----------------------------------------------------------------------
# Shared per-span precomputation, memoised on the segment so that every
# bank replaying the same segment pays for each derived array once.
# ----------------------------------------------------------------------


def _span_stats(segment: PackedSegment, lo: int, hi: int) -> dict:
    """Kind masks, flag masks, blocks, and tallies for one span."""

    def build() -> dict:
        e = segment.array()[lo:hi]
        kind = e & 3
        snoop_m = kind == 0
        alloc_m = kind == 1
        evict_m = kind == 2
        pbit = (e & 8) != 0
        wh_m = snoop_m & ((e & 4) != 0)
        n_allocs = int(alloc_m.sum())
        n_evicts = int(evict_m.sum())
        return {
            "blocks": e >> 4,
            "snoop_m": snoop_m,
            "alloc_m": alloc_m,
            "evict_m": evict_m,
            "pbit": pbit,
            "wh_m": wh_m,
            # +1 per ALLOC, -1 per EVICT, 0 per SNOOP: the per-counter
            # running sums below are cumsums of this in sorted order.
            # int32 throughout the lane math — counters are bounded by
            # the cached-block population and spans by the segment size,
            # and the narrower lanes are measurably faster.
            "delta": alloc_m.astype(_np.int32) - evict_m,
            "n_snoops": (hi - lo) - n_allocs - n_evicts,
            "n_would_hit": int(wh_m.sum()),
            "n_allocs": n_allocs,
            "n_evicts": n_evicts,
        }

    return segment.shared(("span", lo, hi), build)


def _span_items(segment: PackedSegment, lo: int, hi: int) -> dict:
    """The exclude-loop items of a span: SNOOPs and ALLOCs, in order.

    ``code`` classifies each item: 0 = P0 snoop, 1 = P1 snoop (the
    safety-reference case), 2 = alloc.  EVICTs are never items — no
    exclude-style filter has an eviction hook.
    """

    def build() -> dict:
        s = _span_stats(segment, lo, hi)
        e = segment.array()[lo:hi]
        pos = _np.flatnonzero(s["snoop_m"] | s["alloc_m"])
        code = (((e & 3) << 1) | ((e >> 3) & 1))[pos]
        return {"pos": pos, "b": s["blocks"][pos], "code": code}

    return segment.shared(("items", lo, hi), build)


def _span_pairs(
    segment: PackedSegment, lo: int, hi: int, pre_shift: int, set_mask: int
) -> dict:
    """A span's items sorted set-major, and its repeat-hit candidates.

    Grouping a span by set is one stable ``uint16`` argsort: ``order``
    permutes item indexes so that each set's items sit consecutively in
    original order, and ``idx_s`` holds their set indexes.  Same-set
    adjacency is then adjacency in the sorted permutation, so ``prev``
    and ``cur`` are the parallel item indexes where ``cur`` directly
    follows ``prev`` in its set's sequence, both are P0 snoops, and both
    name the same block.  For a plain EJ/VEJ every such ``cur`` is a
    pure repeat-hit; an HJ also requires ``prev`` to have passed its IJ.
    """

    def build() -> dict:
        items = _span_items(segment, lo, hi)
        b, code = items["b"], items["code"]
        idx = ((b >> pre_shift) & set_mask).astype(_np.uint16)
        # int32 halves the memo; a span never holds 2**31 items.
        order = _np.argsort(idx, kind="stable").astype(_np.int32)
        idx_s = idx[order]
        b_s = b[order]
        code_s = code[order]
        pair = (
            (idx_s[1:] == idx_s[:-1])
            & (b_s[1:] == b_s[:-1])
            & (code_s[1:] == 0)
            & (code_s[:-1] == 0)
        )
        return {
            "order": order,
            "idx_s": idx_s,
            "prev": order[:-1][pair],
            "cur": order[1:][pair],
        }

    return segment.shared(("pairs", lo, hi, pre_shift, set_mask), build)


def _set_groups(items: dict, pairs: dict, dups, stop: int, ok) -> dict:
    """The residual items of a span, grouped set-major.

    Keeps the items of ``pairs["order"]`` that are not repeat-hits
    (``dups``) and come before item ``stop``, so the grouping reuses the
    one argsort of :func:`_span_pairs`.  Returns ``gids`` (the set index
    of each group), ``bounds`` (group slice boundaries), and the item
    blocks, codes and IJ verdicts (``ok``, or ``None`` without an IJ)
    permuted set-major as plain Python lists — within a group, items
    keep their original relative order, which is all a machine can
    observe.
    """
    order, idx_s = pairs["order"], pairs["idx_s"]
    live = order < stop
    if dups.size:
        keep = _np.ones(order.size, dtype=bool)
        keep[dups] = False
        live &= keep[order]
    order = order[live]
    idx_s = idx_s[live]
    n = order.size
    if n == 0:
        return {"gids": [], "bounds": [0], "b": [], "code": [], "ok": None}
    first = _np.empty(n, dtype=bool)
    first[0] = True
    _np.not_equal(idx_s[1:], idx_s[:-1], out=first[1:])
    fpos = _np.flatnonzero(first)
    bounds = fpos.tolist()
    bounds.append(n)
    # Plain Python lists: the machines slice them directly (C-level list
    # slicing), and memoisation shares the one conversion between every
    # bank replaying the segment.
    return {
        "gids": idx_s[fpos].tolist(),
        "bounds": bounds,
        "b": items["b"][order].tolist(),
        "code": items["code"][order].tolist(),
        "ok": None if ok is None else ok[order].tolist(),
    }


def _lane_profile(
    segment: PackedSegment, lo: int, hi: int, shift: int, entry_bits: int
):
    """State-independent running-sum profile of one IJ lane over a span.

    Returns ``(idx, order, idx_s, rel_s)`` where ``idx`` is each event's
    counter index, ``order``/``idx_s`` the stable sort by index, and
    ``rel_s[i]`` the net +1/-1 delta of *earlier same-index events in
    this span* — so a lane's counter value before sorted event ``i`` is
    ``counters[idx_s[i]] + rel_s[i]`` whatever the carried-in counters
    are.  Keyed only on geometry, the profile is shared between an IJ
    bank and any HJ bank wrapping the same IJ configuration.
    """

    def build():
        s = _span_stats(segment, lo, hi)
        m = (1 << entry_bits) - 1
        idx = ((s["blocks"] >> shift) & m).astype(_np.uint16)
        order = _np.argsort(idx, kind="stable")
        idx_s = idx[order]
        d_s = s["delta"][order]
        cs = _np.cumsum(d_s)
        excl = cs - d_s  # prefix sum excluding the event itself
        n = idx_s.size
        first = _np.empty(n, dtype=bool)
        first[0] = True
        _np.not_equal(idx_s[1:], idx_s[:-1], out=first[1:])
        fpos = _np.flatnonzero(first)
        reps = _np.diff(_np.append(fpos, n))
        rel_s = excl - _np.repeat(excl[fpos], reps)
        return idx, order, idx_s, rel_s

    return segment.shared(("lane", lo, hi, shift, entry_bits), build)


def _warm_stacks(exclude: ExcludeJetty) -> list[list[int]]:
    """Per-set MRU-first stacks importing an EJ's current contents.

    A freshly built filter has no valid entries, so the cold path gets
    the empty stacks it always had; a restored (fast-forwarded) filter
    contributes its valid entries in recency order — way placement and
    invalid ways are unobservable to replay, exactly the abstraction
    the stack model is built on.
    """
    return [
        [tags[way] for way in lru.order() if tags[way] is not None]
        for tags, lru in zip(exclude._tags, exclude._lru)
    ]


def _warm_vectors(exclude: VectorExcludeJetty) -> list[dict[int, int]]:
    """Per-set insertion-ordered chunk->vector dicts importing a VEJ.

    The replayer's eviction takes the dict's *first* key, so entries
    insert in LRU-to-MRU order (``lru.order()`` is MRU-first, hence
    reversed), skipping invalid ways.
    """
    vectors: list[dict[int, int]] = []
    for chunks, vecs, lru in zip(
        exclude._chunks, exclude._vectors, exclude._lru
    ):
        entries: dict[int, int] = {}
        for way in reversed(lru.order()):
            chunk = chunks[way]
            if chunk is not None:
                entries[chunk] = vecs[way]
        vectors.append(entries)
    return vectors


class _IncludeLanes:
    """The vectorised counter machinery of one :class:`IncludeJetty`.

    Owns the persistent per-lane counter arrays (the only IJ state) and
    evaluates whole spans: per-event pre-values, the ANDed presence
    verdict at snoops, pbit-transition counts, underflow detection, and
    the end-of-span counter commit.

    The whole span evaluation is memoised on the segment under a key
    that names the lane geometry *and* the event history folded into
    the counters so far — two banks whose IJs share a configuration
    (an ``IJ-AxBxC`` bank and an ``HJ(IJ-AxBxC, ...)`` bank replaying
    the same trace) necessarily carry identical counter state at every
    span boundary, so the second bank reuses the first's evaluation
    wholesale instead of re-sorting every lane.
    """

    __slots__ = (
        "include", "_counters", "_events", "_allocs", "_evicts", "_seed"
    )

    def __init__(self, include: IncludeJetty) -> None:
        self.include = include
        # Import the wrapped filter's current counters: zeros for a
        # freshly built IJ, the warmed lanes for a fast-forwarded one.
        self._counters = [
            _np.asarray(counters, dtype=_np.int32)
            for counters in include._counters
        ]
        # Committed-history fingerprint, part of the sharing key: equal
        # geometry + equal *initial state* + equal history => equal
        # counter state.  The seed digest distinguishes warm starts —
        # all cold lanes of one geometry share one digest, so the
        # IJ-and-HJ sharing of cold replays is untouched.
        self._seed = hashlib.sha256(
            b"".join(counters.tobytes() for counters in self._counters)
        ).hexdigest()[:16]
        self._events = 0
        self._allocs = 0
        self._evicts = 0

    def span(self, segment: PackedSegment, lo: int, hi: int) -> dict:
        """Evaluate one span; returns the shared evaluation record.

        ``all_pass[i]`` — every lane counter nonzero before event ``i``
        (meaningful at snoop positions); ``under_k`` — span position of
        the first underflowing EVICT, or -1; ``pbw`` — presence-bit
        transitions over the whole span; ``deltas`` — per-lane counter
        deltas for :meth:`commit`.  ``all_pass`` values after an
        underflow position are garbage; callers never read past it.
        """
        include = self.include
        key = (
            "ijspan", lo, hi,
            include.entry_bits, include.n_arrays, include.skip,
            self._seed, self._events, self._allocs, self._evicts,
        )

        def build() -> dict:
            s = _span_stats(segment, lo, hi)
            alloc_m, evict_m = s["alloc_m"], s["evict_m"]
            size = self._counters[0].size
            all_pass = None
            pres = []
            idxs = []
            for counters, shift in zip(self._counters, include._shifts):
                idx, order, idx_s, rel_s = _lane_profile(
                    segment, lo, hi, shift, include.entry_bits
                )
                pre_s = counters[idx_s] + rel_s
                pre = _np.empty_like(pre_s)
                pre[order] = pre_s
                ok = pre > 0
                all_pass = ok if all_pass is None else all_pass & ok
                pres.append(pre)
                idxs.append(idx)
            under_k = -1
            if s["n_evicts"]:
                under = None
                for pre in pres:
                    zero = evict_m & (pre == 0)
                    under = zero if under is None else under | zero
                where = _np.flatnonzero(under)
                if where.size:
                    under_k = int(where[0])
            pbw = 0
            for pre in pres:
                pbw += int((alloc_m & (pre == 0)).sum())
                pbw += int((evict_m & (pre == 1)).sum())
            deltas = [
                (
                    _np.bincount(idx[alloc_m], minlength=size)
                    - _np.bincount(idx[evict_m], minlength=size)
                ).astype(_np.int32)
                for idx in idxs
            ]
            return {
                "all_pass": all_pass,
                "under_k": under_k,
                "pbw": pbw,
                "deltas": deltas,
            }

        return segment.shared(key, build)

    def underflow_error(self, block: int) -> CoherenceError:
        return CoherenceError(
            f"IJ counter underflow for block {block:#x} in "
            f"{self.include.name}: eviction without a matching allocation"
        )

    def commit(self, s: dict, span: dict) -> None:
        """Fold the span's allocate/evict deltas into the lane counters."""
        for counters, delta in zip(self._counters, span["deltas"]):
            counters += delta
        self._events += (
            s["n_snoops"] + s["n_allocs"] + s["n_evicts"]
        )
        self._allocs += s["n_allocs"]
        self._evicts += s["n_evicts"]


# ----------------------------------------------------------------------
# Replayers
# ----------------------------------------------------------------------


class VectorReplayer:
    """Base vector replayer: marker splitting, flushing, error parity.

    Mirrors the :class:`~repro.core.stats.EventReplayer` surface
    (``feed`` / ``feed_segment`` / ``finish``) so
    :class:`~repro.core.stats.StreamingFilterBank` can hold either
    interchangeably.  The wrapped filter object is *never driven* — the
    replayer keeps private state and synthesises the
    :class:`FilterEventCounts` itself, so the filter's own ``counts``
    stay zero.  Checkpointing is unsupported (checkpointed paths use the
    Python kernel), and :meth:`snapshot`/:meth:`restore` say so loudly.
    """

    def __init__(
        self, snoop_filter: SnoopFilter, node_id: int, phase_names=()
    ) -> None:
        self.snoop_filter = snoop_filter
        self.node_id = node_id
        self.stats = CoverageStats()
        self.allocs = 0
        self.evicts = 0
        self.counts = FilterEventCounts()
        self.phase_names = tuple(phase_names)
        #: ``(phase_index, cumulative totals)`` at each PHASE marker —
        #: the same snapshot shape the oracle keeps, so both kernels
        #: derive their per-phase splits through one builder.
        self._phase_marks: list = []

    def feed(self, events) -> None:
        """Consume one batch of packed events (any iterable shape)."""
        if type(events) is not PackedSegment:
            events = PackedSegment(events)
        self.feed_segment(events)

    def feed_segment(self, segment: PackedSegment) -> None:
        """Consume a shared decoded segment, splitting at MARKERs.

        Between markers a span is a pure SNOOP/ALLOC/EVICT run — the
        shape the span kernels assume.  A bare MARKER resets statistics
        and synthesised counts exactly as the oracle's warm-up reset
        does; a PHASE marker (non-zero flag) only snapshots the running
        totals, closing the phase's slice.  Filter state carries across
        both.
        """
        arr = segment.array()
        n = arr.size
        if n == 0:
            return
        markers = segment.shared(
            "markers", lambda: _np.flatnonzero((arr & 3) == MARKER)
        )
        lo = 0
        for marker in markers.tolist():
            if marker > lo:
                self._span(segment, lo, marker)
            event = int(arr[marker])
            if event & 0b1100:  # PHASE: close the running slice.
                stats = self.stats
                self._phase_marks.append((
                    event >> 4,
                    (stats.snoops, stats.snoop_would_hit,
                     stats.snoop_would_miss, stats.filtered,
                     self.allocs, self.evicts),
                ))
            else:  # warm-up MARKER: statistics restart, state persists.
                self.stats = CoverageStats()
                self.allocs = self.evicts = 0
                self.counts = FilterEventCounts()
                self._phase_marks.clear()
            lo = marker + 1
        if n > lo:
            self._span(segment, lo, n)

    def finish(self) -> FilterEvaluation:
        """Package the accumulated statistics of everything fed so far."""
        stats = self.stats
        return FilterEvaluation(
            filter_name=self.snoop_filter.name,
            coverage=stats,
            events=self.counts,
            storage_bits=self.snoop_filter.storage_bits(),
            allocs=self.allocs,
            evicts=self.evicts,
            phases=phases_from_marks(
                self._phase_marks,
                (stats.snoops, stats.snoop_would_hit,
                 stats.snoop_would_miss, stats.filtered,
                 self.allocs, self.evicts),
                self.phase_names,
            ),
        )

    def snapshot(self) -> dict:
        raise ConfigurationError(
            "the numpy replay kernel does not support checkpointing; "
            "use the python kernel"
        )

    def restore(self, state) -> None:
        raise ConfigurationError(
            "the numpy replay kernel does not support checkpointing; "
            "use the python kernel"
        )

    # -- shared accounting helpers -------------------------------------

    def _flush_span(self, s: dict, filtered: int) -> None:
        stats = self.stats
        stats.snoops += s["n_snoops"]
        stats.snoop_would_hit += s["n_would_hit"]
        stats.snoop_would_miss += s["n_snoops"] - s["n_would_hit"]
        stats.filtered += filtered
        self.allocs += s["n_allocs"]
        self.evicts += s["n_evicts"]

    def _flush_prefix(self, s: dict, k: int, filtered: int) -> None:
        """Flush coverage for span events ``[0, k]`` before raising.

        Matches the oracle's ``finally`` flush: the erroring event's own
        kind tally (the snoop of a safety violation, the evict of an
        underflow) is already counted when the raise happens, while
        ``filtered`` covers only snoops strictly before it.
        """
        stats = self.stats
        snoops = int(s["snoop_m"][: k + 1].sum())
        would_hit = int(s["wh_m"][: k + 1].sum())
        stats.snoops += snoops
        stats.snoop_would_hit += would_hit
        stats.snoop_would_miss += snoops - would_hit
        stats.filtered += filtered
        self.allocs += int(s["alloc_m"][: k + 1].sum())
        self.evicts += int(s["evict_m"][: k + 1].sum())

    def _safety_error(self, block: int) -> FilterSafetyError:
        return FilterSafetyError(
            f"{self.snoop_filter.name} filtered a snoop for block "
            f"{block:#x} on node {self.node_id}, but the block "
            "is cached — JETTY safety guarantee violated"
        )

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        raise NotImplementedError


class _IncludeReplayer(VectorReplayer):
    """Fully vectorised IJ replay — no per-event Python loop at all."""

    def __init__(
        self, snoop_filter: IncludeJetty, node_id: int, phase_names=()
    ) -> None:
        super().__init__(snoop_filter, node_id, phase_names)
        self._lanes = _IncludeLanes(snoop_filter)

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        lanes = self._lanes
        sp = lanes.span(segment, lo, hi)
        filtered_m = s["snoop_m"] & ~sp["all_pass"]
        viol_k = -1
        viol = _np.flatnonzero(filtered_m & s["pbit"])
        if viol.size:
            viol_k = int(viol[0])
        under_k = sp["under_k"]
        # First error wins; pre-values (and thus both detections) are
        # exact up to the earlier of the two positions.
        if viol_k >= 0 and (under_k < 0 or viol_k < under_k):
            self._flush_prefix(s, viol_k, int(filtered_m[:viol_k].sum()))
            raise self._safety_error(int(s["blocks"][viol_k]))
        if under_k >= 0:
            self._flush_prefix(s, under_k, int(filtered_m[:under_k].sum()))
            raise lanes.underflow_error(int(s["blocks"][under_k]))
        filtered = int(filtered_m.sum())
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.cnt_updates += self.snoop_filter.n_arrays * (
            s["n_allocs"] + s["n_evicts"]
        )
        counts.pbit_writes += sp["pbw"]
        lanes.commit(s, sp)


#: The IJ verdict of a plain EJ/VEJ: every snoop passes.
_ALL_PASS = repeat(True)


def _stack_machine(stack: list, blist, clist, oklist, ways: int):
    """Run one EJ set's items through its MRU-first stack.

    A stack holds the set's valid blocks in recency order; that is the
    whole observable state.  Insertion on a full set pops the list tail
    (the LRU entry); allocation removes the block wherever it sits (the
    concrete array keeps the way's recency slot, but a slot only becomes
    observable once re-filled, at MRU).  ``oklist`` is the IJ verdict
    per item.  Returns ``(entry_writes, filtered)``, or ``None`` on a
    safety violation.
    """
    entry_writes = filtered = 0
    for b, c, ok in zip(blist, clist, oklist):
        if c == 0:  # P0 snoop
            if b in stack:  # EJ hit filters, IJ moot
                if stack[0] != b:
                    stack.remove(b)
                    stack.insert(0, b)
                filtered += 1
            elif ok:  # both passed: the outcome allocates an entry
                if len(stack) == ways:
                    stack.pop()
                stack.insert(0, b)
                entry_writes += 1
            else:  # IJ filtered; EJ learns nothing
                filtered += 1
        elif c == 2:  # alloc: invalidate any entry claiming absence
            if b in stack:
                stack.remove(b)
                entry_writes += 1
        else:  # P1 snoop: filtering from either side is a violation
            if b in stack or not ok:
                return None
    return entry_writes, filtered


def _vector_machine(vecs: dict, blist, clist, oklist, vshift, vmask, ways):
    """Run one VEJ set's items through its ``chunk -> vector`` dict.

    Same abstract-stack argument as the EJ, at chunk granularity — but a
    dict preserves insertion order, so it encodes recency *and* the
    presence vectors: the LRU chunk is the first key, a touch is
    pop-and-reinsert, and a value update in place (the alloc path) keeps
    the entry's recency slot just like the concrete array keeps an
    invalidated way's LRU slot.  ``oklist`` is the IJ verdict per item.
    Returns ``(entry_writes, filtered)``, or ``None`` on a safety
    violation.
    """
    entry_writes = filtered = 0
    for b, c, ok in zip(blist, clist, oklist):
        chunk = b >> vshift
        if c == 0:  # P0 snoop
            vector = vecs.pop(chunk, None)
            if vector is not None:  # chunk hit: the probe touches LRU
                bit = 1 << (b & vmask)
                if vector & bit:
                    vecs[chunk] = vector
                    filtered += 1
                elif ok:
                    vecs[chunk] = vector | bit
                    entry_writes += 1
                else:  # IJ filtered; the touch still happened
                    vecs[chunk] = vector
                    filtered += 1
            elif ok:  # chunk miss: allocate a fresh entry
                if len(vecs) == ways:
                    del vecs[next(iter(vecs))]
                vecs[chunk] = 1 << (b & vmask)
                entry_writes += 1
            else:
                filtered += 1
        elif c == 2:  # alloc: clear the PV bit (safety-critical)
            vector = vecs.get(chunk)
            if vector is not None:
                vector &= ~(1 << (b & vmask))
                if vector == 0:
                    del vecs[chunk]
                else:
                    vecs[chunk] = vector
                entry_writes += 1
        else:  # P1 snoop
            vector = vecs.pop(chunk, None)
            if vector is not None:
                vecs[chunk] = vector
                if vector & (1 << (b & vmask)):
                    return None
            if not ok:
                return None
    return entry_writes, filtered


class _ExcludeReplayer(VectorReplayer):
    """EJ, VEJ and HJ replay: one exclude machine behind one span body.

    A plain EJ/VEJ runs its machine behind an all-pass IJ verdict; an HJ
    runs its exclude component's machine behind vectorised IJ lanes and
    owns the hybrid's filtered accounting (a snoop is filtered unless
    both components pass).  ``filtered``/``probes`` count the filter,
    ``entry_writes`` the exclude structure, ``cnt_updates``/
    ``pbit_writes`` the include component — exactly the composition of
    :meth:`repro.core.hybrid.HybridJetty.energy_counts`.

    An IJ underflow truncates the items at the underflow position so the
    oracle's first-error-wins ordering holds: a safety violation earlier
    in the span raises first, one later never gets the chance.
    """

    def __init__(
        self, snoop_filter: SnoopFilter, node_id: int, phase_names=()
    ) -> None:
        super().__init__(snoop_filter, node_id, phase_names)
        exclude = snoop_filter
        self._lanes = None
        if type(snoop_filter) is HybridJetty:
            exclude = snoop_filter.exclude
            self._lanes = _IncludeLanes(snoop_filter.include)
        if type(exclude) is VectorExcludeJetty:
            self._pre_shift = exclude._vec_shift
            self._state = _warm_vectors(exclude)
            self._machine = _vector_machine
            self._args = (exclude._vec_shift, exclude._vec_mask, exclude.ways)
        else:
            self._pre_shift = 0
            self._state = _warm_stacks(exclude)
            self._machine = _stack_machine
            self._args = (exclude.ways,)
        self._set_mask = exclude._index_mask

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        items = _span_items(segment, lo, hi)
        pre_shift, set_mask = self._pre_shift, self._set_mask
        pairs = _span_pairs(segment, lo, hi, pre_shift, set_mask)
        dups = pairs["cur"]
        stop = items["b"].size
        under_k = -1
        lanes = self._lanes
        if lanes is None:
            ok = None
            # Repeat-hits, and so the grouping, depend only on the set
            # geometry: every bank of this geometry shares one grouping.
            groups = segment.shared(
                ("exgroup", lo, hi, pre_shift, set_mask),
                lambda: _set_groups(items, pairs, dups, stop, None),
            )
        else:
            sp = lanes.span(segment, lo, hi)
            under_k = sp["under_k"]
            ok = sp["all_pass"][items["pos"]]
            # A repeat is pure only if the previous snoop passed the IJ:
            # only then is its entry guaranteed to sit at MRU.
            dups = dups[ok[pairs["prev"]]]
            if under_k >= 0:
                stop = int(_np.searchsorted(items["pos"], under_k))
            groups = _set_groups(items, pairs, dups, stop, ok)
        state, machine, args = self._state, self._machine, self._args
        bounds = groups["bounds"]
        b_s, code_s, ok_s = groups["b"], groups["code"], groups["ok"]
        entry_writes = filtered = 0
        touched = []
        for gi, g in enumerate(groups["gids"]):
            a, z = bounds[gi], bounds[gi + 1]
            touched.append((g, state[g].copy()))
            res = machine(
                state[g], b_s[a:z], code_s[a:z],
                _ALL_PASS if ok_s is None else ok_s[a:z], *args,
            )
            if res is None:
                for set_index, saved in touched:
                    state[set_index] = saved
                raise self._post_mortem(s, items, dups, stop, ok)
            entry_writes += res[0]
            filtered += res[1]
        if under_k >= 0:
            filtered += int((dups < stop).sum())
            self._flush_prefix(s, under_k, filtered)
            raise lanes.underflow_error(int(s["blocks"][under_k]))
        filtered += dups.size
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.entry_writes += entry_writes
        if lanes is not None:
            counts.cnt_updates += lanes.include.n_arrays * (
                s["n_allocs"] + s["n_evicts"]
            )
            counts.pbit_writes += sp["pbw"]
            lanes.commit(s, sp)

    def _post_mortem(
        self, s: dict, items: dict, dups, stop: int, ok
    ) -> FilterSafetyError:
        """The stream-order first violation, with oracle accounting.

        Sets are independent, so a violation found group-wise is one in
        stream order too — but possibly not the first.  With the touched
        sets restored, the residual items go through the same machine in
        stream order, one item per call; the first violating call
        flushes the span prefix up to its snoop, and its error is
        returned for the caller to raise.
        """
        keep = _np.ones(stop, dtype=bool)
        keep[dups[dups < stop]] = False
        b, code, pos = items["b"], items["code"], items["pos"]
        state, machine, args = self._state, self._machine, self._args
        pre_shift, set_mask = self._pre_shift, self._set_mask
        filtered = 0
        for i in _np.flatnonzero(keep).tolist():
            block = int(b[i])
            res = machine(
                state[(block >> pre_shift) & set_mask],
                (block,), (int(code[i]),),
                _ALL_PASS if ok is None else (bool(ok[i]),), *args,
            )
            if res is None:
                filtered += int((dups < i).sum())
                self._flush_prefix(s, int(pos[i]), filtered)
                return self._safety_error(block)
            filtered += res[1]
