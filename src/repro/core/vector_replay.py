"""Vectorised NumPy replay kernels for the JETTY filter families.

The per-event loop in :class:`repro.core.stats.EventReplayer` pays the
full interpreter dispatch price — decode, probe call, hook call — for
every packed event.  On snoop-dense traces (em3d-class) that loop is the
replay bottleneck.  The replayers here consume a whole packed segment as
a NumPy ``int64`` array instead: span tallies are mask arithmetic, and
the order-dependent filter state (IJ counters, EJ/VEJ recency) is one
small compiled walk per span in stream order.

**Exactness contract.**  A vector replayer is *not* an approximation:
for every supported filter family it reproduces the oracle
(:class:`EventReplayer` driving the real filter object) bit for bit —
the same :class:`~repro.core.stats.FilterEvaluation` payload, the same
exception type, message, and flushed statistics on a safety violation or
IJ counter underflow.  The oracle-parity suite
(``tests/test_vector_replay.py``) pins this against every golden store.

Per family:

* **IJ** — the *include walk*: each span's packed events in stream
  order over the lanes' counters, updated in place, stopping at the
  first underflowing EVICT or lane-filtered P1 snoop.  After every span
  the lanes' totals are checked against the allocs and evicts walked
  (:class:`~repro.errors.InvariantError` on a break).
* **EJ / VEJ / HJ** — one exclude *machine* per structure: a stack
  machine for the EJ (each set a bounded MRU-first list of valid blocks)
  and a vector machine for the VEJ (each set its valid chunks LRU-first
  with their presence vectors).  That is the whole *observable* state
  of a set: way indexes are never reported, and a snapshot writes the
  entries into ways ``0..k-1`` in recency order.  Each machine also
  takes the IJ verdict per item.  A
  hybrid puts an IJ in front of the exclude structure and filters when
  either side does, so a plain EJ/VEJ is the same machine behind an IJ
  that passes every snoop, and an HJ feeds it its include walk's
  verdicts.

  One span body serves all three.  It walks the span's SNOOP/ALLOC
  items in stream order — up to the include walk's first error for an
  HJ — and the walk stops at the first safety violation, returning its
  index and the counts before it, so the flushed statistics match the
  oracle's exactly.

Every walk is in ``exclude_machine.c``, compiled on first use and loaded
by :mod:`repro.core._cmachine`; when no compiler is available (or a
VEJ's vectors are wider than 64 bits) the same span bodies run
line-by-line Python transliterations over lists and dicts instead.
Both produce the same bytes.

Every replayer *imports* the wrapped filter's current storage state at
construction (freshly built filters are empty, so the cold path is
unchanged).  This is what lets measured-region-only traces replay from
a restored fast-forward snapshot: the runner restores the warmed state
into the filter objects and the kernels pick it up from there.  The
same import resumes a checkpoint, and :meth:`VectorReplayer.snapshot`
runs it backwards — it *exports* the replayer's state into the wrapped
filter and takes the filter's own snapshot — so checkpoints have one
format whichever kernel wrote or reads them.

Everything else (hashed-include, null filters, subclasses) falls back
to the per-event loop — selection happens in :func:`replayer_for`,
which every :class:`~repro.core.stats.StreamingFilterBank` asks per
node and which returns ``None`` for unsupported filters.  There is no other switch.

NumPy is an optional dependency: when it is missing,
:func:`numpy_available` is ``False``, :func:`replayer_for` returns
``None`` for every filter, and every bank runs the oracle.  The parity
tests reach the oracle through that same seam, by setting ``_np`` to
``None``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat

from repro.core import _cmachine
from repro.core.base import FilterEventCounts, SnoopFilter
from repro.core.exclude import ExcludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.include import IncludeJetty
from repro.core.stats import CoverageStats, MARKER, PackedSegment, Replayer
from repro.core.vector_exclude import VectorExcludeJetty
from repro.errors import CoherenceError, FilterSafetyError, InvariantError

try:  # pragma: no cover - exercised via the numpy-free CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: VEJ presence vectors wider than this run the Python walk: the
#: compiled machine holds each vector in one ``uint64``.
_MAX_VECTOR_BITS = 64


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
    if kind is ExcludeJetty or kind is VectorExcludeJetty:
        return _ExcludeReplayer(snoop_filter, node_id, phase_names)
    if kind is IncludeJetty:
        return _IncludeReplayer(snoop_filter, node_id, phase_names)
    if (
        kind is HybridJetty
        and type(snoop_filter.include) is IncludeJetty
        and type(snoop_filter.exclude) in (ExcludeJetty, VectorExcludeJetty)
    ):
        return _ExcludeReplayer(snoop_filter, node_id, phase_names)
    return None


# ----------------------------------------------------------------------
# Shared per-span precomputation, memoised on the segment so that every
# bank replaying the same segment pays for each derived array once.
# ----------------------------------------------------------------------


def _span_stats(segment: PackedSegment, lo: int, hi: int) -> dict:
    """Kind masks and tallies for one span."""

    def build() -> dict:
        e = segment.array()[lo:hi]
        kind = e & 3
        snoop_m = kind == 0
        alloc_m = kind == 1
        evict_m = kind == 2
        wh_m = snoop_m & ((e & 4) != 0)
        n_allocs = int(alloc_m.sum())
        n_evicts = int(evict_m.sum())
        return {
            "snoop_m": snoop_m,
            "alloc_m": alloc_m,
            "evict_m": evict_m,
            "wh_m": wh_m,
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
        return {"pos": pos, "b": e[pos] >> 4, "code": code}

    return segment.shared(("items", lo, hi), build)


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


def _padded(row: list, ways: int, fill) -> list:
    return row + [fill] * (ways - len(row))


def _export_stacks(exclude: ExcludeJetty, stacks) -> None:
    """Write MRU-first stacks into an EJ: ways ``0..k-1``, LRU order
    ``[0..ways-1]`` — the inverse of :func:`_warm_stacks`.

    Any layout with the same valid blocks in the same recency order
    behaves identically from here on, because ``_find_victim`` takes an
    invalid way before the LRU one.
    """
    ways = exclude.ways
    exclude._restore_state({
        "tags": [_padded(list(stack), ways, None) for stack in stacks],
        "lru": [list(range(ways))] * len(stacks),
    })


def _export_vectors(exclude: VectorExcludeJetty, vectors) -> None:
    """Write per-set LRU-first chunk->vector dicts into a VEJ, reversed
    into ways ``0..k-1`` — the inverse of :func:`_warm_vectors`, by the
    argument of :func:`_export_stacks`."""
    ways = exclude.ways
    mru = [list(entries.items())[::-1] for entries in vectors]
    exclude._restore_state({
        "chunks": [_padded([c for c, _ in row], ways, None) for row in mru],
        "vectors": [_padded([v for _, v in row], ways, 0) for row in mru],
        "lru": [list(range(ways))] * len(mru),
    })


class _IncludeLanes:
    """The counter lanes of one :class:`IncludeJetty` and their walk.

    The lanes (one row per sub-array, the only IJ state) are an ``int32``
    array walked by ``ij_walk`` once :mod:`repro.core._cmachine` loaded,
    else lists walked by :func:`_include_walk`.  Each alloc adds one to
    every lane and each evict takes one away, so :meth:`commit` checks
    that every lane totals the imported total plus the allocs minus the
    evicts walked so far (tallies warm-up MARKERs do not reset).
    """

    __slots__ = (
        "include", "counters", "_lib", "_lanes", "_mask", "_out",
        "_imported", "_allocs", "_evicts",
    )

    def __init__(self, include: IncludeJetty) -> None:
        self.include = include
        self._mask = (1 << include.entry_bits) - 1
        self._lib = _cmachine.library()
        # Import the wrapped filter's current counters: zeros for a
        # freshly built IJ, the warmed lanes for a fast-forwarded one.
        if self._lib is None:
            self.counters = [list(counters) for counters in include._counters]
            self._lanes = tuple(zip(self.counters, include._shifts))
        else:
            self.counters = _np.array(include._counters, dtype=_np.int32)
            if self.counters.shape != (include.n_arrays, self._mask + 1):
                raise InvariantError(f"{include.name}: malformed lanes")
            self._out = _np.zeros(2, dtype=_np.int64)
        self._imported = sum(include._counters[0])
        self._allocs = self._evicts = 0

    def walk(self, segment: PackedSegment, lo: int, hi: int, ok=None):
        """Walk span ``[lo, hi)``: the first error's index (or -1) and the
        filtered snoops and pbit writes before it.  ``ok``, one bool per
        event, receives the verdicts."""
        if self._lib is None:
            verdicts = bytearray(hi - lo)
            result = _include_walk(
                self._lanes, self._mask, segment.boxed()[lo:hi], verdicts
            )
            if ok is not None:
                ok[:] = _np.frombuffer(verdicts, dtype=_np.bool_)
            return result
        # The C walk reads ``hi - lo`` int64 events and writes as many
        # verdicts (no copies: a segment array is built that way).
        events = _np.ascontiguousarray(segment.array()[lo:hi], _np.int64)
        if ok is not None and not (
            ok.dtype == _np.bool_ and ok.flags.c_contiguous
            and ok.size == events.size
        ):
            raise InvariantError(
                "include walk verdicts are not one contiguous bool per event"
            )
        out = self._out
        k = self._lib.ij_walk(
            self.counters.ctypes.data, len(self.counters),
            self.include.skip, self._mask, events.ctypes.data, events.size,
            None if ok is None else ok.ctypes.data, out.ctypes.data,
        )
        return k, int(out[0]), int(out[1])

    def underflow_error(self, block: int) -> CoherenceError:
        return CoherenceError(
            f"IJ counter underflow for block {block:#x} in "
            f"{self.include.name}: eviction without a matching allocation"
        )

    def export(self) -> None:
        """Write the lane counters into the wrapped IJ (for a snapshot)."""
        counters = self.counters
        if self._lib is not None:
            counters = counters.tolist()
        self.include._restore_state({"counters": counters})

    def commit(self, s: dict) -> None:
        """Tally a walked span and check lane conservation."""
        self._allocs += s["n_allocs"]
        self._evicts += s["n_evicts"]
        if self._lib is None:
            totals = [sum(lane) for lane in self.counters]
        else:
            totals = self.counters.sum(axis=1).tolist()
        expected = self._imported + self._allocs - self._evicts
        if totals.count(expected) != len(totals):
            raise InvariantError(
                f"{self.include.name} lane counter totals {totals} break "
                f"conservation: {self._imported} imported + "
                f"{self._allocs} allocs - {self._evicts} evicts = {expected}"
            )


# ----------------------------------------------------------------------
# Replayers
# ----------------------------------------------------------------------


class VectorReplayer(Replayer):
    """Base vector replayer: marker splitting, flushing, error parity.

    Mirrors the :class:`~repro.core.stats.EventReplayer` surface
    (``feed`` / ``feed_segment`` / ``finish`` / ``snapshot`` /
    ``restore``) so :class:`~repro.core.stats.StreamingFilterBank` can
    hold either interchangeably, live or replaying.  The wrapped filter
    object is *never driven* — the replayer keeps private state and
    synthesises the :class:`FilterEventCounts` itself.  A subclass
    reads its state out of the filter in :meth:`_import` (at
    construction and after a restore) and writes it back in
    :meth:`_export`, so :meth:`snapshot` is the filter's own snapshot
    in exactly the oracle's checkpoint shape.
    """

    def __init__(
        self, snoop_filter: SnoopFilter, node_id: int, phase_names=()
    ) -> None:
        super().__init__(snoop_filter, node_id, phase_names)
        self.counts = FilterEventCounts()
        self._import()

    def _import(self) -> None:
        """Adopt the wrapped filter's storage state."""
        raise NotImplementedError

    def _export(self) -> None:
        """Write the replayer's storage state into the wrapped filter,
        whose ``counts`` already hold the synthesised counts."""
        raise NotImplementedError

    def _event_counts(self) -> FilterEventCounts:
        return self.counts

    def snapshot(self) -> dict:
        """The :class:`EventReplayer` snapshot of the same replay."""
        self.snoop_filter.counts = replace(self.counts)
        self._export()
        return super().snapshot()

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken under either kernel."""
        super().restore(state)
        self._import()
        self.counts = replace(self.snoop_filter.energy_counts())

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
                self._phase_marks.append((event >> 4, self._totals()))
            else:  # warm-up MARKER: statistics restart, state persists.
                self.stats = CoverageStats()
                self.allocs = self.evicts = 0
                self.counts = FilterEventCounts()
                self._phase_marks.clear()
            lo = marker + 1
        if n > lo:
            self._span(segment, lo, n)

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
    """IJ replay: the include walk over each span, nothing else."""

    def _import(self) -> None:
        self._lanes = _IncludeLanes(self.snoop_filter)

    def _export(self) -> None:
        self._lanes.export()

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        lanes = self._lanes
        k, filtered, pbit_writes = lanes.walk(segment, lo, hi)
        if k >= 0:
            self._flush_prefix(s, k, filtered)
            block = int(segment.array()[lo + k]) >> 4
            if s["evict_m"][k]:
                raise lanes.underflow_error(block)
            raise self._safety_error(block)
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.cnt_updates += self.snoop_filter.n_arrays * (
            s["n_allocs"] + s["n_evicts"]
        )
        counts.pbit_writes += pbit_writes
        lanes.commit(s)


#: The IJ verdict of a plain EJ/VEJ: every snoop passes.
_ALL_PASS = repeat(True)


def _stack_walk(stacks: list, ways: int, set_mask: int, b, code, ok):
    """Walk a span's items in stream order through per-set EJ stacks.

    The Python twin of ``ej_walk`` in ``exclude_machine.c``.  A stack
    holds its set's valid blocks MRU-first; that is the whole observable
    state.  Insertion on a full set pops the list tail (the LRU entry);
    allocation removes the block wherever it sits (the concrete array
    keeps the way's recency slot, but a slot only becomes observable
    once re-filled, at MRU).  ``ok`` is the IJ verdict per item.
    Returns ``(i, entry_writes, filtered)``: the index of the first
    safety violation (or -1) and the counts strictly before it.
    """
    entry_writes = filtered = 0
    for i, (blk, c, passed) in enumerate(zip(b, code, ok)):
        stack = stacks[blk & set_mask]
        if c == 0:  # P0 snoop
            if blk in stack:  # EJ hit filters, IJ moot
                if stack[0] != blk:
                    stack.remove(blk)
                    stack.insert(0, blk)
                filtered += 1
            elif passed:  # both passed: the outcome allocates an entry
                if len(stack) == ways:
                    stack.pop()
                stack.insert(0, blk)
                entry_writes += 1
            else:  # IJ filtered; EJ learns nothing
                filtered += 1
        elif c == 2:  # alloc: invalidate any entry claiming absence
            if blk in stack:
                stack.remove(blk)
                entry_writes += 1
        elif blk in stack or not passed:  # P1 snoop filtered: violation
            return i, entry_writes, filtered
    return -1, entry_writes, filtered


def _vector_walk(
    vectors: list, ways: int, set_mask: int, vshift: int, vmask: int,
    b, code, ok,
):
    """Walk a span's items in stream order through per-set VEJ dicts.

    The Python twin of ``vej_walk`` in ``exclude_machine.c``.  Same
    abstract-stack argument as the EJ, at chunk granularity — but a dict
    preserves insertion order, so it encodes recency *and* the presence
    vectors: the LRU chunk is the first key, a touch is
    pop-and-reinsert, and a value update in place (the alloc path) keeps
    the entry's recency slot just like the concrete array keeps an
    invalidated way's LRU slot.  Returns what :func:`_stack_walk` does.
    """
    entry_writes = filtered = 0
    for i, (blk, c, passed) in enumerate(zip(b, code, ok)):
        chunk = blk >> vshift
        vecs = vectors[chunk & set_mask]
        if c == 0:  # P0 snoop
            vector = vecs.pop(chunk, None)
            if vector is not None:  # chunk hit: the probe touches LRU
                bit = 1 << (blk & vmask)
                if vector & bit:
                    vecs[chunk] = vector
                    filtered += 1
                elif passed:
                    vecs[chunk] = vector | bit
                    entry_writes += 1
                else:  # IJ filtered; the touch still happened
                    vecs[chunk] = vector
                    filtered += 1
            elif passed:  # chunk miss: allocate a fresh entry
                if len(vecs) == ways:
                    del vecs[next(iter(vecs))]
                vecs[chunk] = 1 << (blk & vmask)
                entry_writes += 1
            else:
                filtered += 1
        elif c == 2:  # alloc: clear the PV bit (safety-critical)
            vector = vecs.get(chunk)
            if vector is not None:
                vector &= ~(1 << (blk & vmask))
                if vector == 0:
                    del vecs[chunk]
                else:
                    vecs[chunk] = vector
                entry_writes += 1
        else:  # P1 snoop
            vector = vecs.pop(chunk, None)
            if vector is not None:
                vecs[chunk] = vector
                if vector & (1 << (blk & vmask)):
                    return i, entry_writes, filtered
            if not passed:
                return i, entry_writes, filtered
    return -1, entry_writes, filtered


def _include_walk(lanes, mask: int, events, ok):
    """Walk a span's packed events in stream order over IJ lanes.

    The Python twin of ``ij_walk`` in ``exclude_machine.c``.  ``lanes``
    pairs each sub-array's counter list with its index shift; the
    counters update in place.  ``ok[i]`` gets each snoop's
    all-lanes-nonzero verdict (1 elsewhere).  Returns
    ``(i, filtered, pbit_writes)``: the index of the first EVICT that
    underflows or P1 snoop the lanes filter (or -1), and the counts
    strictly before it.
    """
    filtered = pbit_writes = 0
    for i, event in enumerate(events):
        kind = event & 3
        block = event >> 4
        if kind == 0:  # snoop: every presence bit set?
            passed = True
            for counters, shift in lanes:
                if not counters[(block >> shift) & mask]:
                    passed = False
                    break
            ok[i] = passed
            if not passed:
                if event & 8:  # P1 snoop filtered: violation
                    return i, filtered, pbit_writes
                filtered += 1
            continue
        ok[i] = True
        if kind == 1:  # alloc: one increment per lane
            for counters, shift in lanes:
                index = (block >> shift) & mask
                if not counters[index]:
                    pbit_writes += 1
                counters[index] += 1
        else:  # evict: one decrement per lane
            for counters, shift in lanes:
                index = (block >> shift) & mask
                value = counters[index]
                if not value:  # underflow
                    return i, filtered, pbit_writes
                counters[index] = value - 1
                if value == 1:
                    pbit_writes += 1
    return -1, filtered, pbit_writes


def _python_walk(walk, *state):
    """A span walk running the Python ``walk`` over per-set ``state``."""

    def run(segment: PackedSegment, lo: int, hi: int, items: dict, ok, stop):
        # Plain lists iterate far faster than arrays; every bank on the
        # Python walk shares one conversion per span.
        b, code = segment.shared(
            ("itemlists", lo, hi),
            lambda: (items["b"].tolist(), items["code"].tolist()),
        )
        return walk(
            *state, b[:stop] if stop < len(b) else b, code,
            _ALL_PASS if ok is None else ok.tolist(),
        )

    run.state = state  # read back by a snapshot
    return run


def _compiled_walk(function, *state):
    """A span walk calling the compiled ``function`` over flat ``state``."""
    out = _np.zeros(2, dtype=_np.int64)
    args = [
        value.ctypes.data if isinstance(value, _np.ndarray) else value
        for value in state
    ]

    def run(segment: PackedSegment, lo: int, hi: int, items: dict, ok, stop):
        # The C walk reads ``stop`` contiguous items of these exact types
        # (no copies: the span items are built that way).
        b = _np.ascontiguousarray(items["b"], dtype=_np.int64)
        code = _np.ascontiguousarray(items["code"], dtype=_np.int64)
        if ok is not None:
            ok = _np.ascontiguousarray(ok, dtype=_np.bool_)
        verdicts = b.size if ok is None else ok.size
        if not stop <= b.size == code.size == verdicts:
            raise InvariantError("exclude walk items disagree in length")
        i = function(
            *args, b.ctypes.data, code.ctypes.data,
            None if ok is None else ok.ctypes.data, stop, out.ctypes.data,
        )
        return i, int(out[0]), int(out[1])

    run.state = state  # the rows must outlive every call
    return run


def _flat_rows(entries: list, ways: int, dtype):
    """Per-set entry lists as fixed ``ways``-wide rows plus fill counts."""
    rows = _np.zeros((len(entries), ways), dtype=dtype)
    fill = _np.zeros(len(entries), dtype=_np.int32)
    for index, row in enumerate(entries):
        if row:
            rows[index, : len(row)] = row
            fill[index] = len(row)
    return rows, fill


class _ExcludeReplayer(VectorReplayer):
    """EJ, VEJ and HJ replay: one exclude machine behind one span body.

    A plain EJ/VEJ runs its machine behind an all-pass IJ verdict; an HJ
    runs its exclude component's machine behind its IJ's include walk and
    owns the hybrid's filtered accounting (a snoop is filtered unless
    both components pass).  ``filtered``/``probes`` count the filter,
    ``entry_writes`` the exclude structure, ``cnt_updates``/
    ``pbit_writes`` the include component — exactly the composition of
    :meth:`repro.core.hybrid.HybridJetty.energy_counts`.

    The machine is the compiled walk when :mod:`repro.core._cmachine`
    loaded its library (``compiled`` is then true), else the Python walk
    over the same items; a VEJ with vectors wider than the C kernel's
    ``uint64`` always takes the Python walk.  The include walk runs
    first and stops at its first error; the exclude walk then stops
    there too, so the oracle's first-error-wins ordering holds: a safety
    violation earlier in the span raises first, one later never gets the
    chance.
    """

    def _import(self) -> None:
        snoop_filter = exclude = self.snoop_filter
        self._lanes = None
        if type(snoop_filter) is HybridJetty:
            exclude = snoop_filter.exclude
            self._lanes = _IncludeLanes(snoop_filter.include)
        self._exclude = exclude
        ways, set_mask = exclude.ways, exclude._index_mask
        lib = _cmachine.library()
        if type(exclude) is VectorExcludeJetty:
            vectors = _warm_vectors(exclude)
            geometry = (ways, set_mask, exclude._vec_shift, exclude._vec_mask)
            self.compiled = (
                lib is not None and exclude.vector_bits <= _MAX_VECTOR_BITS
            )
            if self.compiled:
                rows, fill = _flat_rows(
                    [list(v) for v in vectors], ways, _np.int64
                )
                vecs, _ = _flat_rows(
                    [list(v.values()) for v in vectors], ways, _np.uint64
                )
                self._walk = _compiled_walk(
                    lib.vej_walk, rows, vecs, fill, *geometry
                )
            else:
                self._walk = _python_walk(_vector_walk, vectors, *geometry)
        else:
            stacks = _warm_stacks(exclude)
            self.compiled = lib is not None
            if self.compiled:
                rows, fill = _flat_rows(stacks, ways, _np.int64)
                self._walk = _compiled_walk(
                    lib.ej_walk, rows, fill, ways, set_mask
                )
            else:
                self._walk = _python_walk(
                    _stack_walk, stacks, ways, set_mask
                )

    def _export(self) -> None:
        exclude, state = self._exclude, self._walk.state
        vej = type(exclude) is VectorExcludeJetty
        if not self.compiled:  # the Python walk's stacks or dicts
            sets = state[0]
        elif vej:  # flat (rows, vecs, fill, ...)
            rows, vecs, fill = state[:3]
            sets = [
                dict(zip(rows[index, :n].tolist(), vecs[index, :n].tolist()))
                for index, n in enumerate(fill.tolist())
            ]
        else:  # flat (rows, fill, ...)
            rows, fill = state[:2]
            sets = [
                rows[index, :n].tolist()
                for index, n in enumerate(fill.tolist())
            ]
        if vej:
            _export_vectors(exclude, sets)
        else:
            _export_stacks(exclude, sets)
        if self._lanes is not None:
            self._lanes.export()
            # Split the counts along HybridJetty.energy_counts(): the
            # hybrid counts lookups, each component the storage updates
            # it prices.
            counts, hybrid = self.counts, self.snoop_filter
            hybrid.counts = FilterEventCounts(
                probes=counts.probes, filtered=counts.filtered
            )
            exclude.counts = FilterEventCounts(
                entry_writes=counts.entry_writes
            )
            hybrid.include.counts = FilterEventCounts(
                cnt_updates=counts.cnt_updates,
                pbit_writes=counts.pbit_writes,
            )

    def _span(self, segment: PackedSegment, lo: int, hi: int) -> None:
        s = _span_stats(segment, lo, hi)
        items = _span_items(segment, lo, hi)
        pos = items["pos"]
        stop = pos.size
        k = -1
        ok = None
        lanes = self._lanes
        if lanes is not None:
            verdicts = _np.empty(hi - lo, dtype=_np.bool_)
            k, _, pbit_writes = lanes.walk(segment, lo, hi, verdicts)
            ok = verdicts[pos]
            if k >= 0:
                # Items end before an underflowing EVICT (never an item)
                # and at a P1 snoop the IJ filtered, which the exclude
                # walk then reports as the violation.
                stop = int(_np.searchsorted(pos, k, side="right"))
        i, entry_writes, filtered = self._walk(
            segment, lo, hi, items, ok, stop
        )
        if i >= 0:
            self._flush_prefix(s, int(pos[i]), filtered)
            raise self._safety_error(int(items["b"][i]))
        if k >= 0:
            self._flush_prefix(s, k, filtered)
            raise lanes.underflow_error(int(segment.array()[lo + k]) >> 4)
        self._flush_span(s, filtered)
        counts = self.counts
        counts.probes += s["n_snoops"]
        counts.filtered += filtered
        counts.entry_writes += entry_writes
        if lanes is not None:
            counts.cnt_updates += lanes.include.n_arrays * (
                s["n_allocs"] + s["n_evicts"]
            )
            counts.pbit_writes += pbit_writes
            lanes.commit(s)
