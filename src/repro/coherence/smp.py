"""The top-level SMP system: nodes, bus, and the trace-driven run loop.

:class:`SMPSystem` wires :class:`~repro.coherence.node.CacheNode` objects
to a shared :class:`~repro.coherence.bus.Bus` and consumes an interleaved
access stream.  :func:`simulate_streaming` is the one loop that advances
a machine: the experiment engine uses it to evaluate filters live, to
record traces for later replay, and to checkpoint and resume both.

**Shard/marker protocol.**  Every node appends the events its JETTY
would observe (SNOOP/ALLOC/EVICT, plus the warm-up MARKER) to a per-node
list.  The run is cut into *chunks* of at most ``chunk_size`` accesses;
after each chunk :meth:`SMPSystem.take_shard` detaches the per-node
event lists — one bounded *shard* per node, in node order — and hands
them to the attached consumers (e.g.
:class:`~repro.core.stats.StreamingFilterBank`, or a :class:`TraceSink`
persisting the run for later replay), then the nodes start fresh lists.
Because events are only ever appended in global access order and a
shard boundary never reorders or drops anything, the per-node
concatenation of all shards is the same event sequence whatever the
chunk size.  The warm-up MARKER is emitted by
:meth:`SMPSystem.begin_measurement` *between* chunks and therefore rides
at the front of the next shard, at the same position in the event
sequence whatever the chunk size.

**Determinism contract.**  A simulation is a pure function of
``(config, access stream)``: node statistics, bus statistics, and the
event sequence are identical whatever the chunk size and whichever
process executes it.  Downstream, filter evaluations derived from the
shards are byte-identical whether the filters ran live or replayed a
recorded trace (``tests/test_streaming.py`` pins this across chunk
sizes against the golden suite).

**Self-checks.**  Every :func:`simulate_streaming` run ends with
:func:`check_simulator_laws` (counter conservation and L1 inclusion),
so a broken simulator raises :class:`~repro.errors.InvariantError`
before any result is stored.  The module also provides
:func:`check_coherence_invariants`, used by the integration and
property-based tests to assert protocol correctness after (or during) a
run:

* at most one node holds a subblock in M or E, and then no other node
  holds any valid copy;
* at most one node holds a subblock in O;
* L1 contents are included in the L2 (and writable L1 lines are backed by
  an L2 subblock in M or E, dirty ones by M);
* write-buffered copies do not coexist with another cache's M/E copy.
"""

from __future__ import annotations

import base64
import ctypes
import heapq
import itertools
import zlib
from array import array
from collections.abc import Iterable, Iterator
from typing import Protocol

from repro.coherence.bus import Bus, BusOp, BusStatsCounter
from repro.coherence.cache import DIRTY, EMPTY, LINE_SHIFT, WRITABLE
from repro.coherence.config import SystemConfig
from repro.coherence.metrics import BusStats, NodeStats, SimResult
from repro.coherence.node import CacheNode
from repro.core import _cmachine
from repro.core.stats import NodeEventStream
from repro.coherence.states import MOESI
from repro.errors import CoherenceError, InvariantError, TraceError
from repro.traces.access import (
    ADDRESS_SHIFT,
    CPU_MASK,
    CPU_SHIFT,
    MAX_CPUS,
    WRITE_BIT,
    pack_access,
    pack_accesses,
)

#: Default accesses per streaming chunk.  Peak event-shard memory is
#: proportional to this (a few events per access at most), independent of
#: trace length.
DEFAULT_CHUNK_SIZE = 65_536

#: Packed events per persisted trace segment (2 MiB of raw ``array('q')``
#: bytes).  Segment boundaries are cut at exact event counts, never at
#: chunk boundaries, so the bytes of a recorded trace are independent of
#: the simulation chunk size.  Changing this constant only changes how a
#: *new* recording is sliced — old recordings replay through their own
#: manifests unchanged.
TRACE_SEGMENT_EVENTS = 1 << 18


def iter_batches(
    source: Iterable[tuple[int, int, bool]],
    batch_size: int,
    limit: int | None = None,
    n_cpus: int = MAX_CPUS,
) -> Iterator[array]:
    """Yield bounded in-order batches of packed accesses from ``source``.

    Sources exposing the *batch protocol* — a ``take(count)`` method
    returning up to ``count`` packed accesses in an ``array('q')``, like
    :class:`repro.traces.synth.MixStream` — are drained through it, so a
    whole batch materialises in one call.  Anything else yields
    ``(cpu, address, is_write)`` tuples, read through
    ``itertools.islice`` and packed by
    :func:`repro.traces.access.pack_accesses`, which rejects a CPU
    outside ``0..n_cpus-1`` or a negative address.  With ``limit``, at
    most that many accesses are consumed in total; a short batch always
    means the source (or the limit) is exhausted.
    """
    take = getattr(source, "take", None)
    if take is None:
        iterator = iter(source)
        if limit is not None:
            iterator = itertools.islice(iterator, limit)
        while True:
            batch = pack_accesses(itertools.islice(iterator, batch_size), n_cpus)
            if not batch:
                return
            yield batch
            if len(batch) < batch_size:
                return
    else:
        remaining = limit
        while True:
            size = batch_size if remaining is None else min(batch_size, remaining)
            if size <= 0:
                return
            batch = take(size)
            if not batch:
                return
            if remaining is not None:
                remaining -= len(batch)
            yield batch
            if len(batch) < size:
                return


class ShardConsumer(Protocol):
    """Anything that can absorb per-chunk event shards from a live run."""

    def consume(self, shard: list[NodeEventStream]) -> None:
        """Receive one chunk's per-node event shards, in node order."""


class TraceSink:
    """Shard consumer that repacks a live run's events into fixed segments.

    Attached to :func:`simulate_streaming` alongside (or instead of) the
    filter banks, the sink accumulates each node's packed events in a
    byte buffer and hands off one *segment* — exactly
    ``segment_events`` events of raw native-order ``array('q')`` bytes —
    to the ``write_segment(node_id, index, raw_bytes)`` callable every
    time a node's buffer fills, keeping memory O(segment) for any trace
    length.  :meth:`finish` flushes the (possibly short) tail segments
    and returns the per-node segment counts for the trace manifest.

    Because segments are cut at exact per-node event counts, the bytes
    written are a pure function of the event streams: recording the same
    ``(workload, system, seed)`` at any simulation chunk size produces
    identical segments.  The sink is storage-agnostic (compression and
    store keys belong to :mod:`repro.analysis.store`), which keeps the
    coherence layer free of analysis imports.
    """

    _ITEMSIZE = 8  # bytes per packed event in an array('q')

    def __init__(
        self,
        n_cpus: int,
        write_segment,
        segment_events: int = TRACE_SEGMENT_EVENTS,
    ) -> None:
        if segment_events < 1:
            raise TraceError(
                f"segment_events must be >= 1, got {segment_events}"
            )
        self._write = write_segment
        self._segment_bytes = segment_events * self._ITEMSIZE
        self._buffers = [bytearray() for _ in range(n_cpus)]
        self._next_index = [0] * n_cpus
        #: Total events recorded per node (for the manifest).
        self.events_per_node = [0] * n_cpus
        #: CRC32 of each node's most recently written segment's raw
        #: bytes.  A resumed recording checks the last durable segment
        #: against this before trusting it (a truncated store row must
        #: send the resume back to an earlier watermark, not replay on
        #: top of garbage).
        self.last_segment_crc: list[int | None] = [None] * n_cpus

    def consume(self, shard: list[NodeEventStream]) -> None:
        segment_bytes = self._segment_bytes
        for node_id, stream in enumerate(shard):
            events = stream.events
            if not events:
                continue
            self.events_per_node[node_id] += len(events)
            buffer = self._buffers[node_id]
            buffer += events.tobytes()
            while len(buffer) >= segment_bytes:
                raw = bytes(buffer[:segment_bytes])
                self._write(node_id, self._next_index[node_id], raw)
                self._next_index[node_id] += 1
                self.last_segment_crc[node_id] = zlib.crc32(raw)
                del buffer[:segment_bytes]

    def finish(self) -> list[int]:
        """Flush tail segments; return each node's total segment count."""
        for node_id, buffer in enumerate(self._buffers):
            if buffer:
                self._write(node_id, self._next_index[node_id], bytes(buffer))
                self._next_index[node_id] += 1
                buffer.clear()
        return list(self._next_index)

    def snapshot(self) -> dict:
        """Serialisable sink state: buffered tails plus segment watermarks.

        ``next_index`` is the per-node *durable watermark* — every
        segment below it has been handed to ``write_segment`` already —
        and the byte buffers carry whatever has not yet filled a
        segment.  A restored sink continues writing at exactly the next
        index with exactly the bytes an uninterrupted run would have
        buffered, so the recorded segments stay a pure function of the
        event streams.
        """
        return {
            "segment_bytes": self._segment_bytes,
            "buffers": [
                base64.b64encode(bytes(buffer)).decode("ascii")
                for buffer in self._buffers
            ],
            "next_index": list(self._next_index),
            "events_per_node": list(self.events_per_node),
            "last_segment_crc": list(self.last_segment_crc),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot (buffer contents, watermarks, checksums)."""
        if len(state["buffers"]) != len(self._buffers):
            raise TraceError(
                f"sink snapshot covers {len(state['buffers'])} node(s), "
                f"sink has {len(self._buffers)}"
            )
        if state["segment_bytes"] != self._segment_bytes:
            raise TraceError(
                f"sink snapshot cut segments at {state['segment_bytes']} "
                f"bytes, this sink cuts at {self._segment_bytes}"
            )
        self._buffers = [
            bytearray(base64.b64decode(encoded))
            for encoded in state["buffers"]
        ]
        self._next_index = list(state["next_index"])
        self.events_per_node = list(state["events_per_node"])
        self.last_segment_crc = list(state["last_segment_crc"])


class L1Batch(ctypes.Structure):
    """A batch as the native ``l1_run`` reads it (``l1_batch`` in
    ``repro/core/machine.c``)."""

    _fields_ = [
        ("accesses", ctypes.c_void_p),
        ("lines", ctypes.POINTER(ctypes.c_void_p)),
        ("hits", ctypes.c_void_p),
        ("n_cpus", ctypes.c_int64),
        ("set_mask", ctypes.c_int64),
        ("shift", ctypes.c_int64),
    ]


class SMPSystem:
    """A bus-based symmetric multiprocessor."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.bus = Bus(config.n_cpus)
        self.nodes = [CacheNode(i, config) for i in range(config.n_cpus)]
        for node in self.nodes:
            node.broadcast = self._make_broadcast(node.node_id)
            node.on_writeback = self.bus.record_writeback
        self.accesses = 0
        #: Per-CPU bound ``local_access`` methods — the run loop indexes
        #: this tuple instead of resolving two attributes per access.
        self._handlers = tuple(node.local_access for node in self.nodes)
        #: The run loop resolves clean hits itself against each node's
        #: L1 line words (the L1 is direct-mapped, so one slot decides
        #: the access).
        self._l1_lines = tuple(node.l1.lines for node in self.nodes)
        self._l1_mask = config.l1.n_sets - 1
        self._l1_shift = ADDRESS_SHIFT + config.l1.block_offset_bits
        #: Per CPU: the read hits and write hits of the running batch,
        #: folded into ``NodeStats`` once per batch.
        self._hits = array("q", [0]) * (2 * config.n_cpus)
        #: The :class:`L1Batch` of the native hit loop, built on first use.
        self._native: L1Batch | None = None

    def _make_broadcast(self, requester: int):
        """Build the closure a node uses to put a transaction on the bus.

        The remote nodes' ``snoop`` bound methods and one reply buffer
        are captured per requester, so a transaction is a plain loop
        filling a preallocated list — no per-transaction comprehension,
        closure cells, or list allocation.  Reusing the buffer is safe
        because :meth:`Bus.record_transaction` folds the replies
        immediately and never retains the list.
        """
        snoops = tuple(
            node.snoop for node in self.nodes if node.node_id != requester
        )
        record = self.bus.record_transaction
        replies: list = [None] * len(snoops)

        def broadcast(op: BusOp, address: int):
            for i, snoop in enumerate(snoops):
                replies[i] = snoop(op, address)
            return record(op, replies)

        return broadcast

    # ------------------------------------------------------------------

    def access(self, cpu: int, address: int, is_write: bool) -> None:
        """Run one processor access to completion (a batch of one)."""
        self._run_batch(array("q", [
            pack_access(cpu, address, is_write, self.config.n_cpus)
        ]))

    def _run_batch(self, batch: array) -> None:
        """The per-access hot loop over one batch of packed accesses.

        The common case — a clean L1 hit: a load of a resident block, or
        a store to a resident dirty writable one — never leaves the hit
        loop: the native ``l1_run`` (or, without the native core, its
        twin :meth:`_l1_hits`) counts it against the L1 line words and
        stops at the first access that is anything else.  That access
        goes through ``local_access`` and the loop re-enters after it.
        The hits are folded into ``NodeStats`` once per batch; stats
        objects are only replaced between batches (by
        :meth:`begin_measurement`).
        """
        n = len(batch)
        handlers = self._handlers
        n_cpus = len(handlers)
        lib = _cmachine.library()
        if lib is None:
            hit_run, scan = self._l1_hits, batch
        else:
            if self._native is None:
                self._native = self._native_batch()
            self._native.accesses = batch.buffer_info()[0]
            hit_run, scan = lib.l1_run, ctypes.byref(self._native)
        i = 0
        try:
            while True:
                i = hit_run(scan, i, n)
                if i == n:
                    break
                word = batch[i]
                if word < 0:
                    raise TraceError(
                        f"negative address {word >> ADDRESS_SHIFT:#x}"
                    )
                cpu = word >> CPU_SHIFT & CPU_MASK
                if cpu >= n_cpus:
                    raise TraceError(
                        f"access for CPU {cpu} on a {n_cpus}-way system"
                    )
                handlers[cpu](word >> ADDRESS_SHIFT, word & WRITE_BIT)
                i += 1
        finally:
            self.accesses += i
            self._fold_hits()

    def _l1_hits(self, batch: array, lo: int, hi: int) -> int:
        """Count clean L1 hits from ``lo`` on; the first index that is
        not one (or names no CPU here, or is negative), else ``hi``.

        The Python twin of ``l1_run`` in ``repro/core/machine.c``.
        """
        lines = self._l1_lines
        hits = self._hits
        n_cpus = len(lines)
        mask = self._l1_mask
        shift = self._l1_shift
        clean = WRITABLE | DIRTY
        for i in range(lo, hi):
            word = batch[i]
            cpu = word >> CPU_SHIFT & CPU_MASK
            if word < 0 or cpu >= n_cpus:
                return i
            block = word >> shift
            line = lines[cpu][block & mask]
            if line >> LINE_SHIFT != block:
                return i
            is_write = word & WRITE_BIT
            if is_write and line & clean != clean:
                return i
            hits[2 * cpu + is_write] += 1
        return hi

    def _native_batch(self) -> L1Batch:
        lines = self._l1_lines
        return L1Batch(
            lines=(ctypes.c_void_p * len(lines))(
                *(line_words.buffer_info()[0] for line_words in lines)
            ),
            hits=self._hits.buffer_info()[0],
            n_cpus=len(lines),
            set_mask=self._l1_mask,
            shift=self._l1_shift,
        )

    def _fold_hits(self) -> None:
        """Add the batch's counted L1 hits to each node's statistics."""
        hits = self._hits
        for cpu, node in enumerate(self.nodes):
            reads = hits[2 * cpu]
            writes = hits[2 * cpu + 1]
            if reads or writes:
                stats = node.stats
                stats.l1_hits += reads + writes
                stats.local_reads += reads
                stats.local_writes += writes
                hits[2 * cpu] = hits[2 * cpu + 1] = 0

    def snapshot(self) -> dict:
        """Serialisable logical state of the whole machine.

        Composes every node's snapshot with the bus counters and the
        measured-access counter.  Everything derived — the handler
        tuple, the per-requester broadcast closures, the hit loop's view
        of the L1 line words — stays valid because the underlying
        structures are restored in place.
        """
        return {
            "accesses": self.accesses,
            "nodes": [node.snapshot() for node in self.nodes],
            "bus": self.bus.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken from an identically configured system."""
        if len(state["nodes"]) != len(self.nodes):
            raise TraceError(
                f"snapshot covers {len(state['nodes'])} node(s), "
                f"system has {len(self.nodes)}"
            )
        for node, node_state in zip(self.nodes, state["nodes"]):
            node.restore(node_state)
        self.bus.restore(state["bus"])
        self.accesses = state["accesses"]

    def take_shard(self) -> list[NodeEventStream]:
        """Detach and return every node's pending events as one shard.

        Nodes continue recording into fresh, empty streams; the caller
        owns the returned shard.  Concatenating all shards taken during a
        run (per node, in order) reconstructs the run's exact event
        sequence, whatever the chunk size.
        """
        return [node.reset_event_stream() for node in self.nodes]

    def run_chunked(
        self,
        accesses: Iterable[tuple[int, int, bool]],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        limit: int | None = None,
    ) -> Iterator[list[NodeEventStream]]:
        """Consume ``accesses`` in bounded chunks, yielding event shards.

        Each yielded shard covers at most ``chunk_size`` accesses; event
        memory never exceeds one chunk's worth.  The access stream itself
        is consumed lazily (never materialised beyond one chunk); with
        ``limit``, at most that many accesses are consumed.
        """
        if chunk_size < 1:
            raise TraceError(f"chunk_size must be >= 1, got {chunk_size}")
        for batch in iter_batches(
            accesses, chunk_size, limit, self.config.n_cpus
        ):
            self._run_batch(batch)
            yield self.take_shard()

    def mark_phase(self, index: int) -> None:
        """Append a PHASE marker to every node's event stream.

        Like the warm-up MARKER, the marker is emitted *between* chunks
        and therefore rides at the front of the next shard (or the
        residue), landing at the same position in the event sequence
        whatever the chunk size.  Replay statistics split at it; cache
        and filter state persist untouched.
        """
        for node in self.nodes:
            node.events.phase(index)

    def begin_measurement(self) -> None:
        """End the cache warm-up phase: zero statistics, keep all state.

        Cache, write-buffer, and filter-relevant state (the event streams'
        ALLOC/EVICT history) are preserved; only counters restart, so the
        reported rates reflect steady-state behaviour rather than the
        compulsory misses of a cold L2.
        """
        for node in self.nodes:
            node.stats = NodeStats()
            node.events.marker()
        self.bus.stats = BusStatsCounter()
        self.bus.stats.ensure_cpus(self.config.n_cpus)
        self.accesses = 0

    def finish(self) -> None:
        """Drain all write buffers (call once, at end of trace)."""
        for node in self.nodes:
            node.drain_write_buffer()

    def result(self, workload: str = "") -> SimResult:
        """Package the run's statistics for analysis.

        Events are not part of the result: they were handed to shard
        consumers as the run advanced.
        """
        bus_counts = self.bus.stats
        bus = BusStats(
            reads=bus_counts.transactions[BusOp.READ],
            read_exclusives=bus_counts.transactions[BusOp.READ_X],
            upgrades=bus_counts.transactions[BusOp.UPGRADE],
            writebacks=bus_counts.writebacks,
            remote_hit_histogram=tuple(bus_counts.remote_hit_histogram),
        )
        return SimResult(
            workload=workload,
            n_cpus=self.config.n_cpus,
            node_stats=[node.stats for node in self.nodes],
            bus=bus,
            accesses=self.accesses,
        )


#: Boundary actions of :func:`_boundary_schedule`; a phase mark's action
#: is its (non-negative) index.
_SAVE = -2
_MEASURE = -1


def _boundary_schedule(
    warmup: int,
    phase_marks,
    start: int = 0,
    checkpoint_every: int | None = None,
    end: int = 0,
) -> Iterator[tuple[int, int]]:
    """The ``(position, action)`` stops of a run still ahead of ``start``.

    Actions are :data:`_SAVE` (a checkpoint, at the multiples of
    ``checkpoint_every`` strictly between ``start`` and ``end``),
    :data:`_MEASURE` (``begin_measurement``) or a phase index to mark.
    Stops are ordered by ``(position, action)``, which is the ordering
    rule :func:`simulate_streaming` documents; stops at or before
    ``(start, _SAVE)`` were crossed before the snapshot a resumed run
    starts from.
    """
    markers = [(int(position), index)
               for index, position in enumerate(phase_marks)]
    if warmup > 0:
        markers.append((warmup, _MEASURE))
    markers.sort()
    stops: Iterable[tuple[int, int]] = markers
    if checkpoint_every is not None:
        stops = heapq.merge(markers, (
            (position, _SAVE)
            for position in range(checkpoint_every, end, checkpoint_every)
        ))
    return (stop for stop in stops if stop > (start, _SAVE))


def simulate_streaming(
    config: SystemConfig | SMPSystem,
    accesses: Iterable[tuple[int, int, bool]],
    workload: str = "",
    warmup: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    sinks: Iterable[ShardConsumer] = (),
    phase_marks=(),
    *,
    start: int = 0,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
) -> SimResult:
    """Run ``accesses`` on a system in bounded chunks, then drain.

    This is the one loop that advances a machine.  ``config`` is a
    :class:`SystemConfig` (a fresh system is built) or an already-built
    :class:`SMPSystem` — typically one restored from a checkpoint, in
    which case ``start`` is the stream position it was snapshotted at
    and ``accesses`` continues from there.

    The first ``warmup`` accesses warm the caches; statistics (node,
    bus, and filter coverage) cover only the remainder.  Each entry of
    ``phase_marks`` is an absolute access position (warm-up included) at
    which a PHASE marker is emitted into every node's event stream —
    phase index = entry index.  Events are cut into shards of at most
    ``chunk_size`` accesses and pushed to ``sinks`` (typically one
    :class:`~repro.core.stats.StreamingFilterBank` per filter
    configuration, or a :class:`TraceSink`) as the simulation advances,
    so peak memory is O(chunk_size), independent of trace length.
    Returns the run's statistics.

    **Stops.**  The run pauses between chunks at every boundary of
    :func:`_boundary_schedule`.  With ``checkpoint_every``, it calls
    ``on_checkpoint(system, position)`` at every multiple of that many
    stream accesses the stream still runs past (``accesses`` must then
    report its length as ``remaining``, as workload streams do); the
    callback snapshots whatever it owns alongside the system.  At one
    position the save comes first, then the warm-up MARKER, then PHASE
    markers, so a snapshot never contains a marker emitted at its own
    position and a run resumed from it emits exactly the markers an
    uninterrupted run emits next.  Markers are emitted *between* chunks
    and ride at the front of the next shard (or the final residue), at
    the same place in the event sequence whatever the chunk size.
    """
    system = config if isinstance(config, SMPSystem) else SMPSystem(config)
    sinks = list(sinks)
    end = 0
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise TraceError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        end = start + accesses.remaining
    iterator = iter(accesses)
    position = start
    for stop, action in _boundary_schedule(
        warmup, phase_marks, start, checkpoint_every, end
    ):
        if stop > position:
            for shard in system.run_chunked(
                iterator, chunk_size, limit=stop - position
            ):
                for sink in sinks:
                    sink.consume(shard)
            position = stop
        if action == _SAVE:
            on_checkpoint(system, position)
        elif action == _MEASURE:
            system.begin_measurement()
        else:
            system.mark_phase(action)
    for shard in system.run_chunked(iterator, chunk_size):
        for sink in sinks:
            sink.consume(shard)
    # A warm-up or PHASE marker (and nothing else) can remain pending
    # when the region after it is empty or the stream ended exactly at a
    # boundary.
    residue = system.take_shard()
    if any(stream.events for stream in residue):
        for sink in sinks:
            sink.consume(residue)
    system.finish()
    check_simulator_laws(system)
    return system.result(workload)


def check_simulator_laws(system: SMPSystem) -> None:
    """Raise :class:`~repro.errors.InvariantError` unless a finished run
    obeys the laws every correct simulation obeys.

    Checked by :func:`simulate_streaming` before it returns, so a broken
    run stores no row: every node's L1 hits and misses add up to its
    local accesses, the nodes' local accesses add up to the system's,
    and every node keeps L1 inclusion (:func:`_check_inclusion`).  The
    full :func:`check_coherence_invariants` stays a test-time check.
    """
    total = 0
    for node in system.nodes:
        stats = node.stats
        local = stats.local_reads + stats.local_writes
        if stats.l1_hits + stats.l1_misses != local:
            raise InvariantError(
                f"node {node.node_id}: {stats.l1_hits} L1 hits + "
                f"{stats.l1_misses} misses != {local} local accesses"
            )
        total += local
        _check_inclusion(node)
    if total != system.accesses:
        raise InvariantError(
            f"the nodes ran {total} local accesses, the system "
            f"{system.accesses}"
        )


def check_coherence_invariants(system: SMPSystem) -> None:
    """Assert global MOESI and inclusion invariants; raise on violation.

    Walks every node's L2 frames (one per set) and write buffer.
    """
    per_subblock: dict[tuple[int, int], list[tuple[int, MOESI]]] = {}
    for node in system.nodes:
        for frame in node.l2.frames:
            if frame is None:
                continue
            for sub, state in enumerate(frame.states):
                if state is not MOESI.I:
                    per_subblock.setdefault((frame.block, sub), []).append(
                        (node.node_id, state)
                    )
        _check_inclusion(node)

    wb_copies: dict[tuple[int, int], list[int]] = {}
    for node in system.nodes:
        for block in node.wb.blocks():
            entry = node.wb.probe(block)
            assert entry is not None
            for sub, _state in entry.dirty_subblocks:
                wb_copies.setdefault((block, sub), []).append(node.node_id)

    for key, holders in per_subblock.items():
        states = [state for _node, state in holders]
        exclusive = [s for s in states if s in (MOESI.M, MOESI.E)]
        owners = [s for s in states if s is MOESI.O]
        if exclusive and len(states) > 1:
            raise CoherenceError(
                f"subblock {key} held exclusively ({exclusive[0].name}) "
                f"while {len(states)} caches hold copies: {holders}"
            )
        if len(owners) > 1:
            raise CoherenceError(f"subblock {key} has {len(owners)} owners")
        if exclusive and key in wb_copies:
            raise CoherenceError(
                f"subblock {key} is M/E in a cache but also write-buffered "
                f"on nodes {wb_copies[key]}"
            )


def _check_inclusion(node: CacheNode) -> None:
    """Every L1 line must be backed by a valid L2 subblock on its node,
    a writable one by M or E, a dirty one by M
    (:class:`~repro.errors.InvariantError` otherwise)."""
    ratio_bits = (
        node.l2.config.block_offset_bits - node.l1.config.block_offset_bits
    )
    for line in node.l1.lines:
        if line == EMPTY:
            continue
        l1_block = line >> LINE_SHIFT
        l2_block = l1_block >> ratio_bits
        sub = l1_block & ((1 << ratio_bits) - 1)
        frame = node.l2.find(l2_block)
        if frame is None or not frame.states[sub].valid:
            raise InvariantError(
                f"inclusion violated on node {node.node_id}: L1 block "
                f"{l1_block:#x} lacks a valid L2 backing subblock"
            )
        if line & WRITABLE and frame.states[sub] not in (MOESI.M, MOESI.E):
            raise InvariantError(
                f"writable L1 block {l1_block:#x} on node {node.node_id} "
                f"backed by L2 state {frame.states[sub].name}"
            )
        if line & DIRTY and frame.states[sub] is not MOESI.M:
            raise InvariantError(
                f"dirty L1 block {l1_block:#x} on node {node.node_id} "
                f"backed by L2 state {frame.states[sub].name}"
            )
