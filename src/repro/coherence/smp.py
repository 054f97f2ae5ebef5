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
import dataclasses
import heapq
import itertools
import math
import zlib
from array import array
from collections.abc import Iterable, Iterator
from typing import Protocol

from repro.coherence.bus import Bus, BusOp, BusStatsCounter
from repro.coherence.cache import DIRTY, EMPTY, LINE_SHIFT, WRITABLE
from repro.coherence.config import SystemConfig
from repro.coherence.metrics import BusStats, NodeStats, SimResult
from repro.coherence.node import CacheNode, violation
from repro.core import _cmachine
from repro.core.stats import NodeEventStream
from repro.coherence.states import MOESI
from repro.errors import CoherenceError, InvariantError, TraceError
from repro.traces.access import (
    ADDRESS_SHIFT,
    CPU_MASK,
    CPU_SHIFT,
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

#: ``smp_run``'s status for an access the machine cannot run.
_REJECTED = 1


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


#: ``NodeStats`` counters in field order: the layout of a node's row of
#: counter deltas, which the native core counts into.
STAT_FIELDS = tuple(field.name for field in dataclasses.fields(NodeStats))
_L1_HITS = STAT_FIELDS.index("l1_hits")
_LOCAL_READS = STAT_FIELDS.index("local_reads")
_LOCAL_WRITES = STAT_FIELDS.index("local_writes")
#: Packed events per node the native core may emit between two drains
#: of its scratch (32 KiB per node).
EVENT_SCRATCH = 4096


class _NativeNode(ctypes.Structure):
    """One node as the native core sees it (``cnode`` in
    ``repro/core/machine.c``): addresses of the node's buffers and of its
    rows of counter deltas and event scratch."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "lines", "tags", "states", "in_l1", "wb_tags", "wb_states",
        "stats", "events", "n_events",
    )]


class NativeMachine(ctypes.Structure):
    """A machine as ``smp_run`` reads it (``smp`` in
    ``repro/core/machine.c``)."""

    _fields_ = [
        ("accesses", ctypes.c_void_p),
        ("nodes", ctypes.POINTER(_NativeNode)),
        ("bus", ctypes.c_void_p),
        *((name, ctypes.c_int64) for name in (
            "n_cpus", "n_sub", "wb_entries", "scratch",
            "l1_mask", "l1_shift", "l2_mask", "l2_shift",
            "status", "err_node", "err_block", "err_state",
        )),
    ]


def _address(buffer) -> int:
    """The address of an ``array`` or ``bytearray``'s items."""
    if isinstance(buffer, bytearray):
        return ctypes.addressof(ctypes.c_char.from_buffer(buffer))
    return buffer.buffer_info()[0]


def _rejection(word: int, n_cpus: int) -> TraceError:
    """The error for a packed access this machine cannot run."""
    if word < 0:
        return TraceError(f"negative address {word >> ADDRESS_SHIFT:#x}")
    return TraceError(
        f"access for CPU {word >> CPU_SHIFT & CPU_MASK} on a "
        f"{n_cpus}-way system"
    )


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
        #: Per CPU, a row of ``NodeStats`` counter deltas (in
        #: :data:`STAT_FIELDS` order), and the bus's deltas (one per
        #: :class:`BusOp`, the writebacks, the remote-hit histogram):
        #: what the native core counts, folded into the
        #: statistics objects once per batch.
        self._deltas = array("q", [0]) * (len(STAT_FIELDS) * config.n_cpus)
        self._bus_deltas = array("q", [0]) * (len(BusOp) + 1 + config.n_cpus)
        #: Per CPU: the read hits and write hits the Python hit loop
        #: counted, moved into the delta rows by :meth:`_fold`.
        self._hits = array("q", [0]) * (2 * config.n_cpus)
        #: The :class:`NativeMachine` over this machine's buffers, built
        #: on the first native batch (see :meth:`_bind_native`).
        self._native: NativeMachine | None = None

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
        """Run one batch of packed accesses to completion.

        With the native core loaded, one ``smp_run`` call runs the whole
        batch -- the L1-hit loop and every miss, write-buffer step,
        snoop and bus transaction -- on the nodes' buffers in place.  It
        returns early only to have its event scratch emptied into the
        nodes' streams (:data:`EVENT_SCRATCH`), at an access this machine
        cannot run, or at a protocol violation; the last two raise the
        error the Python tier raises.  Without it, the Python twin of the
        hit loop (:meth:`_l1_hits`) counts clean L1 hits and stops at
        every other access, which goes through ``local_access``.  Either
        way the counted deltas are folded into ``NodeStats`` and the bus
        counters once per batch (:meth:`_fold`); statistics objects are
        only replaced between batches (by :meth:`begin_measurement`).
        The tiers share every buffer, so a run may switch between them
        at any batch.
        """
        n = len(batch)
        n_cpus = self.config.n_cpus
        lib = _cmachine.library()
        i = 0
        try:
            if lib is None:
                handlers = self._handlers
                while True:
                    i = self._l1_hits(batch, i, n)
                    if i == n:
                        break
                    word = batch[i]
                    if word < 0 or word >> CPU_SHIFT & CPU_MASK >= n_cpus:
                        raise _rejection(word, n_cpus)
                    handlers[word >> CPU_SHIFT & CPU_MASK](
                        word >> ADDRESS_SHIFT, word & WRITE_BIT
                    )
                    i += 1
            else:
                native = self._native or self._bind_native()
                native.accesses = batch.buffer_info()[0]
                run, machine = lib.smp_run, self._native_ref
                while True:
                    i = run(machine, i, n)
                    self._drain_events()
                    if native.status == _REJECTED:
                        raise _rejection(batch[i], n_cpus)
                    if native.status:
                        raise violation(native.status, native.err_node,
                                        native.err_block, native.err_state)
                    if i == n:
                        break
        finally:
            self.accesses += i
            self._fold()

    def _l1_hits(self, batch: array, lo: int, hi: int) -> int:
        """Count clean L1 hits from ``lo`` on; the first index that is
        not one (or names no CPU here, or is negative), else ``hi``.

        The Python twin of ``smp_run``'s hit loop in
        ``repro/core/machine.c``.
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

    def _bind_native(self) -> NativeMachine:
        """Build the :class:`NativeMachine` over this machine's buffers,
        with its per-CPU event scratch and counts."""
        config = self.config
        width = len(STAT_FIELDS)
        scratch = array("q", [0]) * (EVENT_SCRATCH * config.n_cpus)
        counts = array("q", [0]) * config.n_cpus
        nodes = (_NativeNode * config.n_cpus)(*(
            _NativeNode(
                lines=_address(node.l1.lines),
                tags=_address(node.l2.tags),
                states=_address(node.l2.states),
                in_l1=_address(node.l2.in_l1),
                wb_tags=_address(node.wb.tags),
                wb_states=_address(node.wb.states),
                stats=_address(self._deltas) + 8 * width * cpu,
                events=_address(scratch) + 8 * EVENT_SCRATCH * cpu,
                n_events=_address(counts) + 8 * cpu,
            )
            for cpu, node in enumerate(self.nodes)
        ))
        native = NativeMachine(
            nodes=nodes,
            bus=_address(self._bus_deltas),
            n_cpus=config.n_cpus,
            n_sub=config.l2.subblocks_per_block,
            wb_entries=config.wb_entries,
            scratch=EVENT_SCRATCH,
            l1_mask=config.l1.n_sets - 1,
            l1_shift=config.l1.block_offset_bits,
            l2_mask=config.l2.n_sets - 1,
            l2_shift=config.l2.block_offset_bits,
        )
        self._native_ref = ctypes.byref(native)
        self._scratch = memoryview(scratch).cast("B")
        self._event_counts = counts
        self._native = native
        return native

    def _drain_events(self) -> None:
        """Move the native core's scratch events into the nodes' streams."""
        scratch, counts = self._scratch, self._event_counts
        for cpu, node in enumerate(self.nodes):
            count = counts[cpu]
            if count:
                base = 8 * cpu * EVENT_SCRATCH
                node.events.events.frombytes(scratch[base:base + 8 * count])
                counts[cpu] = 0

    def _fold(self) -> None:
        """Add the batch's counted deltas to the statistics objects."""
        deltas, hits = self._deltas, self._hits
        width = len(STAT_FIELDS)
        if hits.count(0) != len(hits):
            for cpu in range(len(self.nodes)):
                reads, writes = hits[2 * cpu], hits[2 * cpu + 1]
                deltas[cpu * width + _L1_HITS] += reads + writes
                deltas[cpu * width + _LOCAL_READS] += reads
                deltas[cpu * width + _LOCAL_WRITES] += writes
            hits[:] = array("q", bytes(8 * len(hits)))
        if deltas.count(0) != len(deltas):
            for cpu, node in enumerate(self.nodes):
                counters = vars(node.stats)
                row = deltas[cpu * width:(cpu + 1) * width]
                for name, delta in zip(STAT_FIELDS, row):
                    counters[name] += delta
            deltas[:] = array("q", bytes(8 * len(deltas)))
        bus = self._bus_deltas
        if bus.count(0) != len(bus):
            counter = self.bus.stats
            for op, delta in zip(BusOp, bus):
                counter.transactions[op] += delta
            counter.writebacks += bus[len(BusOp)]
            histogram = counter.remote_hit_histogram
            for hits, delta in enumerate(bus[len(BusOp) + 1:]):
                histogram[hits] += delta
            bus[:] = array("q", bytes(8 * len(bus)))

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


def _plan(
    stops: Iterable[tuple[int, int]],
    chunk_size: int,
    position: int,
    end: float = math.inf,
) -> Iterator[int | tuple[int, int]]:
    """A run's steps from ``position``: batch sizes and ``stops``, in order.

    The one rule that cuts a run into batches: at most ``chunk_size``
    accesses each, counted from ``position`` and from each stop, none
    past ``end`` (the stream's end, ``math.inf`` if unknown); a stop
    past ``end`` still comes, after the last batch.  The draw-ahead
    helper draws the same sizes up to each save (:func:`_sizes_to_save`).
    """
    for stop in itertools.chain(stops, [(end, None)]):
        target = min(stop[0], end)
        while position < target:
            size = min(chunk_size, target - position)
            yield size
            position += size
        if stop[1] is not None:
            yield stop


def _sizes_to_save(steps: Iterator[int | tuple[int, int]]) -> Iterator[int]:
    """The batch sizes of ``steps`` up to their first save."""
    for step in steps:
        if isinstance(step, int):
            yield step
        elif step[1] == _SAVE:
            return


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

    **Batches.**  :func:`_plan` cuts the run into batches.  A source
    with ``take(count)`` (a :class:`~repro.traces.synth.MixStream`) is
    drained through it, one call per batch, up to its ``remaining``
    length, and one with ``draw_ahead`` draws each next batch on a
    helper thread while this one simulates and walks, up to each save.
    Any other source yields ``(cpu, address, is_write)`` tuples, read
    lazily and packed by :func:`repro.traces.access.pack_accesses`; a
    short batch marks its end.

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
    the same place in the event sequence whatever the chunk size; a
    marker past the stream's end rides in the residue.
    """
    if chunk_size < 1:
        raise TraceError(f"chunk_size must be >= 1, got {chunk_size}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise TraceError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )
    system = config if isinstance(config, SMPSystem) else SMPSystem(config)
    sinks = list(sinks)
    end = start + getattr(accesses, "remaining", math.inf)
    iterator = iter(accesses)
    take = getattr(iterator, "take", None)
    if take is None:
        n_cpus = system.config.n_cpus

        def take(count: int) -> array:
            return pack_accesses(itertools.islice(iterator, count), n_cpus)
    draw_ahead = getattr(iterator, "draw_ahead", None)

    def plan(position: int) -> Iterator[int | tuple[int, int]]:
        stops = _boundary_schedule(
            warmup, phase_marks, position, checkpoint_every, end
        )
        return _plan(stops, chunk_size, position, end)

    position = start
    steps = plan(start)
    try:
        if draw_ahead is not None:
            draw_ahead(_sizes_to_save(plan(start)))
        while (step := next(steps, None)) is not None:
            if isinstance(step, int):
                batch = take(step)
                count = len(batch)
                if count:
                    system._run_batch(batch)
                    # One batch buffer is live at a time, so the next
                    # ``take`` reuses this one's memory.  Two freed
                    # together at a stop (a warm-up or PHASE mark) would
                    # lie at the heap top, where glibc trims them and the
                    # next batches fault them back in.
                    del batch
                    shard = system.take_shard()
                    for sink in sinks:
                        sink.consume(shard)
                position += count
                if count < step:
                    # A source of unknown length ended: what is left of
                    # the run is its markers past the end.
                    steps = _plan((stop for stop in _boundary_schedule(
                        warmup, phase_marks
                    ) if stop[0] > position), chunk_size, position, position)
                continue
            position, action = step
            if action == _SAVE:
                on_checkpoint(system, position)
                if draw_ahead is not None:
                    draw_ahead(_sizes_to_save(plan(position)))
            elif action == _MEASURE:
                system.begin_measurement()
            else:
                system.mark_phase(action)
    finally:
        if draw_ahead is not None:
            iterator.stop_drawing()
    # A warm-up or PHASE marker (and nothing else) can remain pending
    # when the region after it is empty or the stream ended before it.
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
    run stores no row.  Processor side: every node's L1 hits and misses
    add up to its local accesses, each L1 miss is one local L2 access
    (a hit or a miss), the nodes' local accesses add up to the system's,
    and every node keeps L1 inclusion (:func:`_check_inclusion`).  Bus
    side: every L2 subblock miss and upgrade is one bus transaction and
    one remote-hit histogram entry, every node snoops every transaction
    but its own (one write-buffer probe and one tag probe, a hit or a
    miss, each), and every write-buffer drain is one bus writeback.
    The full :func:`check_coherence_invariants` stays a test-time check.
    """
    bus = system.bus.stats
    transactions = sum(bus.transactions.values())
    upgrades = bus.transactions[BusOp.UPGRADE]
    total = requests = issued_upgrades = drains = 0
    for node in system.nodes:
        stats = node.stats
        where = f"node {node.node_id}"
        local = stats.local_reads + stats.local_writes
        if stats.l1_hits + stats.l1_misses != local:
            raise InvariantError(
                f"{where}: {stats.l1_hits} L1 hits + "
                f"{stats.l1_misses} misses != {local} local accesses"
            )
        _expect_equal(where, l1_misses=stats.l1_misses,
                      l2_local_accesses=stats.l2_local_accesses,
                      l2_local_hits_and_misses=(
                          stats.l2_local_hits + stats.l2_local_misses))
        own = stats.l2_local_misses + stats.upgrades_issued
        _expect_equal(where, wb_probes=stats.wb_probes,
                      snoop_tag_probes=stats.snoop_tag_probes,
                      snoops_observed=stats.snoops_observed,
                      snoop_hits_and_misses=(
                          stats.snoop_hits + stats.snoop_misses),
                      others_bus_transactions=transactions - own)
        total += local
        requests += own
        issued_upgrades += stats.upgrades_issued
        drains += stats.wb_drains
        _check_inclusion(node)
    if total != system.accesses:
        raise InvariantError(
            f"the nodes ran {total} local accesses, the system "
            f"{system.accesses}"
        )
    _expect_equal("the bus", bus_transactions=transactions,
                  node_misses_and_upgrades=requests,
                  remote_hit_histogram=sum(bus.remote_hit_histogram))
    _expect_equal("the bus", bus_upgrades=upgrades,
                  upgrades_issued=issued_upgrades)
    _expect_equal("the bus", bus_writebacks=bus.writebacks,
                  wb_drains=drains)


def _expect_equal(where: str, **counts: int) -> None:
    """Raise :class:`~repro.errors.InvariantError` unless ``counts``
    (named as the message reports them) are all equal."""
    if len(set(counts.values())) > 1:
        listed = ", ".join(f"{name} {value}" for name, value in counts.items())
        raise InvariantError(f"{where}: expected equal counts, got {listed}")


def check_coherence_invariants(system: SMPSystem) -> None:
    """Assert global MOESI and inclusion invariants; raise on violation.

    Walks every node's L2 sets and write buffer.
    """
    per_subblock: dict[tuple[int, int], list[tuple[int, MOESI]]] = {}
    wb_copies: dict[tuple[int, int], list[int]] = {}
    for node in system.nodes:
        for (block, sub), state in _valid_subblocks(
            node.l2.tags, node.l2.states, node.l2.n_subblocks
        ):
            per_subblock.setdefault((block, sub), []).append(
                (node.node_id, MOESI(state))
            )
        for key, _state in _valid_subblocks(
            node.wb.tags, node.wb.states, node.wb.n_subblocks
        ):
            wb_copies.setdefault(key, []).append(node.node_id)
        _check_inclusion(node)

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


def _valid_subblocks(tags, states, n: int) -> Iterator[tuple[tuple[int, int], int]]:
    """``((block, sub), code)`` of every non-I code of flat ``tags`` and
    ``states`` (an L2's or a write buffer's)."""
    for at, block in enumerate(tags):
        if block != EMPTY:
            for sub in range(n):
                if states[at * n + sub]:
                    yield (block, sub), states[at * n + sub]


def _check_inclusion(node: CacheNode) -> None:
    """Every L1 line must be backed by a valid L2 subblock on its node,
    a writable one by M or E, a dirty one by M
    (:class:`~repro.errors.InvariantError` otherwise)."""
    l2 = node.l2
    tags, states, mask, n = l2.tags, l2.states, l2.mask, l2.n_subblocks
    ratio_bits = l2.config.block_offset_bits - node.l1.config.block_offset_bits
    for line in node.l1.lines:
        if line == EMPTY:
            continue
        l1_block = line >> LINE_SHIFT
        l2_block = l1_block >> ratio_bits
        slot = l2_block & mask
        state = states[slot * n + (l1_block & (n - 1))]
        if tags[slot] != l2_block or state == MOESI.I:
            raise InvariantError(
                f"inclusion violated on node {node.node_id}: L1 block "
                f"{l1_block:#x} lacks a valid L2 backing subblock"
            )
        if line & WRITABLE and state != MOESI.M and state != MOESI.E:
            raise InvariantError(
                f"writable L1 block {l1_block:#x} on node {node.node_id} "
                f"backed by L2 state {MOESI(state).name}"
            )
        if line & DIRTY and state != MOESI.M:
            raise InvariantError(
                f"dirty L1 block {l1_block:#x} on node {node.node_id} "
                f"backed by L2 state {MOESI(state).name}"
            )
