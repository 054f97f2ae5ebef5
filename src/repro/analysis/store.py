"""Experiment store: config fingerprints and result payloads.

Simulating a workload is the expensive step of every exhibit; replaying a
filter over its recorded trace is cheap but still worth keeping.  This
module gives every result a home: an :class:`ExperimentStore` maps a
*complete* configuration fingerprint — workload spec, full system
geometry (both cache levels, associativity, block and subblock sizes),
and seed — to a canonical, compressed payload of the result.  There is
one backend, a SQLite ``results`` table, held either in a file (durable,
shared across processes) or in a ``:memory:`` database (process-local);
both run the same SQL.

The live result kinds share the one table: ``sim-metrics`` (the
statistics of one simulation), ``eval`` (one :class:`FilterEvaluation`
— identical bytes whether it came from a streaming pass or a trace
replay, which is what lets both modes share warm evaluations),
``sim-events`` (a persisted *trace*: the packed event shards of one
simulation, recorded once so any number of filter configurations can
replay them later without re-simulating), ``checkpoint`` (a mid-run
snapshot of an in-flight simulation — caches, write buffers, bus,
filter banks, trace-sink watermarks, and generator state — keyed by the
run's chain plus the access watermark, so a killed paper-scale run
resumes from its latest durable point instead of restarting from zero),
``job``, and ``quarantined``.  Rows of a *retired* kind
(:data:`RETIRED_KINDS`: ``sim``, the full event-list recordings of the
removed buffered mode; ``fast-forward``, the warmed filter state of the
removed measured-only recordings; and ``matrix``, the rendered tables of
the removed ``matrix`` command) are never decoded: ``fsck`` reports them
and ``gc`` evicts them first.

A trace is several rows of kind ``sim-events`` sharing one key prefix:
a *manifest* row (``filter IS NULL``) under :func:`trace_key` holding
per-node segment counts plus the run's metrics, and one *segment* row
per :func:`trace_segment_key` whose ``filter`` column carries the
manifest's key (the grouping handle garbage collection uses to evict a
trace atomically — a trace with a missing segment is useless).  Segment
payloads are ``delta-v1`` (see :func:`encode_trace_segment`), cut at
exact event counts so the stored bytes are independent of the
simulation chunk size (which is also why chunk size never appears in
any key).

Keys are content hashes over canonical JSON, so two configurations that
differ in any field (including L1 geometry, which the old in-process
cache key famously omitted) can never collide, and payload bytes are
deterministic: the same simulation serialises to the same bytes whether it
ran serially or inside a worker process.

Invalidation rules:

* the fingerprint embeds :data:`SCHEMA_VERSION`; bumping it (for any
  change to simulator semantics, event encoding, or serialisation layout)
  orphans every old row rather than silently reusing stale results;
* opening a store whose on-disk schema version differs drops and
  recreates the tables;
* ``repro cache clear`` (or :meth:`ExperimentStore.clear`) empties the
  store explicitly — entries are never aged out by time.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import logging
import sqlite3
import struct
import zlib
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.analysis.resilience import SQLITE_RETRY_POLICY, retry_call
from repro.coherence.config import SystemConfig
from repro.errors import ConfigurationError, StoreCorruptionError
from repro.coherence.metrics import BusStats, NodeStats, SimResult
from repro.core import _cmachine
from repro.core.base import FilterEventCounts
from repro.core.stats import (
    CoverageStats,
    FilterEvaluation,
    PhaseStats,
)
from repro.traces.workloads import WorkloadSpec

_logger = logging.getLogger("repro.store")

#: Bump whenever simulator semantics, the event encoding, or the payload
#: layout change: every existing row becomes unreachable (stale results
#: must never be revived under a new meaning).
SCHEMA_VERSION = 1

#: Result kind of persisted traces (manifest and segment rows alike).
#: Introduced *without* a schema bump: the new kind only adds rows under
#: fresh keys, so every pre-existing ``sim-metrics``/``eval`` entry keeps
#: its key and its exact payload bytes.
TRACE_KIND = "sim-events"

#: Result kinds no code writes or reads any more.  ``sim`` held a whole
#: buffered recording (metrics plus every node's event list as JSON
#: triples); record → replay superseded it.  ``fast-forward`` held the
#: warmed filter state of a measured-only trace (one recorded without
#: its warm-up events); every trace is now recorded in full.  ``matrix``
#: held a rendered profile x filter table; the ``profile-matrix`` exhibit
#: builds it from ``eval`` rows instead.  Leftover rows are neither
#: decoded nor treated as corruption: ``fsck`` reports them, ``cache
#: info`` labels them, and ``gc`` evicts them before anything else.
RETIRED_KINDS = ("sim", "fast-forward", "matrix")

#: Result kind of mid-run checkpoints: the serialised snapshot of an
#: in-flight streamed simulation (caches, write buffers, bus, filter
#: banks, trace-sink watermarks, generator state) at an access
#: watermark.  Like ``sim-events``, added without a schema bump — the
#: kind only creates rows under fresh keys.  A run's checkpoints form a
#: *chain*: every row's ``filter`` column carries the chain key, the
#: grouping handle garbage collection (and ``checkpoint rm``) uses to
#: treat the chain as one atomic unit.
CHECKPOINT_KIND = "checkpoint"

#: Result kind of rows set aside by ``fsck --quarantine``: the original
#: payload bytes preserved under a prefixed key for post-mortem, while
#: the original key reads as absent so the next sweep recomputes and
#: heals in place.  Not a schema bump — quarantine only creates rows
#: under fresh keys.
QUARANTINE_KIND = "quarantined"

#: Result kind of the sweep service's durable job journal: one row per
#: submitted job holding the normalised request plus every shard's
#: state-machine position (``submitted`` → ``leased`` → ``done`` /
#: ``quarantined``) and attempt count.  Content-addressed over the
#: sorted shard fingerprints, so re-submitting the same sweep lands on
#: the same journal row (idempotent submission) and a restarted server
#: recovers every in-flight job from a plain kind scan.  Added without
#: a schema bump — the kind only creates rows under fresh keys.
JOB_KIND = "job"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------

def system_fingerprint(system: SystemConfig) -> dict:
    """The *complete* system geometry as a canonical nested dict.

    Built from ``dataclasses.asdict`` so every field of both cache levels
    (capacity, block, subblock, ways) and the system (CPU count, write
    buffer, address and state bits) participates — adding a field to the
    config automatically extends the fingerprint.
    """
    return asdict(system)


def spec_fingerprint(spec: WorkloadSpec) -> dict:
    """Everything about a workload spec that influences its access stream.

    Phase-structured suites contribute a ``phases`` entry (each phase's
    name, nominal length, and resolved recipe).  The key is added *only*
    when the spec has phases, so every plain workload's fingerprint —
    and with it every existing store key — is unchanged.
    """
    fingerprint = {
        "name": spec.name,
        "n_accesses": spec.n_accesses,
        "warmup_accesses": spec.warmup_accesses,
        "repeat_frac": spec.repeat_frac,
        "recipe": [[kind, params] for kind, params in spec.recipe],
    }
    phases = getattr(spec, "phases", ())
    if phases:
        fingerprint["phases"] = [
            [p.name, p.accesses, p.repeat_frac,
             [[kind, params] for kind, params in p.recipe]]
            for p in phases
        ]
    return fingerprint


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj)).hexdigest()


def sim_metrics_key(spec: WorkloadSpec, system: SystemConfig, seed: int) -> str:
    """Store key of one simulation's metrics payload.

    The chunk size is deliberately absent — metrics are
    chunk-size-invariant by the determinism contract.
    """
    return _digest({
        "kind": "sim-metrics",
        "schema": SCHEMA_VERSION,
        "spec": spec_fingerprint(spec),
        "system": system_fingerprint(system),
        "seed": seed,
    })


def trace_key(spec: WorkloadSpec, system: SystemConfig, seed: int) -> str:
    """Store key of one persisted trace's manifest row.

    The fingerprint is the simulation identity — workload spec, system
    geometry, seed — and nothing else: no filter spec (a trace serves
    *every* filter configuration) and no chunk or segment size (the
    recorded bytes are invariant to both by construction).
    """
    return _digest({
        "kind": TRACE_KIND,
        "schema": SCHEMA_VERSION,
        "spec": spec_fingerprint(spec),
        "system": system_fingerprint(system),
        "seed": seed,
    })


def trace_segment_key(trace: str, node_id: int, index: int) -> str:
    """Store key of one node's ``index``-th event segment of a trace."""
    return _digest({
        "kind": "sim-events-segment",
        "trace": trace,
        "node": node_id,
        "segment": index,
    })


def checkpoint_chain_key(
    spec: WorkloadSpec,
    system: SystemConfig,
    seed: int,
    filter_names=(),
    record: bool = False,
) -> str:
    """Grouping key of one run's checkpoint chain.

    The fingerprint is the simulation identity (the same fields as
    :func:`trace_key`) plus what the run is *doing*: the filter banks
    riding it (their live state is part of every snapshot, so a sweep
    with a different filter set cannot resume this chain) and whether a
    trace is being recorded.  Chunk size and ``checkpoint_every`` are
    deliberately absent — a snapshot at access K is invariant to both by
    the determinism contract, so a restart may change either and still
    resume.
    """
    return _digest({
        "kind": "checkpoint-chain",
        "schema": SCHEMA_VERSION,
        "spec": spec_fingerprint(spec),
        "system": system_fingerprint(system),
        "seed": seed,
        "filters": sorted(filter_names),
        "record": bool(record),
    })


def checkpoint_key(chain: str, accesses: int) -> str:
    """Store key of one checkpoint: a chain at an access watermark."""
    return _digest({
        "kind": CHECKPOINT_KIND,
        "chain": chain,
        "accesses": accesses,
    })


def job_key(shard_ids) -> str:
    """Store key of one service job's journal row.

    The fingerprint is the *sorted* set of shard fingerprints (each of
    which already content-addresses its workload, filter list, seed,
    mode, and sizing — see ``repro.service.journal``), so submission is
    idempotent: the same sweep request, however its workloads or seeds
    were ordered, maps to the same journal row.
    """
    return _digest({
        "kind": JOB_KIND,
        "schema": SCHEMA_VERSION,
        "shards": sorted(shard_ids),
    })


def eval_key(
    spec: WorkloadSpec, filter_name: str, system: SystemConfig, seed: int
) -> str:
    """Store key of one filter replay over one simulation's streams."""
    return _digest({
        "kind": "eval",
        "schema": SCHEMA_VERSION,
        "spec": spec_fingerprint(spec),
        "filter": filter_name,
        "system": system_fingerprint(system),
        "seed": seed,
    })


def eval_keys(
    spec: WorkloadSpec, filter_names, system: SystemConfig, seed: int
) -> dict[str, str]:
    """``filter_name -> eval_key(spec, filter_name, system, seed)`` for
    every name, fingerprinting the simulation once.

    Canonical JSON sorts its keys and ``"filter"`` sorts first, so each
    key's canonical bytes are the filter's field spliced in front of one
    shared tail.
    """
    tail = _canonical({
        "kind": "eval",
        "schema": SCHEMA_VERSION,
        "spec": spec_fingerprint(spec),
        "system": system_fingerprint(system),
        "seed": seed,
    })
    return {
        name: hashlib.sha256(
            b'{"filter":' + json.dumps(name).encode() + b"," + tail[1:]
        ).hexdigest()
        for name in filter_names
    }


# ----------------------------------------------------------------------
# Payload serialisation (exact integer/float round-trip)
# ----------------------------------------------------------------------

def sim_metrics_to_dict(result: SimResult) -> dict:
    """The canonical dict of a run's statistics."""
    return {
        "workload": result.workload,
        "n_cpus": result.n_cpus,
        "accesses": result.accesses,
        "node_stats": [vars(stats).copy() for stats in result.node_stats],
        "bus": {
            "reads": result.bus.reads,
            "read_exclusives": result.bus.read_exclusives,
            "upgrades": result.bus.upgrades,
            "writebacks": result.bus.writebacks,
            "remote_hit_histogram": list(result.bus.remote_hit_histogram),
        },
    }


def sim_metrics_from_dict(data: dict) -> SimResult:
    return SimResult(
        workload=data["workload"],
        n_cpus=data["n_cpus"],
        accesses=data["accesses"],
        node_stats=[NodeStats(**fields) for fields in data["node_stats"]],
        bus=BusStats(
            reads=data["bus"]["reads"],
            read_exclusives=data["bus"]["read_exclusives"],
            upgrades=data["bus"]["upgrades"],
            writebacks=data["bus"]["writebacks"],
            remote_hit_histogram=tuple(data["bus"]["remote_hit_histogram"]),
        ),
    )


def evaluation_to_dict(evaluation: FilterEvaluation) -> dict:
    data = {
        "filter_name": evaluation.filter_name,
        "storage_bits": evaluation.storage_bits,
        "allocs": evaluation.allocs,
        "evicts": evaluation.evicts,
        "coverage": vars(evaluation.coverage).copy(),
        "events": vars(evaluation.events).copy(),
    }
    # The key appears only for phase-structured runs: a phase-less
    # evaluation's payload bytes are identical to what every earlier
    # schema-1 store wrote, so stored evals stay warm.
    if evaluation.phases:
        data["phases"] = {
            name: {
                "coverage": vars(phase.coverage).copy(),
                "allocs": phase.allocs,
                "evicts": phase.evicts,
            }
            for name, phase in evaluation.phases.items()
        }
    return data


def evaluation_from_dict(data: dict) -> FilterEvaluation:
    return FilterEvaluation(
        filter_name=data["filter_name"],
        storage_bits=data["storage_bits"],
        allocs=data["allocs"],
        evicts=data["evicts"],
        coverage=CoverageStats(**data["coverage"]),
        events=FilterEventCounts(**data["events"]),
        phases={
            name: PhaseStats(
                coverage=CoverageStats(**entry["coverage"]),
                allocs=entry["allocs"],
                evicts=entry["evicts"],
            )
            for name, entry in data.get("phases", {}).items()
        },
    )


@contextlib.contextmanager
def _decoding(kind: str):
    """Translate payload-decode failures into :class:`StoreCorruptionError`.

    Every ``decode_*`` body runs inside this guard: a blob that fails to
    decompress (``zlib.error``), parse (``json.JSONDecodeError``, a
    ``ValueError``), or reconstruct (missing dict fields, wrong types,
    odd byte counts) raises one library error that consumers can either
    heal from (``fsck``, the checkpoint resume ladder) or surface with
    the offending kind attached.  A ``None`` blob (row vanished between
    lookup and fetch) counts as corruption too — it raises ``TypeError``
    inside ``zlib.decompress``.
    """
    try:
        yield
    except (zlib.error, ValueError, KeyError, TypeError,
            UnicodeDecodeError) as error:
        raise StoreCorruptionError(
            f"corrupt {kind} payload: {type(error).__name__}: {error}"
        ) from error


def encode_sim_metrics(result: SimResult) -> bytes:
    """Canonical metrics payload of one simulation."""
    return zlib.compress(_canonical(sim_metrics_to_dict(result)), 6)


def decode_sim_metrics(blob: bytes) -> SimResult:
    with _decoding("sim-metrics"):
        return sim_metrics_from_dict(json.loads(zlib.decompress(blob)))


def encode_sim_metrics_dict(data: dict) -> bytes:
    """Canonical metrics payload bytes from an already-built dict.

    Byte-identical to ``encode_sim_metrics(result)`` for the dict that
    ``sim_metrics_to_dict(result)`` produced — the property that lets a
    trace manifest's embedded metrics restore a ``sim-metrics`` row
    without re-simulating.
    """
    return zlib.compress(_canonical(data), 6)


def encode_eval(evaluation: FilterEvaluation) -> bytes:
    return zlib.compress(_canonical(evaluation_to_dict(evaluation)), 6)


def decode_eval(blob: bytes) -> FilterEvaluation:
    with _decoding("eval"):
        return evaluation_from_dict(json.loads(zlib.decompress(blob)))


# ----------------------------------------------------------------------
# Trace payloads (persisted packed-event shards)
# ----------------------------------------------------------------------

def encode_trace_manifest(manifest: dict) -> bytes:
    """Canonical compressed bytes of a trace's manifest row."""
    return zlib.compress(_canonical(manifest), 6)


def decode_trace_manifest(blob: bytes) -> dict:
    with _decoding("sim-events manifest"):
        manifest = json.loads(zlib.decompress(blob))
        if not isinstance(manifest, dict):
            raise TypeError(f"manifest must be a dict, got {type(manifest)}")
        return manifest


def encode_job(payload: dict) -> bytes:
    """Canonical compressed bytes of one service-job journal row."""
    return zlib.compress(_canonical(payload), 6)


def decode_job(blob: bytes) -> dict:
    with _decoding("job"):
        payload = json.loads(zlib.decompress(blob))
        if not isinstance(payload, dict):
            raise TypeError(f"job payload must be a dict, got {type(payload)}")
        shards = payload["shards"]
        if not isinstance(shards, list):
            raise TypeError(f"job shards must be a list, got {type(shards)}")
        for shard in shards:
            # Every shard must carry its state-machine position; a
            # journal row that lost one is unrecoverable as a unit.
            shard["id"], shard["state"], shard["attempts"]
        return payload


def encode_checkpoint(state: dict) -> bytes:
    """Compressed bytes of one checkpoint snapshot.

    Unlike every other payload, checkpoints are *not* content-addressed
    (their key is chain + watermark) and never outlive their run, so
    canonical key ordering buys nothing and the write sits on the
    simulation's critical path — plain insertion-order JSON at the
    fastest zlib level keeps the snapshot pause small.
    """
    return zlib.compress(
        json.dumps(state, separators=(",", ":")).encode(), 1
    )


def decode_checkpoint(blob: bytes) -> dict:
    with _decoding("checkpoint"):
        state = json.loads(zlib.decompress(blob))
        if not isinstance(state, dict):
            raise TypeError(f"checkpoint must be a dict, got {type(state)}")
        return state


#: The segment wire format, ``delta-v1``: each event splits into three
#: planes — kind bits, flag bits, and the block address — and block
#: addresses are stored as zig-zag + varint coded first differences
#: before zlib.  Workload address streams are overwhelmingly local, so
#: the delta plane collapses from 8 bytes per event to 1–2.
#:
#: First byte of every segment blob.  A blob without it (such as a
#: ``raw-v1`` segment from before delta-v1: a bare zlib stream, first
#: byte 0x78) is corrupt, so ``fsck`` removes its trace and the next
#: sweep re-records it under the same key.
_DELTA_V1_MAGIC = 0xD7


#: Address-region granularity of the delta-v1 chain key, in block-address
#: bits: events are delta-chained per ``(kind, block >> shift)`` so the
#: interleaved per-pattern streams (each CPU's streaming sweep, each
#: private working set, the shared region) untangle into near-sequential
#: chains instead of one jumpy global chain.  2**12 blocks = 256 KB
#: regions at 64-byte blocks — measured best on the bench workloads.
#: Written into the segment header, so the constant can move without a
#: wire-format break.
_DELTA_V1_REGION_SHIFT = 12

#: ``zlib.compressobj`` arguments for the delta-v1 planes of a long
#: segment: level 6 with the run-length strategy (matches at distance 1
#: only), a 32 KB window, and memLevel 6, which closes a deflate block
#: every 16k symbols so each block's Huffman codes fit its stretch of
#: planes.  The planes are long runs of equal kind, flag and small-delta
#: bytes; on every workload's full-size trace this deflated 2.9-4.4x
#: faster than ``zlib.compress(planes, 6)`` and 3-7% smaller.  Of lu,
#: radix, fmm and em3d, memLevel 5 grew em3d and memLevels 7 and 8 grew
#: all four.  Any inflater reads the stream, so the constants can move
#: without a wire-format break.
_DELTA_V1_DEFLATE = (6, zlib.DEFLATED, 15, 6, zlib.Z_RLE)

#: Planes shorter than this keep ``zlib.compress(planes, 6)``: over the
#: ten workloads cut into 1k-32k-event segments, RLE output was the
#: larger on 883 of 1,097 segments, the largest of them 19 KB of planes,
#: and on none of the 163 above 32 KB.
_DELTA_V1_RLE_MIN_BYTES = 1 << 15


def _varints_encode_py(values) -> bytes:
    """LEB128 bytes of an iterable of non-negative ints (< 2**64)."""
    out = bytearray()
    for value in values:
        while True:
            group = value & 0x7F
            value >>= 7
            out.append(group | 0x80 if value else group)
            if not value:
                break
    return bytes(out)


def _varints_decode_py(data: bytes, count: int) -> list[int]:
    """Decode exactly ``count`` LEB128 values; the stream must end there."""
    values = []
    position = 0
    for index in range(count):
        value = 0
        shift = 0
        while True:
            if position >= len(data):
                raise ValueError(
                    f"delta-v1 varint stream truncated at value {index}"
                )
            byte = data[position]
            position += 1
            if shift == 63 and byte > 1:
                raise ValueError(f"delta-v1 varint {index} exceeds 64 bits")
            value |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                break
        values.append(value)
    if position != len(data):
        raise ValueError("delta-v1 varint stream has trailing bytes")
    return values


def _delta_planes_encode(raw: bytes):
    """The delta-v1 inner payload (pre-zlib) of one segment, bytes-like.

    Layout: ``<QB`` header (event count, region shift), a kinds plane
    (one byte per event, bits 0-1 of the packed word), a flags plane
    (bits 2-3), then one LEB128 varint stream holding ``2n`` values:
    the ``n`` region ids (``block >> shift``) followed by the zig-zag
    block deltas of kinds 0..3 in turn, each kind's deltas in stream
    order.  A delta is taken against the previous block in the same
    ``(kind, region)`` chain (0 before the first), which is what turns
    the interleaved access patterns back into the near-sequential
    per-pattern streams the simulator generated.  ``delta_encode`` in
    the native core writes these bytes when it loads; the pure-Python
    passes below are the fallback and the spec, and produce the same.
    """
    if len(raw) % 8:
        raise ValueError(f"{len(raw)} segment bytes are not whole events")
    n = len(raw) // 8
    lib = _cmachine.library()
    if lib is not None:
        # Each of the 2n varints takes at most 10 bytes.
        out = bytearray(9 + 22 * n)
        size = lib.delta_encode(
            raw, n, _DELTA_V1_REGION_SHIFT,
            ctypes.addressof(ctypes.c_char.from_buffer(out)),
        )
        if size < 0:
            raise MemoryError("delta-v1 encode out of memory")
        return memoryview(out)[:size]
    header = struct.pack("<QB", n, _DELTA_V1_REGION_SHIFT)
    events = array("q")
    events.frombytes(raw)
    kinds = bytes(event & 3 for event in events)
    flags = bytes((event >> 2) & 3 for event in events)
    values: list[int] = []
    per_kind: list[list[int]] = [[], [], [], []]
    previous: dict[tuple[int, int], int] = {}
    for event in events:
        kind = event & 3
        block = event >> 4
        region = block >> _DELTA_V1_REGION_SHIFT
        values.append(region & 0xFFFFFFFFFFFFFFFF)
        delta = block - previous.get((kind, region), 0)
        previous[(kind, region)] = block
        per_kind[kind].append(
            ((delta << 1) ^ (delta >> 63)) & 0xFFFFFFFFFFFFFFFF
        )
    for zigzags in per_kind:
        values.extend(zigzags)
    return header + kinds + flags + _varints_encode_py(values)


#: ``delta_decode``'s failures, by its return code.
_DELTA_DECODE_ERRORS = {
    -1: "delta-v1 varint stream truncated",
    -2: "delta-v1 varint exceeds 64 bits",
    -3: "delta-v1 varint stream has trailing bytes",
    -4: "delta-v1 block out of range",
}

#: Packed events hold blocks in ``[-2**59, 2**59)``.
_BLOCK_LIMIT = 1 << 59


def _delta_planes_decode(inner: bytes) -> array:
    """Rebuild an ``array('q')`` of packed events from delta-v1 planes."""
    if len(inner) < 9:
        raise ValueError(
            f"delta-v1 segment header truncated: {len(inner)} byte(s)"
        )
    n, shift = struct.unpack_from("<QB", inner)
    if shift > 60:
        raise ValueError(f"delta-v1 region shift {shift} out of range")
    if len(inner) < 9 + 2 * n:
        raise ValueError(
            f"delta-v1 segment planes truncated: "
            f"{len(inner)} byte(s) for {n} event(s)"
        )
    # Both planes hold 2-bit fields.  A kinds plane of values 0..3 also
    # claims exactly the n zig-zag deltas the stream carries, none left
    # over and none missing.
    if inner[9:9 + 2 * n].translate(None, b"\x00\x01\x02\x03"):
        raise ValueError("delta-v1 kind or flag plane holds a value above 3")
    lib = _cmachine.library()
    if lib is not None:
        events = array("q", bytes(8)) * n
        status = lib.delta_decode(inner, len(inner), n,
                                  events.buffer_info()[0])
        if status == -5:
            raise MemoryError("delta-v1 decode out of memory")
        if status:
            raise ValueError(_DELTA_DECODE_ERRORS[status])
        return events
    values = _varints_decode_py(inner[9 + 2 * n:], 2 * n)
    kinds_plane = inner[9:9 + n]
    flags_plane = inner[9 + n:9 + 2 * n]
    regions = values[:n]
    cursors = [n]
    for kind in range(3):
        cursors.append(cursors[-1] + kinds_plane.count(kind))
    previous: dict[tuple[int, int], int] = {}
    events = array("q")
    for index in range(n):
        kind = kinds_plane[index]
        zz = values[cursors[kind]]
        cursors[kind] += 1
        delta = (zz >> 1) ^ -(zz & 1)
        chain = (kind, regions[index])
        block = previous.get(chain, 0) + delta
        if not -_BLOCK_LIMIT <= block < _BLOCK_LIMIT:
            raise ValueError(f"delta-v1 block {index} out of range")
        previous[chain] = block
        events.append((block << 4) | (flags_plane[index] << 2) | kind)
    return events


def encode_trace_segment(raw: bytes) -> bytes:
    """Compress one segment of native-order packed-event bytes (delta-v1).

    The delta-v1 bytes do not depend on the host's byte order, so a trace
    recorded on one machine replays on any other.
    """
    planes = _delta_planes_encode(raw)
    if len(planes) < _DELTA_V1_RLE_MIN_BYTES:
        body = zlib.compress(planes, 6)
    else:
        deflate = zlib.compressobj(*_DELTA_V1_DEFLATE)
        body = deflate.compress(planes) + deflate.flush()
    return bytes([_DELTA_V1_MAGIC]) + body


def decode_trace_segment(blob: bytes) -> array:
    """Decode one delta-v1 segment back into an ``array('q')`` of events."""
    with _decoding("sim-events segment"):
        if blob[:1] != bytes([_DELTA_V1_MAGIC]):
            raise ValueError(
                f"not a delta-v1 segment (first byte {blob[:1].hex() or 'none'}"
                "); `cache fsck` removes its trace"
            )
        return _delta_planes_decode(zlib.decompress(blob[1:]))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StoreStats:
    """Summary of a store's contents (``repro cache info``)."""

    #: Simulations whose metrics are stored (kind ``sim-metrics``).
    sims: int
    evals: int
    payload_bytes: int
    path: str | None
    #: Rows of a retired kind (:data:`RETIRED_KINDS`), awaiting ``gc``.
    retired: int = 0
    #: Persisted traces (``sim-events`` manifest rows; each trace also
    #: owns segment rows, all counted in ``bytes_by_kind``).
    traces: int = 0
    #: Mid-run checkpoint rows (kind ``checkpoint``); one row per saved
    #: watermark, chains share ``bytes_by_kind`` accounting.
    checkpoints: int = 0
    #: Service-job journal rows (kind ``job``); one row per submitted
    #: sweep, rewritten in place as its shards move through the state
    #: machine.
    jobs: int = 0
    #: Total compressed payload bytes per result kind.
    bytes_by_kind: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class FsckReport:
    """Outcome of one :meth:`ExperimentStore.fsck` pass."""

    #: Rows examined (quarantined rows from earlier passes are skipped).
    scanned: int
    #: Keys whose payload failed validation, sorted.
    corrupt: tuple[str, ...]
    #: Rows deleted — includes healthy siblings of a corrupt trace
    #: member (a trace is one atomic unit) in delete mode.
    removed: int
    #: Rows moved aside under :data:`QUARANTINE_KIND` in quarantine mode.
    quarantined: int
    #: Keys of rows of a retired kind, sorted: not decoded, not corrupt,
    #: left for ``gc`` to evict first.
    retired: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def summary(self) -> str:
        if self.clean:
            text = f"fsck: {self.scanned} row(s) scanned, store clean"
        else:
            action = (
                f"{self.quarantined} quarantined"
                if self.quarantined
                else f"{self.removed} removed"
            )
            text = (
                f"fsck: {self.scanned} row(s) scanned, "
                f"{len(self.corrupt)} corrupt, {action}"
            )
        if self.retired:
            text += (
                f"; {len(self.retired)} row(s) of retired kind "
                f"{'/'.join(RETIRED_KINDS)} (cache gc evicts them first)"
            )
        return text


@dataclass(frozen=True)
class StoreEntry:
    """Metadata of one stored result (key omitted payloads stay opaque)."""

    key: str
    kind: str
    workload: str
    filter_name: str | None
    n_cpus: int
    seed: int
    payload_bytes: int


class _ClosedConnection:
    """Stands in for the connection of a closed store: any use raises."""

    def __getattr__(self, name: str):
        raise ConfigurationError("experiment store is closed")


class ExperimentStore:
    """SQLite store of experiment results, in a file or in memory.

    With a path, every result is written to a single SQLite file so later
    invocations (and other processes) skip re-simulation entirely.  With
    ``path=None`` the same schema lives in a private ``:memory:`` database
    that vanishes with the store.  Either way one set of SQL statements
    serves every method, and a closed store raises
    :class:`ConfigurationError` on any further use.

    Decoded results are memoised per key, so repeated ``get`` calls return
    the *same object* — callers that relied on the old caches' identity
    semantics keep working.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._live: dict[str, object] = {}
        #: Monotonic recency clock: every get/put stamps its key, so GC
        #: can evict least-recently-used entries first.  Deliberately a
        #: counter, not wall time — payload bytes and store behaviour
        #: stay deterministic.
        self._clock = 0
        self._pending_touches: dict[str, int] = {}
        #: Open :meth:`batch` scopes, and what the outermost one's
        #: rollback must undo in memory: the keys it put and the recency
        #: stamps it flushed.
        self._batch_depth = 0
        self._batch_keys: list[str] = []
        self._batch_touches: dict[str, int] = {}
        target = ":memory:" if self.path is None else self.path
        try:
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(target)
            self._init_schema()
        except (OSError, sqlite3.Error) as error:
            raise ConfigurationError(
                f"cannot open experiment store at {target}: {error}"
            ) from error

    # -- schema ---------------------------------------------------------

    def _init_schema(self) -> None:
        db = self._db
        db.execute(
            "CREATE TABLE IF NOT EXISTS store_meta "
            "(id INTEGER PRIMARY KEY CHECK (id = 1), schema_version INTEGER)"
        )
        row = db.execute("SELECT schema_version FROM store_meta").fetchone()
        if row is not None and row[0] != SCHEMA_VERSION:
            db.execute("DROP TABLE IF EXISTS results")
            db.execute("DELETE FROM store_meta")
            row = None
        if row is None:
            db.execute(
                "INSERT INTO store_meta (id, schema_version) VALUES (1, ?)",
                (SCHEMA_VERSION,),
            )
        db.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " kind TEXT NOT NULL,"
            " workload TEXT NOT NULL,"
            " filter TEXT,"
            " n_cpus INTEGER NOT NULL,"
            " seed INTEGER NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        # Migration: recency column for LRU garbage collection.  Added
        # with ALTER (not a schema bump) so existing stores keep every
        # payload — the payload layout itself is unchanged.
        columns = {
            row[1] for row in db.execute("PRAGMA table_info(results)")
        }
        if "last_used" not in columns:
            db.execute(
                "ALTER TABLE results ADD COLUMN "
                "last_used INTEGER NOT NULL DEFAULT 0"
            )
        row = db.execute("SELECT MAX(last_used) FROM results").fetchone()
        self._clock = (row[0] or 0) + 1
        db.commit()

    def _touch(self, key: str) -> None:
        """Stamp ``key`` as most recently used.

        Stamps are *buffered*: warm reads must not each take the
        write lock and pay a synchronous commit, so touches accumulate
        in memory and flush in one batch on the next write, on
        :meth:`gc` (which reads the recency order), and on
        :meth:`close`.
        """
        self._clock += 1
        self._pending_touches[key] = self._clock

    def _flush_touches(self) -> None:
        """Write buffered recency stamps in one transaction.

        Best-effort: on a read-only store file the stamps are dropped —
        reads keep working, the LRU order just stays as written.  Inside
        :meth:`batch` the stamps join the scope's transaction.
        """
        if not self._pending_touches:
            return
        try:
            self._db.executemany(
                "UPDATE results SET last_used = ? WHERE key = ?",
                [
                    (clock, key)
                    for key, clock in self._pending_touches.items()
                ],
            )
            if self._batch_depth:
                self._batch_touches.update(self._pending_touches)
            else:
                self._db.commit()
        except sqlite3.OperationalError:
            pass
        self._pending_touches.clear()

    @contextlib.contextmanager
    def batch(self):
        """Commit the rows :meth:`put_blob` writes in the scope at once.

        For rows written back to back (a recording's tail, one task's
        evaluations): each commit is a synchronous disk flush, so a
        burst of rows pays one instead of one per row.  Inside the
        scope the rows are visible on this connection only; the exit
        commits them under ``SQLITE_RETRY_POLICY``, and an exception
        (``KeyboardInterrupt`` included) rolls every one of them back.
        A nested scope joins the outer one.  Only ``put_blob`` and the
        recency stamps join the transaction; any other write commits
        it early, so the runner makes none inside a scope.
        """
        outer = not self._batch_depth
        self._batch_depth += 1
        try:
            yield self
            if outer:
                retry_call(self._db.commit, policy=SQLITE_RETRY_POLICY,
                           label="batch-commit")
        except BaseException:
            if outer:
                self._db.rollback()
                for key in self._batch_keys:
                    self._live.pop(key, None)
                self._pending_touches = {
                    **self._batch_touches, **self._pending_touches
                }
            raise
        finally:
            self._batch_depth -= 1
            if outer:
                self._batch_keys.clear()
                self._batch_touches.clear()

    # -- raw payload access (the runner ships blobs to workers) ---------

    def get_blob(self, key: str) -> bytes | None:
        row = self._db.execute(
            "SELECT payload FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        self._touch(key)
        return row[0]

    def put_blob(
        self,
        key: str,
        blob: bytes,
        *,
        kind: str,
        workload: str,
        filter_name: str | None,
        n_cpus: int,
        seed: int,
    ) -> None:
        """Write one row, replacing any under ``key``.

        The row commits before ``put_blob`` returns, except inside
        :meth:`batch`, whose exit commits it with the scope's other rows.
        """
        self._clock += 1
        self._flush_touches()
        batched = self._batch_depth > 0

        def _write() -> None:
            self._db.execute(
                "INSERT OR REPLACE INTO results "
                "(key, kind, workload, filter, n_cpus, seed, payload, "
                "last_used) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (key, kind, workload, filter_name, n_cpus, seed, blob,
                 self._clock),
            )
            if not batched:
                self._db.commit()

        # Several processes may share one store file (service workers,
        # worker-side checkpoint writers): a write that loses the SQLite
        # lock race retries under seeded backoff instead of crashing the
        # run.  INSERT OR REPLACE is idempotent, so a retried write that
        # half-landed converges to the same row.
        retry_call(_write, policy=SQLITE_RETRY_POLICY, label=f"put:{key[:16]}")
        if batched:
            self._batch_keys.append(key)

    def contains(self, key: str) -> bool:
        """Presence check; counts as a *use* for LRU purposes.

        The batched runner satisfies warm jobs through ``contains``
        alone (the payload is never re-read), so recency must be
        stamped here too — otherwise a daily warm sweep's entries would
        age out of ``gc`` in plain write order.
        """
        if key in self._live:
            self._touch(key)
            return True
        row = self._db.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return False
        self._touch(key)
        return True

    # -- typed access ---------------------------------------------------

    def get_sim_metrics(self, key: str) -> SimResult | None:
        """Fetch one simulation's metrics."""
        cached = self._live.get(key)
        if cached is not None:
            self._touch(key)
            return cached  # type: ignore[return-value]
        blob = self.get_blob(key)
        if blob is None:
            return None
        result = decode_sim_metrics(blob)
        self._live[key] = result
        return result

    def put_sim_metrics(self, key: str, result: SimResult, *, seed: int) -> None:
        self.put_sim_metrics_blob(
            key,
            encode_sim_metrics(result),
            workload=result.workload,
            n_cpus=result.n_cpus,
            seed=seed,
        )
        self._live[key] = result

    def put_sim_metrics_blob(
        self, key: str, blob: bytes, *, workload: str, n_cpus: int, seed: int
    ) -> None:
        """Persist an already-encoded metrics payload."""
        self.put_blob(
            key, blob, kind="sim-metrics", workload=workload,
            filter_name=None, n_cpus=n_cpus, seed=seed,
        )

    def get_eval(self, key: str) -> FilterEvaluation | None:
        cached = self._live.get(key)
        if cached is not None:
            self._touch(key)
            return cached  # type: ignore[return-value]
        blob = self.get_blob(key)
        if blob is None:
            return None
        evaluation = decode_eval(blob)
        self._live[key] = evaluation
        return evaluation

    def put_eval_blob(
        self,
        key: str,
        blob: bytes,
        *,
        workload: str,
        filter_name: str,
        n_cpus: int,
        seed: int,
    ) -> None:
        self.put_blob(
            key, blob, kind="eval", workload=workload,
            filter_name=filter_name, n_cpus=n_cpus, seed=seed,
        )

    # -- inspection / maintenance --------------------------------------

    def stats(self) -> StoreStats:
        rows = self._db.execute(
            "SELECT kind, COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
            "FROM results GROUP BY kind"
        ).fetchall()
        counts = {kind: (count, nbytes) for kind, count, nbytes in rows}
        # Segment rows share the trace kind; a *trace* is one manifest.
        (traces,) = self._db.execute(
            "SELECT COUNT(*) FROM results WHERE kind = ? AND filter IS NULL",
            (TRACE_KIND,),
        ).fetchone()
        return StoreStats(
            sims=counts.get("sim-metrics", (0, 0))[0],
            evals=counts.get("eval", (0, 0))[0],
            retired=sum(
                counts.get(kind, (0, 0))[0] for kind in RETIRED_KINDS
            ),
            traces=traces,
            checkpoints=counts.get(CHECKPOINT_KIND, (0, 0))[0],
            jobs=counts.get(JOB_KIND, (0, 0))[0],
            payload_bytes=sum(nbytes for _, nbytes in counts.values()),
            path=None if self.path is None else str(self.path),
            bytes_by_kind=tuple(
                sorted((kind, nbytes) for kind, (_c, nbytes) in counts.items())
            ),
        )

    def entries(self) -> list[StoreEntry]:
        """All stored results' metadata, ordered by key."""
        rows = self._db.execute(
            "SELECT key, kind, workload, filter, n_cpus, seed, "
            "LENGTH(payload) FROM results ORDER BY key"
        ).fetchall()
        return [StoreEntry(*row) for row in rows]

    def dump(self) -> dict[str, bytes]:
        """All payloads by key (the determinism tests diff two stores)."""
        rows = self._db.execute("SELECT key, payload FROM results").fetchall()
        return {key: payload for key, payload in rows}

    # -- integrity ------------------------------------------------------

    def _validate_entry(
        self, entry: StoreEntry, blob: bytes | None, present: set[str]
    ) -> None:
        """Raise :class:`StoreCorruptionError` unless ``entry`` is sound.

        Structural validation per kind: the payload must decompress,
        parse, and reconstruct through the same ``decode_*`` function
        the runner would use.  A trace manifest additionally requires
        every segment row it names to be present — a trace with a
        missing shard can never replay, so it is corrupt as a unit.
        """
        if blob is None:
            raise StoreCorruptionError(f"row vanished mid-scan: {entry.key}")
        if entry.kind == "sim-metrics":
            decode_sim_metrics(blob)
        elif entry.kind == "eval":
            decode_eval(blob)
        elif entry.kind == JOB_KIND:
            decode_job(blob)
        elif entry.kind == CHECKPOINT_KIND:
            decode_checkpoint(blob)
        elif entry.kind == TRACE_KIND:
            if entry.filter_name is None:
                manifest = decode_trace_manifest(blob)
                with _decoding("sim-events manifest"):
                    counts = list(manifest["segments_per_node"])
                missing = [
                    segment_key
                    for node_id, count in enumerate(counts)
                    for segment_key in (
                        trace_segment_key(entry.key, node_id, index)
                        for index in range(int(count))
                    )
                    if segment_key not in present
                ]
                if missing:
                    raise StoreCorruptionError(
                        f"trace {entry.key} is missing {len(missing)} "
                        f"dependent row(s) (first: {missing[0]})"
                    )
            else:
                decode_trace_segment(blob)
        else:
            # Unknown kind (from a newer writer): require at least a
            # sound compression envelope, leave semantics alone.
            with _decoding(entry.kind):
                zlib.decompress(blob)

    def fsck(self, *, quarantine: bool = False) -> FsckReport:
        """Validate every payload; delete (or quarantine) what fails.

        Extends the checkpoint resume ladder's delete-and-fall-back
        contract to *all* kinds: corrupt rows are removed so their keys
        read as absent and the next sweep recomputes them — the store
        heals in place instead of crashing its readers.  A corrupt
        trace member dooms the whole trace (manifest plus every
        segment); checkpoints are individually deletable because the
        resume ladder already falls back chain-link by chain-link.

        With ``quarantine=True`` the doomed rows are preserved under
        ``quarantine:``-prefixed keys of kind :data:`QUARANTINE_KIND`
        for post-mortem instead of being dropped; either way the
        original keys are gone afterwards.  Quarantined rows are
        skipped by later passes (and by :meth:`stats` consumers that
        filter on kind), so fsck is idempotent.
        """
        entries = [
            entry for entry in self.entries()
            if entry.kind != QUARANTINE_KIND
        ]
        present = {entry.key for entry in entries}
        by_key = {entry.key: entry for entry in entries}
        corrupt: list[str] = []
        retired: list[str] = []
        doomed: set[str] = set()
        for entry in entries:
            if entry.kind in RETIRED_KINDS:
                retired.append(entry.key)
                continue
            try:
                self._validate_entry(entry, self._raw_blob(entry.key), present)
            except StoreCorruptionError as error:
                _logger.warning("fsck: %s", error)
                corrupt.append(entry.key)
                if entry.kind == TRACE_KIND:
                    trace = (
                        entry.key
                        if entry.filter_name is None
                        else entry.filter_name
                    )
                    doomed.add(trace)
                    doomed.update(
                        group_key for group_key in present
                        if by_key[group_key].kind == TRACE_KIND
                        and by_key[group_key].filter_name == trace
                    )
                else:
                    doomed.add(entry.key)
        removed = quarantined = 0
        for key in sorted(doomed):
            if key not in by_key:
                continue
            if quarantine:
                blob = self._raw_blob(key)
                if blob is not None:
                    entry = by_key[key]
                    self.put_blob(
                        f"quarantine:{key}",
                        blob,
                        kind=QUARANTINE_KIND,
                        workload=entry.workload,
                        filter_name=entry.filter_name,
                        n_cpus=entry.n_cpus,
                        seed=entry.seed,
                    )
                    quarantined += 1
            if self.delete_key(key) and not quarantine:
                removed += 1
        return FsckReport(
            scanned=len(entries),
            corrupt=tuple(sorted(corrupt)),
            removed=removed,
            quarantined=quarantined,
            retired=tuple(sorted(retired)),
        )

    @staticmethod
    def _gc_units(rows) -> list[tuple[int, str, list[str], int]]:
        """Group ``(key, kind, filter, size, used)`` rows into GC units.

        Most rows are their own unit, but two kinds group by the handle
        their ``filter`` column carries: a trace's manifest and segment
        rows form one unit (a trace with an evicted segment would be
        useless), and a run's checkpoint rows form one unit (a chain
        whose newest link vanished would silently resume from an older
        watermark).  Both are evicted atomically, LRU like everything
        else.  A unit's recency is its most recently used member.
        Returns ``(recency, group_key, keys, total_size)`` sorted oldest
        first (key as the deterministic tie-break).
        """
        units: dict[str, list] = {}
        for key, kind, filter_name, size, used in rows:
            group = (
                filter_name
                if kind in (TRACE_KIND, CHECKPOINT_KIND)
                and filter_name is not None
                else key
            )
            unit = units.setdefault(group, [0, [], 0])
            unit[0] = max(unit[0], used)
            unit[1].append(key)
            unit[2] += size
        return sorted(
            (used, group, keys, size)
            for group, (used, keys, size) in units.items()
        )

    def _has_key(self, key: str) -> bool:
        """Raw presence check with no recency side effects (gc internal)."""
        return self._db.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)
        ).fetchone() is not None

    def _raw_blob(self, key: str) -> bytes | None:
        """Raw payload fetch with no recency side effects (gc internal)."""
        row = self._db.execute(
            "SELECT payload FROM results WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _checkpoint_superseded(self, keys: list[str]) -> bool:
        """True when a checkpoint chain's run has already completed.

        A chain snapshot embeds the store keys its run was working
        toward (the ``sim-metrics`` row, plus the trace manifest when
        recording); once those exist the chain can never be resumed
        into anything new, so GC treats it as the first thing to evict.
        Undecodable payloads count as superseded — a chain that cannot
        restore is dead weight.
        """
        try:
            state = decode_checkpoint(self._raw_blob(keys[0]))
        except StoreCorruptionError:
            # Missing or corrupt snapshot: evict first, but leave a
            # trail — silent swallowing is how corruption used to hide.
            _logger.warning(
                "checkpoint %s is undecodable; treating its chain as stale",
                keys[0],
            )
            return True
        mkey = state.get("mkey")
        tkey = state.get("tkey")
        if not mkey or not self._has_key(mkey):
            return False
        return tkey is None or self._has_key(tkey)

    def _eviction_order(self, rows) -> list[tuple[int, str, list[str], int]]:
        """GC units, retired kinds first, then superseded checkpoint chains."""
        kinds = {key: kind for key, kind, _f, _s, _u in rows}
        retired, stale, live = [], [], []
        for unit in self._gc_units(rows):
            _used, _group, keys, _size = unit
            if kinds[keys[0]] in RETIRED_KINDS:
                retired.append(unit)
            elif (
                kinds[keys[0]] == CHECKPOINT_KIND
                and self._checkpoint_superseded(keys)
            ):
                stale.append(unit)
            else:
                live.append(unit)
        return retired + stale + live

    def gc(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-used entries down to a payload budget.

        Entries are removed in recency order (oldest ``last_used`` first)
        until the total compressed payload is at most ``max_bytes``; a
        persisted trace (manifest plus all its segments) and a run's
        checkpoint chain each count — and are evicted — as a single
        unit.  Rows of a retired kind go first, then checkpoint chains
        whose run already completed (their ``sim-metrics``/manifest rows
        exist), then everything else.  Returns ``(entries_removed,
        bytes_freed)``.  A zero budget empties the store; a budget above
        the current total removes nothing.
        """
        if max_bytes < 0:
            raise ConfigurationError(
                f"size budget must be >= 0 bytes, got {max_bytes}"
            )
        self._flush_touches()  # gc ranks by recency; stamps must be durable
        rows = self._db.execute(
            "SELECT key, kind, filter, LENGTH(payload), last_used FROM results"
        ).fetchall()
        total = sum(size for _k, _kind, _f, size, _u in rows)
        removed = freed = 0
        for _used, _group, keys, size in self._eviction_order(rows):
            if total <= max_bytes:
                break
            for key in keys:
                self._db.execute("DELETE FROM results WHERE key = ?", (key,))
                self._live.pop(key, None)
            total -= size
            removed += len(keys)
            freed += size
        self._db.commit()
        return removed, freed

    def delete_trace(self, trace: str) -> int:
        """Drop a trace's manifest and every row grouped under it.

        Rows whose ``filter`` column carries the trace key belong to it,
        whatever their kind: its segments, and the snapshot rows of
        older measured-only recordings.  Quarantined copies keep that
        column too but are left for post-mortem.  Used before
        re-recording (a partially garbage-collected or interrupted
        recording must never mix stale segments with fresh ones) and
        harmless when nothing is stored under the key.
        Returns rows removed.
        """
        self._flush_touches()
        cursor = self._db.execute(
            "DELETE FROM results WHERE key = ? "
            "OR (filter = ? AND kind != ?)",
            (trace, trace, QUARANTINE_KIND),
        )
        removed = cursor.rowcount
        self._db.commit()
        self._live.pop(trace, None)
        return removed

    def group_keys(self, kind: str, group: str) -> list[str]:
        """Keys of one kind whose ``filter`` column carries ``group``.

        The lookup behind checkpoint-chain enumeration (and usable for
        a trace's segment rows): sorted for deterministic iteration.
        """
        rows = self._db.execute(
            "SELECT key FROM results WHERE kind = ? AND filter = ?",
            (kind, group),
        ).fetchall()
        return sorted(key for (key,) in rows)

    def delete_group(self, kind: str, group: str) -> int:
        """Drop every ``kind`` row grouped under ``group``; return count.

        Used to retire a checkpoint chain — after its run completes, or
        when an individual snapshot proves unusable — without touching
        any other result.
        """
        doomed = self.group_keys(kind, group)
        self._flush_touches()
        self._db.execute(
            "DELETE FROM results WHERE kind = ? AND filter = ?",
            (kind, group),
        )
        self._db.commit()
        for key in doomed:
            self._live.pop(key, None)
        return len(doomed)

    def delete_key(self, key: str) -> bool:
        """Drop one row by key; return whether it existed.

        The resume path uses this to discard an individual checkpoint
        (or a truncated trace segment) that failed validation.
        """
        self._flush_touches()
        cursor = self._db.execute(
            "DELETE FROM results WHERE key = ?", (key,)
        )
        self._db.commit()
        self._live.pop(key, None)
        return cursor.rowcount > 0

    def delete_kind(self, kind: str) -> int:
        """Drop every entry of one result kind; return entries removed.

        Benchmarks use this to clear ``eval`` rows between timed replay
        reruns without touching the recorded trace (and without poking
        at store internals).
        """
        self._flush_touches()
        doomed = [
            key for (key,) in self._db.execute(
                "SELECT key FROM results WHERE kind = ?", (kind,)
            )
        ]
        self._db.execute("DELETE FROM results WHERE kind = ?", (kind,))
        self._db.commit()
        for key in doomed:
            self._live.pop(key, None)
        return len(doomed)

    def clear(self) -> int:
        """Drop every entry (memoised and stored); return entries removed."""
        removed = len(self._live)
        self._live.clear()
        self._pending_touches.clear()
        (count,) = self._db.execute("SELECT COUNT(*) FROM results").fetchone()
        self._db.execute("DELETE FROM results")
        self._db.commit()
        return max(removed, count)

    def close(self) -> None:
        """Flush recency stamps and close the connection (idempotent).

        Any later use of the store raises :class:`ConfigurationError`:
        a closed store never silently accepts a write it cannot keep.
        """
        if isinstance(self._db, _ClosedConnection):
            return
        self._flush_touches()
        self._db.close()
        self._db = _ClosedConnection()
        self._live.clear()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
