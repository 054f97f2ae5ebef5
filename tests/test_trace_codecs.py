"""Trace-economics tests: the segment wire format and old stores.

Every segment is written and read as delta-v1.  The contract is that
wire format is *pure encoding*: any chunk size must replay to the exact
evaluation bytes the live streamed path produces.

Pinned here:

* **wire format** — delta-v1 round-trips arbitrary packed events
  (empty, single, marker-only, 59-bit blocks, negative deltas, region
  boundaries) on both codec tiers, self-identifies via its magic byte,
  and encodes and decodes to the same bytes on the native and
  pure-Python paths; crafted corrupt planes and legacy raw-v1 blobs
  raise :class:`StoreCorruptionError` on both paths and fail
  ``cache fsck``;
* **replay byte-identity** — every filter family x chunk size
  {512, 1777} equals live streaming, including a PHASE-marker-mid-segment
  suite trace;
* **trace economics** — em3d's stored delta-v1 archive stays at most
  0.80x of the same trace stored as legacy raw-v1;
* **deflate** — long segments deflate with the run-length strategy and
  short ones with zlib's default, and neither is ever larger than the
  default level-6 deflate of the same planes on the edge segments and
  the golden miniatures' traces;
* **legacy stores** — a store recorded before delta-v1 loses its raw-v1
  traces to ``cache fsck`` and re-records them under the same keys,
  byte-identical to a clean store; delta-v1 segments deflated as
  ``zlib.compress(planes, 6)`` (every segment of a store written before
  the run-length strategy) decode on both tiers and replay warm to
  byte-identical evaluations; a manifest with a ``codec`` note still
  loads;
* **measured-only stores** — a store holding an older measured-only
  trace (warm-up events swapped for a ``fast-forward`` row) serves its
  stored evaluations, re-records a full trace when a replay needs one,
  and has its retired snapshot row reported by ``fsck`` and evicted
  first by ``gc``.
"""

from __future__ import annotations

import contextlib
import random
import sys
import zlib
from array import array
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import experiments, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.cli import main
from repro.coherence.config import SCALED_SYSTEM
from repro.core import _cmachine
from repro.core.stats import MARKER, EventReplayer, pack_event
from repro.errors import StoreCorruptionError
from repro.traces.suite import Phase, Suite
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec
from tests.test_golden_metrics import GOLDEN_WORKLOADS

WORKLOAD = "test-trace-codecs"

#: One member of each filter family (the acceptance matrix).
FAMILY_FILTERS = (
    "EJ-8x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-8x2)",
)

#: Tiny power of two and a prime: segment and shard boundaries never
#: align with anything in the workload.
CHUNK_SIZES = (512, 1_777)

requires_native = pytest.mark.skipif(
    _cmachine.library() is None,
    reason="the compiled kernels and the native codec need a C compiler",
)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: Two-phase suite whose PHASE marker lands mid-segment when recorded
#: with a small ``segment_events`` (nothing aligns with 777).
SUITE = Suite(
    [
        Phase("ramp", "zipf-hot", 900),
        Phase("steady", "scan-stream", 1_100),
    ],
    name="test-codec-suite",
    warmup_accesses=500,
)


@pytest.fixture(autouse=True)
def codec_workload():
    WORKLOADS[WORKLOAD] = WorkloadSpec(
        name=WORKLOAD,
        abbrev="tc",
        description="miniature workload for trace-codec tests",
        paper=_PAPER,
        n_accesses=3_000,
        warmup_accesses=800,
        repeat_frac=0.2,
        recipe=(
            ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
            ("migratory", dict(weight=0.4, n_objects=16)),
        ),
    )
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield WORKLOADS[WORKLOAD]
    experiments._STORE.close()
    experiments._STORE = previous
    del WORKLOADS[WORKLOAD]


def _pack(kind: int, flag: int, block: int) -> int:
    return (block << 4) | (flag << 2) | kind


def _rows(store: ExperimentStore, kind: str) -> dict[str, bytes]:
    return {
        e.key: store.get_blob(e.key)
        for e in store.entries()
        if e.kind == kind
    }


def _live_payloads(spec, filters, seed=1):
    """(metrics blob, filter -> eval blob) from one live streamed run."""
    metrics, evaluations = runner.compute_stream(
        spec, SCALED_SYSTEM, seed, filters
    )
    return (
        store_mod.encode_sim_metrics(metrics),
        {n: store_mod.encode_eval(e) for n, e in evaluations.items()},
    )


def _segment_keys_flat(store, tkey):
    loaded = runner.load_trace(store, tkey)
    assert loaded is not None
    manifest, segment_keys = loaded
    return manifest, [key for node in segment_keys for key in node]


def _legacy_raw_v1(events: array) -> bytes:
    """A raw-v1 segment blob, built the way pre-delta stores wrote them:
    zlib level 6 over the little-endian packed events."""
    events = array("q", events)
    if sys.byteorder == "big":  # pragma: no cover - exotic platforms
        events.byteswap()
    return zlib.compress(events.tobytes(), 6)


def _level6_delta_v1(events: array) -> bytes:
    """A delta-v1 segment blob as stores wrote every segment before long
    ones took the run-length strategy: the planes under
    ``zlib.compress(planes, 6)``."""
    planes = store_mod._delta_planes_encode(array("q", events).tobytes())
    return bytes([0xD7]) + zlib.compress(planes, 6)


def _rewrite_segments(store, tkey, keys, encode) -> None:
    """Rewrite stored delta-v1 segments as ``encode(events)`` blobs."""
    spec = WORKLOADS[WORKLOAD]
    for key in keys:
        events = store_mod.decode_trace_segment(store.get_blob(key))
        store.put_blob(
            key, encode(events), kind=store_mod.TRACE_KIND,
            workload=spec.name, filter_name=tkey,
            n_cpus=SCALED_SYSTEM.n_cpus, seed=1,
        )


@contextlib.contextmanager
def _pure_python_codec():
    """Run the codec without the native core (the no-compiler CI job's
    path)."""
    saved = _cmachine._lib
    _cmachine._lib = None
    try:
        yield
    finally:
        _cmachine._lib = saved


# ----------------------------------------------------------------------
# Wire format: round trips, magic dispatch, path parity, corruption
# ----------------------------------------------------------------------

EDGE_SEGMENTS = {
    "empty": [],
    "single": [_pack(0, 1, 42)],
    "markers-only": [_pack(3, 0, 0), _pack(3, 2, 0), _pack(3, 1, 0)],
    "repeat-block": [_pack(0, 0, 9)] * 17,
    "large-blocks": [
        _pack(0, 0, (1 << 59) - 1),
        _pack(0, 0, 0),
        _pack(2, 3, (1 << 59) - 17),
        _pack(1, 2, 1 << 58),
    ],
    "all-kinds": [
        _pack(kind, flag, 4096 * kind + flag)
        for kind in range(4) for flag in range(4)
    ],
    # Negative deltas: each chain walks down its region.
    "descending": [
        _pack(kind, 0, block)
        for block in (4095, 4094, 17, 3, 0) for kind in (0, 2)
    ],
}

#: Block numbers that stress the delta chains: small local ones,
#: either side of a 2**12-block region boundary, and the top of the
#: 59-bit range ``array('q')`` storage holds.
_BLOCKS = st.one_of(
    st.integers(0, 1 << 16),
    st.builds(
        lambda region, step: max(0, (region << 12) + step),
        st.integers(0, 1 << 20), st.sampled_from((-1, 0, 1)),
    ),
    st.integers((1 << 59) - (1 << 13), (1 << 59) - 1),
)

_EVENTS = st.one_of(
    st.builds(_pack, st.integers(0, 3), st.integers(0, 3), _BLOCKS),
    # PHASE markers: flag 1, phase index in the block bits.
    st.builds(lambda index: _pack(3, 1, index), st.integers(0, 7)),
)


def _codec_path(path: str):
    """The codec of one tier: ``native`` (the default where the core
    loads) or ``python`` (the spec, with the core hidden)."""
    if path == "python":
        return _pure_python_codec()
    return contextlib.nullcontext()


#: Both codec tiers; the native one needs the compiled core.
CODEC_PATHS = [pytest.param("native", marks=requires_native), "python"]


class TestCodecWireFormat:
    @pytest.mark.parametrize("name", sorted(EDGE_SEGMENTS))
    @pytest.mark.parametrize("path", CODEC_PATHS)
    def test_edge_segments_round_trip(self, name, path):
        events = array("q", EDGE_SEGMENTS[name])
        with _codec_path(path):
            blob = store_mod.encode_trace_segment(events.tobytes())
            assert blob[0] == 0xD7
            decoded = store_mod.decode_trace_segment(blob)
            assert decoded == events
            # ``cache info`` counts 8 decoded bytes per event.
            assert decoded.itemsize == 8

    @pytest.mark.parametrize("name", sorted(EDGE_SEGMENTS))
    @pytest.mark.parametrize("path", CODEC_PATHS)
    def test_legacy_raw_v1_segments_are_corruption(self, name, path):
        blob = _legacy_raw_v1(array("q", EDGE_SEGMENTS[name]))
        with _codec_path(path):
            with pytest.raises(StoreCorruptionError,
                               match="not a delta-v1 segment"):
                store_mod.decode_trace_segment(blob)

    @pytest.mark.parametrize("name", sorted(EDGE_SEGMENTS))
    @pytest.mark.parametrize("path", CODEC_PATHS)
    def test_level6_delta_segments_still_decode(self, name, path):
        events = array("q", EDGE_SEGMENTS[name])
        with _codec_path(path):
            blob = _level6_delta_v1(events)
            assert store_mod.decode_trace_segment(blob) == events

    @pytest.mark.parametrize("scale", (1, 10))
    def test_never_larger_than_level6_deflate(self, scale):
        """The edge segments and the golden miniatures' traces; at ten
        times the miniatures' length their segments pass the run-length
        threshold."""
        segments = [array("q", events) for events in EDGE_SEGMENTS.values()]
        with ExperimentStore() as store:
            for spec in GOLDEN_WORKLOADS:
                spec = replace(spec, n_accesses=scale * spec.n_accesses)
                runner.record_trace(spec, SCALED_SYSTEM, 1,
                                    experiment_store=store)
                _manifest, keys = _segment_keys_flat(
                    store, store_mod.trace_key(spec, SCALED_SYSTEM, 1)
                )
                segments += [
                    store_mod.decode_trace_segment(store.get_blob(key))
                    for key in keys
                ]
        run_length = 0
        for events in segments:
            blob = store_mod.encode_trace_segment(events.tobytes())
            level6 = _level6_delta_v1(events)
            assert len(blob) <= len(level6), len(events)
            run_length += blob != level6
        assert bool(run_length) == (scale > 1)

    def test_random_events_round_trip_identically(self):
        rng = random.Random(7)
        events = array("q", [
            _pack(rng.randrange(4), rng.randrange(4), rng.randrange(1 << 40))
            for _ in range(5_000)
        ])
        delta = store_mod.encode_trace_segment(events.tobytes())
        assert store_mod.decode_trace_segment(delta) == events

    def test_magic_byte_separates_the_formats(self):
        # zlib streams always open 0x78; the delta magic must not, so a
        # legacy raw-v1 blob can never pass for a delta-v1 one.
        assert _legacy_raw_v1(array("q"))[0] == 0x78
        assert store_mod.encode_trace_segment(b"")[0] == 0xD7

    def test_delta_wins_on_a_local_stream(self):
        """Sequential blocks: the delta plane collapses, raw does not."""
        events = array("q", [
            _pack(0, 0, base + step)
            for base in (0, 1 << 30, 1 << 45)
            for step in range(2_000)
        ])
        delta_blob = store_mod.encode_trace_segment(events.tobytes())
        assert len(delta_blob) < len(_legacy_raw_v1(events)) // 2

    def test_delta_v1_archive_stays_under_raw_v1(self):
        """Trace economics: em3d's stored archive (manifest plus
        segments) stays at most 0.80x of the same trace had its segments
        been written as legacy raw-v1.  It reads 0.702."""
        spec = replace(WORKLOADS["em3d"], n_accesses=120_000,
                       warmup_accesses=10_000)
        with ExperimentStore() as store:
            runner.record_trace(spec, SCALED_SYSTEM, 1,
                                experiment_store=store)
            tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
            _manifest, keys = _segment_keys_flat(store, tkey)
            manifest = len(store.get_blob(tkey))
            blobs = [store.get_blob(key) for key in keys]
        stored = manifest + sum(map(len, blobs))
        raw = manifest + sum(
            len(_legacy_raw_v1(store_mod.decode_trace_segment(blob)))
            for blob in blobs
        )
        assert stored <= 0.80 * raw, stored / raw

    def test_truncated_delta_segment_is_corruption(self):
        blob = bytes([0xD7]) + zlib.compress(b"\x01")
        with pytest.raises(StoreCorruptionError):
            store_mod.decode_trace_segment(blob)

    @requires_native
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_EVENTS, max_size=300))
    @example([])
    @example([_pack(0, 1, 42)])
    @example([_pack(3, 1, 0)])
    def test_native_and_python_paths_produce_identical_bytes(self, packed):
        events = array("q", packed)
        raw = events.tobytes()
        native = store_mod.encode_trace_segment(raw)
        native_decoded = store_mod.decode_trace_segment(native)
        with _pure_python_codec():
            python = store_mod.encode_trace_segment(raw)
            python_decoded = store_mod.decode_trace_segment(native)
        assert native == python
        assert native_decoded == python_decoded == events


def _crafted_blob(case: str) -> bytes:
    """A delta-v1 blob of three events with one plane corrupted."""
    events = array("q", [_pack(0, 0, 5), _pack(1, 1, 9), _pack(2, 2, 4096)])
    blob = store_mod.encode_trace_segment(events.tobytes())
    inner = bytearray(zlib.decompress(blob[1:]))
    varints = 9 + 2 * len(events)  # the regions, then kinds 0..2's deltas
    if case == "kind":
        inner[9 + 1] = 5  # kinds plane starts after the 9-byte header
    elif case == "flag":
        inner[9 + len(events) + 1] = 4
    elif case == "leftover-zigzag":  # one more value than the planes claim
        inner.append(0x01)
    elif case == "overlong-varint":  # the first region id in 11 bytes
        inner[varints:varints + 1] = b"\x80" * 10 + b"\x00"
    elif case == "varint-past-64-bits":  # 10 bytes, a value >= 2**64
        inner[varints:varints + 1] = b"\xff" * 9 + b"\x02"
    elif case == "truncated-varints":  # the last delta loses its last byte
        del inner[-1]
    elif case == "region-shift":  # a header shift past the 60-bit blocks
        inner[8] = 61
    else:  # block-out-of-range: the first block's delta is 2**61
        inner[varints + 3:varints + 4] = store_mod._varints_encode_py(
            [1 << 62]
        )
    return bytes([0xD7]) + zlib.compress(bytes(inner), 6)


CORRUPTIONS = (
    "kind", "flag", "leftover-zigzag", "overlong-varint",
    "varint-past-64-bits", "block-out-of-range", "truncated-varints",
    "region-shift",
)


class TestCorruptPlanes:
    @pytest.mark.parametrize("case", CORRUPTIONS)
    @pytest.mark.parametrize("path", CODEC_PATHS)
    def test_crafted_planes_are_corruption(self, case, path):
        blob = _crafted_blob(case)
        with _codec_path(path):
            with pytest.raises(StoreCorruptionError):
                store_mod.decode_trace_segment(blob)

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_cache_fsck_removes_a_trace_with_a_crafted_segment(
        self, tmp_path, capsys, case
    ):
        path = str(tmp_path / f"crafted-{case}.sqlite")
        with ExperimentStore(path) as store:
            runner.execute(
                [runner.SweepJob(WORKLOADS[WORKLOAD])], mode="replay",
                experiment_store=store,
            )
            tkey = store_mod.trace_key(WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1)
            _manifest, keys = _segment_keys_flat(store, tkey)
            store.put_blob(
                keys[0], _crafted_blob(case), kind=store_mod.TRACE_KIND,
                workload=WORKLOAD, filter_name=tkey,
                n_cpus=SCALED_SYSTEM.n_cpus, seed=1,
            )
        assert main(["--store", path, "cache", "fsck"]) == 1
        out = capsys.readouterr().out
        assert f"corrupt: {keys[0][:16]}" in out
        with ExperimentStore(path) as store:
            assert runner.load_trace(store, tkey) is None
            assert store.fsck().clean


# ----------------------------------------------------------------------
# Replay byte-identity: family x chunk size vs live streaming
# ----------------------------------------------------------------------

def _assert_matches_live(store, spec, filters=FAMILY_FILTERS):
    metrics_blob, payloads = _live_payloads(spec, filters)
    mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
    assert store.get_blob(mkey) == metrics_blob
    for name in filters:
        ekey = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
        assert store.get_blob(ekey) == payloads[name], name


class TestCodecReplayByteIdentity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_every_family_matches_live_stream(self, tmp_path, chunk_size):
        store = ExperimentStore(tmp_path / f"delta-{chunk_size}.sqlite")
        result = runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=store,
            replay=True, chunk_size=chunk_size,
        )
        assert result.report.sims_run == 1
        assert result.report.evals_run == len(FAMILY_FILTERS)
        spec = WORKLOADS[WORKLOAD]
        _assert_matches_live(store, spec)
        # The store really holds delta-v1, and the manifest says nothing
        # about the wire format.
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        manifest, segment_keys = _segment_keys_flat(store, tkey)
        assert "codec" not in manifest
        for key in segment_keys:
            assert store.get_blob(key)[0] == 0xD7

    def test_delta_trace_rows_are_chunk_size_invariant(self, tmp_path):
        dumps = []
        for chunk_size in CHUNK_SIZES:
            store = ExperimentStore(tmp_path / f"ci{chunk_size}.sqlite")
            runner.execute(
                [runner.SweepJob(WORKLOADS[WORKLOAD], (), chunk_size=chunk_size)],
                mode="replay", experiment_store=store,
            )
            dumps.append(_rows(store, store_mod.TRACE_KIND))
        assert dumps[0] == dumps[1]

    def test_phase_marker_mid_segment_replays_identically(self, tmp_path):
        """A suite's PHASE markers land inside 64-event segments; the
        delta replay must reproduce the per-phase splits byte-exactly."""
        store = ExperimentStore(tmp_path / "suite.sqlite")
        runner.record_trace(
            SUITE, SCALED_SYSTEM, 1, experiment_store=store,
            segment_events=64,
        )
        tkey = store_mod.trace_key(SUITE, SCALED_SYSTEM, 1)
        manifest, segment_keys = _segment_keys_flat(store, tkey)
        assert any(c > 1 for c in manifest["segments_per_node"])
        report = runner.execute(
            [runner.SweepJob(SUITE, FAMILY_FILTERS)],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 0  # the recorded delta trace serves
        _metrics_blob, payloads = _live_payloads(SUITE, FAMILY_FILTERS)
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(SUITE, name, SCALED_SYSTEM, 1)
            blob = store.get_blob(ekey)
            assert blob == payloads[name], name
            evaluation = store_mod.decode_eval(blob)
            assert set(evaluation.phases) == set(SUITE.phase_names())


# ----------------------------------------------------------------------
# Legacy stores: raw-v1 traces are doomed and re-recorded
# ----------------------------------------------------------------------

class TestLegacyStores:
    def test_raw_v1_trace_is_doomed_and_re_recorded(self, tmp_path):
        """A store recorded before delta-v1: its raw-v1 segments are
        corruption on both codec tiers, and a plain re-sweep dooms the
        whole trace and re-records it under the same key, its rows
        byte-identical to a clean store's."""
        clean = ExperimentStore()
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=clean, replay=True
        )
        path = tmp_path / "legacy.sqlite"
        with ExperimentStore(path) as store:
            runner.run_sweep(
                (WORKLOAD,), FAMILY_FILTERS[:2], experiment_store=store,
                replay=True,
            )
            tkey = store_mod.trace_key(WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1)
            _manifest, keys = _segment_keys_flat(store, tkey)
            _rewrite_segments(store, tkey, keys, _legacy_raw_v1)
            blob = store.get_blob(keys[0])
        tiers = ["python"] + ["native"] * (_cmachine.library() is not None)
        for tier in tiers:
            with _codec_path(tier):
                with pytest.raises(StoreCorruptionError):
                    store_mod.decode_trace_segment(blob)
        with ExperimentStore(path) as store:
            result = runner.run_sweep(
                (WORKLOAD,), FAMILY_FILTERS, experiment_store=store,
                replay=True,
            )
            assert result.report.sims_run == 1
            assert result.report.sims_cached == 0
            assert result.report.evals_cached == 2
            assert store.fsck().clean
            assert store.dump() == clean.dump()

    def test_level6_delta_trace_replays_warm(self, tmp_path):
        """A trace whose segments were deflated as ``zlib.compress(planes,
        6)``: they decode to the same events on both codec tiers, and the
        store replays them with no re-record, its evaluations
        byte-identical to a fresh recording's."""
        # Long enough that each node's segment takes the run-length path.
        accesses = 40_000
        clean = ExperimentStore()
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=clean,
            replay=True, accesses=accesses,
        )
        path = tmp_path / "level6.sqlite"
        spec = replace(WORKLOADS[WORKLOAD], n_accesses=accesses)
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        with ExperimentStore(path) as store:
            runner.run_sweep(
                (WORKLOAD,), (), experiment_store=store, replay=True,
                accesses=accesses,
            )
            _manifest, keys = _segment_keys_flat(store, tkey)
            fresh = {key: store.get_blob(key) for key in keys}
            _rewrite_segments(store, tkey, keys, _level6_delta_v1)
            level6 = {key: store.get_blob(key) for key in keys}
        assert all(level6[key] != fresh[key] for key in keys)
        tiers = ["python"] + ["native"] * (_cmachine.library() is not None)
        for tier in tiers:
            with _codec_path(tier):
                for key in keys:
                    assert (store_mod.decode_trace_segment(level6[key])
                            == store_mod.decode_trace_segment(fresh[key]))
        with ExperimentStore(path) as store:
            result = runner.run_sweep(
                (WORKLOAD,), FAMILY_FILTERS, experiment_store=store,
                replay=True, accesses=accesses,
            )
            assert result.report.sims_run == 0
            assert result.report.evals_run == len(FAMILY_FILTERS)
            assert _rows(store, "eval") == _rows(clean, "eval")
            assert {key: store.get_blob(key) for key in keys} == level6
            assert store.fsck().clean

    def test_manifest_with_a_codec_note_still_loads(self, tmp_path):
        """Manifests written by the ``--codec`` era carry a ``codec``
        note; they load and replay like any other."""
        store = ExperimentStore(tmp_path / "noted.sqlite")
        spec = WORKLOADS[WORKLOAD]
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS[:2], experiment_store=store,
            replay=True,
        )
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        manifest, _keys = _segment_keys_flat(store, tkey)
        manifest["codec"] = "delta-v1"
        store.put_blob(
            tkey, store_mod.encode_trace_manifest(manifest),
            kind=store_mod.TRACE_KIND, workload=spec.name, filter_name=None,
            n_cpus=SCALED_SYSTEM.n_cpus, seed=1,
        )
        store.delete_kind("eval")
        report = runner.execute(
            [runner.SweepJob(spec, FAMILY_FILTERS)],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 0
        _assert_matches_live(store, spec)
        assert store.fsck().clean


# ----------------------------------------------------------------------
# Stores holding a measured-only trace keep working
# ----------------------------------------------------------------------

#: Filters whose evaluations the measured-only store already holds.
STORED_FILTERS = ("EJ-32x4", "IJ-8x4x7")


def _measured_only_store(tmp_path):
    """A store as an older measured-only recording left it.

    Such a recording kept only the events from the warm-up MARKER on,
    plus a ``fast-forward`` row of filter state warmed over the rest;
    its manifest says so, and its evaluations equal a full trace's.
    Returns ``(store, trace_key, fast_forward_key)``.
    """
    spec = WORKLOADS[WORKLOAD]
    n_cpus = SCALED_SYSTEM.n_cpus
    full = ExperimentStore()
    runner.execute(
        [runner.SweepJob(spec, STORED_FILTERS)], mode="replay",
        experiment_store=full,
    )
    tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
    manifest, segment_keys = runner.load_trace(full, tkey)
    store = ExperimentStore(tmp_path / "measured-only.sqlite")
    for entry in full.entries():
        if entry.kind in ("sim-metrics", "eval"):
            store.put_blob(
                entry.key, full.get_blob(entry.key), kind=entry.kind,
                workload=entry.workload, filter_name=entry.filter_name,
                n_cpus=n_cpus, seed=1,
            )
    marker = pack_event(MARKER, 0)
    warm_states = {name: [] for name in runner.DEFAULT_SWEEP_FILTERS}
    measured_counts = []
    for node_id, keys in enumerate(segment_keys):
        events = array("q")
        for key in keys:
            events.extend(store_mod.decode_trace_segment(full.get_blob(key)))
        cut = events.index(marker)
        for name, states in warm_states.items():
            warmer = EventReplayer(
                runner._build_filters(name, SCALED_SYSTEM)[node_id], node_id
            )
            warmer.feed(list(events[:cut]))
            warmer.snoop_filter.reset_counts()
            states.append(warmer.snoop_filter.snapshot())
        measured = events[cut:]
        measured_counts.append(len(measured))
        store.put_blob(
            store_mod.trace_segment_key(tkey, node_id, 0),
            store_mod.encode_trace_segment(measured.tobytes()),
            kind=store_mod.TRACE_KIND, workload=spec.name, filter_name=tkey,
            n_cpus=n_cpus, seed=1,
        )
    full.close()
    warmup = spec.warmup_accesses
    ffkey = store_mod._digest({
        "kind": "fast-forward",
        "schema": store_mod.SCHEMA_VERSION,
        "spec": store_mod.spec_fingerprint(spec),
        "system": store_mod.system_fingerprint(SCALED_SYSTEM),
        "seed": 1,
        "warmup": warmup,
    })
    manifest = dict(
        manifest, segments_per_node=[1] * n_cpus,
        events_per_node=measured_counts,
        measured_only=True, warmup=warmup, fast_forward=ffkey,
    )
    store.put_blob(
        tkey, store_mod.encode_trace_manifest(manifest),
        kind=store_mod.TRACE_KIND, workload=spec.name, filter_name=None,
        n_cpus=n_cpus, seed=1,
    )
    # Written last, so the snapshot is the most recently used row.
    store.put_blob(
        ffkey,
        zlib.compress(store_mod._canonical({
            "version": 1, "workload": spec.name, "n_cpus": n_cpus,
            "seed": 1, "warmup": warmup, "filters": warm_states,
        }), 6),
        kind="fast-forward", workload=spec.name, filter_name=tkey,
        n_cpus=n_cpus, seed=1,
    )
    return store, tkey, ffkey


class TestFastForwardLifecycle:
    """A measured-only trace is never replayed: it reads as absent, so
    the next replay that needs it re-records a full trace under the
    same key, and its leftover ``fast-forward`` row is a retired kind
    that ``fsck`` reports and ``gc`` evicts first."""

    def test_stored_evals_need_no_simulation(self, tmp_path):
        store, tkey, _ffkey = _measured_only_store(tmp_path)
        assert runner.load_trace(store, tkey) is None
        result = runner.run_sweep(
            (WORKLOAD,), STORED_FILTERS, experiment_store=store,
        )
        assert result.report.sims_run == 0
        assert result.report.evals_run == 0

    def test_a_new_filter_re_records_a_full_trace(self, tmp_path):
        store, tkey, _ffkey = _measured_only_store(tmp_path)
        filters = STORED_FILTERS + ("HJ(IJ-8x4x7, EJ-8x2)",)
        result = runner.run_sweep((WORKLOAD,), filters, experiment_store=store)
        assert result.report.sims_run == 1
        assert result.report.evals_run == 1
        assert not _rows(store, "fast-forward")
        assert "measured_only" not in _segment_keys_flat(store, tkey)[0]
        fresh = ExperimentStore(tmp_path / "fresh.sqlite")
        runner.run_sweep((WORKLOAD,), filters, experiment_store=fresh)
        for kind in ("eval", store_mod.TRACE_KIND):
            assert _rows(store, kind) == _rows(fresh, kind), kind

    def test_vanished_snapshot_makes_the_trace_absent(self, tmp_path):
        # The state gc leaves behind: it evicts the retired row first.
        store, tkey, _ffkey = _measured_only_store(tmp_path)
        assert store.delete_kind("fast-forward") == 1
        assert runner.load_trace(store, tkey) is None
        report = runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD])], mode="replay",
            experiment_store=store,
        )
        assert report.sims_run == 1
        manifest, _segment_keys = runner.load_trace(store, tkey)
        assert "measured_only" not in manifest

    def test_measured_store_passes_fsck(self, tmp_path, capsys):
        store, _tkey, ffkey = _measured_only_store(tmp_path)
        report = store.fsck()
        assert report.corrupt == ()
        assert report.removed == 0
        assert report.retired == (ffkey,)
        assert main(["--store", str(store.path), "cache", "fsck"]) == 0
        out = capsys.readouterr().out
        assert "store clean" in out
        assert "1 row(s) of retired kind sim/fast-forward/matrix" in out

    def test_gc_evicts_the_snapshot_first(self, tmp_path):
        store, _tkey, ffkey = _measured_only_store(tmp_path)
        rows = store.dump()
        snapshot = rows.pop(ffkey)
        budget = store.stats().payload_bytes - len(snapshot)
        assert store.gc(budget) == (1, len(snapshot))
        assert store.dump() == rows

    def test_delete_trace_removes_the_snapshot(self, tmp_path):
        store, tkey, ffkey = _measured_only_store(tmp_path)
        assert store.delete_trace(tkey) == 2 + SCALED_SYSTEM.n_cpus
        assert not store.contains(ffkey)
        assert not _rows(store, store_mod.TRACE_KIND)
