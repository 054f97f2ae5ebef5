"""Record-once / replay-many tests: trace store, replay engine, backends.

The trace layer's value rests on three claims, all pinned here:

* **byte-identity** — replaying a persisted trace produces evaluation
  (and restored metrics) payloads identical to the live streamed path's,
  for every filter family, any recording chunk size, and any worker
  count / executor backend;
* **chunk-invariant storage** — the trace rows themselves (manifest and
  segments) are byte-identical whatever chunk size the recording pass
  used, which is why chunk size never appears in a store key;
* **legacy isolation** — the ``sim-events`` kind only *adds* rows:
  every pre-existing ``sim-metrics``/``eval`` entry, and any row of the
  retired ``sim`` kind, keeps its key and exact payload bytes, with no
  ``SCHEMA_VERSION`` bump.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import experiments, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.coherence.smp import TraceSink
from repro.errors import ConfigurationError, StoreCorruptionError
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec
from tests.conftest import put_legacy_sim_row

WORKLOAD = "test-trace-replay"

#: One member of each filter family (the acceptance matrix).
FAMILY_FILTERS = (
    "EJ-8x2",
    "VEJ-16x2-4",
    "IJ-8x4x7",
    "HJ(IJ-8x4x7, EJ-8x2)",
)

#: Recording chunk sizes: tiny (many shards per segment), prime (shard
#: boundaries never align with anything), and larger than the whole
#: trace (one shard).
CHUNK_SIZES = (512, 1_777, 1_000_000)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)


@pytest.fixture(autouse=True)
def trace_workload():
    WORKLOADS[WORKLOAD] = WorkloadSpec(
        name=WORKLOAD,
        abbrev="tr",
        description="miniature workload for trace-replay tests",
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


def _rows(store: ExperimentStore, kind: str) -> dict[str, bytes]:
    return {
        e.key: store.get_blob(e.key)
        for e in store.entries()
        if e.kind == kind
    }


# ----------------------------------------------------------------------
# Replay-vs-live byte-identity (the hard correctness contract)
# ----------------------------------------------------------------------

class TestReplayByteIdentity:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("workers", (1, 2))
    def test_all_families_all_chunk_sizes_all_worker_counts(
        self, trace_workload, tmp_path, chunk_size, workers
    ):
        """Record at each chunk size, replay on 1 and 2 workers: every
        evaluation and the metrics payload must equal the live bytes."""
        store = ExperimentStore(
            tmp_path / f"replay-{chunk_size}-{workers}.sqlite"
        )
        result = runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS,
            experiment_store=store, replay=True,
            workers=workers, chunk_size=chunk_size,
        )
        assert result.report.sims_run == 1
        assert result.report.evals_run == len(FAMILY_FILTERS)

        spec = WORKLOADS[WORKLOAD]
        metrics, evaluations = runner.compute_stream(
            spec, SCALED_SYSTEM, 1, FAMILY_FILTERS
        )
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        assert store.get_blob(mkey) == store_mod.encode_sim_metrics(metrics)
        for name in FAMILY_FILTERS:
            ekey = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            assert store.get_blob(ekey) == (
                store_mod.encode_eval(evaluations[name])
            ), (name, chunk_size, workers)

    def test_replay_matches_buffered_evaluations(self, trace_workload, tmp_path):
        """A sweep with no mode flag records and replays, exactly as
        ``replay=True`` spells it."""
        default = ExperimentStore(tmp_path / "default.sqlite")
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=default,
        )
        replayed = ExperimentStore(tmp_path / "replayed.sqlite")
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=replayed, replay=True,
        )
        assert _rows(default, "eval") == _rows(replayed, "eval")
        assert _rows(default, store_mod.TRACE_KIND) == (
            _rows(replayed, store_mod.TRACE_KIND)
        )

    def test_thread_backend_is_byte_identical(self, trace_workload, tmp_path):
        serial = ExperimentStore(tmp_path / "serial.sqlite")
        threaded = ExperimentStore(tmp_path / "threaded.sqlite")
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=serial,
            replay=True, backend="serial",
        )
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=threaded,
            replay=True, workers=2, backend="thread",
        )
        assert serial.dump() == threaded.dump()

    def test_unknown_backend_rejected(self, trace_workload):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            runner.run_sweep(
                (WORKLOAD,), ("EJ-8x2",),
                experiment_store=ExperimentStore(),
                replay=True, workers=2, backend="quantum",
            )

    def test_stream_plus_replay_rejected(self, trace_workload):
        with pytest.raises(ConfigurationError, match="not both"):
            runner.run_sweep(
                (WORKLOAD,), ("EJ-8x2",),
                experiment_store=ExperimentStore(),
                stream=True, replay=True,
            )

    def test_unknown_mode_rejected(self, trace_workload):
        with pytest.raises(ConfigurationError, match="mode must be one of"):
            runner.execute(
                [runner.SweepJob(trace_workload, ("EJ-8x2",))],
                mode="live", experiment_store=ExperimentStore(),
            )


# ----------------------------------------------------------------------
# Trace storage: chunk invariance, warm skips, self-healing
# ----------------------------------------------------------------------

class TestTraceStorage:
    def test_trace_rows_are_chunk_size_invariant(self, trace_workload, tmp_path):
        """Same configuration, three chunk sizes: identical trace bytes."""
        dumps = []
        for chunk_size in CHUNK_SIZES:
            store = ExperimentStore(tmp_path / f"c{chunk_size}.sqlite")
            runner.execute(
                [runner.SweepJob(WORKLOADS[WORKLOAD], (), SCALED_SYSTEM, 1,
                                 chunk_size)],
                mode="replay", experiment_store=store,
            )
            dumps.append(_rows(store, store_mod.TRACE_KIND))
        assert dumps[0] == dumps[1] == dumps[2]
        assert len(dumps[0]) > 1  # manifest plus at least one segment

    def test_segments_cut_at_exact_event_counts(self):
        from array import array

        written = []
        sink = TraceSink(
            2, lambda node, index, raw: written.append((node, index, raw)),
            segment_events=4,
        )

        class Shard:
            def __init__(self, events):
                self.events = array("q", events)

        sink.consume([Shard([1, 2, 3, 4, 5]), Shard([])])
        sink.consume([Shard([6, 7, 8]), Shard([9])])
        assert [(n, i, len(raw) // 8) for n, i, raw in written] == [
            (0, 0, 4), (0, 1, 4)
        ]
        assert sink.finish() == [2, 1]  # tail flush: 0 events left on node 0
        assert [(n, i, len(raw) // 8) for n, i, raw in written] == [
            (0, 0, 4), (0, 1, 4), (1, 0, 1)
        ]
        assert sink.events_per_node == [8, 1]

    def test_segment_codec_round_trips(self):
        from array import array

        events = array("q", [0, 1, (1 << 40) | 5, -0 + 2**59 - 1])
        blob = store_mod.encode_trace_segment(events.tobytes())
        assert store_mod.decode_trace_segment(blob) == events

    def test_warm_trace_never_resimulates(self, trace_workload, monkeypatch):
        store = ExperimentStore()
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS[:2], experiment_store=store, replay=True,
        )
        monkeypatch.setattr(
            runner, "simulate_streaming",
            lambda *a, **k: pytest.fail("warm trace must not re-simulate"),
        )
        # New filters on the warm trace: replay only.
        result = runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=store, replay=True,
        )
        assert result.report.sims_run == 0
        assert result.report.sims_cached == 1
        assert result.report.evals_run == len(FAMILY_FILTERS) - 2
        assert result.report.evals_cached == 2

    def test_fully_cached_jobs_never_record(self, trace_workload, monkeypatch):
        """A store warmed by a streamed sweep (evals + metrics, no trace)
        must not pay a recording simulation for jobs with zero misses."""
        store = ExperimentStore()
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS[:2],
            experiment_store=store, stream=True,
        )
        with monkeypatch.context() as patched:
            patched.setattr(
                runner, "simulate_streaming",
                lambda *a, **k: pytest.fail(
                    "nothing to replay -> nothing to record"
                ),
            )
            report = runner.execute(
                [runner.SweepJob(WORKLOADS[WORKLOAD], FAMILY_FILTERS[:2])],
                mode="replay", experiment_store=store,
            )
        assert report.sims_run == 0
        assert report.sims_cached == 1
        assert report.evals_cached == 2
        # A *pure record* job, by contrast, explicitly wants the trace.
        report = runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ())],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 1
        assert store.stats().traces == 1

    def test_awkward_store_paths_replay_fine(self, trace_workload, tmp_path):
        """'#', '%', and spaces in the store path must survive the
        workers' read-only URI open."""
        weird = tmp_path / "odd #dir %41" / "tra ces.sqlite"
        store = ExperimentStore(weird)
        result = runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS[:2],
            experiment_store=store, replay=True,
        )
        assert result.report.evals_run == 2

    def test_partial_trace_is_rerecorded(self, trace_workload, tmp_path):
        store = ExperimentStore(tmp_path / "partial.sqlite")
        runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ())],
            mode="replay", experiment_store=store,
        )
        spec = WORKLOADS[WORKLOAD]
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        segment_keys = [
            e.key for e in store.entries()
            if e.kind == store_mod.TRACE_KIND and e.filter_name == tkey
        ]
        before = _rows(store, store_mod.TRACE_KIND)
        # Simulate an external partial deletion (e.g. a crashed writer).
        store._db.execute(
            "DELETE FROM results WHERE key = ?", (segment_keys[0],)
        )
        store._db.commit()
        assert runner.load_trace(store, tkey) is None
        report = runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ("EJ-8x2",))],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 1  # re-recorded, not replayed from a stump
        assert _rows(store, store_mod.TRACE_KIND) == before

    def test_segment_vanished_mid_replay_is_corruption(
        self, trace_workload, tmp_path
    ):
        """A segment deleted between load_trace and the worker's fetch
        is a damaged store: the task hands the error back, for the
        sweep to doom and re-record the trace."""
        store = ExperimentStore(tmp_path / "vanish.sqlite")
        runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ())],
            mode="replay", experiment_store=store,
        )
        spec = WORKLOADS[WORKLOAD]
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        _manifest, segment_keys = runner.load_trace(store, tkey)
        ekey = store_mod.eval_key(spec, "EJ-8x2", SCALED_SYSTEM, 1)
        task = (
            str(store.path), segment_keys, SCALED_SYSTEM,
            [(ekey, "EJ-8x2")], (),
        )
        assert runner._replay_task(task)[0][0] == ekey
        store.delete_key(segment_keys[-1][-1])
        error = runner._replay_task(task)
        assert isinstance(error, StoreCorruptionError)
        assert "vanished" in str(error)

    def test_metrics_row_restored_from_manifest(self, trace_workload, tmp_path):
        store = ExperimentStore(tmp_path / "metrics.sqlite")
        runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ())],
            mode="replay", experiment_store=store,
        )
        spec = WORKLOADS[WORKLOAD]
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        original = store.get_blob(mkey)
        # Evict the row the way gc does: drop the payload AND the
        # per-key memo (a raw external delete alone would leave the
        # memoised object serving reads, by design).
        store._db.execute("DELETE FROM results WHERE key = ?", (mkey,))
        store._db.commit()
        store._live.pop(mkey, None)
        assert store.get_blob(mkey) is None
        report = runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ())],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 0  # the manifest alone restores it
        assert store.get_blob(mkey) == original


# ----------------------------------------------------------------------
# Legacy stores: the new kind must leave every old byte alone
# ----------------------------------------------------------------------

class TestLegacyStore:
    def test_schema_version_unchanged(self):
        """The trace layer ships with NO schema bump: old rows stay live."""
        assert store_mod.SCHEMA_VERSION == 1

    def test_old_entries_untouched_by_recording(self, trace_workload, tmp_path):
        path = tmp_path / "legacy.sqlite"
        store = ExperimentStore(path)
        # A "legacy" store: a buffered-mode sim row, streamed metrics and
        # evals.
        sim_key = put_legacy_sim_row(store, WORKLOADS[WORKLOAD], SCALED_SYSTEM)
        for seed in (1, 2):
            runner.run_sweep(
                (WORKLOAD,), FAMILY_FILTERS[:2], experiment_store=store,
                stream=True, seeds=(seed,),
            )
        legacy = store.dump()
        assert {e.kind for e in store.entries()} == {
            "sim", "sim-metrics", "eval"
        }
        # Record a trace and replay new filters into the same store.
        runner.run_sweep(
            (WORKLOAD,), FAMILY_FILTERS, experiment_store=store, replay=True,
        )
        after = store.dump()
        for key, blob in legacy.items():
            assert after[key] == blob, "legacy payload bytes changed"
        store.close()
        # Reopen: the schema check must keep everything (same version).
        with ExperimentStore(path) as reopened:
            assert reopened.stats().traces == 1
            for key, blob in legacy.items():
                assert reopened.get_blob(key) == blob
            # The retired row is left alone: reported, never decoded.
            assert reopened.fsck().retired == (sim_key,)


# ----------------------------------------------------------------------
# cache info / gc with the sim-events kind
# ----------------------------------------------------------------------

class TestStoreAccounting:
    def _recorded_store(self, tmp_path, name="acct"):
        store = ExperimentStore(tmp_path / f"{name}.sqlite")
        runner.run_sweep(
            (WORKLOAD,), ("EJ-8x2",), experiment_store=store, replay=True,
        )
        return store

    def test_stats_count_traces_and_bytes(self, trace_workload, tmp_path):
        store = self._recorded_store(tmp_path)
        stats = store.stats()
        assert stats.traces == 1
        kinds = dict(stats.bytes_by_kind)
        assert kinds[store_mod.TRACE_KIND] > 0
        # Manifest + segments all count under the one kind.
        trace_bytes = sum(
            e.payload_bytes for e in store.entries()
            if e.kind == store_mod.TRACE_KIND
        )
        assert kinds[store_mod.TRACE_KIND] == trace_bytes

    @pytest.mark.parametrize("persistent", (False, True))
    def test_gc_evicts_a_trace_atomically(
        self, trace_workload, tmp_path, persistent
    ):
        store = ExperimentStore(tmp_path / "gc.sqlite" if persistent else None)
        runner.run_sweep(
            (WORKLOAD,), ("EJ-8x2",), experiment_store=store, replay=True,
        )
        # Touch the non-trace rows so the trace is the LRU unit.
        for entry in store.entries():
            if entry.kind != store_mod.TRACE_KIND:
                store.get_blob(entry.key)
        stats = store.stats()
        trace_bytes = dict(stats.bytes_by_kind)[store_mod.TRACE_KIND]
        removed, freed = store.gc(stats.payload_bytes - trace_bytes)
        trace_rows = [
            e for e in store.entries() if e.kind == store_mod.TRACE_KIND
        ]
        assert trace_rows == []  # manifest AND segments gone — no orphans
        assert freed == trace_bytes
        assert removed > 1
        assert store.stats().evals == 1  # everything else survived

    def test_replay_refreshes_trace_recency(self, trace_workload, tmp_path):
        store = self._recorded_store(tmp_path)
        # Replaying a new filter touches the trace rows; an older eval
        # row must then be the eviction victim, not the trace.
        runner.run_sweep(
            (WORKLOAD,), ("VEJ-16x2-4",), experiment_store=store, replay=True,
        )
        stats = store.stats()
        first_eval_bytes = min(
            e.payload_bytes for e in store.entries() if e.kind == "eval"
        )
        store.gc(stats.payload_bytes - first_eval_bytes)
        assert store.stats().traces == 1

    @pytest.mark.parametrize("persistent", (False, True))
    def test_delete_kind_drops_only_that_kind(
        self, trace_workload, tmp_path, persistent
    ):
        store = ExperimentStore(tmp_path / "dk.sqlite" if persistent else None)
        runner.run_sweep(
            (WORKLOAD,), ("EJ-8x2",), experiment_store=store, replay=True,
        )
        assert store.delete_kind("eval") == 1
        assert store.stats().evals == 0
        assert store.stats().traces == 1
        assert store.delete_kind("eval") == 0  # idempotent
        # The trace still serves fresh replays after the purge.
        report = runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ("EJ-8x2",))],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 0 and report.evals_run == 1

    def test_delete_trace_removes_all_rows(self, trace_workload, tmp_path):
        store = self._recorded_store(tmp_path)
        spec = WORKLOADS[WORKLOAD]
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        removed = store.delete_trace(tkey)
        assert removed > 1
        assert all(
            e.kind != store_mod.TRACE_KIND for e in store.entries()
        )
        assert store.delete_trace(tkey) == 0  # idempotent


# ----------------------------------------------------------------------
# Front-door fast paths (experiments.py)
# ----------------------------------------------------------------------

class TestFrontDoorFastPaths:
    def test_evaluate_filter_replays_from_trace(
        self, trace_workload, monkeypatch
    ):
        runner.evaluate(WORKLOAD, filters=("EJ-8x2",))
        monkeypatch.setattr(
            runner, "simulate_streaming",
            lambda *a, **k: pytest.fail("a recorded trace makes any new "
                                        "filter a replay, never a sim"),
        )
        monkeypatch.setattr(
            runner, "compute_stream",
            lambda *a, **k: pytest.fail("nothing should stream either"),
        )
        coverage = experiments.coverage_for(WORKLOAD, "VEJ-16x2-4")
        assert 0.0 <= coverage <= 1.0

    def test_workload_metrics_served_by_manifest(
        self, trace_workload, monkeypatch
    ):
        store = experiments.get_store()
        runner.execute(
            [runner.SweepJob(WORKLOADS[WORKLOAD], ())],
            mode="replay", experiment_store=store,
        )
        spec = WORKLOADS[WORKLOAD]
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        # Drop the metrics row (and with it the decoded cache).
        assert store.delete_key(mkey)
        for simulation in ("compute_stream", "simulate_streaming"):
            monkeypatch.setattr(
                runner, simulation,
                lambda *a, **k: pytest.fail(
                    "manifest metrics should serve this"
                ),
            )
        metrics = experiments.workload_metrics(WORKLOAD)
        assert metrics.accesses == spec.n_accesses
        assert store.get_blob(mkey) is not None  # row restored

    def test_evaluate_filters_replay_outcome(self, trace_workload):
        outcome = runner.evaluate(
            WORKLOAD, filters=FAMILY_FILTERS[:2], workers=2, backend="thread",
        )
        assert set(outcome.evaluations) == set(FAMILY_FILTERS[:2])
        assert experiments.get_store().stats().traces == 1
        for name in FAMILY_FILTERS[:2]:
            assert outcome.coverage(name) == pytest.approx(
                experiments.coverage_for(WORKLOAD, name)
            )


# ----------------------------------------------------------------------
# One job type, one executor: the contract both modes share
# ----------------------------------------------------------------------

class TestOneExecutor:
    @pytest.mark.parametrize("mode", runner.MODES)
    def test_jobs_on_one_simulation_fuse(self, trace_workload, mode):
        """Overlapping filter sets on one simulation: one pass, the
        union of the filters evaluated once each."""
        store = ExperimentStore()
        report = runner.execute(
            [
                runner.SweepJob(trace_workload, FAMILY_FILTERS[:2]),
                runner.SweepJob(trace_workload, FAMILY_FILTERS[1:3]),
            ],
            mode=mode, experiment_store=store,
        )
        assert report.sims_run == 1
        assert report.evals_run == 3
        assert report.evals_cached == 0
        assert store.stats().traces == (1 if mode == "replay" else 0)

    @pytest.mark.parametrize("mode", runner.MODES)
    def test_job_order_never_changes_stored_bytes(
        self, trace_workload, tmp_path, mode
    ):
        jobs = [
            runner.SweepJob(trace_workload, FAMILY_FILTERS[:2], seed=1),
            runner.SweepJob(trace_workload, FAMILY_FILTERS[2:], seed=2),
            runner.SweepJob(trace_workload, FAMILY_FILTERS[::-1], seed=2),
        ]
        forward = ExperimentStore(tmp_path / "forward.sqlite")
        backward = ExperimentStore(tmp_path / "backward.sqlite")
        runner.execute(jobs, mode=mode, experiment_store=forward)
        runner.execute(jobs[::-1], mode=mode, experiment_store=backward)
        assert forward.dump() == backward.dump()

    @pytest.mark.parametrize("first, second", [
        ("replay", "stream"), ("stream", "replay"),
    ])
    def test_modes_warm_each_other(
        self, trace_workload, monkeypatch, first, second
    ):
        """Both modes share the eval keyspace: what one stored, the
        other serves without simulating."""
        store = ExperimentStore()
        jobs = [runner.SweepJob(trace_workload, FAMILY_FILTERS)]
        runner.execute(jobs, mode=first, experiment_store=store)
        for simulation in ("compute_stream", "simulate_streaming"):
            monkeypatch.setattr(
                runner, simulation,
                lambda *a, **k: pytest.fail("a warm store must not simulate"),
            )
        report = runner.execute(jobs, mode=second, experiment_store=store)
        assert report.sims_run == 0
        assert report.sims_cached == 1
        assert report.evals_run == 0
        assert report.evals_cached == len(FAMILY_FILTERS)

    @pytest.mark.parametrize("mode", runner.MODES)
    def test_empty_batch_does_nothing(self, mode):
        store = ExperimentStore()
        report = runner.execute([], mode=mode, experiment_store=store)
        assert (report.sims_run, report.sims_cached) == (0, 0)
        assert (report.evals_run, report.evals_cached) == (0, 0)
        assert store.dump() == {}

    def test_pure_record_job_fuses_with_a_filter_job(self, trace_workload):
        store = ExperimentStore()
        report = runner.execute(
            [
                runner.SweepJob(trace_workload, ()),
                runner.SweepJob(trace_workload, ("EJ-8x2",)),
            ],
            mode="replay", experiment_store=store,
        )
        assert report.sims_run == 1
        assert report.evals_run == 1
        assert store.stats().traces == 1

    def test_run_sweep_takes_an_unregistered_spec(self, trace_workload):
        """A spec the registry never saw: cells keyed by its name, bytes
        equal to the live computation's."""
        from dataclasses import replace

        spec = replace(trace_workload, name="unregistered-spec")
        assert spec.name not in WORKLOADS
        store = ExperimentStore()
        result = runner.run_sweep(
            [spec], FAMILY_FILTERS[:2], experiment_store=store,
        )
        assert set(result.evaluations) == {
            (spec.name, name, 1) for name in FAMILY_FILTERS[:2]
        }
        _metrics, evaluations = runner.compute_stream(
            spec, SCALED_SYSTEM, 1, FAMILY_FILTERS[:2]
        )
        for name in FAMILY_FILTERS[:2]:
            ekey = store_mod.eval_key(spec, name, SCALED_SYSTEM, 1)
            assert store.get_blob(ekey) == (
                store_mod.encode_eval(evaluations[name])
            )

    def test_names_and_specs_meet_under_equal_keys(
        self, trace_workload, tmp_path
    ):
        """Overrides apply to a spec exactly as to its name, so the two
        spellings of one sweep warm each other."""
        by_name = ExperimentStore(tmp_path / "name.sqlite")
        by_spec = ExperimentStore(tmp_path / "spec.sqlite")
        overrides = dict(accesses=2_000, warmup=500)
        runner.run_sweep(
            [WORKLOAD], ("EJ-8x2",), experiment_store=by_name, **overrides,
        )
        runner.run_sweep(
            [trace_workload], ("EJ-8x2",), experiment_store=by_spec,
            **overrides,
        )
        assert by_name.dump() == by_spec.dump()
        report = runner.run_sweep(
            [trace_workload], ("EJ-8x2",), experiment_store=by_name,
            **overrides,
        ).report
        assert (report.sims_run, report.evals_run) == (0, 0)
        assert report.evals_cached == 1

    @pytest.mark.parametrize("stream", (False, True))
    def test_evaluate_without_filters_stores_the_run(
        self, trace_workload, stream
    ):
        outcome = runner.evaluate(WORKLOAD, filters=(), stream=stream)
        assert outcome.evaluations == {}
        assert outcome.metrics.accesses == trace_workload.n_accesses
        assert experiments.get_store().stats().traces == (0 if stream else 1)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel replay speedup needs a multi-core runner",
)
def test_process_backend_beats_serial_on_multicore(trace_workload, tmp_path):
    """On a multi-core box, 2 process workers must beat serial replay.

    Uses a deliberately generous margin (1.0x, i.e. merely not slower
    after pool spawn overhead) at a size where replay work dominates;
    the real speedup assertion lives in the perf-smoke CI job.  The two
    sides run as interleaved pairs, alternating which goes first, and
    the bound holds for the median pair: host drift slower than one
    pair cancels within it, and one slow pool spawn is an outlier.
    """
    import statistics
    import time
    from dataclasses import replace

    spec = replace(WORKLOADS[WORKLOAD], n_accesses=120_000,
                   warmup_accesses=10_000)
    store = ExperimentStore(tmp_path / "speed.sqlite")
    runner.execute(
        [runner.SweepJob(spec)], mode="replay", experiment_store=store,
    )

    def timed(workers, backend):
        # Every run replays: the previous run's evals would be cached.
        store.delete_kind("eval")
        started = time.perf_counter()
        runner.execute(
            [runner.SweepJob(spec, FAMILY_FILTERS)], mode="replay",
            experiment_store=store, workers=workers, backend=backend,
        )
        return time.perf_counter() - started

    margins = []
    for pair in range(5):
        if pair % 2:
            parallel = timed(2, "process")
            serial = timed(1, "serial")
        else:
            serial = timed(1, "serial")
            parallel = timed(2, "process")
        margins.append(parallel - serial)
    # parallel < serial * 1.0 + 0.5: pool spawn allowance on tiny runs
    assert statistics.median(margins) < 0.5, margins
