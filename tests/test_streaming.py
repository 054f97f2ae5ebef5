"""Streaming-engine tests: equivalence, memory bounds, resumable traces.

The streaming engine's whole value rests on two claims:

* **byte-identity** — for the same ``(spec, system, seed)``, a streamed
  evaluation serialises to exactly the bytes a replay of the recorded
  trace produces, for any chunk size and worker count (so both modes may
  share one store keyspace);
* **bounded memory** — a streamed run's peak allocation depends on the
  chunk size, never on the trace length (so paper-scale runs fit).

Both are pinned here, the first against the golden-metrics suite's
workload/filter pairs, the second with ``tracemalloc`` on a 200k- vs
2M-access run of the same trace.
"""

from __future__ import annotations

import itertools
import json
import random
import tracemalloc
from array import array

import pytest

from repro.analysis import experiments, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import CacheConfig, SCALED_SYSTEM, SystemConfig
from repro.coherence.smp import simulate_streaming
from repro.core import _cmachine
from repro.core.config import build_filter
from repro.core.stats import (
    KIND_MASK,
    MARKER,
    NodeEventStream,
    StreamingFilterBank,
)
from repro.errors import ConfigurationError
from repro.traces.access import pack_access, unpack_access
from repro.traces.workloads import (
    WORKLOADS,
    PaperReference,
    WorkloadSpec,
    apply_preset,
    build_workload_stream,
    get_workload,
    resume_stream,
    stream_fingerprint,
)
from tests.conftest import oracle_replay
from tests.test_checkpoint import kill_after_checkpoints
from tests.test_golden_metrics import CASES, GOLDEN_WORKLOADS, golden_path

#: Deliberately awkward chunk sizes: a tiny one (many shards), a prime
#: (boundaries never align with warm-up or node counts), and one larger
#: than any golden trace (single-shard degenerate case).
CHUNK_SIZES = (512, 1777, 1_000_000)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

SWEEP_WORKLOAD = "test-stream-sweep"
SWEEP_FILTERS = ("EJ-8x2", "VEJ-16x2-4")


@pytest.fixture
def sweep_workload():
    WORKLOADS[SWEEP_WORKLOAD] = WorkloadSpec(
        name=SWEEP_WORKLOAD,
        abbrev="ts",
        description="miniature workload for streaming sweep tests",
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
    yield WORKLOADS[SWEEP_WORKLOAD]
    experiments._STORE.close()
    experiments._STORE = previous
    del WORKLOADS[SWEEP_WORKLOAD]


# ----------------------------------------------------------------------
# Byte-identity against the golden suite
# ----------------------------------------------------------------------

class TestGoldenEquivalence:
    def test_streamed_matches_buffered_across_chunk_sizes(self):
        """Every golden pair, three chunk sizes: streamed payload bytes
        equal the bytes of a replay of the recorded trace."""
        for spec in GOLDEN_WORKLOADS:
            cases = [(f, s) for w, f, s in CASES if w == spec.name]
            assert cases, f"no golden cases for {spec.name}"
            by_seed: dict[int, list[str]] = {}
            for filter_name, seed in cases:
                by_seed.setdefault(seed, []).append(filter_name)
            for seed, filters in by_seed.items():
                replayed = runner.evaluate(
                    spec, SCALED_SYSTEM, tuple(filters), seed,
                    experiment_store=ExperimentStore(),
                )
                sim = replayed.metrics
                buffered = {
                    name: store_mod.encode_eval(replayed.evaluations[name])
                    for name in filters
                }
                for chunk_size in CHUNK_SIZES:
                    metrics, evaluations = runner.compute_stream(
                        spec, SCALED_SYSTEM, seed, tuple(filters), chunk_size
                    )
                    assert store_mod.sim_metrics_to_dict(metrics) == (
                        store_mod.sim_metrics_to_dict(sim)
                    ), (spec.name, chunk_size)
                    for name in filters:
                        streamed = store_mod.encode_eval(evaluations[name])
                        assert streamed == buffered[name], (
                            spec.name, name, chunk_size
                        )

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_streamed_reproduces_golden_files_exactly(self, chunk_size):
        """Packed streamed evals equal the *committed* golden JSON files.

        Parametrised over chunk sizes: the packed event encoding must
        reproduce the golden numbers wherever the shard boundaries fall.
        """
        for workload, filter_name, seed in CASES:
            spec = next(s for s in GOLDEN_WORKLOADS if s.name == workload)
            golden = json.loads(golden_path(workload, filter_name, seed).read_text())
            metrics, evaluations = runner.compute_stream(
                spec, SCALED_SYSTEM, seed, (filter_name,), chunk_size=chunk_size
            )
            assert store_mod.evaluation_to_dict(evaluations[filter_name]) == (
                golden["evaluation"]
            )
            assert vars(metrics.aggregate).copy() == golden["sim"]["aggregate"]
            assert metrics.accesses == golden["sim"]["accesses"]
            assert store_mod.sim_metrics_to_dict(metrics)["bus"] == (
                golden["sim"]["bus"]
            )


# ----------------------------------------------------------------------
# Shard protocol edge cases
# ----------------------------------------------------------------------

def _trace(n: int, seed: int = 3) -> list[tuple[int, int, bool]]:
    rng = random.Random(seed)
    return [
        (rng.randrange(2), rng.randrange(1 << 13) & ~7, rng.random() < 0.3)
        for _ in range(n)
    ]


@pytest.fixture
def tiny2(tiny_system: SystemConfig) -> SystemConfig:
    return tiny_system.with_cpus(2)


class _CollectingSink:
    """Reassembles per-node event lists from consumed shards."""

    def __init__(self, n_cpus: int) -> None:
        self.events = [[] for _ in range(n_cpus)]
        self.shard_sizes: list[int] = []

    def consume(self, shard: list[NodeEventStream]) -> None:
        self.shard_sizes.append(sum(len(s.events) for s in shard))
        for node_id, stream in enumerate(shard):
            assert stream.node_id == node_id
            self.events[node_id].extend(stream.events)  # packed ints


class TestShardProtocol:
    @pytest.mark.parametrize("chunk_size", (1, 7, 400, 10_000))
    def test_shards_concatenate_to_buffered_stream(self, tiny2, chunk_size):
        """Any chunk size reassembles to the events of a run whose chunk
        covers the whole trace (one shard per warm-up/measured region)."""
        trace = _trace(1_200)
        whole = _CollectingSink(tiny2.n_cpus)
        buffered = simulate_streaming(
            tiny2, trace, warmup=300, chunk_size=len(trace), sinks=[whole]
        )
        assert len(whole.shard_sizes) == 2
        sink = _CollectingSink(tiny2.n_cpus)
        streamed = simulate_streaming(
            tiny2, trace, warmup=300, chunk_size=chunk_size, sinks=[sink]
        )
        for node_id, events in enumerate(whole.events):
            assert sink.events[node_id] == events, (node_id, chunk_size)
        assert [vars(s) for s in streamed.node_stats] == (
            [vars(s) for s in buffered.node_stats]
        )
        assert streamed.bus == buffered.bus
        assert streamed.accesses == buffered.accesses

    def test_marker_rides_first_measured_shard(self, tiny2):
        """The warm-up MARKER lands between chunks at the exact position."""
        trace = _trace(500)
        sink = _CollectingSink(tiny2.n_cpus)
        simulate_streaming(tiny2, trace, warmup=250, chunk_size=100, sinks=[sink])
        for events in sink.events:
            markers = [
                i for i, event in enumerate(events)
                if event & KIND_MASK == MARKER
            ]
            assert len(markers) == 1

    def test_warmup_only_trace_flushes_marker_residue(self, tiny2):
        """warmup == len(trace): the MARKER must still reach the sinks."""
        trace = _trace(200)
        sink = _CollectingSink(tiny2.n_cpus)
        simulate_streaming(tiny2, trace, warmup=200, chunk_size=64, sinks=[sink])
        for events in sink.events:
            assert events[-1] & KIND_MASK == MARKER

    @pytest.mark.parametrize(
        "chunk_size, sink_calls", [(1, 151), (64, 4), (1_000, 3)]
    )
    @pytest.mark.parametrize("source", ["tuples", "stream"])
    @pytest.mark.parametrize("helper", ["off", "on"])
    def test_stream_that_ends_before_its_stops(
        self, monkeypatch, helper, source, chunk_size, sink_calls
    ):
        """150 accesses, warm-up 200, phase marks at 100 and 300: no batch
        reaches past the stream's end (a helper drawing past it would
        raise), and the two markers past it ride in the residue."""
        if helper == "on" and _cmachine.library() is None:
            pytest.skip("the helper draws through the native generator")
        monkeypatch.setattr(
            _cmachine, "thread_budget", lambda: 2 if helper == "on" else 1
        )
        stream = build_workload_stream("lu", n_accesses=150, seed=1)
        tuples = [unpack_access(word) for word in stream.take(150)]
        sink = _CollectingSink(SCALED_SYSTEM.n_cpus)
        simulate_streaming(
            SCALED_SYSTEM,
            tuples if source == "tuples"
            else build_workload_stream("lu", n_accesses=150, seed=1),
            warmup=200, chunk_size=chunk_size, sinks=[sink],
            phase_marks=(100, 300),
        )
        expected = _CollectingSink(SCALED_SYSTEM.n_cpus)
        simulate_streaming(SCALED_SYSTEM, tuples, chunk_size=1_000,
                           sinks=[expected], phase_marks=(100,))
        for node, events in enumerate(expected.events):
            residue = NodeEventStream(node)
            residue.marker()
            residue.phase(1)
            events.extend(residue.events)
        assert sink.events == expected.events
        assert len(sink.shard_sizes) == sink_calls
        assert sink.shard_sizes[-1] == 2 * SCALED_SYSTEM.n_cpus

    def test_simulate_streaming_rejects_bad_chunk_size(self, tiny2):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            simulate_streaming(tiny2, [], chunk_size=0)

    def test_bank_rejects_a_shard_of_another_width(self):
        """A 2-node shard fed to a 4-node bank is a configuration error."""
        bank = StreamingFilterBank([build_filter("EJ-16x2") for _ in range(4)])
        with pytest.raises(ConfigurationError, match="node count 4"):
            bank.consume([NodeEventStream(0), NodeEventStream(1)])


# ----------------------------------------------------------------------
# Store-backed sweeps: equivalence and cross-mode warming (``stream=False``
# is the default record -> replay mode)
# ----------------------------------------------------------------------

class TestStreamSweeps:
    def _sweep(self, store, *, stream, workers=1, chunk_size=997):
        return runner.run_sweep(
            (SWEEP_WORKLOAD,), SWEEP_FILTERS,
            workers=workers, experiment_store=store,
            stream=stream, chunk_size=chunk_size,
        )

    def test_streamed_sweep_matches_buffered_evaluations(
        self, sweep_workload, tmp_path
    ):
        replayed_store = ExperimentStore(tmp_path / "replayed.sqlite")
        streamed_store = ExperimentStore(tmp_path / "streamed.sqlite")
        replayed = self._sweep(replayed_store, stream=False)
        streamed = self._sweep(streamed_store, stream=True)

        evals_of = lambda store: {
            e.key: store.get_blob(e.key)
            for e in store.entries() if e.kind == "eval"
        }
        assert evals_of(replayed_store) == evals_of(streamed_store)
        for name in SWEEP_FILTERS:
            assert replayed.coverage(SWEEP_WORKLOAD, name) == (
                streamed.coverage(SWEEP_WORKLOAD, name)
            )
        kinds = {e.kind for e in streamed_store.entries()}
        assert kinds == {"sim-metrics", "eval"}

    def test_parallel_streamed_store_is_bitwise_identical(
        self, sweep_workload, tmp_path
    ):
        serial = ExperimentStore(tmp_path / "serial.sqlite")
        parallel = ExperimentStore(tmp_path / "parallel.sqlite")
        self._sweep(serial, stream=True, workers=1)
        self._sweep(parallel, stream=True, workers=2)
        assert serial.dump() == parallel.dump()

    def test_chunk_size_never_enters_store_keys(self, sweep_workload, tmp_path):
        store = ExperimentStore(tmp_path / "chunks.sqlite")
        first = self._sweep(store, stream=True, chunk_size=256)
        again = self._sweep(store, stream=True, chunk_size=2_048)
        assert first.report.sims_run == 1
        assert again.report.sims_run == 0
        assert again.report.evals_run == 0
        assert again.report.sims_cached == 1
        assert again.report.evals_cached == len(SWEEP_FILTERS)

    def test_buffered_evaluations_warm_streamed_runs(
        self, sweep_workload, tmp_path
    ):
        store = ExperimentStore(tmp_path / "warm.sqlite")
        self._sweep(store, stream=False)
        streamed = self._sweep(store, stream=True)
        # Fully warm: evaluations and the metrics row the recording
        # stored are shared across modes, so nothing is re-simulated.
        assert streamed.report.evals_run == 0
        assert streamed.report.evals_cached == len(SWEEP_FILTERS)
        assert streamed.report.sims_run == 0
        assert streamed.report.sims_cached == 1
        # The recorded metrics payload is byte-identical to a genuinely
        # streamed one: a fresh streamed store's sim-metrics row matches.
        fresh = ExperimentStore(tmp_path / "fresh.sqlite")
        self._sweep(fresh, stream=True)
        metrics_rows = lambda s: {
            e.key: s.get_blob(e.key)
            for e in s.entries() if e.kind == "sim-metrics"
        }
        assert metrics_rows(fresh) == metrics_rows(store)

    def test_partially_warm_buffered_store_replays_instead_of_simulating(
        self, sweep_workload, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path / "partial.sqlite")
        runner.run_sweep(
            (SWEEP_WORKLOAD,), SWEEP_FILTERS[:1],
            experiment_store=store, stream=False,
        )
        # The stored recording must satisfy the second filter by replay —
        # any attempt to simulate again is a failure.
        with monkeypatch.context() as patched:
            patched.setattr(
                runner, "simulate_streaming",
                lambda *a, **k: pytest.fail("nothing should be simulated"),
            )
            streamed = self._sweep(store, stream=False)
        assert streamed.report.sims_run == 0
        assert streamed.report.sims_cached == 1
        assert streamed.report.evals_run == 1  # the second filter, replayed
        assert streamed.report.evals_cached == 1
        # Replay-derived rows are byte-identical to a fresh streamed run.
        fresh = ExperimentStore(tmp_path / "fresh-partial.sqlite")
        runner.run_sweep(
            (SWEEP_WORKLOAD,), SWEEP_FILTERS,
            experiment_store=fresh, stream=True,
        )
        rows = lambda s, kind: {
            e.key: s.get_blob(e.key)
            for e in s.entries() if e.kind == kind
        }
        assert rows(fresh, "eval") == rows(store, "eval")
        assert rows(fresh, "sim-metrics") == rows(store, "sim-metrics")

    def test_streamed_evaluations_warm_buffered_sweeps(
        self, sweep_workload, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path / "warm2.sqlite")
        self._sweep(store, stream=True)
        # Every evaluation the default sweep wants is already stored, so
        # it must not re-simulate just to park an unused recording.
        monkeypatch.setattr(
            runner, "simulate_streaming",
            lambda *a, **k: pytest.fail("warm evals need no simulation"),
        )
        buffered = self._sweep(store, stream=False)
        assert buffered.report.evals_run == 0
        assert buffered.report.evals_cached == len(SWEEP_FILTERS)
        assert buffered.report.sims_run == 0

    def test_front_door_evaluate_filters_streaming(self, sweep_workload):
        outcome = runner.evaluate(
            SWEEP_WORKLOAD, filters=SWEEP_FILTERS, stream=True, chunk_size=512
        )
        assert set(outcome.evaluations) == set(SWEEP_FILTERS)
        assert outcome.metrics.accesses == sweep_workload.n_accesses
        assert experiments.get_store().stats().traces == 0
        for name in SWEEP_FILTERS:
            assert outcome.coverage(name) == pytest.approx(
                experiments.coverage_for(SWEEP_WORKLOAD, name)
            )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

class TestPaperScalePreset:
    def test_paper_scale_sets_table2_lengths(self):
        from dataclasses import replace

        from repro.traces.workloads import PAPER_SCALE_CAP

        # Every Table 2 trace is longer than the cap, so stock workloads
        # all land exactly on it (188.7M for lu, 1.75B for fmm, ...).
        lu = apply_preset(get_workload("lu"), "paper-scale")
        assert lu.n_accesses == PAPER_SCALE_CAP
        assert lu.warmup_accesses == get_workload("lu").warmup_accesses
        # A shorter paper trace scales to its true length, uncapped.
        short = replace(
            get_workload("lu"),
            paper=replace(get_workload("lu").paper, accesses_millions=12.0),
        )
        assert apply_preset(short, "paper-scale").n_accesses == 12_000_000

    def test_unknown_preset_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="unknown preset"):
            apply_preset(get_workload("lu"), "nope")


# ----------------------------------------------------------------------
# Resumable trace generation
# ----------------------------------------------------------------------

class TestMixStream:
    def test_checkpoint_resume_continues_exactly(self):
        stream = build_workload_stream("fft", seed=5)
        prefix = [unpack_access(word) for word in stream.take(2_000)]
        blob = stream.checkpoint()
        rest_here = list(stream)
        resumed = resume_stream(blob)
        assert resumed.position == 2_000
        rest_there = list(resumed)
        assert rest_there == rest_here
        assert prefix + rest_here == list(build_workload_stream("fft", seed=5))

    def test_chunks_cover_stream_exactly_once(self):
        whole = list(build_workload_stream("lu", seed=2))
        stream = build_workload_stream("lu", seed=2)
        chunks = []
        while stream.remaining:
            chunks.append(stream.take(997))
        assert [len(c) for c in chunks[:-1]] == [997] * (len(chunks) - 1)
        assert [unpack_access(a) for c in chunks for a in c] == whole

    def test_resume_rejects_foreign_blobs(self):
        import pickle

        with pytest.raises(ConfigurationError):
            resume_stream(pickle.dumps({"not": "a stream"}))
        blob = build_workload_stream("lu", seed=2).checkpoint()
        with pytest.raises(ConfigurationError, match="unreadable"):
            resume_stream(blob[: len(blob) // 2])

    def test_phased_stream_resumes_across_phase_boundaries(self):
        """A suite is one phased cursor: batches that straddle phase
        boundaries, single-access iteration, and a checkpoint taken
        mid-phase all yield the same accesses."""
        spec = get_workload("flip-hot-txn-burst")
        kwargs = dict(n_accesses=3_000, seed=4, include_warmup=True)
        whole = build_workload_stream(spec, **kwargs).take(10**6).tolist()
        assert len(whole) == 3_000 + spec.warmup_accesses
        stream = build_workload_stream(spec, **kwargs)
        head = [pack_access(*next(stream))
                for _ in range(spec.warmup_accesses + 1_500)]
        fingerprint = stream_fingerprint(spec, **kwargs)
        resumed = resume_stream(stream.checkpoint(), fingerprint)
        tail = []
        while resumed.remaining:
            tail += resumed.take(701)
        assert head + tail == whole


# ----------------------------------------------------------------------
# Memory bound: streamed peak is independent of trace length
# ----------------------------------------------------------------------

def _memory_system() -> SystemConfig:
    return SystemConfig(
        n_cpus=2,
        l1=CacheConfig(capacity_bytes=256, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=2048, block_bytes=64, subblock_bytes=32),
        wb_entries=2,
        address_bits=24,
    )


def _memory_trace() -> list[tuple[int, int, bool]]:
    """A cheap cyclable trace: mostly hot L1 hits, ~6% snoop-heavy misses.

    Cycling a precomputed base keeps per-access cost low enough to push
    millions of accesses through under ``tracemalloc``; the miss fraction
    still produces a steady stream of SNOOP/ALLOC/EVICT events (the thing
    whose accumulation this test guards against).
    """
    rng = random.Random(7)
    base = []
    for i in range(4_096):
        cpu = i & 1
        if rng.random() < 0.06:
            address = rng.randrange(1 << 14) & ~7
        else:
            address = (cpu << 16) | (rng.randrange(4) * 8)
        base.append((cpu, address, rng.random() < 0.2))
    return base


# ----------------------------------------------------------------------
# Live banks walk each chunk as one group
# ----------------------------------------------------------------------

#: The default banks plus a second hybrid on IJ-10x4x7's lanes: three
#: members of a live group share one lane set.
LIVE_GROUP_FILTERS = (
    *runner.DEFAULT_SWEEP_FILTERS, "HJ(IJ-10x4x7, EJ-16x2)",
)


class TestLiveGroup:
    """Every live bank's compiled filters walk a chunk's node shard in
    one group (``LiveBanks``); the rows they store are a replay's, the
    no-compiler tier's, and a killed and resumed run's."""

    @staticmethod
    def _jobs(spec, chunk_size):
        return [runner.SweepJob(spec, LIVE_GROUP_FILTERS, SCALED_SYSTEM, 1,
                                chunk_size)]

    def _streamed(self, spec, chunk_size, *, oracle=False) -> dict:
        store = ExperimentStore()
        with oracle_replay(oracle):
            runner.execute(self._jobs(spec, chunk_size), mode="stream",
                           experiment_store=store, backend="serial")
        return store.dump()

    def test_rows_match_the_replay_and_the_oracle(self, sweep_workload):
        replayed = ExperimentStore()
        runner.execute(self._jobs(sweep_workload, 997), mode="replay",
                       experiment_store=replayed, backend="serial")
        keys = {
            *store_mod.eval_keys(sweep_workload, LIVE_GROUP_FILTERS,
                                 SCALED_SYSTEM, 1).values(),
            store_mod.sim_metrics_key(sweep_workload, SCALED_SYSTEM, 1),
        }
        reference = {key: replayed.get_blob(key) for key in keys}
        for oracle in (False, True):
            for chunk_size in (512, 1777):
                assert self._streamed(
                    sweep_workload, chunk_size, oracle=oracle
                ) == reference, (oracle, chunk_size)

    def test_a_killed_live_group_resumes_to_the_same_rows(
        self, sweep_workload
    ):
        reference = self._streamed(sweep_workload, 1777)
        for chunk_size, resume_chunk in ((512, 1777), (1777, 512)):
            store = ExperimentStore()
            with kill_after_checkpoints(store, 2):
                with pytest.raises(KeyboardInterrupt):
                    runner.execute(
                        self._jobs(sweep_workload, chunk_size),
                        mode="stream", experiment_store=store,
                        checkpoint_every=700, backend="serial",
                    )
            report = runner.execute(
                self._jobs(sweep_workload, resume_chunk), mode="stream",
                experiment_store=store, checkpoint_every=700,
                backend="serial",
            )
            assert report.checkpoints_resumed == 1
            assert report.resumed_accesses == 1_400  # mid-run, measured
            assert store.dump() == reference, chunk_size


def _streamed_peak(system, base, n_accesses: int) -> tuple[int, int]:
    bank = runner._build_bank("EJ-8x2", system)
    stream = itertools.islice(itertools.cycle(base), n_accesses)
    tracemalloc.start()
    result = simulate_streaming(
        system, stream, warmup=2_000, chunk_size=8_192, sinks=[bank]
    )
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    events = sum(s.snoops_observed for s in result.node_stats)
    return peak, events


def test_streamed_peak_memory_is_flat_at_2m_accesses():
    """Acceptance bound: 2M-access peak within 2x of the 200k-access peak.

    Also cross-checks against a sink that keeps every event at the small
    size: that accumulation is already several times the streamed peak at
    200k accesses, so the assertion genuinely discriminates.
    """
    system = _memory_system()
    base = _memory_trace()

    peak_small, events_small = _streamed_peak(system, base, 200_000)
    peak_large, events_large = _streamed_peak(system, base, 2_000_000)
    assert events_large > 8 * events_small  # the event stream really grew
    assert peak_large < 2 * peak_small, (
        f"streamed peak grew with trace length: "
        f"{peak_small / 1e6:.2f} MB @200k vs {peak_large / 1e6:.2f} MB @2M"
    )

    class KeepAll:
        def __init__(self) -> None:
            self.events = [array("q") for _ in range(system.n_cpus)]

        def consume(self, shard) -> None:
            for node_id, stream in enumerate(shard):
                self.events[node_id].extend(stream.events)

    # The default chunk, like the batch an unsharded run materialises.
    tracemalloc.start()
    simulate_streaming(
        system, itertools.islice(itertools.cycle(base), 200_000),
        warmup=2_000, sinks=[KeepAll()],
    )
    _current, buffered_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert buffered_peak > 2 * peak_small, (
        "buffered accumulation should dominate the streamed peak "
        f"({buffered_peak / 1e6:.2f} MB vs {peak_small / 1e6:.2f} MB)"
    )
