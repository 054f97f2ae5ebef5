"""Tests for the parallel experiment engine and its persistent store.

Covers the engine's three contracts:

* determinism — a parallel sweep (2+ workers) produces a store that is
  *bitwise identical* to a serial sweep of the same jobs;
* warm starts — a second run over a populated store performs zero new
  simulations (asserted via a simulate-call counter and the report);
* persistence — results written by one store instance are served by a
  fresh instance opened on the same file, across schema checks.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.core import _cmachine, vector_replay
from repro.core.base import FilterEventCounts
from repro.core.config import (
    PAPER_EJ_NAMES,
    PAPER_HJ_NAMES,
    PAPER_IJ_NAMES,
    PAPER_VEJ_NAMES,
)
from repro.core.stats import CoverageStats, FilterEvaluation, check_evaluations
from repro.errors import ConfigurationError, InvariantError
from repro.traces.suite import Phase, Suite
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

WORKLOAD_A = "test-runner-a"
WORKLOAD_B = "test-runner-b"
FILTERS = ("null", "EJ-8x2", "HJ(IJ-8x4x7, EJ-16x2)")

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)


def _spec(name: str, recipe) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        abbrev=name[-2:],
        description="miniature workload for runner tests",
        paper=_PAPER,
        n_accesses=3_000,
        warmup_accesses=800,
        repeat_frac=0.2,
        recipe=recipe,
    )


@pytest.fixture(autouse=True)
def two_tiny_workloads():
    WORKLOADS[WORKLOAD_A] = _spec(WORKLOAD_A, (
        ("private", dict(weight=0.7, ws_bytes=96 * 1024, alpha=1.5)),
        ("producer_consumer", dict(weight=0.3, n_pairs=2, buffer_bytes=4096)),
    ))
    WORKLOADS[WORKLOAD_B] = _spec(WORKLOAD_B, (
        ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
        ("migratory", dict(weight=0.4, n_objects=16)),
    ))
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield
    experiments._STORE.close()
    experiments._STORE = previous
    del WORKLOADS[WORKLOAD_A]
    del WORKLOADS[WORKLOAD_B]


def sweep_into(store, workers: int) -> runner.SweepResult:
    return runner.run_sweep(
        (WORKLOAD_A, WORKLOAD_B), FILTERS,
        workers=workers, experiment_store=store,
    )


class TestDeterminism:
    def test_parallel_store_is_bitwise_identical_to_serial(self, tmp_path):
        serial = ExperimentStore(tmp_path / "serial.sqlite")
        parallel = ExperimentStore(tmp_path / "parallel.sqlite")
        result_serial = sweep_into(serial, workers=1)
        result_parallel = sweep_into(parallel, workers=2)

        assert result_serial.report.sims_run == 2
        assert result_parallel.report.sims_run == 2
        dump_serial, dump_parallel = serial.dump(), parallel.dump()
        assert set(dump_serial) == set(dump_parallel)
        assert dump_serial == dump_parallel  # payload bytes, not just keys

        for workload in (WORKLOAD_A, WORKLOAD_B):
            for filter_name in FILTERS:
                assert result_serial.coverage(workload, filter_name) == (
                    result_parallel.coverage(workload, filter_name)
                )

    def test_thread_recording_store_is_bitwise_identical(self, tmp_path):
        """Thread workers record over their own SQLite connections."""
        serial = ExperimentStore(tmp_path / "serial.sqlite")
        threaded = ExperimentStore(tmp_path / "threaded.sqlite")
        sweep_into(serial, workers=1)
        result = runner.run_sweep(
            (WORKLOAD_A, WORKLOAD_B), FILTERS,
            workers=2, backend="thread", experiment_store=threaded,
        )
        assert result.report.sims_run == 2
        assert serial.dump() == threaded.dump()

    def test_seed_changes_results(self, tmp_path):
        store = ExperimentStore(tmp_path / "s.sqlite")
        one = runner.run_sweep((WORKLOAD_A,), ("EJ-8x2",), seeds=(1,),
                               experiment_store=store)
        two = runner.run_sweep((WORKLOAD_A,), ("EJ-8x2",), seeds=(2,),
                               experiment_store=store)
        ev1 = one.evaluations[(WORKLOAD_A, "EJ-8x2", 1)]
        ev2 = two.evaluations[(WORKLOAD_A, "EJ-8x2", 2)]
        assert ev1.coverage.snoops != ev2.coverage.snoops

    def test_payload_roundtrip_is_exact(self):
        spec = WORKLOADS[WORKLOAD_A]
        metrics, evaluations = runner.compute_stream(
            spec, SCALED_SYSTEM, 1, ("EJ-8x2",)
        )
        restored = store_mod.decode_sim_metrics(
            store_mod.encode_sim_metrics(metrics)
        )
        assert store_mod.sim_metrics_to_dict(restored) == (
            store_mod.sim_metrics_to_dict(metrics)
        )
        evaluation = evaluations["EJ-8x2"]
        restored_eval = store_mod.decode_eval(store_mod.encode_eval(evaluation))
        assert store_mod.evaluation_to_dict(restored_eval) == (
            store_mod.evaluation_to_dict(evaluation)
        )


def test_run_sweep_refuses_stream_and_replay_together():
    with pytest.raises(ConfigurationError, match="not both"):
        runner.run_sweep((WORKLOAD_A,), FILTERS, stream=True, replay=True)


class TestWarmStore:
    def test_second_run_simulates_nothing(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path / "warm.sqlite")
        first = sweep_into(store, workers=1)
        assert first.report.sims_run == 2
        assert first.report.evals_run == len(FILTERS) * 2

        calls = {"sims": 0}

        def counting_sim(*args, **kwargs):
            calls["sims"] += 1
            raise AssertionError("warm store must not re-simulate")

        monkeypatch.setattr(runner, "simulate_streaming", counting_sim)
        second = sweep_into(store, workers=1)
        assert calls["sims"] == 0
        assert second.report.sims_run == 0
        assert second.report.evals_run == 0
        assert second.report.sims_cached == 2
        assert second.report.evals_cached == len(FILTERS) * 2

    def test_experiments_front_door_shares_the_store(self, tmp_path, monkeypatch):
        experiments.set_store(tmp_path / "shared.sqlite")
        sweep_into(experiments.get_store(), workers=1)
        monkeypatch.setattr(
            runner, "simulate_streaming",
            lambda *a, **k: pytest.fail("store should satisfy this"),
        )
        result = experiments.workload_metrics(WORKLOAD_A)
        assert result.accesses == 3_000
        coverage = experiments.coverage_for(WORKLOAD_A, "EJ-8x2")
        assert 0.0 <= coverage <= 1.0

    def test_results_survive_reopen(self, tmp_path, monkeypatch):
        path = tmp_path / "durable.sqlite"
        with ExperimentStore(path) as store:
            sweep_into(store, workers=1)
        monkeypatch.setattr(
            runner, "simulate_streaming",
            lambda *a, **k: pytest.fail("reopened store should be warm"),
        )
        with ExperimentStore(path) as reopened:
            result = sweep_into(reopened, workers=1)
        assert result.report.sims_run == 0
        assert result.report.evals_run == 0


class TestStore:
    def test_live_identity_preserved(self, tmp_path):
        store = ExperimentStore(tmp_path / "id.sqlite")
        spec = WORKLOADS[WORKLOAD_A]
        key = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        sim, _evaluations = runner.compute_stream(spec, SCALED_SYSTEM, 1)
        store.put_sim_metrics(key, sim, seed=1)
        assert store.get_sim_metrics(key) is sim
        with ExperimentStore(tmp_path / "id.sqlite") as fresh:
            first = fresh.get_sim_metrics(key)
            assert first is not sim  # decoded copy...
            assert fresh.get_sim_metrics(key) is first  # ...memoised thereafter

    def test_schema_version_change_invalidates(self, tmp_path, monkeypatch):
        path = tmp_path / "schema.sqlite"
        with ExperimentStore(path) as store:
            sweep_into(store, workers=1)
            assert store.stats().sims == 2
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", 99)
        with ExperimentStore(path) as reopened:
            stats = reopened.stats()
        assert stats.sims == 0 and stats.evals == 0

    def test_clear_and_stats(self, tmp_path):
        store = ExperimentStore(tmp_path / "c.sqlite")
        sweep_into(store, workers=1)
        stats = store.stats()
        assert stats.sims == 2
        assert stats.evals == len(FILTERS) * 2
        assert stats.payload_bytes > 0
        assert stats.traces == 2
        entries = store.entries()
        trace_rows = [e for e in entries if e.kind == store_mod.TRACE_KIND]
        assert len(entries) == stats.sims + stats.evals + len(trace_rows)
        assert {e.kind for e in entries} == {
            "sim-metrics", "eval", store_mod.TRACE_KIND,
        }
        removed = store.clear()
        assert removed == len(entries)
        assert store.stats().payload_bytes == 0

    def test_in_memory_store_matches_interface(self):
        store = ExperimentStore()
        result = sweep_into(store, workers=1)
        assert result.report.sims_run == 2
        assert store.stats().path is None
        assert len(store.dump()) == len(store.entries())
        warm = sweep_into(store, workers=1)
        assert warm.report.sims_run == 0

    @pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
    def test_closed_store_refuses_use(self, tmp_path, on_disk):
        path = tmp_path / "closed.sqlite" if on_disk else None
        store = ExperimentStore(path)
        meta = dict(kind="eval", workload="w", filter_name="f",
                    n_cpus=4, seed=1)
        store.put_blob("kept", b"before close", **meta)
        store.close()
        for use in (
            lambda: store.put_blob("lost", b"after close", **meta),
            lambda: store.get_blob("kept"),
            lambda: store.contains("kept"),
            store.entries,
        ):
            with pytest.raises(ConfigurationError, match="store is closed"):
                use()
        store.close()  # idempotent
        if on_disk:
            with ExperimentStore(path) as reopened:
                assert reopened.dump() == {"kept": b"before close"}

    def test_access_override_gets_its_own_key(self, tmp_path):
        store = ExperimentStore(tmp_path / "o.sqlite")
        full = runner.run_sweep((WORKLOAD_A,), ("EJ-8x2",),
                                experiment_store=store)
        reduced = runner.run_sweep((WORKLOAD_A,), ("EJ-8x2",),
                                   experiment_store=store,
                                   accesses=1_000, warmup=200)
        assert reduced.report.sims_run == 1  # no collision with the full run
        ev_full = full.evaluations[(WORKLOAD_A, "EJ-8x2", 1)]
        ev_small = reduced.evaluations[(WORKLOAD_A, "EJ-8x2", 1)]
        assert ev_full.coverage.snoops != ev_small.coverage.snoops


class TestEvalKeys:
    """``store.eval_keys`` fingerprints a simulation once for all its
    filters; every key it returns is ``store.eval_key``'s, byte for byte."""

    PAPER_FILTERS = (
        PAPER_EJ_NAMES + PAPER_VEJ_NAMES + PAPER_IJ_NAMES + PAPER_HJ_NAMES
    )

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("workload", ["em3d", WORKLOAD_A, "suite"])
    def test_every_paper_filter_keys_as_eval_key(self, workload, seed):
        spec = Suite(
            [Phase("fill", "zipf-hot", 500), Phase("drain", "scan-stream", 700)],
            name="test-runner-suite",
            warmup_accesses=200,
        ) if workload == "suite" else WORKLOADS[workload]
        names = (*self.PAPER_FILTERS, "null")
        keys = store_mod.eval_keys(spec, names, SCALED_SYSTEM, seed)
        assert list(keys) == list(names)
        for name in names:
            assert keys[name] == store_mod.eval_key(
                spec, name, SCALED_SYSTEM, seed
            )
        assert len(set(keys.values())) == len(names)


class TestProductionInvariants:
    """The conservation laws checked just before evaluations are stored."""

    @staticmethod
    def _evaluation(name="EJ-8x2", snoops=10):
        return FilterEvaluation(
            filter_name=name,
            coverage=CoverageStats(
                snoops=snoops, snoop_would_hit=3,
                snoop_would_miss=snoops - 3, filtered=5,
            ),
            events=FilterEventCounts(probes=snoops, filtered=5),
            storage_bits=0,
        )

    @pytest.mark.parametrize(("law", "part", "field", "value"), [
        ("would-hit", "coverage", "snoop_would_hit", 4),
        ("filtered <= would-miss", "coverage", "filtered", 8),
        ("filtered <= would-miss", "coverage", "filtered", -1),
        ("events.filtered", "events", "filtered", 4),
        ("events.probes", "events", "probes", 11),
    ])
    def test_each_law_is_checked(self, law, part, field, value):
        check_evaluations([self._evaluation(), self._evaluation("IJ-8x4x7")])
        evaluation = self._evaluation()
        setattr(getattr(evaluation, part), field, value)
        with pytest.raises(InvariantError, match=law):
            check_evaluations([evaluation])

    def test_filters_of_one_trace_see_equal_snoops(self):
        with pytest.raises(InvariantError, match="equal snoops"):
            check_evaluations([self._evaluation(), self._evaluation(snoops=9)])

    @pytest.mark.skipif(
        _cmachine.library() is None,
        reason="miscounts inside the compiled kernels",
    )
    def test_miscounting_kernel_stores_no_eval(self, monkeypatch):
        """A kernel that miscounts one snoop per span must not land a row."""
        take = vector_replay.VectorReplayer._take

        def miscount(self, *args):
            stop = take(self, *args)
            if self.snoop_filter.name == "EJ-8x2":
                self.stats.snoops += 1
            return stop

        monkeypatch.setattr(vector_replay.VectorReplayer, "_take", miscount)
        store = ExperimentStore()
        with pytest.raises(InvariantError, match="EJ-8x2"):
            runner.run_sweep(
                (WORKLOAD_A,), ("EJ-8x2", "IJ-8x4x7"),
                experiment_store=store, replay=True,
            )
        assert not [
            entry for entry in store.entries()
            if entry.kind == "eval" and entry.filter_name == "EJ-8x2"
        ]

    @pytest.mark.skipif(
        _cmachine.library() is None,
        reason="miscounts inside the compiled kernels",
    )
    def test_lane_conservation_break_stores_no_eval(self, monkeypatch):
        """An include walk that leaves one counter off by one is caught by
        the lanes' conservation check alone: no row for that filter."""
        walk = vector_replay.walk

        def bumped(jobs, *args):
            for group, *_span in jobs:
                for replayer in group:
                    if replayer._lanes is not None:
                        replayer._lanes[0] += 1
            return walk(jobs, *args)

        monkeypatch.setattr(vector_replay, "walk", bumped)
        store = ExperimentStore()
        with pytest.raises(InvariantError, match="IJ-8x4x7 lane counter"):
            runner.run_sweep(
                (WORKLOAD_A,), ("EJ-8x2", "IJ-8x4x7"),
                experiment_store=store, replay=True,
            )
        assert not [
            entry for entry in store.entries()
            if entry.kind == "eval" and entry.filter_name == "IJ-8x4x7"
        ]
