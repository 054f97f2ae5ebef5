"""Tests for the resilience layer: retries, supervision, fsck, chaos.

The load-bearing oracle throughout: a sweep that suffered (transient)
faults must converge to a store *byte-identical* to a clean run's —
supervision may retry, respawn, and requeue, but it must never reorder
or alter results.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

from repro.analysis import runner
from repro.analysis.resilience import (
    QUARANTINED,
    RetryPolicy,
    SupervisedExecutor,
    backoff_fraction,
    is_transient_sqlite_error,
    raise_if_quarantined,
    retry_call,
)
from repro.analysis.store import (
    QUARANTINE_KIND,
    TRACE_KIND,
    ExperimentStore,
    trace_key,
)
from repro.coherence.config import SCALED_SYSTEM
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    TaskQuarantinedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.testing.faults import (
    FaultPlan,
    InjectedFaultError,
    corrupt_blobs,
    run_chaos,
)
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

WORKLOAD_A = "test-resil-a"
WORKLOAD_B = "test-resil-b"
FILTERS = ("null", "EJ-8x2")

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: Fast, deterministic test policy: no real waiting between attempts.
FAST = RetryPolicy(max_attempts=4, base_delay=0.001, max_delay=0.01, seed=1)


def _spec(name: str, recipe) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        abbrev=name[-2:],
        description="miniature workload for resilience tests",
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
    yield
    del WORKLOADS[WORKLOAD_A]
    del WORKLOADS[WORKLOAD_B]


def _square(x: int) -> int:
    return x * x


def _boom(_x: int) -> int:
    raise ValueError("programming error, not a transient fault")


def sweep_into(store, *, workers=1, backend=None, **kwargs):
    return runner.run_sweep(
        (WORKLOAD_A, WORKLOAD_B), FILTERS,
        workers=workers, backend=backend, experiment_store=store, **kwargs,
    )


class TestRetryPolicy:
    def test_backoff_fraction_is_deterministic(self):
        a = backoff_fraction(7, "sim:3", 2)
        assert a == backoff_fraction(7, "sim:3", 2)
        assert 0.0 <= a < 1.0
        assert a != backoff_fraction(7, "sim:3", 3)
        assert a != backoff_fraction(8, "sim:3", 2)

    def test_delay_is_bounded_and_deterministic(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.05, backoff=2.0,
                             max_delay=0.4, jitter_frac=0.5, seed=3)
        for attempt in range(1, 8):
            raw = min(0.4, 0.05 * 2.0 ** (attempt - 1))
            delay = policy.delay_for("eval:0", attempt)
            assert delay == policy.delay_for("eval:0", attempt)
            assert raw * 0.5 <= delay <= raw * 1.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_frac=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-0.1)

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(WorkerCrashError("pool broke"))
        assert policy.is_retryable(TaskTimeoutError("too slow"))
        assert policy.is_retryable(InjectedFaultError("chaos"))
        assert policy.is_retryable(sqlite3.OperationalError("database is locked"))
        assert policy.is_retryable(sqlite3.OperationalError("database is busy"))
        assert not policy.is_retryable(sqlite3.OperationalError("no such table: x"))
        assert not policy.is_retryable(ValueError("bug"))
        widened = RetryPolicy(retry_on=(ValueError,))
        assert widened.is_retryable(ValueError("flaky dependency"))

    def test_is_transient_sqlite_error_requires_operational_error(self):
        assert not is_transient_sqlite_error(RuntimeError("database is locked"))

    def test_retry_call_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.0, seed=1)
        assert retry_call(flaky, policy=policy, label="open") == "ok"
        assert calls["n"] == 3

    def test_retry_call_exhausts_and_raises(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        calls = {"n": 0}

        def always_locked():
            calls["n"] += 1
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_call(always_locked, policy=policy)
        assert calls["n"] == 2

    def test_retry_call_nonretryable_raises_immediately(self):
        calls = {"n": 0}

        def bug():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(bug, policy=RetryPolicy(max_attempts=5, base_delay=0.0))
        assert calls["n"] == 1


class TestSupervisedExecutor:
    def test_clean_map_matches_serial_comprehension(self):
        tasks = list(range(6))
        expected = [_square(t) for t in tasks]
        for backend in ("serial", "thread", "process"):
            executor = SupervisedExecutor(2, backend=backend, policy=FAST)
            assert executor.map(_square, tasks) == expected

    def test_empty_task_list(self):
        assert SupervisedExecutor(2).map(_square, []) == []

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(2, backend="fork-bomb")
        with pytest.raises(ConfigurationError):
            SupervisedExecutor(2, timeout=0)

    def test_nonretryable_error_propagates(self):
        executor = SupervisedExecutor(1, backend="serial", policy=FAST)
        with pytest.raises(ValueError):
            executor.map(_boom, [1])

    def test_worker_exit_crash_respawns_and_recovers(self):
        # Every task kills its worker on attempt 1 and runs clean on
        # attempt 2; the pool breaks, is respawned, and all results
        # still land in order.
        plan = FaultPlan(name="exit-once", seed=2, exit_rate=1.0,
                         max_faults_per_task=1)
        report = runner.ExecutionReport()
        executor = SupervisedExecutor(
            2, backend="process",
            policy=RetryPolicy(max_attempts=8, base_delay=0.001, seed=2),
            report=report, fault_plan=plan, stage="record",
        )
        tasks = list(range(4))
        assert executor.map(_square, tasks) == [_square(t) for t in tasks]
        assert report.worker_crashes >= 1
        assert report.retried >= 1
        assert report.quarantined == 0

    def test_timeout_kills_hung_worker_and_retries(self):
        plan = FaultPlan(name="hang-once", seed=3, hang_rate=1.0,
                         hang_seconds=60.0, max_faults_per_task=1)
        report = runner.ExecutionReport()
        executor = SupervisedExecutor(
            1, backend="process", policy=FAST, timeout=0.5,
            report=report, fault_plan=plan, stage="record",
        )
        started = time.perf_counter()
        assert executor.map(_square, [3]) == [9]
        elapsed = time.perf_counter() - started
        assert report.timeouts == 1
        assert elapsed < 30  # nothing waited for the 60s hang

    def test_poisoned_task_is_quarantined_without_killing_siblings(self):
        plan = FaultPlan(name="poison", seed=4, poison=(("task", 1),))
        report = runner.ExecutionReport()
        executor = SupervisedExecutor(
            2, backend="process",
            policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=4),
            report=report, fault_plan=plan,
        )
        results = executor.map(_square, [0, 1, 2])
        assert results[0] == 0
        assert results[1] is QUARANTINED
        assert results[2] == 4
        assert report.quarantined == 1
        with pytest.raises(TaskQuarantinedError):
            raise_if_quarantined(results, "task")

    def test_degrades_to_thread_when_process_pool_unavailable(self, monkeypatch):
        import concurrent.futures

        def no_pool(*_args, **_kwargs):
            raise OSError("no /dev/shm in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        )
        report = runner.ExecutionReport()
        executor = SupervisedExecutor(
            2, backend="process", policy=FAST, report=report,
        )
        tasks = list(range(5))
        assert executor.map(_square, tasks) == [_square(t) for t in tasks]
        assert report.backend_degraded == "process->thread"

    @pytest.mark.parametrize(
        "backend, degraded",
        [("process", "process->thread,thread->serial"),
         ("thread", "thread->serial")],
    )
    def test_degrades_to_serial_when_no_pool_can_be_built(
        self, monkeypatch, backend, degraded
    ):
        import concurrent.futures

        def no_pool(*_args, **_kwargs):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        report = runner.ExecutionReport()
        executor = SupervisedExecutor(
            2, backend=backend, policy=FAST, report=report,
        )
        tasks = list(range(5))
        assert executor.map(_square, tasks) == [_square(t) for t in tasks]
        assert report.backend_degraded == degraded

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor") as err:
            SupervisedExecutor(2, backend="quantum", policy=FAST)
        for backend in runner.EXECUTOR_BACKENDS:
            assert backend in str(err.value)


class TestSweepFaultTolerance:
    def test_raises_then_byte_identical_to_clean_run(self):
        clean, faulted = ExperimentStore(), ExperimentStore()
        sweep_into(clean)
        # Every record and replay task fails once with a transient raise.
        plan = FaultPlan(name="raise-once", seed=5, raise_rate=1.0,
                         max_faults_per_task=1)
        result = sweep_into(
            faulted, workers=2, backend="process",
            policy=RetryPolicy(max_attempts=6, base_delay=0.001, seed=5),
            fault_plan=plan,
        )
        assert result.report.retried >= 1
        assert result.report.quarantined == 0
        assert clean.dump() == faulted.dump()

    def test_worker_kills_mid_sweep_byte_identical_to_clean_run(self):
        clean, faulted = ExperimentStore(), ExperimentStore()
        sweep_into(clean)
        plan = FaultPlan(name="exit-once", seed=6, exit_rate=1.0,
                         max_faults_per_task=1)
        result = sweep_into(
            faulted, workers=2, backend="process",
            policy=RetryPolicy(max_attempts=8, base_delay=0.001, seed=6),
            fault_plan=plan,
        )
        assert result.report.worker_crashes >= 1
        assert result.report.quarantined == 0
        assert clean.dump() == faulted.dump()

    def test_hung_sims_time_out_then_byte_identical_to_clean_run(self):
        clean, faulted = ExperimentStore(), ExperimentStore()
        sweep_into(clean)
        plan = FaultPlan(name="hang-sims", seed=7, hang_rate=1.0,
                         hang_seconds=60.0, max_faults_per_task=1,
                         stages=("record",))
        result = sweep_into(
            faulted, workers=2, backend="process",
            policy=RetryPolicy(max_attempts=6, base_delay=0.001, seed=7),
            task_timeout=1.0, fault_plan=plan,
        )
        assert result.report.timeouts >= 1
        assert result.report.quarantined == 0
        assert clean.dump() == faulted.dump()

    def test_poisoned_sim_degrades_to_partial_result(self):
        store = ExperimentStore()
        plan = FaultPlan(name="poison-sim", seed=8, poison=(("record", 0),))
        result = sweep_into(
            store,
            policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=8),
            fault_plan=plan,
        )
        assert result.report.quarantined == 1
        # One workload's recording never materialised, so only the other
        # workload's evaluations exist — and the report says so.
        assert len(result.evaluations) == len(FILTERS)
        assert "quarantined" in result.report.summary()

    def test_poisoned_recording_in_process_pool_keeps_the_other(self):
        """Cold parallel sweeps record on the supervised pool: a poisoned
        recording is quarantined while its sibling's results land."""
        clean = ExperimentStore()
        sweep_into(clean)
        store = ExperimentStore()
        plan = FaultPlan(name="poison-record", seed=9,
                         poison=(("record", 0),))
        result = sweep_into(
            store, workers=2, backend="process",
            policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=9),
            fault_plan=plan,
        )
        assert result.report.quarantined == 1
        assert result.report.sims_run == 1
        assert len(result.evaluations) == len(FILTERS)
        # The survivor's rows are exactly the clean run's.
        reference = clean.dump()
        for key, blob in store.dump().items():
            assert reference[key] == blob

    def test_poisoned_stream_in_process_pool_keeps_the_other(self):
        """Streamed sweeps run on the same supervised ``stream`` stage:
        a poisoned pass is quarantined while its sibling's results
        land, byte-identical to a clean streamed run."""
        clean = ExperimentStore()
        sweep_into(clean, stream=True)
        store = ExperimentStore()
        plan = FaultPlan(name="poison-stream", seed=10,
                         poison=(("stream", 0),))
        result = sweep_into(
            store, workers=2, backend="process", stream=True,
            policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=10),
            fault_plan=plan,
        )
        assert result.report.quarantined == 1
        assert result.report.sims_run == 1
        assert len(result.evaluations) == len(FILTERS)
        # Every surviving cell belongs to one workload.
        assert len({workload for workload, _f, _s in result.evaluations}) == 1
        reference = clean.dump()
        for key, blob in store.dump().items():
            assert reference[key] == blob

    @pytest.mark.parametrize("stage", ("record", "replay", "stream"))
    def test_evaluate_names_the_cells_a_quarantine_left_empty(
        self, monkeypatch, stage
    ):
        """``evaluate`` wants every cell: a quarantined task raises
        TaskQuarantinedError naming what is missing (a bare assert would
        vanish under ``python -O``)."""
        execute = runner.execute
        plan = FaultPlan(name="poison", seed=11, poison=((stage, 0),))

        def poisoned(jobs, **kwargs):
            return execute(jobs, **{
                **kwargs, "fault_plan": plan,
                "policy": RetryPolicy(max_attempts=2, base_delay=0.001,
                                      seed=11),
            })

        monkeypatch.setattr(runner, "execute", poisoned)
        with pytest.raises(TaskQuarantinedError) as raised:
            runner.evaluate(
                WORKLOAD_A, filters=FILTERS, stream=stage == "stream",
                backend="serial", experiment_store=ExperimentStore(),
            )
        message = str(raised.value)
        assert f"{WORKLOAD_A} seed 1" in message
        assert all(name in message for name in FILTERS)
        assert ("metrics" in message) == (stage != "replay")
        assert "1 quarantined" in message

    def test_clean_report_summary_has_no_fault_segment(self):
        result = sweep_into(ExperimentStore())
        assert "faults:" not in result.report.summary()
        assert "quarantined" not in result.report.summary()


class TestFsck:
    def _populated(self):
        store = ExperimentStore()
        sweep_into(store)
        return store

    def test_clean_store_reports_clean(self):
        store = self._populated()
        report = store.fsck()
        assert report.clean
        assert report.scanned > 0
        assert report.removed == 0
        assert "store clean" in report.summary()

    def test_corrupt_evals_detected_removed_and_healed(self):
        clean = self._populated()
        store = self._populated()
        doomed = corrupt_blobs(store, seed=1, fraction=1.0)
        assert doomed
        report = store.fsck()
        assert set(report.corrupt) == set(doomed)
        assert report.removed == len(doomed)
        assert "corrupt" in report.summary()
        # Healing: the next sweep recomputes exactly the deleted rows.
        healed = sweep_into(store)
        assert healed.report.evals_run == len(doomed)
        assert store.dump() == clean.dump()
        assert store.fsck().clean

    def test_quarantine_mode_preserves_the_damaged_blob(self):
        store = self._populated()
        doomed = corrupt_blobs(store, seed=1, fraction=1.0, limit=1)
        report = store.fsck(quarantine=True)
        assert report.quarantined == 1
        assert report.removed == 0
        quarantined = [
            e for e in store.entries() if e.kind == QUARANTINE_KIND
        ]
        assert [e.key for e in quarantined] == [f"quarantine:{doomed[0]}"]
        # Idempotent: quarantined rows are skipped on the next pass.
        assert store.fsck().clean

    def test_corrupt_trace_segment_dooms_the_whole_trace_unit(self):
        store = ExperimentStore()
        spec = WORKLOADS[WORKLOAD_A]
        runner.execute(
            [runner.SweepJob(spec, FILTERS)],
            mode="replay", experiment_store=store,
        )
        trace_rows = [e for e in store.entries() if e.kind == TRACE_KIND]
        assert len(trace_rows) > 1  # manifest plus at least one segment
        corrupt_blobs(store, seed=1, fraction=0.0, kinds=(TRACE_KIND,))
        report = store.fsck()
        assert len(report.corrupt) == 1
        assert report.removed == len(trace_rows)
        assert not any(e.kind == TRACE_KIND for e in store.entries())
        # Evals survive: only the trace unit was doomed.
        assert any(e.kind == "eval" for e in store.entries())

    def test_quarantined_trace_rows_survive_re_recording(self):
        store = ExperimentStore()
        spec = WORKLOADS[WORKLOAD_A]
        job = runner.SweepJob(spec, FILTERS)
        runner.execute(
            [job], mode="replay", experiment_store=store,
        )
        corrupt_blobs(store, seed=1, fraction=0.0, kinds=(TRACE_KIND,))
        store.fsck(quarantine=True)
        tkey = trace_key(spec, SCALED_SYSTEM, 1)
        # Quarantined segment copies keep the trace key as their group.
        segments = store.group_keys(QUARANTINE_KIND, tkey)
        assert segments
        store.delete_kind("eval")
        report = runner.execute(
            [job], mode="replay", experiment_store=store,
        )
        assert report.sims_run == 1
        # Re-recording drops the trace's rows, never its post-mortem copies.
        assert store.group_keys(QUARANTINE_KIND, tkey) == segments


class TestChaosHarness:
    def test_mild_drill_converges_byte_identical(self):
        result = run_chaos(
            "mild",
            workloads=(WORKLOAD_A,), filters=FILTERS,
            accesses=3_000, warmup=800, seeds=(1,),
            workers=2, backend="thread", task_timeout=None,
        )
        assert result.byte_identical
        assert result.corrupted  # the fsck leg was actually exercised
        assert result.fsck.corrupt
        assert result.demo.quarantined >= 1
        summary = result.summary()
        assert "chaos plan 'mild'" in summary
        assert "store byte-identical to clean run: yes" in summary

    def test_unknown_plan_raises(self):
        with pytest.raises(ExecutionError):
            run_chaos("apocalyptic")


class TestReplayStoreContention:
    def test_replay_worker_survives_transient_lock(self, tmp_path, monkeypatch):
        """Worker-side read-only opens retry through transient locks."""
        calls = {"n": 0}
        real_connect = sqlite3.connect

        def flaky_connect(*args, **kwargs):
            if kwargs.get("uri") and calls["n"] < 2:
                calls["n"] += 1
                raise sqlite3.OperationalError("database is locked")
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", flaky_connect)
        store = ExperimentStore(tmp_path / "traces.sqlite")
        spec = WORKLOADS[WORKLOAD_A]
        report = runner.execute(
            [runner.SweepJob(spec, FILTERS)],
            mode="replay", experiment_store=store,
        )
        assert calls["n"] == 2  # the retry path actually ran
        assert report.evals_run == len(FILTERS)
        store.close()
