"""Tests for the sweep service: journal, scheduler, recovery, identity.

The oracle is inherited from the resilience suite: whatever the service
suffers — dead workers, expired leases, a SIGKILLed server — the store
it converges to must be byte-identical to a plain serial sweep's, and
the journal must neither lose nor duplicate work across restarts.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import runner
from repro.analysis.resilience import RetryPolicy
from repro.analysis.store import JOB_KIND, ExperimentStore
from repro.errors import QueueFullError, ServiceError
from repro.service import (
    JobJournal,
    ServiceClient,
    SweepService,
    normalize_request,
    shard_satisfied,
)
from repro.service.journal import (
    resolve_spec,
    resolve_system,
    shard_fingerprint,
)
from repro.service.worker import ServiceWorker
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

WORKLOAD_A = "test-svc-a"
WORKLOAD_B = "test-svc-b"
FILTERS = ("null", "EJ-8x2")

#: One representative per filter family for the identity sweeps.
FILTER_FAMILIES = (
    "EJ-8x2",
    "VEJ-32x4-8",
    "IJ-10x4x7",
    "HJ(IJ-10x4x7, EJ-32x4)",
)

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: Fast quarantine: two strikes, sub-millisecond backoff.
TWO_STRIKES = RetryPolicy(
    max_attempts=2, base_delay=0.001, max_delay=0.01, seed=1
)


def _spec(name: str, recipe) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        abbrev=name[-2:],
        description="miniature workload for service tests",
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


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_request(filters=FILTERS, workloads=(WORKLOAD_A, WORKLOAD_B),
                 seeds=(1,), mode="replay", **over) -> dict:
    return {
        "workloads": list(workloads),
        "filters": list(filters),
        "seeds": list(seeds),
        "mode": mode,
        **over,
    }


def execute_shard(store: ExperimentStore, shard: dict) -> None:
    """What a worker does with a granted shard, inline and serial."""
    runner.run_sweep(
        [resolve_spec(shard)],
        tuple(shard["filters"]),
        system=resolve_system(shard),
        seeds=(shard["seed"],),
        experiment_store=store,
        workers=1,
        backend="serial",
        **{shard["mode"]: True},
    )


def drain_queue(service: SweepService, store: ExperimentStore,
                worker: str = "w1") -> int:
    """Lease-execute-complete until the service has no runnable work."""
    completed = 0
    while True:
        grant = service.lease(worker)
        if grant is None:
            return completed
        execute_shard(store, grant["shard"])
        assert service.complete(worker, grant["lease"]) == "done"
        completed += 1


def result_payloads(store: ExperimentStore) -> dict[str, bytes]:
    """Store payloads minus the job journal (operational, not results)."""
    journal_keys = {
        entry.key for entry in store.entries() if entry.kind == JOB_KIND
    }
    return {
        key: blob for key, blob in store.dump().items()
        if key not in journal_keys
    }


# ----------------------------------------------------------------------
# Journal: canonicalisation, identity, durability
# ----------------------------------------------------------------------

def test_normalize_request_canonicalises_and_dedupes():
    scrambled = normalize_request({
        "workloads": [WORKLOAD_B, WORKLOAD_A, WORKLOAD_B],
        "filters": ["EJ-8x2", "null", "EJ-8x2"],
        "seeds": [2, 1, 2],
    })
    assert scrambled["workloads"] == [WORKLOAD_B, WORKLOAD_A]
    assert scrambled["filters"] == ["EJ-8x2", "null"]
    assert scrambled["seeds"] == [2, 1]
    assert scrambled["mode"] == "replay"


@pytest.mark.parametrize("bad", [
    {},
    {"workloads": [], "filters": ["null"]},
    {"workloads": [WORKLOAD_A], "filters": []},
    {"workloads": [WORKLOAD_A], "filters": ["null"], "seeds": ["one"]},
    {"workloads": [WORKLOAD_A], "filters": ["null"], "mode": "buffered"},
    {"workloads": [WORKLOAD_A], "filters": ["null"], "accesses": 0},
    {"workloads": [WORKLOAD_A], "filters": ["null"], "accesses": True},
])
def test_normalize_request_rejects_malformed(bad):
    with pytest.raises(ServiceError):
        normalize_request(bad)


def test_job_identity_invariant_under_ordering():
    one = JobJournal.new_record(normalize_request(make_request(
        workloads=(WORKLOAD_A, WORKLOAD_B), seeds=(1, 2),
    )))
    other = JobJournal.new_record(normalize_request(make_request(
        workloads=(WORKLOAD_B, WORKLOAD_A), seeds=(2, 1),
        filters=tuple(reversed(FILTERS)),
    )))
    assert one["job"] == other["job"]
    assert len(one["shards"]) == 4


def test_normalize_request_trace_economics_fields():
    # There is one segment encoder and one kind of trace: ``codec`` and
    # ``measured_only`` fields are ignored like any unknown field,
    # whatever their value or the mode.
    for over in ({"codec": "delta-v1"}, {"codec": "rle-v9"},
                 {"codec": "raw-v1", "mode": "stream"},
                 {"measured_only": True}, {"measured_only": "yes"},
                 {"measured_only": True, "mode": "stream"}):
        assert normalize_request(make_request(**over)) == (
            normalize_request(make_request(**{
                k: v for k, v in over.items()
                if k not in ("codec", "measured_only")
            }))
        )


def test_shard_identity_ignores_trace_economics_hints():
    """Retired trace-economics fields reach no shard: two submissions
    differing only in them share shards."""
    plain = JobJournal.new_record(normalize_request(make_request()))
    tuned = JobJournal.new_record(normalize_request(make_request(
        codec="delta-v1", measured_only=True,
    )))
    assert [s["id"] for s in plain["shards"]] == (
        [s["id"] for s in tuned["shards"]]
    )
    assert all("codec" not in s and "measured_only" not in s
               for s in tuned["shards"])


def test_shard_journaled_with_a_codec_still_runs(tmp_path):
    """A journal written while shards carried a ``codec`` or a
    ``measured_only`` hint recovers: the shard leases, keeps its
    fingerprint, and the worker runs it as a plain replay shard."""
    path = tmp_path / "svc.sqlite"
    store = ExperimentStore(path)
    record = JobJournal.new_record(normalize_request(
        make_request(workloads=(WORKLOAD_A,))
    ))
    hints = {"codec": "delta-v1", "measured_only": True}
    record["request"].update(hints)
    for shard in record["shards"]:
        shard.update(hints)
    JobJournal(store).persist(record)
    store.close()

    reopened = ExperimentStore(path)
    service = SweepService(reopened)
    journaled = service.jobs[record["job"]]["shards"][0]
    assert journaled["codec"] == "delta-v1"
    assert journaled["measured_only"] is True
    grant = service.lease("w1")
    assert grant["shard"]["id"] == shard_fingerprint(journaled) == (
        record["shards"][0]["id"]
    )
    # The worker runs the shard as journaled, hints and all.
    ServiceWorker("http://unused", str(path))._execute(journaled)
    assert service.complete("w1", grant["lease"]) == "done"
    assert service.job_status(record["job"])["state"] == "done"
    reopened.close()


def test_worker_runs_a_shard_on_its_cpu_count(tmp_path):
    """A shard's ``cpus`` reaches the worker's sweep, so its results
    land under the keys the server verifies the completion against."""
    path = tmp_path / "svc.sqlite"
    store = ExperimentStore(path)
    service = SweepService(store)
    service.submit(make_request(workloads=(WORKLOAD_A,), cpus=2))
    grant = service.lease("w1")
    assert grant["shard"]["cpus"] == 2
    ServiceWorker("http://unused", str(path))._execute(grant["shard"])
    assert service.complete("w1", grant["lease"]) == "done"
    store.close()


def test_journal_round_trip_strips_runtime_state(tmp_path):
    store = ExperimentStore(tmp_path / "journal.sqlite")
    journal = JobJournal(store)
    record = JobJournal.new_record(normalize_request(make_request()))
    shard = record["shards"][0]
    shard.update(state="leased", attempts=2, lease="L9",
                 worker="w1", deadline=123.0, not_before=456.0)
    journal.persist(record)
    loaded = journal.load()[record["job"]]
    reloaded = loaded["shards"][0]
    assert reloaded["state"] == "leased"
    assert reloaded["attempts"] == 2
    for runtime_key in ("lease", "worker", "deadline", "not_before"):
        assert runtime_key not in reloaded
    assert store.stats().jobs == 1
    store.close()


# ----------------------------------------------------------------------
# Scheduler: leases, heartbeats, expiry, quarantine, backpressure
# ----------------------------------------------------------------------

def test_lease_expiry_reassigns_and_charges():
    clock = FakeClock()
    service = SweepService(
        ExperimentStore(None), lease_seconds=10.0, clock=clock,
    )
    service.submit(make_request(workloads=(WORKLOAD_A,)))
    grant = service.lease("w1")
    assert grant is not None
    clock.advance(5.0)
    assert service.expire_leases() == 0
    clock.advance(6.0)
    assert service.expire_leases() == 1
    assert service.counters["reassigned"] == 1
    shard = service.jobs[next(iter(service.jobs))]["shards"][0]
    assert shard["state"] == "submitted"
    assert shard["attempts"] == 1
    # The reassigned shard is leasable again once its backoff passes.
    clock.advance(60.0)
    again = service.lease("w2")
    assert again is not None
    assert again["shard"]["id"] == grant["shard"]["id"]


def test_heartbeat_staves_off_expiry():
    clock = FakeClock()
    service = SweepService(
        ExperimentStore(None), lease_seconds=10.0, clock=clock,
    )
    service.submit(make_request(workloads=(WORKLOAD_A,)))
    grant = service.lease("w1")
    clock.advance(8.0)
    assert service.heartbeat("w1", grant["lease"]) is True
    clock.advance(8.0)  # 16s after grant, 8s after heartbeat
    assert service.expire_leases() == 0
    assert service.heartbeat("w2", grant["lease"]) is False  # wrong worker
    clock.advance(11.0)
    assert service.expire_leases() == 1
    assert service.heartbeat("w1", grant["lease"]) is False  # gone


def test_stale_completion_is_harmless():
    clock = FakeClock()
    store = ExperimentStore(None)
    service = SweepService(store, lease_seconds=5.0, clock=clock)
    service.submit(make_request(workloads=(WORKLOAD_A,)))
    grant = service.lease("w1")
    clock.advance(6.0)
    service.expire_leases()
    assert service.complete("w1", grant["lease"]) == "stale"
    assert service.fail("w1", grant["lease"]) == "stale"


def test_completion_is_verified_not_trusted():
    service = SweepService(ExperimentStore(None), policy=TWO_STRIKES)
    service.submit(make_request(workloads=(WORKLOAD_A,)))
    grant = service.lease("w1")
    # The worker claims success but never wrote results.
    assert service.complete("w1", grant["lease"]) == "requeued"
    shard = service.jobs[next(iter(service.jobs))]["shards"][0]
    assert shard["state"] == "submitted"
    assert shard["attempts"] == 1


def test_quarantine_after_max_attempts():
    clock = FakeClock()
    service = SweepService(
        ExperimentStore(None), policy=TWO_STRIKES, clock=clock,
    )
    job_id = service.submit(
        make_request(workloads=(WORKLOAD_A,))
    )["job"]
    grant = service.lease("w1")
    assert service.fail("w1", grant["lease"], "boom") == "requeued"
    clock.advance(60.0)  # clear the backoff
    grant = service.lease("w1")
    assert service.fail("w1", grant["lease"], "boom") == "quarantined"
    status = service.job_status(job_id)
    assert status["state"] == "quarantined"
    assert status["shards"][0]["attempts"] == 2
    assert service.lease("w1") is None  # nothing runnable remains


def test_backpressure_bounded_queue():
    service = SweepService(ExperimentStore(None), max_pending=1)
    service.submit(make_request(workloads=(WORKLOAD_A,)))
    with pytest.raises(QueueFullError) as excinfo:
        service.submit(make_request(workloads=(WORKLOAD_B,)))
    assert excinfo.value.retry_after >= 1.0
    assert service.counters["rejected"] == 1
    # Idempotent re-submission of the admitted job is NOT new work.
    status = service.submit(make_request(workloads=(WORKLOAD_A,)))
    assert status["state"] == "running"


def test_draining_refuses_cold_work_but_answers_warm():
    store = ExperimentStore(None)
    runner.run_sweep(
        [WORKLOAD_A], FILTERS, experiment_store=store,
        replay=True, workers=1, backend="serial",
    )
    service = SweepService(store)
    service.begin_drain()
    with pytest.raises(ServiceError, match="draining"):
        service.submit(make_request(workloads=(WORKLOAD_B,)))
    warm = service.submit(make_request(workloads=(WORKLOAD_A,)))
    assert warm["state"] == "done"
    assert warm["summary"].startswith("sims: 0 run")


def test_warm_submission_answers_from_store():
    store = ExperimentStore(None)
    runner.run_sweep(
        [WORKLOAD_A, WORKLOAD_B], FILTERS, experiment_store=store,
        replay=True, workers=1, backend="serial",
    )
    service = SweepService(store)
    status = service.submit(make_request())
    assert status["state"] == "done"
    assert status["summary"] == (
        "sims: 0 run / 2 cached; evals: 0 run / 4 cached"
    )
    assert service.counters["leases_granted"] == 0


def test_warm_result_lookup():
    store = ExperimentStore(None)
    runner.run_sweep(
        [WORKLOAD_A], FILTERS, experiment_store=store,
        replay=True, workers=1, backend="serial",
    )
    service = SweepService(store)
    cell = service.warm_result({
        "workload": WORKLOAD_A, "filter": "EJ-8x2", "seed": 1,
        "mode": "replay",
    })
    assert cell is not None
    assert 0.0 <= cell["coverage"] <= 1.0
    assert cell["evaluation"]["filter_name"] == "EJ-8x2"
    missing = service.warm_result({
        "workload": WORKLOAD_B, "filter": "EJ-8x2", "seed": 1,
        "mode": "replay",
    })
    assert missing is None


# ----------------------------------------------------------------------
# Recovery: the journal across server restarts
# ----------------------------------------------------------------------

def test_restart_requeues_leases_and_preserves_verdicts(tmp_path):
    path = tmp_path / "svc.sqlite"
    store = ExperimentStore(path)
    clock = FakeClock()
    service = SweepService(store, policy=TWO_STRIKES, clock=clock)
    job_id = service.submit(make_request(seeds=(1,)))["job"]

    # Shard 1 completes; shard 2 fails once, then dies leased.
    grant = service.lease("w1")
    execute_shard(store, grant["shard"])
    assert service.complete("w1", grant["lease"]) == "done"
    grant = service.lease("w1")
    assert service.fail("w1", grant["lease"], "transient") == "requeued"
    clock.advance(60.0)
    grant = service.lease("w1")
    assert grant is not None  # now leased; the "server" dies here
    store.close()

    reopened = ExperimentStore(path)
    revived = SweepService(reopened, policy=TWO_STRIKES)
    status = revived.job_status(job_id)
    states = sorted(s["state"] for s in status["shards"])
    assert states == ["done", "submitted"]  # done kept, lease requeued
    requeued = next(
        s for s in status["shards"] if s["state"] == "submitted"
    )
    # The crash itself charged nothing, but history survived: one more
    # strike quarantines under the two-attempt policy.
    assert requeued["attempts"] == 1
    grant = revived.lease("w2")
    assert revived.fail("w2", grant["lease"], "boom") == "quarantined"
    reopened.close()


def test_restart_marks_satisfied_shards_done(tmp_path):
    path = tmp_path / "svc.sqlite"
    store = ExperimentStore(path)
    service = SweepService(store)
    job_id = service.submit(make_request(workloads=(WORKLOAD_A,)))["job"]
    grant = service.lease("w1")
    # The worker finishes and writes results, but the server dies
    # before /complete lands: the journal still says "leased".
    execute_shard(store, grant["shard"])
    assert shard_satisfied(store, grant["shard"])
    store.close()

    reopened = ExperimentStore(path)
    revived = SweepService(reopened)
    status = revived.job_status(job_id)
    assert status["state"] == "done"
    assert status["summary"].endswith("evals: 0 run / 2 cached")
    reopened.close()


# ----------------------------------------------------------------------
# The oracle: service execution is byte-identical to a serial sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("filter_name", FILTER_FAMILIES)
def test_service_loop_byte_identical_per_family(tmp_path, filter_name):
    reference = ExperimentStore(None)
    runner.run_sweep(
        [WORKLOAD_A, WORKLOAD_B], (filter_name,), seeds=(1, 2),
        experiment_store=reference, replay=True,
        workers=1, backend="serial",
    )

    store = ExperimentStore(tmp_path / "svc.sqlite")
    service = SweepService(store)
    job_id = service.submit(make_request(
        filters=(filter_name,), seeds=(1, 2),
    ))["job"]
    assert drain_queue(service, store) == 4
    assert service.job_status(job_id)["state"] == "done"
    assert result_payloads(store) == result_payloads(reference)
    store.close()


def test_worker_death_mid_lease_heals_byte_identical(tmp_path):
    reference = ExperimentStore(None)
    runner.run_sweep(
        [WORKLOAD_A, WORKLOAD_B], FILTERS, seeds=(1,),
        experiment_store=reference, replay=True,
        workers=1, backend="serial",
    )

    clock = FakeClock()
    store = ExperimentStore(tmp_path / "svc.sqlite")
    service = SweepService(store, lease_seconds=10.0, clock=clock)
    job_id = service.submit(make_request(seeds=(1,)))["job"]
    # Worker w1 leases a shard and silently dies.
    assert service.lease("w1") is not None
    clock.advance(11.0)
    assert service.expire_leases() == 1
    clock.advance(60.0)
    # Worker w2 heals the job.
    assert drain_queue(service, store, worker="w2") == 2
    status = service.job_status(job_id)
    assert status["state"] == "done"
    assert service.counters["reassigned"] == 1
    assert result_payloads(store) == result_payloads(reference)
    store.close()


# ----------------------------------------------------------------------
# Parallel checkpointed sweeps (worker-side checkpoint writers)
# ----------------------------------------------------------------------

def test_parallel_checkpointed_sweep_byte_identical(tmp_path):
    kwargs = dict(
        seeds=(1,), stream=True, checkpoint_every=1_000,
    )
    serial = ExperimentStore(tmp_path / "serial.sqlite")
    runner.run_sweep(
        [WORKLOAD_A, WORKLOAD_B], FILTERS, experiment_store=serial,
        workers=1, backend="serial", **kwargs,
    )
    parallel = ExperimentStore(tmp_path / "parallel.sqlite")
    result = runner.run_sweep(
        [WORKLOAD_A, WORKLOAD_B], FILTERS, experiment_store=parallel,
        workers=2, backend="thread", **kwargs,
    )
    assert result.report.checkpoints_written > 0
    assert result.report.sims_run == 2
    # Chains retired in the workers; stores byte-identical throughout.
    assert not any(
        entry.kind == "checkpoint" for entry in parallel.entries()
    )
    assert parallel.dump() == serial.dump()
    serial.close()
    parallel.close()


# ----------------------------------------------------------------------
# Subprocess: SIGKILL the real server mid-sweep
# ----------------------------------------------------------------------

def _spawn(argv: list[str], log_path: Path) -> subprocess.Popen:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else src
    )
    return subprocess.Popen(
        argv, env=env,
        stdout=open(log_path, "w", encoding="utf-8"),
        stderr=subprocess.STDOUT,
    )


def test_server_sigkill_mid_sweep_resumes_byte_identical(tmp_path):
    accesses, warmup = 6_000, 1_000
    reference = ExperimentStore(None)
    runner.run_sweep(
        ["lu"], ("EJ-32x4",), seeds=(1, 2), experiment_store=reference,
        accesses=accesses, warmup=warmup, replay=True,
        workers=1, backend="serial",
    )

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    store_path = tmp_path / "svc.sqlite"
    base = f"http://127.0.0.1:{port}"
    client = ServiceClient(base, timeout=5.0)
    server_argv = [
        sys.executable, "-m", "repro.cli", "--store", str(store_path),
        "serve", "--port", str(port), "--lease-seconds", "5",
    ]
    worker_argv = [
        sys.executable, "-m", "repro.cli", "--store", str(store_path),
        "worker", "--server", base, "--name", "w1", "--poll", "0.1",
        "--idle-exit", "20",
    ]

    server = _spawn(server_argv, tmp_path / "server1.log")
    worker = None
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                if client.health()["status"] == "ok":
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.1)
        job_id = client.submit(
            workloads=["lu"], filters=["EJ-32x4"], seeds=[1, 2],
            mode="replay", accesses=accesses, warmup=warmup,
        )["job"]
        worker = _spawn(worker_argv, tmp_path / "worker.log")
        deadline = time.monotonic() + 60
        while client.job(job_id)["states"]["done"] < 1:
            assert time.monotonic() < deadline, "no shard ever finished"
            time.sleep(0.1)
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)

        server = _spawn(server_argv, tmp_path / "server2.log")
        final = client.wait(job_id, timeout=120)
        assert final["state"] == "done"
        recovery_log = (tmp_path / "server2.log").read_text()
        assert "recovered 1 journaled job(s)" in recovery_log
    finally:
        for proc in (worker, server):
            if proc is not None and proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=30)

    survivor = ExperimentStore(store_path)
    try:
        assert result_payloads(survivor) == result_payloads(reference)
        assert survivor.fsck().clean
    finally:
        survivor.close()
