"""Supervised task execution: retries, deadlines, and crash recovery.

The sweep runner fans simulation and evaluation tasks across worker
pools (:mod:`repro.analysis.runner`).  A raw ``Pool.map`` makes that
fan-out brittle: a worker that segfaults or calls ``os._exit`` kills or
hangs the whole sweep, no task has a deadline, and one poisoned task
takes every sibling result down with it.  This module supplies the
resilience layer:

``RetryPolicy``
    Classifies failures as retryable or terminal and schedules
    exponential backoff with *seeded, deterministic* jitter — two runs
    with the same seed back off identically, which keeps chaos tests
    reproducible.

``SupervisedExecutor``
    A drop-in replacement for the pool fan-out.  Detects worker
    crashes (``BrokenProcessPool``), respawns the pool and requeues
    only the tasks that were in flight, enforces per-task deadlines on
    the process backend, quarantines tasks that exhaust their retry
    budget (returning the :data:`QUARANTINED` sentinel in their slot
    so a sweep degrades to partial results instead of dying), and
    degrades process → thread → serial when pool creation itself
    fails.

``retry_call``
    In-process retry helper for transient resource errors — notably
    read-only SQLite opens hitting ``database is locked``.

Determinism contract: supervision never reorders results.  ``map``
returns one slot per task in task order, so a clean supervised run
inserts store rows in exactly the order the raw pool did, and a run
that suffered (transient) faults converges to a byte-identical store.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import heapq
import logging
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    TaskQuarantinedError,
    TaskTimeoutError,
    WorkerCrashError,
)

logger = logging.getLogger("repro.resilience")

__all__ = [
    "AttemptTracker",
    "QUARANTINED",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "EXECUTOR_BACKENDS",
    "SQLITE_RETRY_POLICY",
    "SupervisedExecutor",
    "backoff_fraction",
    "is_transient_sqlite_error",
    "retry_call",
]


class _Quarantined:
    """Singleton sentinel standing in for a quarantined task's result."""

    _instance: Optional["_Quarantined"] = None

    def __new__(cls) -> "_Quarantined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "QUARANTINED"

    def __bool__(self) -> bool:
        return False


#: Placed in a task's result slot when it failed every allowed attempt.
#: Falsy, so ``filter(None, results)`` drops quarantined slots; identity
#: checks (``result is QUARANTINED``) distinguish it from ``None``.
QUARANTINED = _Quarantined()


def backoff_fraction(seed: int, label: str, attempt: int) -> float:
    """Deterministic uniform fraction in ``[0, 1)`` for backoff jitter.

    Derived from a SHA-256 of ``(seed, label, attempt)`` rather than a
    PRNG stream so the jitter for one task never depends on how many
    *other* tasks retried before it — a requirement for the chaos
    harness's byte-identical-store oracle.
    """

    digest = hashlib.sha256(f"{seed}:{label}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def is_transient_sqlite_error(error: BaseException) -> bool:
    """Whether *error* is a transient SQLite contention failure.

    ``sqlite3.OperationalError`` covers both permanent conditions
    (missing table, malformed database) and transient contention
    (``database is locked`` / ``database is busy``); only the latter
    deserve a retry.
    """

    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return "locked" in message or "busy" in message


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failed task, and how long to wait.

    Delay for the ``n``-th failed attempt (1-based) is::

        min(max_delay, base_delay * backoff ** (n - 1)) * jitter

    where ``jitter`` is a deterministic factor in
    ``[1 - jitter_frac, 1 + jitter_frac)`` derived from
    :func:`backoff_fraction` — seeded, so identical across runs.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff: float = 2.0
    max_delay: float = 2.0
    jitter_frac: float = 0.5
    seed: int = 0
    #: Extra exception types to treat as retryable, beyond the built-in
    #: classification (``ExecutionError.transient`` subclasses, a truthy
    #: ``transient`` attribute, and transient SQLite contention).
    retry_on: Tuple[type, ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be non-negative")
        if self.backoff < 1.0:
            raise ConfigurationError(
                f"backoff factor must be >= 1.0, got {self.backoff}"
            )
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError(
                f"jitter_frac must be in [0, 1), got {self.jitter_frac}"
            )

    def is_retryable(self, error: BaseException) -> bool:
        """Whether a failure with *error* deserves another attempt."""

        if self.retry_on and isinstance(error, self.retry_on):
            return True
        if getattr(error, "transient", False):
            return True
        return is_transient_sqlite_error(error)

    def delay_for(self, label: str, attempt: int) -> float:
        """Backoff delay after the *attempt*-th failure of task *label*."""

        raw = min(self.max_delay, self.base_delay * self.backoff ** (attempt - 1))
        unit = backoff_fraction(self.seed, label, attempt)
        return raw * (1.0 + self.jitter_frac * (2.0 * unit - 1.0))


#: Policy for supervised sweep execution: three attempts with fast
#: sub-second backoff — sweeps are CPU-bound, so waiting longer than a
#: couple of seconds only delays the inevitable quarantine.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Policy for worker-side read-only SQLite opens.  Lock contention
#: clears in milliseconds once the writer commits, so retry more often
#: with shorter waits.
SQLITE_RETRY_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.02, backoff=2.0, max_delay=0.5
)


def retry_call(
    fn: Callable[[], Any],
    *,
    policy: RetryPolicy = SQLITE_RETRY_POLICY,
    label: str = "call",
) -> Any:
    """Call *fn*, retrying in-process on retryable failures.

    Unlike :class:`SupervisedExecutor` this never quarantines: when the
    attempt budget is exhausted (or the error is not retryable) the last
    exception propagates unchanged.
    """

    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except Exception as error:
            if attempt >= policy.max_attempts or not policy.is_retryable(error):
                raise
            pause = policy.delay_for(label, attempt)
            logger.warning(
                "transient failure in %s (attempt %d/%d): %s; retrying in %.3fs",
                label,
                attempt,
                policy.max_attempts,
                error,
                pause,
            )
            if pause > 0:
                time.sleep(pause)


class AttemptTracker:
    """Per-label attempt ledger driving lease reassignment and backoff.

    The sweep service (:mod:`repro.service`) charges one attempt each
    time a shard's lease expires or its worker reports failure; the
    tracker answers with the policy's deterministic backoff delay for
    the *next* attempt, or ``None`` once the budget is exhausted and
    the shard must be quarantined.  Attempts are keyed by an opaque
    label (the shard fingerprint), so the ledger can be rebuilt from a
    recovered journal with :meth:`restore` and two servers that replay
    the same failure history schedule identical backoffs.
    """

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy if policy is not None else DEFAULT_RETRY_POLICY
        self._attempts: dict = {}

    def attempts(self, label: str) -> int:
        """How many failed attempts *label* has accumulated."""

        return self._attempts.get(label, 0)

    def record_failure(self, label: str) -> Optional[float]:
        """Charge one failed attempt; return the backoff delay or ``None``.

        A ``None`` return means the attempt budget is exhausted: the
        caller must quarantine the labelled work instead of requeueing
        it.
        """

        attempt = self._attempts.get(label, 0) + 1
        self._attempts[label] = attempt
        if attempt >= self.policy.max_attempts:
            return None
        return self.policy.delay_for(label, attempt)

    def restore(self, label: str, attempts: int) -> None:
        """Reload a label's attempt count from a recovered journal."""

        if attempts > 0:
            self._attempts[label] = attempts

    def forget(self, label: str) -> None:
        """Drop a label's history (its work completed)."""

        self._attempts.pop(label, None)


#: The executor backends: ``serial`` runs inline whatever the worker
#: count, ``process`` is the default supervised process pool (true
#: parallelism for the CPU-bound simulate/replay kernels, plus crash
#: detection and per-task deadlines), and ``thread`` is a supervised
#: thread pool — GIL-bound for the pure-Python kernels, useful when tasks
#: wait on I/O (store reads over slow storage) or when process spawn cost
#: dwarfs the task.  When pool creation itself fails the executor
#: degrades process → thread → serial rather than dying.
EXECUTOR_BACKENDS = ("serial", "process", "thread")

# How often the supervision loop wakes to check deadlines even when no
# future has completed.  Deadline enforcement is therefore accurate to
# within this granularity.
_POLL_INTERVAL = 0.05


class SupervisedExecutor:
    """Fault-tolerant ordered ``map`` over a worker pool.

    Parameters mirror the runner's executor knobs:

    workers / backend
        Pool size and flavour (``"process"``, ``"thread"``,
        ``"serial"``).  Tasks run inline (no pool) when ``workers <= 1``
        or the backend is serial, matching the raw fan-out's fast path.
    policy
        :class:`RetryPolicy` deciding retry vs. quarantine.
    timeout
        Per-task deadline in seconds.  Enforced only on the process
        backend, where a stuck worker can be killed; thread and serial
        execution cannot abandon a running call, so deadlines are
        documented as best-effort-none there.
    report
        Optional object with ``retried`` / ``requeued`` / ``quarantined``
        / ``timeouts`` / ``worker_crashes`` / ``backend_degraded``
        attributes (the runner's ``ExecutionReport``); counters are
        incremented in place as supervision events happen.
    fault_plan
        Optional deterministic fault injector (see
        :mod:`repro.testing.faults`).  Must offer
        ``fault_for(stage, index, attempt, isolated)`` returning a
        picklable fault token or ``None``, and a picklable ``invoke``
        callable with signature ``invoke(worker, task, fault)``.
    stage
        Label used in logs and as the jitter seed namespace, so the
        same task index backs off differently in the record and replay
        stages.
    """

    def __init__(
        self,
        workers: int,
        *,
        backend: str = "process",
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        report: Any = None,
        fault_plan: Any = None,
        stage: str = "task",
    ) -> None:
        if backend not in EXECUTOR_BACKENDS:
            raise ConfigurationError(
                f"unknown executor backend {backend!r}; "
                f"choose one of {', '.join(EXECUTOR_BACKENDS)}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"task timeout must be positive, got {timeout}")
        self.workers = max(1, int(workers))
        self.backend = backend
        self.policy = policy if policy is not None else DEFAULT_RETRY_POLICY
        self.timeout = timeout
        self.report = report
        self.fault_plan = fault_plan
        self.stage = stage

    # -- public API ---------------------------------------------------

    def map(self, worker: Callable[[Any], Any], tasks: Iterable[Any]) -> List[Any]:
        """Run *worker* over *tasks*, returning one result slot per task.

        Slots hold the worker's return value, or :data:`QUARANTINED`
        for tasks that exhausted their retry budget.  Non-retryable
        exceptions propagate immediately (a programming error should
        fail the sweep loudly, not silently empty it).
        """

        task_list = list(tasks)
        if not task_list:
            return []
        if self.runs_inline(len(task_list)):
            return [
                self._run_inline(worker, task, index)
                for index, task in enumerate(task_list)
            ]
        return self._map_pooled(worker, task_list)

    # -- inline (serial) path -----------------------------------------

    def runs_inline(self, count: int) -> bool:
        """Whether ``count`` tasks would run in this process, without a pool."""
        if self.backend == "serial":
            return True
        if self.timeout is not None and self.backend == "process":
            # Deadlines are only enforceable against a killable worker
            # process — even a lone task must run in a pool of one.
            return False
        if self.workers <= 1:
            return True
        # Preserve the raw fan-out's single-task fast path unless a
        # supervision feature (fault injection) needs a pool.
        return count <= 1 and self.fault_plan is None

    def _run_inline(self, worker: Callable[[Any], Any], task: Any, index: int) -> Any:
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._invoke(worker, task, index, attempt, isolated=False)
            except Exception as error:
                disposition = self._on_failure(index, attempt, error)
                if disposition is None:
                    return QUARANTINED
                if disposition > 0:
                    time.sleep(disposition)

    def _invoke(
        self,
        worker: Callable[[Any], Any],
        task: Any,
        index: int,
        attempt: int,
        *,
        isolated: bool,
    ) -> Any:
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(self.stage, index, attempt, isolated)
            if fault is not None:
                return self.fault_plan.invoke(worker, task, fault)
        return worker(task)

    # -- failure bookkeeping ------------------------------------------

    def _label(self, index: int) -> str:
        return f"{self.stage}:{index}"

    def _on_failure(
        self, index: int, attempt: int, error: BaseException
    ) -> Optional[float]:
        """Classify a failed attempt.

        Returns the backoff delay in seconds when the task should be
        retried, ``None`` when it is quarantined.  Re-raises *error*
        when it is not retryable.
        """

        label = self._label(index)
        if not self.policy.is_retryable(error):
            raise error
        if attempt >= self.policy.max_attempts:
            if self.report is not None:
                self.report.quarantined += 1
            logger.error(
                "quarantining %s after %d attempts: %s: %s",
                label,
                attempt,
                type(error).__name__,
                error,
            )
            return None
        if self.report is not None:
            self.report.retried += 1
        pause = self.policy.delay_for(label, attempt)
        logger.warning(
            "%s failed (attempt %d/%d): %s: %s; retrying in %.3fs",
            label,
            attempt,
            self.policy.max_attempts,
            type(error).__name__,
            error,
            pause,
        )
        return pause

    # -- pooled path ---------------------------------------------------

    def _create_pool(self, backend: str) -> Tuple[str, Any]:
        """Build a ``backend`` pool, degrading process → thread → serial.

        Degradation triggers only when pool *construction* raises —
        e.g. ``/dev/shm`` unavailable or fork hitting ``EAGAIN`` — the
        failure mode sandboxed CI runners actually exhibit.
        """

        if backend == "process":
            try:
                return "process", concurrent.futures.ProcessPoolExecutor(self.workers)
            except (OSError, RuntimeError, ValueError) as error:
                self._note_degraded("process", "thread", error)
                backend = "thread"
        if backend == "thread":
            try:
                return "thread", concurrent.futures.ThreadPoolExecutor(self.workers)
            except (OSError, RuntimeError) as error:
                self._note_degraded("thread", "serial", error)
        return "serial", None

    def _note_degraded(self, src: str, dst: str, error: BaseException) -> None:
        logger.warning(
            "%s pool unavailable (%s: %s); degrading to %s backend",
            src,
            type(error).__name__,
            error,
            dst,
        )
        if self.report is not None:
            previous = getattr(self.report, "backend_degraded", None)
            step = f"{src}->{dst}"
            self.report.backend_degraded = (
                f"{previous},{step}" if previous else step
            )

    def _submit(
        self,
        pool: Any,
        worker: Callable[[Any], Any],
        task: Any,
        index: int,
        attempt: int,
        *,
        isolated: bool,
    ) -> Any:
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.fault_for(self.stage, index, attempt, isolated)
        if fault is not None:
            return pool.submit(self.fault_plan.invoke, worker, task, fault)
        return pool.submit(worker, task)

    @staticmethod
    def _kill_pool(pool: Any) -> None:
        """Tear a (possibly broken) process pool down without waiting."""

        processes = getattr(pool, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    process.kill()
                except (OSError, AttributeError):  # pragma: no cover - racy
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown of a broken pool
            pass

    def _map_pooled(
        self, worker: Callable[[Any], Any], task_list: Sequence[Any]
    ) -> List[Any]:
        kind, pool = self._create_pool(self.backend)
        if kind == "serial":
            return [
                self._run_inline(worker, task, index)
                for index, task in enumerate(task_list)
            ]

        total = len(task_list)
        results: List[Any] = [QUARANTINED] * total
        settled = 0
        attempts = [0] * total
        ready: List[int] = list(range(total))
        ready.reverse()  # popped from the end -> ascending task order
        delayed: List[Tuple[float, int]] = []  # (not_before, index) heap
        pending: dict = {}  # future -> (index, attempt, deadline)
        enforce_deadline = self.timeout is not None and kind == "process"
        # With a deadline or fault plan armed, keep exactly ``workers``
        # tasks in flight: a submitted task then starts immediately, so
        # its deadline clock never ticks while queued and a pool crash
        # charges at most one pool's worth of tasks.  Clean runs submit
        # everything up front instead — workers pull the next task the
        # moment they finish, without waiting for a parent wake-up.
        window = (
            self.workers
            if self.timeout is not None or self.fault_plan is not None
            else total
        )

        def settle(index: int, value: Any) -> None:
            nonlocal settled
            results[index] = value
            settled += 1

        def schedule_failure(index: int, attempt: int, error: BaseException) -> None:
            disposition = self._on_failure(index, attempt, error)
            if disposition is None:
                settle(index, QUARANTINED)
            else:
                heapq.heappush(delayed, (time.monotonic() + disposition, index))

        def respawn() -> None:
            nonlocal pool, kind, enforce_deadline
            self._kill_pool(pool)
            kind, pool = self._create_pool(self.backend)
            enforce_deadline = self.timeout is not None and kind == "process"

        try:
            while settled < total:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[1])

                if kind == "serial":
                    # Both pool flavours degraded away mid-run: drain
                    # everything still outstanding inline.
                    for index in sorted(ready + [entry[1] for entry in delayed]):
                        settle(index, self._run_inline(worker, task_list[index], index))
                    ready.clear()
                    delayed.clear()
                    continue

                while ready and len(pending) < window:
                    index = ready.pop()
                    attempts[index] += 1
                    attempt = attempts[index]
                    try:
                        future = self._submit(
                            pool, worker, task_list[index], index, attempt,
                            isolated=kind == "process",
                        )
                    except (OSError, RuntimeError) as error:
                        # Submission itself failed: the pool never got
                        # off the ground.  Degrade, requeueing this task
                        # and any sibling already submitted to the dead
                        # pool, without charging attempts.
                        attempts[index] -= 1
                        ready.append(index)
                        for stale_index, _attempt, _deadline in pending.values():
                            attempts[stale_index] -= 1
                            ready.append(stale_index)
                        pending.clear()
                        fallback = "thread" if kind == "process" else "serial"
                        self._note_degraded(kind, fallback, error)
                        self._kill_pool(pool)
                        kind, pool = self._create_pool(fallback)
                        enforce_deadline = False
                        break
                    deadline = (
                        now + self.timeout
                        if enforce_deadline and self.timeout is not None
                        else None
                    )
                    pending[future] = (index, attempt, deadline)

                if not pending:
                    if ready or kind == "serial":
                        continue
                    if delayed:
                        pause = max(0.0, delayed[0][0] - time.monotonic())
                        time.sleep(min(pause, _POLL_INTERVAL))
                        continue
                    break  # pragma: no cover - defensive; loop invariant

                wait_timeout = _POLL_INTERVAL
                if delayed:
                    wait_timeout = min(
                        wait_timeout, max(0.0, delayed[0][0] - time.monotonic())
                    )
                completed, _ = concurrent.futures.wait(
                    pending,
                    timeout=wait_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )

                crash_entries: List[Tuple[int, int]] = []
                for future in completed:
                    index, attempt, _deadline = pending.pop(future)
                    try:
                        value = future.result()
                    except concurrent.futures.BrokenExecutor:
                        # BrokenProcessPool and friends: the pool is
                        # dead; collect and handle below.
                        crash_entries.append((index, attempt))
                    except concurrent.futures.CancelledError:
                        attempts[index] -= 1
                        ready.append(index)
                    except Exception as error:
                        schedule_failure(index, attempt, error)
                    else:
                        settle(index, value)

                if crash_entries:
                    in_flight = crash_entries + [
                        (index, attempt)
                        for index, attempt, _deadline in pending.values()
                    ]
                    pending.clear()
                    if self.report is not None:
                        self.report.worker_crashes += 1
                        self.report.requeued += len(in_flight)
                    logger.warning(
                        "worker pool broke with %d task(s) in flight; "
                        "respawning and requeueing",
                        len(in_flight),
                    )
                    crash = WorkerCrashError(
                        f"worker pool broke during stage {self.stage!r}"
                    )
                    for index, attempt in in_flight:
                        schedule_failure(index, attempt, crash)
                    respawn()
                    continue

                if enforce_deadline and pending:
                    now = time.monotonic()
                    overdue = [
                        entry for entry in pending.values()
                        if entry[2] is not None and entry[2] <= now
                    ]
                    if overdue:
                        in_flight = list(pending.values())
                        pending.clear()
                        overdue_indexes = {entry[0] for entry in overdue}
                        if self.report is not None:
                            self.report.timeouts += len(overdue)
                            self.report.requeued += len(in_flight) - len(overdue)
                        logger.warning(
                            "%d task(s) exceeded the %.1fs deadline; "
                            "killing pool and requeueing %d in-flight task(s)",
                            len(overdue),
                            self.timeout or 0.0,
                            len(in_flight) - len(overdue),
                        )
                        for index, attempt, _deadline in in_flight:
                            if index in overdue_indexes:
                                schedule_failure(
                                    index,
                                    attempt,
                                    TaskTimeoutError(
                                        f"{self._label(index)} exceeded "
                                        f"{self.timeout}s deadline"
                                    ),
                                )
                            else:
                                # Innocent bystanders killed with the
                                # pool: requeue without charging.
                                attempts[index] -= 1
                                ready.append(index)
                        respawn()
        finally:
            if pool is not None:
                self._kill_pool(pool)
        return results


def raise_if_quarantined(results: Sequence[Any], stage: str) -> None:
    """Raise :class:`TaskQuarantinedError` if any slot was quarantined.

    For callers that cannot degrade to partial results (single-result
    APIs); batched sweeps inspect slots themselves instead.
    """

    bad = [index for index, value in enumerate(results) if value is QUARANTINED]
    if bad:
        raise TaskQuarantinedError(
            f"stage {stage!r} quarantined task(s) {bad} after repeated failures"
        )
