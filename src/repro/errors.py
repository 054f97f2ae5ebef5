"""Exception hierarchy for the JETTY reproduction library.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch library errors with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid structure, cache, or experiment configuration."""


class FilterNameError(ConfigurationError):
    """A JETTY configuration name could not be parsed.

    Raised by :func:`repro.core.config.parse_filter_name` for strings that
    do not match any of the paper's naming schemes (``EJ-SxA``,
    ``VEJ-SxA-V``, ``IJ-ExNxS``, ``HJ(IJ-..., EJ-...)``).
    """


class CoherenceError(ReproError):
    """The coherence substrate detected an inconsistent protocol state."""


class FilterSafetyError(ReproError):
    """A snoop filter violated the JETTY safety guarantee.

    The guarantee (paper Section 2, requirement 3): a filter must never
    report "not cached" while the block is locally cached.  The simulator
    cross-checks every filtered snoop against the true cache state and
    raises this error on a violation; it indicates a bug in a filter
    implementation, never an expected runtime condition.
    """


class InvariantError(ReproError):
    """A result broke a conservation law every correct run obeys.

    Checked in the production path just before evaluations are stored
    (:func:`repro.core.stats.check_evaluations`): a violation means a
    replay kernel miscounted, so the row is refused rather than stored.
    """


class TraceError(ReproError):
    """A malformed trace or access stream was supplied to the simulator."""


class WorkloadError(ReproError):
    """An unknown workload name or invalid workload specification."""


class ExecutionError(ReproError):
    """A sweep's task execution layer failed (worker, pool, or deadline).

    Base of the supervised-execution subtree.  Subclasses describe *how*
    a task attempt died; the :class:`repro.analysis.resilience.RetryPolicy`
    decides whether that failure mode is worth another attempt.
    """

    #: Whether this failure mode is transient by default — i.e. whether a
    #: fresh attempt of the same task can plausibly succeed.  RetryPolicy
    #: consults this for exception types it has no explicit opinion on.
    transient = False


class WorkerCrashError(ExecutionError):
    """A pool worker died abruptly (segfault, ``os._exit``, OOM kill).

    The task it was running never reported a result; the supervisor
    respawns the pool and requeues every in-flight task.  Transient by
    default: a crash usually indicts the worker (or the machine), not
    the task, so the task deserves another attempt.
    """

    transient = True


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task deadline and its worker was killed.

    Transient by default — a deadline miss on a loaded machine says
    nothing definitive about the task; repeated misses exhaust the
    retry budget and quarantine it.
    """

    transient = True


class TaskQuarantinedError(ExecutionError):
    """A task failed every allowed attempt and was set aside.

    Raised only when a caller demands a quarantined task's result;
    batched sweeps never raise it — they report the quarantine in the
    :class:`~repro.analysis.runner.ExecutionReport` and degrade to
    partial results instead.
    """


class ServiceError(ReproError):
    """The sweep service rejected or could not honour a request.

    Base of the service subtree (:mod:`repro.service`): protocol
    violations, malformed submissions, and capacity refusals all derive
    from here so clients can catch service-side failures with one
    clause while transport errors (socket resets, timeouts) propagate
    as their stdlib selves.
    """


class QueueFullError(ServiceError):
    """A submission would overflow the server's bounded pending queue.

    Carries ``retry_after`` — the seconds a well-behaved client should
    wait before retrying (the HTTP layer surfaces it as a 429 response
    with a ``Retry-After`` header).  Backpressure, not failure: the
    request was valid, the server is protecting itself.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class StoreCorruptionError(ReproError):
    """A stored payload failed validation (zlib, JSON, or structure).

    Raised by the ``decode_*`` family in :mod:`repro.analysis.store`
    when a blob does not decompress, parse, or reconstruct.  Corruption
    is a *store* condition, never a programming error: consumers either
    heal (delete the row and recompute — ``fsck``, the checkpoint
    resume ladder) or surface the key loudly.
    """
