"""Experiment engine: record once and replay many, or stream.

A JETTY filter sits beside the snoop path and never alters coherence
behaviour, so sweeping F filter configurations over one ``(workload,
system, seed)`` re-observes the *same* snoop stream F times.  The unit
of work is a :class:`SweepJob` (N filters over one simulation), the one
executor is :func:`execute`, and the front door is :func:`run_sweep`.
``execute`` has two modes built on that fact; both land their results
in an :class:`~repro.analysis.store.ExperimentStore` under shared keys:

* ``"replay"`` (the default).  The first run records the stream as a
  persisted trace (kind ``sim-events``: fixed-size compressed segments of
  packed events, written incrementally with O(segment) memory), and
  every filter configuration, including ones invented weeks later,
  replays the trace without instantiating caches, bus, or nodes.
  Recordings run as the supervised ``record`` stage and replays as the
  ``replay`` stage; replay workers open the store read-only and decode
  segments independently, so a warm sweep costs O(filters x replay)
  instead of O(filters x simulation).
* ``"stream"`` (``--stream``).  One single pass with every requested
  filter attached live: the simulation emits bounded event *shards* (see
  the shard/marker protocol in :mod:`repro.coherence.smp`), every filter
  consumes each shard as it appears, and only metrics and evaluations
  are stored.  Memory is O(chunk) and nothing but results is persisted.
  Passes run as the supervised ``stream`` stage.

Both modes drive the machine through the one loop,
:func:`repro.coherence.smp.simulate_streaming`, and every simulating
task (a recording or a streamed pass) is a store client: it writes its
rows itself, inline into the parent's store, over its own connection to
a SQLite file, or into a scratch store whose rows ship back.

Misses run inline or on a pluggable executor backend (``serial``,
``process`` (a supervised process pool, the default) or ``thread``).
Fan-out is *supervised* (see :mod:`repro.analysis.resilience`): worker
crashes respawn the pool and requeue in-flight tasks, per-task deadlines
kill stuck workers, failed attempts retry with deterministic backoff,
and a task that exhausts its budget is quarantined: the sweep completes
with partial results and the :class:`ExecutionReport` says exactly what
happened.

**Determinism contract.**  A job is a pure function of its inputs.
Every worker derives its random stream from the job's explicit seed (see
:func:`repro.traces.workloads.build_workload_stream`), so a parallel run
produces *bitwise identical* store payloads to a serial run of the same
jobs; the determinism tests diff the two stores byte for byte.  The
contract extends across modes: for the same ``(spec, system, seed)`` a
streamed evaluation's payload is byte-identical to a replayed one's,
whatever the chunk size, replayer, or worker count, which is why
both modes share one ``eval`` keyspace.

**Checkpointing.**  Streamed runs and recordings accept a
``checkpoint_every`` cadence.  Every N stream accesses the loop stops
and the run's save callback snapshots its *complete* logical state
(caches, write buffers, bus, filter banks, trace-sink watermarks,
generator) into the store (kind ``checkpoint``); a warm start walks the
resume ladder (:func:`_resume_latest`) and hands the restored machine
back to the same loop at the snapshot's position instead of access 0.
Snapshots ride the uniform ``snapshot()``/``restore()`` protocol every
stateful layer implements; restore rebuilds each layer's derived
fast-path state, and the determinism contract extends to interruption:
a killed-and-resumed run produces byte-identical metrics, evaluations,
and recorded trace segments.  With ``checkpoint_every=None`` nothing is
saved and no chain is probed.  Completed runs retire their checkpoint
chains; ``repro checkpoint list|info|rm`` inspects or drops leftovers.

Jobs are sorted by store key before submission, so insertion order (and
therefore the store file) is independent of the caller's iteration
order.
"""

from __future__ import annotations

import base64
import logging
import sqlite3
import time
import urllib.parse
import zlib
from dataclasses import dataclass, field
from functools import partial

from repro.analysis import store as store_mod
from repro.analysis.resilience import (
    EXECUTOR_BACKENDS,
    QUARANTINED,
    RetryPolicy,
    SQLITE_RETRY_POLICY,
    SupervisedExecutor,
    retry_call,
)
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.metrics import SimResult
from repro.coherence.smp import (
    DEFAULT_CHUNK_SIZE,
    SMPSystem,
    TRACE_SEGMENT_EVENTS,
    TraceSink,
    # Every simulation goes through this binding: perfbench's tracer
    # patches it as the ``coherence`` span.
    simulate_streaming,
)
from repro.core.config import build_filter, parse_filter_name
from repro.core.stats import (
    FilterEvaluation,
    LiveBanks,
    StreamingFilterBank,
    TraceReader,
    check_evaluations,
    replay_trace,
)
from repro.errors import (
    ConfigurationError,
    ReproError,
    StoreCorruptionError,
    TaskQuarantinedError,
)
from repro.traces.workloads import (
    WorkloadSpec,
    get_workload,
    override_spec,
    resume_stream,
    simulate_workload_accesses,
    stream_fingerprint,
)

_logger = logging.getLogger("repro.runner")

#: A representative sweep when the CLI is given no ``--filters``: the best
#: member of each family plus the paper's headline hybrid.
DEFAULT_SWEEP_FILTERS = (
    "EJ-32x4",
    "VEJ-32x4-8",
    "IJ-10x4x7",
    "HJ(IJ-10x4x7, EJ-32x4)",
)


#: The two ways :func:`execute` runs a batch of jobs.
MODES = ("replay", "stream")


@dataclass(frozen=True)
class SweepJob:
    """N filter configurations over one simulation: the unit of work.

    ``spec`` is the resolved workload (every override already applied),
    so the job alone names its simulation ``(spec, system, seed)``.  In
    ``replay`` mode the simulation is recorded once as a trace and every
    filter replays it; an empty ``filter_names`` is a pure record job.
    In ``stream`` mode every filter rides one live pass.  ``chunk_size``
    tunes memory only: by the determinism contract it can never change a
    stored byte, so it is absent from all keys.
    """

    spec: WorkloadSpec
    filter_names: tuple[str, ...] = ()
    system: SystemConfig = SCALED_SYSTEM
    seed: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE


# ----------------------------------------------------------------------
# Pure compute kernels (shared by the serial path and pool workers)
# ----------------------------------------------------------------------

def _phase_plan(spec: WorkloadSpec) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """``(phase_marks, phase_names)`` of a spec; ``((), ())`` when plain.

    The one place the runner derives phase structure: marks are absolute
    stream positions (warm-up included) fed to the simulation layer,
    names label the per-phase splits in every evaluation.  Plain
    workloads yield empty tuples, so every phase-less code path —
    including its stored payload bytes — is exactly what it always was.
    """
    if not getattr(spec, "phases", ()):
        return (), ()
    return spec.phase_marks(), spec.phase_names()


def _build_filters(filter_name: str, system: SystemConfig) -> list:
    """One freshly built filter per node for one configuration."""
    config = parse_filter_name(filter_name)
    return [
        build_filter(
            config,
            counter_bits=system.ij_counter_bits,
            addr_bits=system.block_address_bits,
        )
        for _ in range(system.n_cpus)
    ]


def _build_bank(
    filter_name: str,
    system: SystemConfig,
    phase_names: tuple[str, ...] = (),
) -> StreamingFilterBank:
    """One filter bank, live or replaying: a freshly built filter per node.

    Live, checkpointed and replay call sites all build banks here, so
    every path picks its per-node replayers the same way (see
    :class:`~repro.core.stats.StreamingFilterBank`).  ``phase_names``
    labels PHASE-marker splits in the finished evaluations.
    """
    return StreamingFilterBank(
        _build_filters(filter_name, system), phase_names=phase_names
    )


def compute_stream(
    spec: WorkloadSpec,
    system: SystemConfig,
    seed: int,
    filter_names: tuple[str, ...] = (),
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    checkpoint_every: int | None = None,
    experiment_store: ExperimentStore | None = None,
) -> tuple[SimResult, dict[str, FilterEvaluation]]:
    """Run one streaming simulation with all ``filter_names`` attached.

    Returns the metrics-only result plus one merged evaluation per
    filter.  Every number is identical to what recording the run and
    replaying its trace produces; memory stays O(chunk_size).

    With ``checkpoint_every`` (which requires ``experiment_store``), the
    run snapshots its complete state — caches, write buffers, bus,
    filter banks, generator — into the store every that many accesses
    and warm-starts from the latest stored checkpoint, so a killed run
    repeats only the tail since its last snapshot.  The returned values
    are byte-for-byte what an uninterrupted (or checkpoint-free) run
    produces; the run's checkpoint chain is deleted on completion.
    """
    if checkpoint_every is not None and experiment_store is None:
        raise ConfigurationError(
            "checkpoint_every needs an experiment_store to keep "
            "checkpoints in"
        )
    metrics, evaluations, _sink, chain = _run_simulation(
        spec, system, seed, tuple(filter_names), chunk_size,
        checkpoint_every=checkpoint_every, experiment_store=experiment_store,
    )
    if chain is not None:
        experiment_store.delete_group(store_mod.CHECKPOINT_KIND, chain)
    return metrics, evaluations


# ----------------------------------------------------------------------
# One streaming run, checkpointed or not (mid-run snapshot / resume)
# ----------------------------------------------------------------------

#: Layout of a checkpoint snapshot.  Version 4: the ``stream`` field
#: pickles the phased :class:`~repro.traces.synth.MixStream` with its
#: MT19937 state and pattern state in flat arrays, each L1 snapshots its
#: line words, and each L2 its frames as ``[block, states, in_l1]``
#: (direct-mapped: no way field, no LRU orders); a chain written under
#: any other version is discarded and the run restarts.
_SNAPSHOT_VERSION = 4


def _load_latest_checkpoint(
    experiment_store: ExperimentStore, chain: str, validate=None
) -> tuple[str, dict] | None:
    """The newest usable checkpoint of a chain, as ``(key, state)``.

    Candidates are tried highest watermark first; one that fails to
    decode, carries an unknown snapshot version, or fails ``validate``
    is *deleted* and the previous watermark is tried — the resume
    ladder the interrupted-recording satellite requires (a truncated
    final segment must send the run back one checkpoint, never crash
    it).  The key rides along so the caller can extend the same
    treatment to restore-time failures.
    """
    candidates = []
    for key in experiment_store.group_keys(store_mod.CHECKPOINT_KIND, chain):
        blob = experiment_store.get_blob(key)
        if blob is None:  # pragma: no cover - raced deletion
            continue
        try:
            state = store_mod.decode_checkpoint(blob)
            position = int(state["position"])
            usable = state.get("version") == _SNAPSHOT_VERSION
        except (StoreCorruptionError, KeyError, ValueError, TypeError) as error:
            # Corrupt or structurally wrong snapshot: fall back one
            # watermark, loudly — silent swallowing hid corruption.
            _logger.warning("discarding unusable checkpoint %s: %s", key, error)
            usable = False
        if not usable:
            experiment_store.delete_key(key)
            continue
        candidates.append((position, key, state))
    for _position, key, state in sorted(candidates, reverse=True):
        if validate is None or validate(state):
            return key, state
        experiment_store.delete_key(key)
    return None


def _validate_recording(
    experiment_store: ExperimentStore, tkey: str, sink_state: dict
) -> bool:
    """Check a checkpoint's recorded segments are durable and intact.

    Every segment below the snapshot's watermark must be present, and
    the *last* one per node must decompress to exactly the segment size
    with the CRC the sink computed when writing it — the last write is
    the one an interruption can truncate.  A bad final segment is
    deleted (the resume from the previous watermark rewrites it
    byte-identically); any failure makes the whole checkpoint unusable.
    """
    segment_bytes = sink_state["segment_bytes"]
    for node_id, count in enumerate(sink_state["next_index"]):
        if count == 0:
            continue
        for index in range(count - 1):
            key = store_mod.trace_segment_key(tkey, node_id, index)
            if not experiment_store.contains(key):
                return False
        last_key = store_mod.trace_segment_key(tkey, node_id, count - 1)
        blob = experiment_store.get_blob(last_key)
        if blob is None:
            return False
        try:
            events = store_mod.decode_trace_segment(blob)
            raw = events.tobytes()
        except StoreCorruptionError as error:
            _logger.warning(
                "discarding truncated tail segment %s: %s", last_key, error
            )
            experiment_store.delete_key(last_key)
            return False
        crc = sink_state["last_segment_crc"][node_id]
        if len(raw) != segment_bytes or (
            crc is not None and zlib.crc32(raw) != crc
        ):
            experiment_store.delete_key(last_key)
            return False
    return True


def _resume_latest(
    experiment_store: ExperimentStore,
    chain: str,
    build_fresh,
    fingerprint: str,
    validate=None,
):
    """The resume ladder: ``(layers, stream, position)`` of a chain.

    ``layers`` is a fresh ``(system, banks, sink)`` from
    ``build_fresh``.  The newest checkpoint that loads and validates
    (see :func:`_load_latest_checkpoint`) is restored into them; one
    that then fails to *restore* (a structurally damaged payload, or a
    stream generated under a different spec/profile/seed/topology) is
    deleted like any other bad checkpoint, the partially mutated layers
    are rebuilt fresh, and the next-lower watermark is tried — a bad
    snapshot must never brick the chain.  With nothing to resume,
    returns fresh layers, ``None`` and 0.
    """
    layers = build_fresh()
    while True:
        loaded = _load_latest_checkpoint(experiment_store, chain, validate)
        if loaded is None:
            return layers, None, 0
        key, state = loaded
        system, banks, sink = layers
        try:
            system.restore(state["system"])
            for name, bank in banks.items():
                bank.restore(state["banks"][name])
            if sink is not None:
                sink.restore(state["sink"])
            stream = resume_stream(
                base64.b64decode(state["stream"]), fingerprint
            )
            return layers, stream, int(state["position"])
        except (ReproError, KeyError, ValueError, TypeError,
                IndexError) as error:
            # Structural damage surfaces as TraceError or
            # StoreCorruptionError from the layers' restore methods, an
            # unreadable stream pickle or a diverged stream fingerprint
            # as ConfigurationError,
            # missing/mistyped fields as the builtin errors.
            _logger.warning(
                "checkpoint %s failed to restore (%s: %s); "
                "falling back to the previous watermark",
                key, type(error).__name__, error,
            )
            experiment_store.delete_key(key)
            layers = build_fresh()


def _run_simulation(
    spec: WorkloadSpec,
    system_cfg: SystemConfig,
    seed: int,
    filter_names: tuple[str, ...],
    chunk_size: int,
    *,
    checkpoint_every: int | None = None,
    experiment_store: ExperimentStore | None = None,
    new_sink=None,
    tkey: str | None = None,
    report: ExecutionReport | None = None,
) -> tuple[SimResult, dict[str, FilterEvaluation], TraceSink | None,
           str | None]:
    """One streaming run of ``spec`` with ``filter_names`` attached live.

    ``new_sink`` (a zero-argument :class:`TraceSink` factory) makes the
    run a recording of trace ``tkey``; a fresh recording first drops any
    stale rows under that key.  The loop is
    :func:`repro.coherence.smp.simulate_streaming`.

    With ``checkpoint_every`` the run belongs to a checkpoint chain: it
    starts from the newest usable checkpoint (:func:`_resume_latest`;
    for a recording, one whose segments are durable) and every
    ``checkpoint_every`` stream accesses saves a snapshot of every
    layer — machine, filter banks, trace sink, generator — pruning its
    own chain to the newest two.  By the determinism contract the
    results (and every written segment) are byte-identical to an
    uninterrupted run's, whatever the chunk size of either attempt.

    Returns ``(metrics, evaluations, sink, chain)`` with ``chain`` set
    when checkpointing; the *caller* owns finishing the sink (tail
    segments/manifest) and retiring the chain once its results are
    durable.
    """
    warmup = spec.warmup_accesses
    marks, phase_names = _phase_plan(spec)

    def build_fresh():
        # One StreamingFilterBank per configuration; the run feeds them as
        # one LiveBanks consumer, so each node shard is walked once for
        # every compiled bank.  On perfbench stream-em3d (2-core host,
        # three sets of 10 interleaved pairs) that gave +12% to +18%
        # accesses/s over one walk per bank, peak RSS within 0.25 MB.
        return (
            SMPSystem(system_cfg),
            {
                name: _build_bank(name, system_cfg, phase_names=phase_names)
                for name in filter_names
            },
            None if new_sink is None else new_sink(),
        )

    chain = save = None
    if checkpoint_every is None:
        (system, banks, sink), stream, start = build_fresh(), None, 0
    else:
        chain = store_mod.checkpoint_chain_key(
            spec, system_cfg, seed, filter_names, new_sink is not None
        )
        validate = None
        if new_sink is not None:
            def validate(state):
                return _validate_recording(
                    experiment_store, tkey, state["sink"]
                )

        (system, banks, sink), stream, start = _resume_latest(
            experiment_store, chain, build_fresh,
            stream_fingerprint(
                spec, n_cpus=system_cfg.n_cpus, seed=seed,
                include_warmup=True,
            ),
            validate,
        )
        if stream is not None and report is not None:
            report.checkpoints_resumed += 1
            report.resumed_accesses = start
        mkey = store_mod.sim_metrics_key(spec, system_cfg, seed)
        saved: list[int] = []

        def save(machine: SMPSystem, position: int) -> None:
            save_started = time.perf_counter()
            state = {
                "version": _SNAPSHOT_VERSION,
                "workload": spec.name,
                "n_cpus": system_cfg.n_cpus,
                "seed": seed,
                "filters": sorted(banks),
                "record": sink is not None,
                "position": position,
                "measured": warmup <= 0 or position > warmup,
                "mkey": mkey,
                "tkey": tkey,
                "system": machine.snapshot(),
                "banks": {
                    name: bank.snapshot() for name, bank in banks.items()
                },
                "sink": None if sink is None else sink.snapshot(),
                "stream": base64.b64encode(stream.checkpoint()).decode("ascii"),
            }
            experiment_store.put_blob(
                store_mod.checkpoint_key(chain, position),
                store_mod.encode_checkpoint(state),
                kind=store_mod.CHECKPOINT_KIND,
                workload=spec.name,
                filter_name=chain,
                n_cpus=system_cfg.n_cpus,
                seed=seed,
            )
            # Keep the chain short while the run lives: the resume
            # ladder only ever wants the newest snapshot plus one
            # fallback, so older rows written by *this* run are pruned.
            # Rows inherited from a killed attempt are left for
            # completion (or gc) to clear.
            saved.append(position)
            if len(saved) > 2:
                experiment_store.delete_key(
                    store_mod.checkpoint_key(chain, saved.pop(0))
                )
            if report is not None:
                report.checkpoints_written += 1
                report.checkpoint_seconds += (
                    time.perf_counter() - save_started
                )

    if stream is None:
        if sink is not None:
            # Fresh recording: stale segments from an interrupted or
            # partially collected attempt must never mix with new ones.
            experiment_store.delete_trace(tkey)
        stream, _warmup = simulate_workload_accesses(
            spec, n_cpus=system_cfg.n_cpus, seed=seed
        )
    consumers = [LiveBanks(banks.values())]
    if sink is not None:
        consumers.append(sink)
    metrics = simulate_streaming(
        system, stream, spec.name,
        warmup=warmup, chunk_size=chunk_size, sinks=consumers,
        phase_marks=marks, start=start,
        checkpoint_every=checkpoint_every, on_checkpoint=save,
    )
    evaluations = {name: bank.finish() for name, bank in banks.items()}
    return metrics, evaluations, sink, chain


#: The :class:`ExecutionReport` counters a store-writing task ships back
#: to the parent's report.
_CHECKPOINT_COUNTERS = (
    "checkpoints_written",
    "checkpoints_resumed",
    "resumed_accesses",
    "checkpoint_seconds",
)


def _store_client(path, experiment_store, work):
    """Run ``work(store, report)`` as a store-writing task.

    Run inline, the task writes straight into the parent's
    ``experiment_store``.  In a pool worker a persistent store is opened
    over the worker's own connection, so rows land in the shared file as
    the task advances (every ``put_blob`` retries under
    ``SQLITE_RETRY_POLICY``, so sibling writers contend safely) and only
    counters cross the process boundary.  An in-memory store has nothing
    to share: the task writes into a scratch store whose rows ship back
    for the parent to insert.  Returns ``(rows, checkpoint_counters)``.
    """
    store = experiment_store
    if store is None:
        store = ExperimentStore(path)
    local = ExecutionReport()
    try:
        work(store, local)
        rows = []
        if store is not experiment_store and path is None:
            rows = [
                (entry, store.get_blob(entry.key)) for entry in store.entries()
            ]
        return rows, {
            name: getattr(local, name) for name in _CHECKPOINT_COUNTERS
        }
    finally:
        if store is not experiment_store:
            store.close()


def _absorb(experiment_store, report, outcome) -> None:
    """Land a simulating task's shipped rows and counters; count its run."""
    rows, counters = outcome
    for entry, blob in rows:
        experiment_store.put_blob(
            entry.key, blob, kind=entry.kind,
            workload=entry.workload, filter_name=entry.filter_name,
            n_cpus=entry.n_cpus, seed=entry.seed,
        )
    for name, value in counters.items():
        setattr(report, name, getattr(report, name) + value)
    report.sims_run += 1


def _stream_task(task, experiment_store: ExperimentStore | None = None):
    """Worker entry of the ``stream`` stage: one fused streaming pass.

    ``names`` is the filter set riding the pass and ``pairs`` lists the
    ``(eval_key, filter_name)`` evaluations it must store.  The task is
    a store client (see :func:`_store_client` for where it writes): it
    lands its checkpoints, the metrics row and the evaluations, then
    retires its checkpoint chain once those are durable.
    """
    path, spec, system, seed, names, pairs, options = task

    def work(store: ExperimentStore, report: ExecutionReport) -> None:
        metrics, evaluations, _sink, chain = _run_simulation(
            spec, system, seed, names,
            experiment_store=store, report=report, **options,
        )
        with store.batch():
            store.put_sim_metrics_blob(
                store_mod.sim_metrics_key(spec, system, seed),
                store_mod.encode_sim_metrics(metrics),
                workload=spec.name, n_cpus=system.n_cpus, seed=seed,
            )
            check_evaluations([evaluations[name] for _ekey, name in pairs])
            for ekey, name in pairs:
                store.put_eval_blob(
                    ekey, store_mod.encode_eval(evaluations[name]),
                    workload=spec.name, filter_name=name,
                    n_cpus=system.n_cpus, seed=seed,
                )
        if chain is not None:
            store.delete_group(store_mod.CHECKPOINT_KIND, chain)

    return _store_client(path, experiment_store, work)


def _map_tasks(
    worker, tasks, *, workers: int, backend: str | None, stage: str,
    report: ExecutionReport, policy: RetryPolicy | None,
    task_timeout: float | None, fault_plan,
    inline_store: ExperimentStore | None = None,
):
    """Run ``worker`` over ``tasks`` on the selected executor backend.

    Results come back in task order on every backend, so the parent
    inserts them into the store in a deterministic sequence — which
    executor ran a task can never change a stored byte.  Execution is
    supervised (:class:`~repro.analysis.resilience.SupervisedExecutor`):
    worker crashes respawn the pool and requeue in-flight tasks,
    ``task_timeout`` enforces per-task deadlines on the process
    backend, and a task that exhausts its retry budget comes back as
    the :data:`~repro.analysis.resilience.QUARANTINED` sentinel in its
    slot — callers skip those slots and the sweep degrades to partial
    results.  All supervision events are counted on ``report``.

    When the executor runs the tasks in this process, ``inline_store``
    (if given) is passed to ``worker`` as ``experiment_store=``, so a
    store-writing task writes straight into the parent's store.
    """
    executor = SupervisedExecutor(
        min(max(1, workers), max(1, len(tasks))),
        backend=backend or "process", policy=policy, timeout=task_timeout,
        report=report, fault_plan=fault_plan, stage=stage,
    )
    if inline_store is not None and executor.runs_inline(len(tasks)):
        worker = partial(worker, experiment_store=inline_store)
    return executor.map(worker, tasks)


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------

@dataclass
class ExecutionReport:
    """What one batched run actually did (cache hits vs fresh work)."""

    sims_run: int = 0
    sims_cached: int = 0
    evals_run: int = 0
    evals_cached: int = 0
    workers: int = 1
    elapsed_seconds: float = 0.0
    #: Mid-run checkpoints written during this batch (``checkpoint_every``).
    checkpoints_written: int = 0
    #: Runs that warm-started from a stored checkpoint instead of access 0.
    checkpoints_resumed: int = 0
    #: Access watermark the most recent resume started from.
    resumed_accesses: int = 0
    #: Wall time spent snapshotting + writing checkpoints (the pause a
    #: run pays for resumability; the rest of the loop is untouched).
    checkpoint_seconds: float = 0.0
    #: Task attempts re-run after a failure of their own (a raised
    #: transient error or a deadline miss).
    retried: int = 0
    #: Tasks resubmitted because a pool-level event (worker crash,
    #: deadline kill) took them down while in flight.
    requeued: int = 0
    #: Tasks that failed every allowed attempt and were set aside; their
    #: results are missing and the sweep reports partial coverage.
    quarantined: int = 0
    #: Per-task deadline misses (process backend only).
    timeouts: int = 0
    #: Worker-pool breakages detected and recovered by respawning.
    worker_crashes: int = 0
    #: ``"process->thread"`` etc. when pool creation failed and the
    #: executor fell back to a slower backend; ``None`` when the
    #: requested backend ran.
    backend_degraded: str | None = None

    def summary(self) -> str:
        text = (
            f"sims: {self.sims_run} run / {self.sims_cached} cached; "
            f"evals: {self.evals_run} run / {self.evals_cached} cached; "
            f"workers: {self.workers}; "
            f"wall time {self.elapsed_seconds:.2f}s"
        )
        if self.checkpoints_resumed == 1:
            text += (
                f"; resumed from checkpoint @ {self.resumed_accesses:,} "
                "accesses"
            )
        elif self.checkpoints_resumed:
            # Several runs resumed; a single watermark would misattribute.
            text += (
                f"; resumed from checkpoints ({self.checkpoints_resumed} "
                "runs)"
            )
        if self.checkpoints_written:
            text += f"; checkpoints: {self.checkpoints_written} written"
        # Fault accounting only when something actually went wrong, so
        # clean-run summaries keep their historical shape.
        faults = [
            f"{count} {label}"
            for count, label in (
                (self.quarantined, "quarantined"),
                (self.retried, "retried"),
                (self.requeued, "requeued"),
                (self.timeouts, "timed out"),
                (self.worker_crashes, "pool crashes"),
            )
            if count
        ]
        if faults:
            text += f"; faults: {', '.join(faults)}"
        if self.backend_degraded:
            text += f"; backend degraded: {self.backend_degraded}"
        return text


# ----------------------------------------------------------------------
# Record-once / replay-many execution (persisted traces)
# ----------------------------------------------------------------------

def record_trace(
    spec: WorkloadSpec,
    system: SystemConfig,
    seed: int,
    *,
    experiment_store: ExperimentStore,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_every: int | None = None,
    report: ExecutionReport | None = None,
    segment_events: int = TRACE_SEGMENT_EVENTS,
) -> SimResult:
    """Simulate once, persisting the packed event shards as a trace.

    One streaming pass with a :class:`~repro.coherence.smp.TraceSink`
    attached: segments are compressed and written to the store *as the
    simulation advances* (O(segment) memory, never O(trace)), the
    manifest — per-node segment/event counts plus the run's metrics —
    lands last, and the ``sim-metrics`` row is stored too if missing, so
    a recording warms every metrics consumer exactly like a plain
    streamed run.  When starting fresh, any pre-existing rows under this
    trace key are dropped first: stale segments from an interrupted or
    partially collected recording must never mix with fresh ones.
    Returns the metrics-only result.

    With ``checkpoint_every``, the recording snapshots its state (the
    machine *and* the sink's segment watermarks) at that access cadence;
    an interrupted recording then resumes at its last durable segment
    instead of re-recording from scratch.  The resume first validates
    the newest recorded segment per node against the checkpoint's CRC —
    a truncated final segment is dropped and the run falls back to the
    previous watermark.  Either way the recorded bytes equal an
    uninterrupted recording's exactly.
    """
    tkey = store_mod.trace_key(spec, system, seed)

    def write_segment(node_id: int, index: int, raw: bytes) -> None:
        experiment_store.put_blob(
            store_mod.trace_segment_key(tkey, node_id, index),
            store_mod.encode_trace_segment(raw), kind=store_mod.TRACE_KIND,
            workload=spec.name, filter_name=tkey, n_cpus=system.n_cpus,
            seed=seed,
        )

    def new_sink() -> TraceSink:
        return TraceSink(system.n_cpus, write_segment, segment_events)

    metrics, _evaluations, sink, chain = _run_simulation(
        spec, system, seed, (), chunk_size,
        checkpoint_every=checkpoint_every,
        experiment_store=experiment_store,
        new_sink=new_sink, tkey=tkey, report=report,
    )
    # The tail segments, the manifest and the metrics row share one
    # commit.  Earlier segments committed as the sink wrote them, so a
    # long recording never holds the write lock.
    with experiment_store.batch():
        segments_per_node = sink.finish()
        manifest = {
            "version": 1,
            "workload": spec.name,
            "n_cpus": system.n_cpus,
            "seed": seed,
            "segments_per_node": segments_per_node,
            "events_per_node": list(sink.events_per_node),
            "metrics": store_mod.sim_metrics_to_dict(metrics),
        }
        experiment_store.put_blob(
            tkey, store_mod.encode_trace_manifest(manifest),
            kind=store_mod.TRACE_KIND, workload=spec.name, filter_name=None,
            n_cpus=system.n_cpus, seed=seed,
        )
        mkey = store_mod.sim_metrics_key(spec, system, seed)
        if not experiment_store.contains(mkey):
            experiment_store.put_sim_metrics(mkey, metrics, seed=seed)
    if chain is not None:
        # Manifest and metrics are durable — the chain is now stale.
        experiment_store.delete_group(store_mod.CHECKPOINT_KIND, chain)
    return metrics


def load_trace(
    experiment_store: ExperimentStore, tkey: str
) -> tuple[dict, list[list[str]]] | None:
    """Fetch a trace's manifest and verify every segment is present.

    Returns ``(manifest, segment_keys_by_node)``, or ``None`` when the
    manifest is missing *or any segment row is gone* (e.g. after a
    partial external deletion) — an incomplete trace must look absent so
    the caller re-records rather than replaying a truncated stream.  The
    presence checks double as LRU touches, keeping a replayed trace's
    rows fresh as one unit.
    """
    blob = experiment_store.get_blob(tkey)
    if blob is None:
        return None
    manifest = store_mod.decode_trace_manifest(blob)
    if manifest.get("measured_only"):
        # Older stores hold measured-only traces (warm-up events swapped
        # for a filter-state snapshot) that replay no longer restores;
        # they look absent, so the next replay re-records a full trace
        # under the same key.
        return None
    segment_keys = [
        [store_mod.trace_segment_key(tkey, node_id, index)
         for index in range(count)]
        for node_id, count in enumerate(manifest["segments_per_node"])
    ]
    for node_keys in segment_keys:
        for key in node_keys:
            if not experiment_store.contains(key):
                return None
    return manifest, segment_keys


def _segment_payload(
    experiment_store: ExperimentStore, segment_keys: list[list[str]]
) -> tuple[str | None, list[list]]:
    """The ``(path, segments)`` half of a replay task.

    Persistent stores ship their path plus the segment *keys* — workers
    open the file read-only and fetch one segment at a time (O(segment)
    memory); in-memory stores have no file, so the compressed blobs ride
    in the task itself.
    """
    if experiment_store.path is not None:
        return str(experiment_store.path), segment_keys
    return None, [
        [experiment_store.get_blob(key) for key in node_keys]
        for node_keys in segment_keys
    ]


def _replay_task(task) -> list[tuple[str, bytes]] | StoreCorruptionError:
    """Worker entry: replay one trace through one or more filters.

    Returns the encoded evaluations, or the :class:`StoreCorruptionError`
    of a segment that is gone or does not decode, so that the caller
    dooms and re-records the trace.

    ``segments`` is either per-node lists of *store keys* (``path`` set:
    the worker opens the store file read-only — with SQLite's mmap I/O
    where available — and fetches payloads itself, so nothing heavy
    crosses the process boundary) or per-node lists of already-compressed
    blobs (in-memory stores).  Each segment is decoded once and fed to
    every requested bank via the shared :func:`replay_trace` kernel.
    """
    path, segments, system, pairs, phase_names = task
    connection = None
    if path is not None:
        # Percent-encode the filesystem path: a raw '?', '#', or '%' in
        # it would be parsed as URI syntax and open the wrong file.
        # The open retries on transient contention ("database is
        # locked"/"busy"): the parent holds a writer connection, and a
        # replay worker racing one of its commits must not fail the
        # whole task over a lock that clears in milliseconds.
        quoted = urllib.parse.quote(path, safe="/:")
        connection = retry_call(
            lambda: sqlite3.connect(f"file:{quoted}?mode=ro", uri=True),
            policy=SQLITE_RETRY_POLICY,
            label="replay-store-open",
        )
        try:
            connection.execute("PRAGMA mmap_size = 268435456")
        except sqlite3.Error:  # pragma: no cover - pragma support varies
            pass

        def fetch(node_id: int, index: int):
            row = retry_call(
                lambda: connection.execute(
                    "SELECT payload FROM results WHERE key = ?",
                    (segments[node_id][index],),
                ).fetchone(),
                policy=SQLITE_RETRY_POLICY,
                label="replay-segment-fetch",
            )
            if row is None:
                # load_trace checked presence; a vanish since then is
                # corruption.
                raise StoreCorruptionError(
                    f"trace segment {index} of node {node_id} vanished "
                    "from the store mid-replay"
                )
            return store_mod.decode_trace_segment(row[0])
    else:
        def fetch(node_id: int, index: int):
            return store_mod.decode_trace_segment(segments[node_id][index])

    try:
        banks = [
            (ekey, _build_bank(name, system, phase_names))
            for ekey, name in pairs
        ]
        reader = TraceReader([len(keys) for keys in segments], fetch)
        try:
            replay_trace(reader, [bank for _ekey, bank in banks])
        except StoreCorruptionError as error:
            return error
        evaluations = [(ekey, bank.finish()) for ekey, bank in banks]
        check_evaluations([evaluation for _ekey, evaluation in evaluations])
        return [
            (ekey, store_mod.encode_eval(evaluation))
            for ekey, evaluation in evaluations
        ]
    finally:
        if connection is not None:
            connection.close()


def _record_task(task, experiment_store: ExperimentStore | None = None):
    """Worker entry of the ``record`` stage: record one trace.

    A store client like every simulation task (see :func:`_store_client`
    for where it writes): segments, manifest and metrics land as the
    recording advances.
    """
    path, spec, system, seed, options = task
    return _store_client(
        path, experiment_store,
        lambda store, report: record_trace(
            spec, system, seed, experiment_store=store, report=report,
            **options,
        ),
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

@dataclass
class _Group:
    """The jobs on one simulation, fused: the first job names the run."""

    job: SweepJob
    mkey: str
    tkey: str
    #: ``eval_key -> filter_name`` over the union of the jobs' filters.
    filters: dict[str, str] = field(default_factory=dict)
    #: A pure record job (empty ``filter_names``) asked for the trace.
    record: bool = False


def _pending(jobs, mode: str, experiment_store: ExperimentStore,
             report: ExecutionReport):
    """Fuse ``jobs`` by simulation; yield each ``(group, missing_pairs)``.

    Groups come in store-key order (the trace key when replaying, the
    metrics key when streaming), so insertion order never depends on the
    caller's.  ``missing_pairs`` lists the ``(eval_key, filter_name)``
    evaluations not yet stored; stored ones count as cached, here for
    both modes.  Lazily, so each group's presence checks run just
    before its stage looks at it.
    """
    groups: dict[str, _Group] = {}
    for job in jobs:
        spec, system, seed = job.spec, job.system, job.seed
        tkey = store_mod.trace_key(spec, system, seed)
        if tkey not in groups:
            groups[tkey] = _Group(
                job, store_mod.sim_metrics_key(spec, system, seed), tkey
            )
        group = groups[tkey]
        group.record = group.record or not job.filter_names
        keys = store_mod.eval_keys(spec, job.filter_names, system, seed)
        group.filters.update((key, name) for name, key in keys.items())
    for group in sorted(groups.values(), key=lambda group: (
        group.tkey if mode == "replay" else group.mkey
    )):
        pairs = []
        for ekey in sorted(group.filters):
            if experiment_store.contains(ekey):
                report.evals_cached += 1
            else:
                pairs.append((ekey, group.filters[ekey]))
        yield group, pairs


def _stream_stage(pending, experiment_store, report, run_stage, path,
                  checkpoint_every) -> None:
    """One fused live pass per group with anything missing."""
    tasks = []
    for group, pairs in pending:
        if not pairs and experiment_store.contains(group.mkey):
            report.sims_cached += 1
            continue
        names = tuple(name for _ekey, name in pairs)
        if checkpoint_every is not None:
            # A checkpoint chain (and the banks it snapshots) covers the
            # job's *full* filter union, not just the currently missing
            # evaluations: deriving it from the warm-state-dependent
            # subset would orphan the chain if a kill landed between the
            # metrics and eval writes, silently restarting a
            # near-complete run from access 0.
            names = tuple(group.filters.values())
        job = group.job
        tasks.append((
            path, job.spec, job.system, job.seed, names, pairs,
            dict(chunk_size=job.chunk_size, checkpoint_every=checkpoint_every),
        ))
    outcomes = run_stage(
        _stream_task, tasks, stage="stream", inline_store=experiment_store
    )
    for (*_task, pairs, _options), outcome in zip(tasks, outcomes):
        if outcome is not QUARANTINED:
            _absorb(experiment_store, report, outcome)
            report.evals_run += len(pairs)


def _record_replay_stages(pending, experiment_store, report, run_stage,
                          path, checkpoint_every, parallel) -> None:
    """Record every missing trace once, then replay every missing eval."""
    units = []
    recordings = []
    for group, pairs in pending:
        job = group.job
        loaded = load_trace(experiment_store, group.tkey)
        if loaded is not None:
            report.sims_cached += 1
            if not experiment_store.contains(group.mkey):
                # The manifest embeds the run's metrics, so a trace can
                # resurrect an evicted sim-metrics row byte-identically.
                experiment_store.put_sim_metrics_blob(
                    group.mkey,
                    store_mod.encode_sim_metrics_dict(loaded[0]["metrics"]),
                    workload=job.spec.name, n_cpus=job.system.n_cpus,
                    seed=job.seed,
                )
            if pairs:
                units.append((group, loaded, pairs))
        elif (
            not pairs
            and not group.record
            and experiment_store.contains(group.mkey)
        ):
            # Run-the-misses contract: when every requested evaluation
            # and the metrics row are already stored (e.g. warmed by an
            # earlier streamed sweep) there is nothing to replay, so a
            # missing trace is not worth a full simulation — unless a
            # pure record job asked for the trace itself.
            report.sims_cached += 1
        else:
            recordings.append((group, pairs))

    units.extend(_record_stage(recordings, experiment_store, report,
                               run_stage, path, checkpoint_every))
    doomed = _replay_stage(units, experiment_store, report, run_stage,
                           parallel)
    if doomed:
        # A trace with a corrupt segment is as good as absent: drop it
        # whole, record it afresh, and replay what it failed to serve.
        recorded = {group.tkey for group, _pairs in recordings}
        for group, _pairs in doomed:
            _logger.warning(
                "trace %s has a corrupt segment; re-recording it", group.tkey
            )
            experiment_store.delete_trace(group.tkey)
            if group.tkey not in recorded:
                report.sims_cached -= 1
        units = _record_stage(doomed, experiment_store, report, run_stage,
                              path, checkpoint_every)
        doomed = _replay_stage(units, experiment_store, report, run_stage,
                               parallel)
        if doomed:
            raise StoreCorruptionError(
                f"trace {doomed[0][0].tkey} came out of a fresh recording "
                "with a corrupt segment"
            )


def _record_stage(recordings, experiment_store, report, run_stage, path,
                  checkpoint_every) -> list:
    """Record each ``(group, pairs)`` trace on the ``record`` stage; the
    ``(group, loaded, pairs)`` replay units of those with pairs."""
    outcomes = run_stage(
        _record_task,
        [
            (path, group.job.spec, group.job.system, group.job.seed, dict(
                chunk_size=group.job.chunk_size,
                checkpoint_every=checkpoint_every,
            ))
            for group, _pairs in recordings
        ],
        stage="record", inline_store=experiment_store,
    )
    units = []
    for (group, pairs), outcome in zip(recordings, outcomes):
        if outcome is QUARANTINED:
            _logger.warning(
                "skipping %d evaluation(s): recording %s was quarantined",
                len(pairs), group.tkey,
            )
            continue
        rows, _counters = outcome
        if rows:
            # Shipped back from a scratch store: like a fresh local
            # recording, never mix with stale rows under this key.
            experiment_store.delete_trace(group.tkey)
        _absorb(experiment_store, report, outcome)
        if pairs:
            loaded = load_trace(experiment_store, group.tkey)
            assert loaded is not None  # the record stage just wrote it
            units.append((group, loaded, pairs))
    return units


def _replay_stage(units, experiment_store, report, run_stage,
                  parallel) -> list:
    """Replay the ``(group, loaded, pairs)`` units on the ``replay``
    stage and store their evaluations; the ``(group, pairs)`` of every
    trace a segment of which turned out corrupt."""
    units = sorted(units, key=lambda unit: unit[0].tkey)
    owners = {}
    tasks = []
    for group, (_manifest, segment_keys), pairs in units:
        owners.update((ekey, group) for ekey, _name in pairs)
        segment_path, segments = _segment_payload(experiment_store, segment_keys)
        system, phase_names = group.job.system, _phase_plan(group.job.spec)[1]
        fan_out = parallel and len(pairs) > 1
        tasks.extend(
            (segment_path, segments, system, chunk, phase_names)
            for chunk in ([[pair] for pair in pairs] if fan_out else [pairs])
        )
    doomed: dict[str, tuple] = {}
    for task, results in zip(tasks, run_stage(_replay_task, tasks,
                                              stage="replay")):
        if results is QUARANTINED:
            continue
        if isinstance(results, StoreCorruptionError):
            group = owners[task[3][0][0]]
            _logger.warning("replaying %s: %s", group.tkey, results)
            doomed.setdefault(group.tkey, (group, []))[1].extend(task[3])
            continue
        with experiment_store.batch():
            for ekey, blob in results:
                group = owners[ekey]
                experiment_store.put_eval_blob(
                    ekey, blob, workload=group.job.spec.name,
                    filter_name=group.filters[ekey],
                    n_cpus=group.job.system.n_cpus, seed=group.job.seed,
                )
        report.evals_run += len(results)
    return list(doomed.values())


def execute(
    jobs,
    *,
    mode: str,
    experiment_store: ExperimentStore,
    workers: int = 1,
    backend: str | None = None,
    checkpoint_every: int | None = None,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
) -> ExecutionReport:
    """Run every :class:`SweepJob` whose results are not already stored.

    Jobs targeting the same ``(spec, system, seed)`` are fused into one
    unit over the union of their filters, and an evaluation already in
    the store is never recomputed, whichever mode stored it: both modes
    share the ``eval`` keyspace.

    ``mode="stream"`` runs one live pass per unit with anything missing,
    as the supervised ``stream`` stage (see :func:`_stream_task`); a
    unit whose metrics and evaluations are all stored is skipped.

    ``mode="replay"`` records every missing trace once on the ``record``
    stage (see :func:`_record_task`), then replays the missing
    evaluations on the ``replay`` stage: one task per filter
    configuration when parallel workers are available (each decodes
    segments independently), or one task per trace when serial (each
    segment then decodes exactly once for all filters).  A pure record
    job always ends with its trace stored; otherwise a missing trace is
    recorded only when something needs it.

    ``checkpoint_every`` snapshots each live pass or recording into the
    store at that access cadence and resumes from the newest stored
    checkpoint on a warm start (see :func:`_run_simulation`), so a
    respawned task resumes at the dead worker's last watermark instead
    of access 0.  A streamed pass's chain covers the unit's full filter
    union.  Replays need no checkpoints: they are already cheap
    restarts.

    ``policy`` / ``task_timeout`` / ``fault_plan`` configure supervision
    (see :func:`_map_tasks`).  A quarantined task leaves its cells empty
    (a quarantined recording, every evaluation depending on it) and the
    report's fault counters say why.
    """
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, not {mode!r}")
    started = time.perf_counter()
    report = ExecutionReport(workers=max(1, workers))
    run_stage = partial(
        _map_tasks, workers=workers, backend=backend, report=report,
        policy=policy, task_timeout=task_timeout, fault_plan=fault_plan,
    )
    pending = _pending(jobs, mode, experiment_store, report)
    path = None if experiment_store.path is None else str(experiment_store.path)
    if mode == "stream":
        _stream_stage(pending, experiment_store, report, run_stage, path,
                      checkpoint_every)
    else:
        parallel = (backend or "process") != "serial" and workers > 1
        _record_replay_stages(pending, experiment_store, report, run_stage,
                              path, checkpoint_every, parallel)
    report.elapsed_seconds = time.perf_counter() - started
    return report


@dataclass
class StreamOutcome:
    """What one streaming evaluation produced (all store-backed)."""

    metrics: SimResult
    #: ``filter_name -> FilterEvaluation`` for every requested filter.
    evaluations: dict[str, FilterEvaluation]
    report: ExecutionReport

    def coverage(self, filter_name: str) -> float:
        return self.evaluations[filter_name].coverage.coverage


def evaluate(
    spec: WorkloadSpec | str,
    system: SystemConfig = SCALED_SYSTEM,
    filters: tuple[str, ...] = DEFAULT_SWEEP_FILTERS,
    seed: int = 1,
    *,
    stream: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    backend: str | None = None,
    experiment_store: ExperimentStore | None = None,
) -> StreamOutcome:
    """Evaluate N filters against one workload, store-backed.

    One cell of :func:`run_sweep` plus its metrics row.  By default the
    first call records the configuration's trace (one streaming
    simulation), and every call after that, with these filters or any
    others, only replays stored segments, fanning out across ``workers``
    when a parallel backend is selected.  An empty ``filters`` only
    makes sure the trace and its metrics are stored.

    With ``stream=True`` all ``filters`` ride the live snoop stream of
    one simulation instead and nothing but results is persisted.  Either
    way warm evaluations are never recomputed, and the numbers are
    byte-identical between the modes.  Raises
    :class:`~repro.errors.TaskQuarantinedError` naming the missing cells
    when supervision set a task aside.
    """
    if isinstance(spec, str):
        spec = get_workload(spec)
    if experiment_store is None:
        from repro.analysis import experiments

        experiment_store = experiments.get_store()
    filters = tuple(filters)
    result = run_sweep(
        [spec], filters, system=system, seeds=(seed,), stream=stream,
        chunk_size=chunk_size, workers=workers, backend=backend,
        experiment_store=experiment_store,
    )
    metrics = experiment_store.get_sim_metrics(
        store_mod.sim_metrics_key(spec, system, seed)
    )
    cells = {name: (spec.name, name, seed) for name in filters}
    missing = [name for name, cell in cells.items()
               if cell not in result.evaluations]
    if metrics is None:
        missing.append("metrics")
    if missing:
        raise TaskQuarantinedError(
            f"{spec.name} seed {seed}: quarantined tasks left "
            f"{', '.join(missing)} missing ({result.report.summary()})"
        )
    return StreamOutcome(
        metrics=metrics,
        evaluations={
            name: result.evaluations[cell] for name, cell in cells.items()
        },
        report=result.report,
    )


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

@dataclass
class SweepResult:
    """One sweep's evaluations plus the execution report behind them."""

    report: ExecutionReport
    #: ``(workload, filter_name, seed) -> FilterEvaluation``.
    evaluations: dict[tuple[str, str, int], FilterEvaluation] = field(
        default_factory=dict
    )

    def coverage(self, workload: str, filter_name: str, seed: int = 1) -> float:
        return self.evaluations[(workload, filter_name, seed)].coverage.coverage


def run_sweep(
    workloads,
    filters,
    *,
    system: SystemConfig = SCALED_SYSTEM,
    seeds=(1,),
    workers: int = 1,
    experiment_store: ExperimentStore | None = None,
    accesses: int | None = None,
    warmup: int | None = None,
    preset: str | None = None,
    stream: bool = False,
    replay: bool = False,
    backend: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_every: int | None = None,
    policy: RetryPolicy | None = None,
    task_timeout: float | None = None,
    fault_plan=None,
) -> SweepResult:
    """Run a full workload x filter x seed sweep through the store.

    The front door: it builds one :class:`SweepJob` per (workload, seed)
    and makes one :func:`execute` call.  ``workloads`` holds names or
    :class:`~repro.traces.workloads.WorkloadSpec` objects; result cells
    are keyed by the name as given (a spec's ``name``).
    ``accesses``/``warmup`` shrink every workload spec (smoke runs) and
    ``preset`` applies a named spec transformation first (e.g.
    ``"paper-scale"``); every override participates in the store key, so
    modified runs never collide with stock ones.

    By default (``replay=True`` spells it out) the first sweep records
    each trace once, and every later sweep, with any filter set, replays
    it without simulating, fanning recordings and filter configs out
    across ``workers`` on the chosen ``backend``.  With ``stream=True``
    each (workload, seed) is one live pass evaluating all filters and
    persisting no trace.  Evaluations land under the same store keys in
    both modes (they are byte-identical by the determinism contract), so
    the modes warm each other.

    ``checkpoint_every`` snapshots each in-flight simulation into the
    store every N accesses, so a killed paper-scale sweep restarted with
    the same flags resumes from its latest checkpoint and still lands
    byte-identical results.

    ``policy`` / ``task_timeout`` / ``fault_plan`` configure supervised
    execution (see :func:`_map_tasks`).  When tasks are quarantined the
    sweep returns *partial* results: the affected ``(workload, filter,
    seed)`` cells are simply absent from ``evaluations`` and the
    report's fault counters say why.
    """
    if stream and replay:
        raise ConfigurationError(
            "choose stream=True or replay=True, not both: streaming "
            "discards events as they are consumed, replay persists them"
        )
    mode = "stream" if stream else "replay"
    if experiment_store is None:
        from repro.analysis import experiments

        experiment_store = experiments.get_store()

    filters = tuple(filters)
    resolved = []  # (label, spec): cells are keyed by the workload as given
    for workload in workloads:
        if isinstance(workload, str):
            label, spec = workload, get_workload(workload)
        else:
            label, spec = workload.name, workload
        resolved.append((label, override_spec(
            spec, preset=preset, accesses=accesses, warmup=warmup
        )))
    report = execute(
        [
            SweepJob(spec, filters, system, seed, chunk_size)
            for _label, spec in resolved
            for seed in seeds
        ],
        mode=mode, experiment_store=experiment_store, workers=workers,
        backend=backend, checkpoint_every=checkpoint_every, policy=policy,
        task_timeout=task_timeout, fault_plan=fault_plan,
    )

    result = SweepResult(report=report)
    for label, spec in resolved:
        keys = {
            seed: store_mod.eval_keys(spec, filters, system, seed)
            for seed in seeds
        }
        for filter_name in filters:
            for seed in seeds:
                key = keys[seed][filter_name]
                evaluation = experiment_store.get_eval(key)
                if evaluation is None:
                    # Only quarantine may leave a cell empty — anything
                    # else is a bug worth crashing on.
                    assert report.quarantined, (
                        f"evaluation missing for {label}/{filter_name}"
                        f"/seed {seed} without a quarantine"
                    )
                    continue
                result.evaluations[(label, filter_name, seed)] = evaluation
    return result
