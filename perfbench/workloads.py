"""The benchmark's three sweep workloads, one repetition at a time.

Each repetition drives one workload through ``run_sweep`` -- the call
``repro sweep`` makes -- on the ``serial`` backend with one worker, into
a fresh SQLite store: one closed-loop client and no pool, so a
repetition measures the program and not the scheduler.  Afterwards it
reads every stored result back, checks invariants that hold whatever
path produced them, and digests the stored documents so that
repetitions, seeds and traced runs can be compared byte for byte.

Imports of :mod:`repro` happen inside the functions: a repetition's
set-up time includes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import sqlite3
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from perfbench.probe import HostSampler
from perfbench.tracer import FAMILY_LABELS, Tracer, traced


@dataclass(frozen=True)
class Workload:
    #: The repro workload the sweep simulates.
    workload: str
    #: ``"default"`` (the CLI's four-filter sweep) or ``"paper"`` (the
    #: 21 configurations of Figures 4 and 5).
    filter_set: str
    #: ``"stream"`` (live banks, nothing persisted) or ``"replay"``.
    mode: str
    #: Record the trace during set-up, so the timed call only replays.
    record_in_setup: bool = False

    def filters(self) -> tuple[str, ...]:
        from repro.analysis.runner import DEFAULT_SWEEP_FILTERS
        from repro.core.config import (
            PAPER_EJ_NAMES,
            PAPER_HJ_NAMES,
            PAPER_IJ_NAMES,
            PAPER_VEJ_NAMES,
        )

        if self.filter_set == "paper":
            return (PAPER_EJ_NAMES + PAPER_VEJ_NAMES + PAPER_IJ_NAMES
                    + PAPER_HJ_NAMES)
        return tuple(DEFAULT_SWEEP_FILTERS)


WORKLOADS = {
    # Generation, coherence and the live Python banks share the time;
    # no trace is written or read.
    "stream-em3d": Workload("em3d", "default", "stream"),
    # Record once in set-up, then time a warm replay of the paper's
    # whole design space: the replay kernels dominate.
    "sweep-em3d": Workload("em3d", "paper", "replay", record_in_setup=True),
    # Record then replay on a cold store: generation and coherence
    # dominate, and this is the only timed trace write path.
    "cold-lu": Workload("lu", "default", "replay"),
}


def run_rep(
    name: str,
    seed: int,
    work,
    *,
    trace: bool = False,
    budget: float = 0.0,
    accesses: int | None = None,
    warmup: int | None = None,
    started: float | None = None,
) -> dict:
    """One repetition: set up once, then time sweeps for ``budget`` s.

    Every timed call (at least one) starts from the same state: a fresh
    store in ``work``, or for a workload that records in set-up, the
    recorded store with its evaluations deleted.  Each call's results
    are checked after its clock stops.  ``started`` is when set-up began
    (the process start for a fresh repetition process).  With ``trace``
    there is one call, and the layer wrappers cover it and any recording
    in set-up.  Without it, the host probe samples the whole repetition,
    and set-up and every call carry the probe's ``probe_s`` and
    ``sampled_s`` over their interval.
    """
    started = time.perf_counter() if started is None else started
    if trace:
        return _repetition(name, seed, work, True, budget, accesses, warmup,
                           started)
    with HostSampler() as sampler:
        rep = _repetition(name, seed, work, False, budget, accesses, warmup,
                          started)
    rep["setup_probe"] = sampler.during(started, started + rep["setup_s"])
    for call in rep["calls"]:
        call.update(sampler.during(call["start"], call["start"] + call["wall_s"]))
    return rep


def _repetition(name, seed, work, trace, budget, accesses, warmup,
                started) -> dict:
    from repro.analysis.runner import run_sweep
    from repro.analysis.store import ExperimentStore
    from repro.traces.workloads import get_workload

    workload = WORKLOADS[name]
    filters = workload.filters()
    spec = get_workload(workload.workload)
    measured = spec.n_accesses if accesses is None else accesses
    warm = spec.warmup_accesses if warmup is None else warmup
    work = Path(work)
    reports = []

    def sweep(store, filter_names, **mode) -> None:
        reports.append(run_sweep(
            [workload.workload], filter_names, seeds=(seed,),
            workers=1, backend="serial", experiment_store=store,
            accesses=accesses, warmup=warmup, **mode,
        ).report)

    def timed(store) -> dict:
        start = time.perf_counter()
        error = None
        try:
            sweep(store, filters, **{workload.mode: True})
        except Exception as exc:  # a failed sweep counts against ok_frac
            error = f"{type(exc).__name__}: {exc}"
        return {"start": start, "wall_s": time.perf_counter() - start,
                "error": error}

    def check(call: dict, store) -> dict:
        call.update(check_store(store.path, filters, measured))
        call["retried"] = sum(r.retried + r.requeued for r in reports)
        call["quarantined"] = sum(r.quarantined for r in reports)
        reports.clear()
        failures = set(call["failures"])
        if call["error"] is not None:
            failures.add("run")
        if call["retried"]:
            failures.add("retried")
        if call["quarantined"]:
            failures.add("quarantined")
        call["failures"] = sorted(failures)
        return call

    tracer = Tracer()
    store = ExperimentStore(work / "store-0.sqlite")
    try:
        with traced(tracer) if trace else contextlib.nullcontext():
            traced_start = time.perf_counter()
            if workload.record_in_setup:
                sweep(store, (), replay=True)
            setup_s = time.perf_counter() - started
            call = timed(store)
            traced_wall_s = time.perf_counter() - traced_start
        calls = [check(call, store)]
        while not trace and sum(c["wall_s"] for c in calls) < budget:
            if workload.record_in_setup:
                store.delete_kind("eval")  # replay the recorded trace again
            else:
                store.close()
                store = ExperimentStore(work / f"store-{len(calls)}.sqlite")
            calls.append(check(timed(store), store))
    finally:
        store.close()
    rep = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "accesses": measured,
        "recorded_accesses": measured + warm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calls": calls,
    }
    if trace:
        rep["traced_wall_s"] = traced_wall_s
        rep["counts"] = dict(tracer.counts)
        rep["layers"] = layer_metrics(tracer, rep)
        rep["violations"] = conservation(tracer.counts, rep, len(filters))
    return rep


def digest(key: str, payload: bytes) -> str | None:
    """First 64 bits of the SHA-256 of one stored row's key and document.

    The document is the payload decompressed: the canonical JSON the
    store encoded.  A change of compression alone (another zlib build or
    level) then leaves the digest as it was.  ``None`` if the payload
    does not decompress.
    """
    try:
        document = zlib.decompress(payload)
    except zlib.error:
        return None
    return hashlib.sha256(key.encode() + b"\0" + document).hexdigest()[:16]


def check_store(store_path, filters, measured_accesses: int) -> dict:
    """Read every result back and check it.

    Returns the per-result digests, the labels of results that are
    missing or break an invariant, and the stored byte totals.  A result
    is one evaluation per filter plus the metrics row.
    """
    from repro.analysis.store import (
        decode_eval,
        decode_sim_metrics,
        decode_trace_manifest,
    )
    from repro.errors import StoreCorruptionError

    with contextlib.closing(sqlite3.connect(store_path)) as db:
        rows = db.execute(
            "SELECT key, kind, filter, payload FROM results"
        ).fetchall()
    digests = {}
    failures = set()
    evals = {}
    metrics = None
    manifest_events = 0
    for key, kind, filter_name, payload in rows:
        if kind == "eval":
            label = filter_name
        elif kind == "sim-metrics":
            label = "metrics"
        else:
            if kind == "sim-events" and filter_name is None:
                manifest_events = sum(
                    decode_trace_manifest(payload)["events_per_node"]
                )
            continue
        digests[label] = digest(key, payload)
        try:
            if label == "metrics":
                metrics = decode_sim_metrics(payload)
            else:
                evals[label] = decode_eval(payload)
        except StoreCorruptionError:
            failures.add(label)
    labels = set(filters) | {"metrics"}
    failures |= labels - set(digests)
    failures |= set(digests) - labels
    failures |= _invariant_failures(evals, metrics, measured_accesses)
    return {
        "attempted": len(labels),
        "digests": digests,
        "failures": sorted(failures),
        "store_bytes": sum(len(row[3]) for row in rows),
        "trace_bytes": sum(len(row[3]) for row in rows if row[1] == "sim-events"),
        "manifest_events": manifest_events,
    }


def _invariant_failures(evals: dict, metrics, measured_accesses: int) -> set:
    """Labels of results that break a law any correct run obeys.

    Every filter observes exactly the snoops the nodes counted; a snoop
    either would hit or would miss in L2; a filter may only drop snoops
    that would miss (filter safety), and its energy counts agree on how
    many it dropped.
    """
    failures = set()
    snoops = None
    if metrics is not None:
        snoops = sum(stats.snoops_observed for stats in metrics.node_stats)
        if metrics.accesses != measured_accesses:
            failures.add("metrics")
    for label, evaluation in evals.items():
        cov = evaluation.coverage
        if (
            cov.snoop_would_miss + cov.snoop_would_hit != cov.snoops
            or not 0 <= cov.filtered <= cov.snoop_would_miss
            or evaluation.events.filtered != cov.filtered
            or (snoops is not None and cov.snoops != snoops)
        ):
            failures.add(label)
    return failures


def score(reps: list, reference: dict) -> tuple[int, int, list]:
    """``(attempted, failed, failure notes)`` over every timed call.

    A result fails when it is missing, breaks an invariant, the runner
    raised or retried, or its digest differs from ``reference`` (the
    pinned digests of the seed, else those of the first call).  Broken
    conservation laws are noted without being results.
    """
    attempted = failed = 0
    notes = []
    for index, rep in enumerate(reps):
        notes += [f"rep {index}: {text}" for text in rep.get("violations", ())]
        for call in rep["calls"]:
            digests = call["digests"]
            mismatched = {
                label for label in set(reference) | set(digests)
                if digests.get(label) != reference.get(label)
            }
            failures = set(call["failures"]) | mismatched
            attempted += call["attempted"]
            failed += min(call["attempted"], len(failures))
            notes += [f"rep {index}: {label}" for label in sorted(failures)]
    return attempted, failed, notes


def layer_metrics(tracer: Tracer, rep: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    counts = tracer.counts
    selfs = tracer.self_seconds
    layers = {
        "generate.self_s": selfs("generate"),
        "generate.accesses": counts["generate.accesses"],
        "coherence.self_s": selfs("coherence"),
        "coherence.events": counts["coherence.events"],
    }
    for fam in FAMILY_LABELS:
        layers[f"bank.{fam}.self_s"] = selfs(f"bank/{fam}")
    # Conservation holds every live bank to the same count.
    layers["bank.events"] = max(counts[f"bank.events.{fam}"] for fam in FAMILY_LABELS)
    layers.update({
        "bank.build.self_s": selfs("bank/build"),
        "bank.build.banks": counts["bank.build.banks"],
        "sink.self_s": selfs("sink"),
        "sink.segments": counts["sink.segments"],
        "sink.events": counts["sink.events"],
        "codec.encode.self_s": selfs("codec/encode"),
        "codec.encode.bytes_in": counts["codec.encode.bytes_in"],
        "codec.encode.bytes_out": counts["codec.encode.bytes_out"],
        "codec.decode.self_s": selfs("codec/decode"),
        "codec.decode.segments": counts["codec.decode.segments"],
        "codec.decode.events": counts["codec.decode.events"],
        "store.write.self_s": selfs("store/write"),
        "store.write.rows": counts["store.write.rows"],
        "store.write.bytes": counts["store.write.bytes"],
        "store.read.self_s": selfs("store/read"),
        "store.read.rows": counts["store.read.rows"],
        "store.read.bytes": counts["store.read.bytes"],
    })
    for fam in FAMILY_LABELS:
        layers[f"kernel.{fam}.self_s"] = selfs(f"kernel/{fam}")
    layers.update({
        "kernel.events": counts["kernel.events"],
        "eval.encode.self_s": selfs("eval/encode"),
        "eval.encode.evals": counts["eval.encode.evals"],
        "unattributed.self_s": rep["traced_wall_s"] - tracer.covered_seconds(),
        "runner.retried": rep["calls"][0]["retried"],
        "runner.quarantined": rep["calls"][0]["quarantined"],
        "traced.wall_s": rep["traced_wall_s"],
    })
    return layers


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, by its naming convention."""
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


def conservation(counts, rep: dict, n_filters: int) -> list[str]:
    """Laws between the layer counts of one traced repetition.

    Returns a description of each law broken.  Every access generated is
    simulated; every event the machine emits reaches each live bank or
    the trace sink; the sink's events are the manifest's, 8 raw bytes
    each; every recorded event is decoded once and replayed once per
    filter configuration; every filter's evaluation is encoded once.
    """
    broken = []

    def law(text: str, left: int, right: int) -> None:
        if left != right:
            broken.append(f"{text}: {left} != {right}")

    law("generated accesses = recorded accesses",
        counts["generate.accesses"], rep["recorded_accesses"])
    banks = [counts[f"bank.events.{fam}"] for fam in FAMILY_LABELS
             if f"bank.events.{fam}" in counts]
    for events in banks:
        law("bank events = coherence events", events, counts["coherence.events"])
    manifest_events = rep["calls"][0]["manifest_events"]
    if counts["sink.events"] or manifest_events:
        law("sink events = coherence events",
            counts["sink.events"], counts["coherence.events"])
        law("sink events = manifest events",
            counts["sink.events"], manifest_events)
        law("encoded bytes = 8 x sink events",
            counts["codec.encode.bytes_in"], 8 * counts["sink.events"])
        law("decoded events = sink events",
            counts["codec.decode.events"], counts["sink.events"])
        law("kernel events = decoded events x filters",
            counts["kernel.events"], counts["codec.decode.events"] * n_filters)
    law("banks built = filters", counts["bank.build.banks"], n_filters)
    law("evaluations encoded = filters", counts["eval.encode.evals"], n_filters)
    return broken
