"""Durable job journal for the sweep service.

A *job* is one submitted sweep request, decomposed into *shards*: one
``(workload, seed)`` unit carrying the job's full filter list, executed
by a worker as a single-process :func:`repro.analysis.runner.run_sweep`
against the shared store.  Each shard moves through a four-state
machine::

    submitted ──lease──▶ leased ──complete──▶ done
        ▲                  │
        └──expiry/fail─────┘          (attempts < max_attempts)
                           └──────────▶ quarantined   (budget exhausted)

The journal is the durable half of that machine: one ``job``-kind row
per job in the :class:`~repro.analysis.store.ExperimentStore`, rewritten
in place on every transition.  Runtime-only facts — lease tokens,
deadlines, backoff timers — are deliberately *not* persisted: after a
server crash every ``leased`` shard is requeued (its worker may still
finish and its content-addressed writes then satisfy the shard on the
next lease grant), while ``done`` and ``quarantined`` shards keep their
verdicts, so a restart never loses or duplicates work.

Identity is content-addressed end to end: a shard's fingerprint hashes
exactly the fields that participate in its store keys (canonical
workload name, sorted filters, seed, mode, sizing overrides, CPU
count), and the job key hashes the sorted shard fingerprints — so
re-submitting the same sweep, however its lists were ordered, lands on
the same journal row and is answered from the store instead of being
re-run.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.runner import MODES
from repro.analysis.store import (
    JOB_KIND,
    ExperimentStore,
    decode_job,
    encode_job,
    eval_key,
    job_key,
    sim_metrics_key,
)
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.core.config import build_filter
from repro.errors import ServiceError
from repro.traces.workloads import WorkloadSpec, get_workload, override_spec

#: The shard state machine's vocabulary, in lifecycle order.
SHARD_STATES = ("submitted", "leased", "done", "quarantined")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def normalize_request(payload: dict) -> dict:
    """Validate a raw submission into its canonical request dict.

    Workload names are resolved to canonical spec names (abbreviations
    accepted), filter names are parsed, seeds are deduplicated in
    order, and the mode defaults to ``replay``.  Raises
    :class:`ServiceError` (or a more specific
    :class:`~repro.errors.ReproError`) on anything malformed — the HTTP
    layer surfaces those as 400s, so a bad request never reaches the
    queue.
    """
    _require(isinstance(payload, dict), "submission must be a JSON object")
    workloads = payload.get("workloads")
    _require(
        isinstance(workloads, (list, tuple)) and len(workloads) > 0,
        "submission needs a non-empty 'workloads' list",
    )
    canonical = []
    for name in workloads:
        spec = get_workload(str(name))
        if spec.name not in canonical:
            canonical.append(spec.name)
    filters = payload.get("filters")
    _require(
        isinstance(filters, (list, tuple)) and len(filters) > 0,
        "submission needs a non-empty 'filters' list",
    )
    filter_names = []
    for name in filters:
        build_filter(str(name))  # parses; raises FilterNameError
        if str(name) not in filter_names:
            filter_names.append(str(name))
    seeds = payload.get("seeds") or [1]
    _require(
        isinstance(seeds, (list, tuple)) and len(seeds) > 0,
        "'seeds' must be a non-empty list",
    )
    seed_list = []
    for seed in seeds:
        _require(
            isinstance(seed, int) and not isinstance(seed, bool),
            f"seeds must be integers, got {seed!r}",
        )
        if seed not in seed_list:
            seed_list.append(seed)
    mode = payload.get("mode", "replay")
    _require(
        mode in MODES,
        f"mode must be one of {MODES}, got {mode!r}",
    )
    request = {
        "workloads": canonical,
        "filters": filter_names,
        "seeds": seed_list,
        "mode": mode,
    }
    for field in ("accesses", "warmup", "chunk_size", "checkpoint_every",
                  "cpus"):
        value = payload.get(field)
        if value is None:
            continue
        _require(
            isinstance(value, int) and not isinstance(value, bool)
            and value > 0,
            f"'{field}' must be a positive integer, got {value!r}",
        )
        request[field] = value
    preset = payload.get("preset")
    if preset is not None:
        _require(isinstance(preset, str), "'preset' must be a string")
        request["preset"] = preset
    return request


def shard_fingerprint(shard: dict) -> str:
    """Content hash of one shard's result-determining fields.

    Exactly the fields that participate in the shard's store keys:
    execution hints (``chunk_size``, ``checkpoint_every``) are excluded
    because results are invariant to them by the determinism contract —
    two submissions differing only in hints share shards.
    """
    return hashlib.sha256(json.dumps({
        "workload": shard["workload"],
        "filters": sorted(shard["filters"]),
        "seed": shard["seed"],
        "mode": shard["mode"],
        "accesses": shard.get("accesses"),
        "warmup": shard.get("warmup"),
        "preset": shard.get("preset"),
        "cpus": shard.get("cpus"),
    }, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def build_shards(request: dict) -> list[dict]:
    """Decompose a canonical request into shard descriptors.

    One shard per ``(workload, seed)`` pair carrying the full filter
    list — the same unit the sweep runner fans out, so a lease maps
    onto exactly one :class:`~repro.analysis.runner.SweepJob`, run in
    the shard's mode.
    """
    shards = []
    for workload in request["workloads"]:
        for seed in request["seeds"]:
            shard = {
                "workload": workload,
                "filters": list(request["filters"]),
                "seed": seed,
                "mode": request["mode"],
            }
            for field in ("accesses", "warmup", "preset", "cpus",
                          "chunk_size", "checkpoint_every"):
                if field in request:
                    shard[field] = request[field]
            shard["id"] = shard_fingerprint(shard)
            shard["state"] = "submitted"
            shard["attempts"] = 0
            shards.append(shard)
    return shards


def resolve_spec(shard: dict) -> WorkloadSpec:
    """The shard's effective workload spec (preset and sizing applied).

    Uses :func:`~repro.traces.workloads.override_spec`, as
    :func:`repro.analysis.runner.run_sweep` does, so the keys computed
    here are the keys the worker's sweep will write under.
    """
    return override_spec(
        get_workload(shard["workload"]),
        preset=shard.get("preset"),
        accesses=shard.get("accesses"),
        warmup=shard.get("warmup"),
    )


def resolve_system(shard: dict) -> SystemConfig:
    cpus = shard.get("cpus")
    if cpus is None:
        return SCALED_SYSTEM
    return SCALED_SYSTEM.with_cpus(cpus)


def shard_result_keys(shard: dict) -> tuple[str, dict[str, str]]:
    """``(metrics_key, {filter_name: eval_key})`` for one shard."""
    spec = resolve_spec(shard)
    system = resolve_system(shard)
    seed = shard["seed"]
    mkey = sim_metrics_key(spec, system, seed)
    ekeys = {
        name: eval_key(spec, name, system, seed)
        for name in shard["filters"]
    }
    return mkey, ekeys


def shard_satisfied(store: ExperimentStore, shard: dict) -> bool:
    """Whether every result the shard owes already exists in the store.

    The warm-path and stale-lease check: a shard whose metrics row and
    every evaluation are present needs no worker — whoever computed
    them (this run, a previous run, or a worker whose lease expired
    mid-flight) wrote the same content-addressed bytes.
    """
    mkey, ekeys = shard_result_keys(shard)
    if not store.contains(mkey):
        return False
    return all(store.contains(key) for key in ekeys.values())


class JobJournal:
    """Persistence facade: job records in and out of the store.

    A record is a plain dict (see the module docstring); the journal
    owns only its durability — (re)writing the ``job``-kind row on
    every transition and scanning the kind back out on recovery.
    Scheduling lives in :class:`repro.service.server.SweepService`.
    """

    def __init__(self, store: ExperimentStore) -> None:
        self.store = store

    @staticmethod
    def new_record(request: dict) -> dict:
        shards = build_shards(request)
        job_id = job_key([shard["id"] for shard in shards])
        return {
            "version": 1,
            "job": job_id,
            "request": request,
            "shards": shards,
            "counters": {},
        }

    def persist(self, record: dict) -> None:
        durable = {
            "version": record["version"],
            "job": record["job"],
            "request": record["request"],
            "counters": record.get("counters", {}),
            "shards": [
                {
                    key: value for key, value in shard.items()
                    # Lease tokens, deadlines, and backoff timers are
                    # runtime state: a restarted server requeues every
                    # leased shard, so persisting them would only
                    # invite trusting a dead lease.
                    if key not in ("lease", "worker", "deadline",
                                   "not_before")
                }
                for shard in record["shards"]
            ],
        }
        system = resolve_system(record["shards"][0])
        self.store.put_blob(
            record["job"],
            encode_job(durable),
            kind=JOB_KIND,
            workload="service",
            filter_name=None,
            n_cpus=system.n_cpus,
            seed=0,
        )

    def load(self) -> dict[str, dict]:
        """Every persisted job record, keyed by job id."""
        records = {}
        for entry in self.store.entries():
            if entry.kind != JOB_KIND:
                continue
            blob = self.store.get_blob(entry.key)
            if blob is None:
                continue
            record = decode_job(blob)
            records[record["job"]] = record
        return records
