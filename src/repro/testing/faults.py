"""Seeded fault plans: deterministic chaos for the supervised executor.

A :class:`FaultPlan` decides — as a pure function of ``(seed, stage,
task index, attempt)`` — whether a task attempt is sabotaged and how:

``exit``
    The worker process calls ``os._exit`` (a crash the pool cannot
    report), exercising ``BrokenProcessPool`` detection, pool respawn,
    and in-flight requeue.
``hang``
    The worker sleeps far past the per-task deadline, exercising
    timeout kill-and-retry.  (If no deadline is enforced the sleep ends
    and the attempt fails with :class:`InjectedFaultError` instead of
    wedging the suite.)
``raise``
    The attempt raises :class:`InjectedFaultError` (transient), the
    plain retry path.
``delay``
    The attempt sleeps briefly and then runs normally — jitter without
    failure.

The parent computes the fault token *before* submitting the task (the
supervisor calls :meth:`FaultPlan.fault_for`), so injection is
independent of worker scheduling, and faults fire only on attempts
``<= max_faults_per_task`` — give the retry policy a larger attempt
budget and every sabotaged task eventually succeeds, which is what
makes the chaos oracle meaningful: **a sweep under an aggressive plan
must converge to a store byte-identical to a clean run's.**

:func:`corrupt_blobs` extends injection to data at rest (deterministic
selection, one flipped byte — enough to break the zlib envelope), and
:func:`run_chaos` strings the whole drill together: clean reference
sweep → faulted sweep → blob corruption → ``fsck`` → healing re-run →
byte-compare, raising when the stores diverge.  ``repro chaos`` is a
thin CLI wrapper over it.

Tasks are sabotaged, never results: every fault fires *before* the
worker computes (or instead of computing), so a retried attempt
produces exactly the bytes a clean attempt would.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ExecutionError

logger = logging.getLogger("repro.testing.faults")

__all__ = [
    "FAULT_PLANS",
    "FaultPlan",
    "InjectedFaultError",
    "ChaosResult",
    "corrupt_blobs",
    "run_chaos",
]


class InjectedFaultError(ExecutionError):
    """A deliberately injected task failure (always transient)."""

    transient = True


def _fraction(seed: int, *parts) -> float:
    """Deterministic uniform fraction in ``[0, 1)`` from hashed parts."""

    text = ":".join(str(part) for part in ("fault", seed, *parts))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected task faults."""

    name: str
    seed: int = 0
    #: Per-attempt probabilities, evaluated in this order from one
    #: uniform draw (their sum must be <= 1).
    exit_rate: float = 0.0
    hang_rate: float = 0.0
    raise_rate: float = 0.0
    delay_rate: float = 0.0
    #: Attempts beyond this index are never sabotaged, so any retry
    #: policy with ``max_attempts > max_faults_per_task`` converges.
    max_faults_per_task: int = 1
    delay_seconds: float = 0.02
    #: How long a hung worker sleeps; far above any sane task deadline.
    hang_seconds: float = 30.0
    #: Restrict injection to these stage labels (empty = all stages).
    stages: tuple = ()
    #: ``(stage, index)`` pairs sabotaged on *every* attempt — poisoned
    #: tasks that can only end in quarantine.
    poison: tuple = ()
    #: Fraction of (eligible) stored blobs :func:`corrupt_blobs` flips
    #: when this plan drives :func:`run_chaos`.
    corrupt_fraction: float = 0.0

    def fault_for(
        self, stage: str, index: int, attempt: int, isolated: bool
    ):
        """The fault token for this attempt, or ``None`` to run clean.

        ``isolated`` tells the plan whether the attempt runs in a
        killable worker process; outside one, ``exit`` and ``hang``
        downgrade to ``raise`` so a serial or thread run is sabotaged
        without taking the parent down or wedging forever.
        """
        poisoned = (stage, index) in self.poison
        if not poisoned:
            if self.stages and stage not in self.stages:
                return None
            if attempt > self.max_faults_per_task:
                return None
        draw = _fraction(self.seed, stage, index, attempt)
        cumulative = 0.0
        for kind, rate in (
            ("exit", self.exit_rate),
            ("hang", self.hang_rate),
            ("raise", self.raise_rate),
            ("delay", self.delay_rate),
        ):
            cumulative += rate
            if draw < cumulative:
                break
        else:
            if not poisoned:
                return None
            kind = "raise"  # poisoned tasks always fail somehow
        if kind in ("exit", "hang") and not isolated:
            kind = "raise"
        if kind == "exit":
            return ("exit", 13)
        if kind == "hang":
            return ("hang", self.hang_seconds)
        if kind == "delay":
            return ("delay", self.delay_seconds)
        return ("raise", f"injected fault at {stage}:{index} attempt {attempt}")

    @staticmethod
    def invoke(worker, task, fault):
        """Execute one sabotaged attempt (runs inside the worker)."""

        kind, arg = fault
        if kind == "exit":
            os._exit(int(arg))
        if kind == "hang":
            time.sleep(float(arg))
            raise InjectedFaultError(
                f"hung {arg}s without being killed (no deadline enforced?)"
            )
        if kind == "delay":
            time.sleep(float(arg))
            return worker(task)
        raise InjectedFaultError(str(arg))


#: Stock plans for tests and the ``repro chaos`` command.  ``none``
#: injects nothing (a control), ``mild`` only raises and delays,
#: ``aggressive`` adds worker exits, hangs, and blob corruption.
FAULT_PLANS: dict[str, FaultPlan] = {
    "none": FaultPlan(name="none"),
    "mild": FaultPlan(
        name="mild", seed=7, raise_rate=0.2, delay_rate=0.15,
        corrupt_fraction=0.25,
    ),
    "aggressive": FaultPlan(
        name="aggressive", seed=11,
        exit_rate=0.2, hang_rate=0.1, raise_rate=0.2, delay_rate=0.1,
        max_faults_per_task=2, corrupt_fraction=0.5,
    ),
}


def corrupt_blobs(
    store,
    *,
    seed: int,
    fraction: float = 0.25,
    kinds: Sequence[str] = ("eval",),
    limit: int | None = None,
) -> list[str]:
    """Deterministically flip one byte in a selection of stored blobs.

    Selection hashes ``(seed, key)`` over the *sorted* keys of the
    requested kinds, so the same store contents always corrupt the same
    rows.  One flipped byte at offset 0 breaks the zlib envelope, which
    every ``decode_*`` reports as ``StoreCorruptionError`` and ``fsck``
    heals.  Returns the corrupted keys (possibly empty).
    """
    wanted = [
        entry.key
        for entry in store.entries()
        if entry.kind in kinds
    ]
    doomed = [
        key for key in sorted(wanted)
        if _fraction(seed, "corrupt", key) < fraction
    ]
    if not doomed and wanted:
        # A tiny store can hash its way past `fraction` entirely; a
        # chaos drill without any corruption would silently skip the
        # fsck leg, so always doom at least one row.
        doomed = [sorted(wanted)[0]]
    if limit is not None:
        doomed = doomed[:limit]
    for key in doomed:
        blob = store.get_blob(key)
        corrupted = bytes([blob[0] ^ 0xFF]) + blob[1:]
        store._db.execute(
            "UPDATE results SET payload = ? WHERE key = ?", (corrupted, key)
        )
        store._db.commit()
        store._live.pop(key, None)
        logger.info("corrupted stored blob %s", key)
    return doomed


@dataclass
class ChaosResult:
    """What one :func:`run_chaos` drill did, stage by stage."""

    plan: str
    faulted: object  # ExecutionReport of the sabotaged sweep
    corrupted: tuple
    fsck: object  # FsckReport after corruption
    healed: object  # ExecutionReport of the healing re-run
    byte_identical: bool
    demo: object = None  # ExecutionReport of the poisoned-task demo

    def summary(self) -> str:
        lines = [
            f"chaos plan '{self.plan}':",
            f"  faulted sweep: {self.faulted.summary()}",
            f"  corrupted {len(self.corrupted)} stored blob(s); "
            f"{self.fsck.summary()}",
            f"  healing sweep: {self.healed.summary()}",
            "  store byte-identical to clean run: "
            + ("yes" if self.byte_identical else "NO"),
        ]
        if self.demo is not None:
            lines.append(
                f"  poisoned-task demo: {self.demo.summary()}"
            )
        return "\n".join(lines)


def run_chaos(
    plan: FaultPlan | str,
    *,
    workloads: Sequence[str] = ("lu", "fft"),
    filters: Sequence[str] = ("EJ-32x4", "IJ-10x4x7"),
    accesses: int = 20000,
    warmup: int = 4000,
    seeds: Sequence[int] = (1, 2),
    workers: int = 2,
    backend: str = "process",
    task_timeout: float | None = 2.0,
    demo_poison: bool = True,
) -> ChaosResult:
    """The full chaos drill; raises ``ExecutionError`` if it fails.

    Clean reference sweep → sabotaged sweep under ``plan`` → blob
    corruption → ``fsck`` (delete mode) → healing re-run → byte-compare
    against the reference.  All stores are scratch in-memory instances;
    the caller's store is never touched.  With ``demo_poison`` a
    separate tiny sweep runs with one permanently poisoned simulation
    to demonstrate quarantine accounting (on its own scratch store, so
    the main oracle is unaffected).
    """
    from repro.analysis.resilience import RetryPolicy
    from repro.analysis.runner import run_sweep
    from repro.analysis.store import ExperimentStore

    if plan == "service":
        # The service drill is a different animal — real subprocesses,
        # real sockets, SIGKILL — so it lives with the service package.
        # Its result duck-types ChaosResult where it matters: .summary()
        # ends with the same byte-identity verdict line.
        from repro.service.chaos import run_service_chaos

        service_result = run_service_chaos()
        if not service_result.ok:
            raise ExecutionError(
                "service chaos drill failed\n" + service_result.summary()
            )
        return service_result
    if isinstance(plan, str):
        try:
            plan = FAULT_PLANS[plan]
        except KeyError:
            raise ExecutionError(
                f"unknown fault plan {plan!r}; choose one of "
                f"{', '.join(sorted(FAULT_PLANS))}, service"
            ) from None
    policy = RetryPolicy(
        # Generous budget: a task can suffer its own faults plus crash
        # charges from siblings that died in the same pool.
        max_attempts=plan.max_faults_per_task + 4,
        base_delay=0.01, max_delay=0.1, seed=plan.seed,
    )
    sweep_kwargs = dict(
        accesses=accesses, warmup=warmup, seeds=tuple(seeds),
        workers=workers, backend=backend,
    )

    reference = ExperimentStore(None)
    run_sweep(workloads, filters, experiment_store=reference, **sweep_kwargs)

    store = ExperimentStore(None)
    faulted = run_sweep(
        workloads, filters, experiment_store=store,
        policy=policy, task_timeout=task_timeout, fault_plan=plan,
        **sweep_kwargs,
    ).report

    corrupted = corrupt_blobs(
        store, seed=plan.seed, fraction=plan.corrupt_fraction or 0.25,
    )
    fsck_report = store.fsck()
    healed = run_sweep(
        workloads, filters, experiment_store=store, **sweep_kwargs
    ).report

    byte_identical = store.dump() == reference.dump()
    final_fsck = store.fsck()

    demo = None
    if demo_poison:
        demo_store = ExperimentStore(None)
        demo_plan = replace(plan, poison=(("record", 0),), raise_rate=1.0)
        demo = run_sweep(
            workloads[:1], filters[:1], experiment_store=demo_store,
            accesses=accesses, warmup=warmup, seeds=(tuple(seeds) or (1,))[:1],
            workers=workers, backend=backend,
            policy=RetryPolicy(max_attempts=2, base_delay=0.01,
                               seed=plan.seed),
            fault_plan=demo_plan,
        ).report

    result = ChaosResult(
        plan=plan.name,
        faulted=faulted,
        corrupted=tuple(corrupted),
        fsck=fsck_report,
        healed=healed,
        byte_identical=byte_identical,
        demo=demo,
    )
    if not byte_identical:
        raise ExecutionError(
            "chaos drill failed: store diverged from the clean run\n"
            + result.summary()
        )
    if not final_fsck.clean:
        raise ExecutionError(
            "chaos drill failed: store not clean after healing\n"
            + result.summary()
        )
    if demo is not None and not demo.quarantined:
        raise ExecutionError(
            "chaos drill failed: poisoned demo task was not quarantined\n"
            + result.summary()
        )
    return result
