"""Phase-structured workload suites: compose sharing profiles over time.

Real services are not stationary: a web tier warms its cache, then an
analytics scan sweeps through, then steady state resumes.  A *suite*
expresses exactly that —

    Suite([
        Phase("warm", "read-mostly-web", 80_000),
        Phase("scan", "scan-stream", 60_000),
        Phase("settle", "read-mostly-web", 80_000),
    ], name="flip-web-scan")

— and produces a :class:`SuiteSpec`, a drop-in
:class:`~repro.traces.workloads.WorkloadSpec` whose phase boundaries
are emitted as PHASE marker events through the packed event stream
(flag-encoded alongside the warm-up MARKER; see
:mod:`repro.core.stats`).  Both replay kernels split statistics at the
markers, so every :class:`~repro.core.stats.FilterEvaluation` for a
suite carries byte-identical per-phase metrics in ``phases`` across
live-streamed, recorded-replay, and checkpoint-resumed runs.

Phase lengths scale proportionally when ``n_accesses`` is overridden
(``--accesses``, presets): boundaries are fixed fractions of the run,
not absolute counts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.traces.profiles import PROFILES, SharingProfile, get_profile
from repro.traces.workloads import PaperReference, WorkloadSpec


@dataclass(frozen=True)
class PhaseSpec:
    """One resolved phase: a named slice of the run under one profile.

    Self-contained: the profile's recipe is copied in at construction,
    so a suite's identity (and its stream fingerprint) captures the
    profile *as parameterised then*, not whatever the registry holds
    later.
    """

    name: str
    #: Name of the profile this phase was built from (informational).
    profile: str
    #: Nominal accesses at the suite's nominal length; actual phase
    #: lengths are scaled proportionally to the effective ``n_accesses``.
    accesses: int
    repeat_frac: float
    recipe: tuple[tuple[str, dict], ...]


def Phase(
    name: str,
    profile: SharingProfile | str,
    accesses: int,
) -> PhaseSpec:
    """Declare one suite phase: ``accesses`` accesses under ``profile``.

    ``profile`` is a :class:`SharingProfile` or a registry name
    (:data:`~repro.traces.profiles.PROFILES`).  The profile is resolved
    *now* — the returned :class:`PhaseSpec` owns a copy of its recipe.
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    if accesses < 1:
        raise ConfigurationError(
            f"phase {name!r} needs a positive access count, got {accesses}"
        )
    return PhaseSpec(
        name=name,
        profile=profile.name,
        accesses=accesses,
        repeat_frac=profile.repeat_frac,
        recipe=profile.recipe,
    )


@dataclass(frozen=True)
class SuiteSpec(WorkloadSpec):
    """A workload spec whose run is partitioned into profile phases.

    Everything spec-shaped downstream (``run_sweep``, the experiment
    store, ``replace(spec, n_accesses=...)`` overrides) works unchanged;
    the phase structure only surfaces where it must — stream building
    (:func:`~repro.traces.workloads.build_workload_stream`), PHASE-mark
    scheduling (:meth:`phase_marks`), and the store's spec fingerprint.
    """

    phases: tuple[PhaseSpec, ...] = ()

    def phase_names(self) -> tuple[str, ...]:
        """Phase names in run order (index ``i`` names PHASE ``i``)."""
        return tuple(p.name for p in self.phases)

    def phase_starts(self, n_accesses: int | None = None) -> tuple[int, ...]:
        """Measured-region offsets where each phase begins.

        Nominal phase lengths are scaled to the effective ``n_accesses``
        by monotone cumulative scaling (``start = cum * n // total``), so
        boundaries stay ordered, phase 0 starts at 0, and lengths sum
        exactly to ``n`` for any override.
        """
        n = self.n_accesses if n_accesses is None else n_accesses
        total = sum(p.accesses for p in self.phases)
        starts = []
        cum = 0
        for p in self.phases:
            starts.append(cum * n // total)
            cum += p.accesses
        return tuple(starts)

    def phase_marks(
        self,
        n_accesses: int | None = None,
        warmup_accesses: int | None = None,
    ) -> tuple[int, ...]:
        """Absolute stream positions (warm-up included) of PHASE marks.

        Mark ``i`` is the position where phase ``i`` *starts*; mark 0
        lands exactly on the warm-up boundary, so the PHASE(0) marker is
        emitted just after the warm-up MARKER and the whole measured
        region is covered by phases.
        """
        warmup = (
            self.warmup_accesses if warmup_accesses is None else warmup_accesses
        )
        return tuple(warmup + s for s in self.phase_starts(n_accesses))


def Suite(
    phases: Sequence[PhaseSpec],
    name: str | None = None,
    description: str = "",
    warmup_accesses: int = 40_000,
) -> SuiteSpec:
    """Compose phases into a :class:`SuiteSpec` (the suite DSL entry).

    ``n_accesses`` is the sum of the nominal phase lengths; phase names
    must be unique (they key the per-phase metric splits).
    """
    phases = tuple(phases)
    if not phases:
        raise ConfigurationError("a suite needs at least one phase")
    names = [p.name for p in phases]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"duplicate phase names in suite: {names} — per-phase metrics "
            "are keyed by name"
        )
    if name is None:
        name = "suite(" + ",".join(names) + ")"
    if not description:
        description = "Phase-structured suite: " + " -> ".join(
            f"{p.name}[{p.profile}]" for p in phases
        )
    return SuiteSpec(
        name=name,
        abbrev=name[:2],
        description=description,
        paper=PaperReference(
            0.0, 0.0, 0.0, 0.0, 0.0, (0.0, 0.0, 0.0, 0.0), 0.0, 0.0
        ),
        n_accesses=sum(p.accesses for p in phases),
        warmup_accesses=warmup_accesses,
        repeat_frac=0.0,
        recipe=(),
        phases=phases,
    )


# ----------------------------------------------------------------------
# Canonical suites
# ----------------------------------------------------------------------


def canonical_suite(profile: SharingProfile | str) -> SuiteSpec:
    """The profile's standard two-phase suite: ``ramp`` then ``steady``.

    Both phases run the same profile; the split separates the filter's
    learning transient (ramp: the measured region right after warm-up)
    from its converged behaviour (steady).  Each one is a row of the
    ``profile-matrix`` exhibit (:mod:`repro.analysis.exhibits`).
    """
    if isinstance(profile, str):
        profile = get_profile(profile)
    return Suite(
        [
            Phase("ramp", profile, 40_000),
            Phase("steady", profile, 120_000),
        ],
        name=profile.name,
        description=f"Canonical ramp/steady suite for {profile.name}: "
        + profile.description,
    )


def _flip_suites() -> list[SuiteSpec]:
    """Named phase-flipping mixes: profiles alternating mid-run."""
    return [
        Suite(
            [
                Phase("web", "read-mostly-web", 70_000),
                Phase("scan", "scan-stream", 50_000),
                Phase("settle", "read-mostly-web", 70_000),
            ],
            name="flip-web-scan",
            description="Read-mostly web tier interrupted by an "
            "analytics scan, then settling back.",
        ),
        Suite(
            [
                Phase("hot", "zipf-hot", 60_000),
                Phase("txn", "migratory-heavy", 60_000),
                Phase("burst", "producer-consumer-burst", 60_000),
            ],
            name="flip-hot-txn-burst",
            description="Zipf-hot reads flipping to migratory "
            "transactions, then a producer-consumer burst.",
        ),
    ]


#: Named suite registry: one canonical ramp/steady suite per profile
#: (keyed by the profile name) plus the phase-flipping mixes.  Resolved
#: by :func:`repro.traces.workloads.get_workload` after the application
#: workloads, so every suite name works anywhere a workload name does.
SUITES: dict[str, SuiteSpec] = {
    **{name: canonical_suite(name) for name in PROFILES},
    **{suite.name: suite for suite in _flip_suites()},
}

#: Presentation order: profiles first (catalogue order), then flips.
SUITE_ORDER = tuple(SUITES)
