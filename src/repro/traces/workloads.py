"""The ten evaluation workloads of Table 2, as synthetic pattern mixes.

Each entry models one paper application (eight SPLASH-2 programs plus
Em3d and Unstructured) as a weighted mix of sharing patterns.  The mix
weights and working-set spans were tuned against the paper's published
per-application statistics — L2 local hit rate (Table 2) and the snoop
remote-hit distribution (Table 3) — which are recorded verbatim in each
spec's :class:`PaperReference` so the benches can print paper-vs-measured
side by side.

Address layout: every pattern instance gets its own region, spaced 4 MB
apart, so block addresses carry the region structure in their upper bits.
This mirrors real allocators (per-thread heaps, distinct global arrays)
and is what gives the include-JETTY's higher-order index fields their
discriminating power.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError, WorkloadError
from repro.traces.synth import (
    MigratoryPattern,
    MixStream,
    PrivateWorkingSet,
    ProducerConsumer,
    SharedReadOnly,
    StreamingSweep,
    WorkloadMix,
)

#: Spacing between pattern regions (4 MB) — far enough apart that region
#: identity is visible in block-address bits 16 and up.
REGION_BYTES = 1 << 22

#: First region base (keeps address 0 unused).
REGION_FLOOR = 1 << 22

KB = 1024


@dataclass(frozen=True)
class PaperReference:
    """Published per-application numbers (paper Tables 2 and 3)."""

    accesses_millions: float
    memory_mbytes: float
    l1_hit_rate: float
    l2_hit_rate: float
    snoop_accesses_millions: float
    #: Fraction of snoops finding copies in 0, 1, 2, 3 other caches.
    remote_hits: tuple[float, float, float, float]
    #: Snoop-induced tag accesses that miss, as a fraction of snoops.
    snoop_miss_of_snoops: float
    #: ... and as a fraction of all L2 accesses.
    snoop_miss_of_all: float


class _RegionAllocator:
    """Deterministic bump allocator for pattern regions.

    Each region is additionally staggered by a deterministic sub-offset
    (multiple of 4 KB, below half a region).  Without the stagger every
    region would start at L2 set 0 — an alignment pathology real memory
    allocators do not exhibit — concentrating inter-pattern conflicts in
    the low cache sets.
    """

    def __init__(self) -> None:
        self._index = 0

    def take(self, count: int = 1) -> list[int]:
        bases = []
        for _ in range(count):
            stagger = ((self._index * 2654435761) >> 8) % (REGION_BYTES // 2)
            stagger &= ~0xFFF  # keep 4 KB alignment
            bases.append(REGION_FLOOR + self._index * REGION_BYTES + stagger)
            self._index += 1
        return bases

    def take_partitions(self, count: int, partition_bytes: int) -> list[int]:
        """Adjacent per-CPU partitions inside one shared array.

        SPLASH-style programs allocate one large array and partition it
        across processors, so per-CPU partitions share their upper address
        bits and only middle bits identify the owner.  Using one region
        here (rather than one region per CPU) keeps the include-JETTY's
        high-order index fields from discriminating between processors'
        data "for free" — matching the paper-scale situation.
        """
        span = count * partition_bytes
        regions_needed = -(-span // REGION_BYTES)  # ceiling division
        base = self.take(1)[0]
        # Reserve the extra regions the partitioned span covers.
        self._index += max(0, regions_needed - 1)
        return [base + i * partition_bytes for i in range(count)]


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: metadata, paper reference, and mix recipe."""

    name: str
    abbrev: str
    description: str
    paper: PaperReference
    n_accesses: int = 200_000
    #: Accesses used to warm the caches before statistics start.
    warmup_accesses: int = 120_000
    #: Probability of re-issuing the previous access (short-range reuse
    #: raising the L1 hit rate toward the paper's; see WorkloadMix).
    repeat_frac: float = 0.0
    #: Mix recipe: list of (kind, params) consumed by :func:`_build_pattern`.
    recipe: tuple[tuple[str, dict], ...] = field(default_factory=tuple)

    def build_mix(self, n_cpus: int = 4) -> WorkloadMix:
        """Instantiate the pattern mix for an ``n_cpus``-way system."""
        return build_recipe_mix(self.recipe, self.repeat_frac, n_cpus)

    def memory_bytes(self, n_cpus: int = 4) -> int:
        """Total data footprint of the recipe (Table 2's "MA" column)."""
        total = 0
        for kind, params in self.recipe:
            if kind == "private":
                total += params["ws_bytes"] * n_cpus
            elif kind == "streaming":
                total += params["partition_bytes"] * n_cpus
            elif kind == "producer_consumer":
                pairs = min(params.get("n_pairs", n_cpus), n_cpus)
                total += params.get("buffer_bytes", 8 * KB) * pairs
            elif kind == "migratory":
                total += params.get("n_objects", 64) * 64
            elif kind == "shared_readonly":
                total += params["region_bytes"]
        return total


def build_recipe_mix(
    recipe: Sequence[tuple[str, dict]],
    repeat_frac: float = 0.0,
    n_cpus: int = 4,
) -> WorkloadMix:
    """Instantiate a pattern-mix recipe with a fresh region allocator.

    The shared factory behind :meth:`WorkloadSpec.build_mix`, the
    sharing-profile library (:mod:`repro.traces.profiles`), and each
    phase of a suite (:func:`build_workload_stream`): every caller gets its
    own deterministic region layout starting from region 0.
    """
    allocator = _RegionAllocator()
    components = []
    for kind, params in recipe:
        pattern, weight = _build_pattern(kind, params, n_cpus, allocator)
        components.append((pattern, weight))
    return WorkloadMix(components, repeat_frac=repeat_frac)


def _pairs_for(n_cpus: int) -> list[tuple[int, int]]:
    """Neighbour CPU pairs: (0,1), (1,2), ..., wrapping around."""
    return [(i, (i + 1) % n_cpus) for i in range(n_cpus)]


def _build_pattern(kind: str, params: dict, n_cpus: int, allocator: _RegionAllocator):
    """Construct one pattern of the recipe, allocating its regions."""
    cpus = list(range(n_cpus))
    weight = params["weight"]
    if kind == "private":
        return (
            PrivateWorkingSet(
                cpus,
                allocator.take_partitions(n_cpus, params["ws_bytes"]),
                ws_bytes=params["ws_bytes"],
                write_frac=params.get("write_frac", 0.3),
                run_mean=params.get("run_mean", 8),
                alpha=params.get("alpha", 2.0),
            ),
            weight,
        )
    if kind == "streaming":
        return (
            StreamingSweep(
                cpus,
                allocator.take_partitions(n_cpus, params["partition_bytes"]),
                partition_bytes=params["partition_bytes"],
                write_frac=params.get("write_frac", 0.25),
                remote_frac=params.get("remote_frac", 0.0),
                boundary_bytes=params.get("boundary_bytes", 4096),
            ),
            weight,
        )
    if kind == "producer_consumer":
        pairs = _pairs_for(n_cpus)[: params.get("n_pairs", n_cpus)]
        return (
            ProducerConsumer(
                pairs,
                allocator.take(len(pairs)),
                buffer_bytes=params.get("buffer_bytes", 8 * KB),
                consumer_reads_per_word=params.get("consumer_reads", 1),
            ),
            weight,
        )
    if kind == "migratory":
        return (
            MigratoryPattern(
                cpus,
                allocator.take(1)[0],
                n_objects=params.get("n_objects", 64),
                holder_accesses=params.get("holder_accesses", 6),
            ),
            weight,
        )
    if kind == "shared_readonly":
        return (
            SharedReadOnly(
                cpus,
                allocator.take(1)[0],
                region_bytes=params["region_bytes"],
                write_frac=params.get("write_frac", 0.02),
                run_mean=params.get("run_mean", 6),
                alpha=params.get("alpha", 2.5),
            ),
            weight,
        )
    raise WorkloadError(f"unknown pattern kind {kind!r}")


def _spec(
    name: str,
    abbrev: str,
    description: str,
    paper: PaperReference,
    recipe: Sequence[tuple[str, dict]],
    n_accesses: int = 200_000,
    repeat_frac: float = 0.0,
    warmup_accesses: int | None = None,
) -> WorkloadSpec:
    if warmup_accesses is None:
        # Scale the warm-up so roughly 40k non-repeat accesses (enough to
        # populate a 64 KB L2 per CPU) precede measurement.
        warmup_accesses = int(40_000 / max(0.05, 1.0 - repeat_frac))
    return WorkloadSpec(
        name=name,
        abbrev=abbrev,
        description=description,
        paper=paper,
        n_accesses=n_accesses,
        warmup_accesses=warmup_accesses,
        repeat_frac=repeat_frac,
        recipe=tuple(recipe),
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in [
        _spec(
            "barnes",
            "ba",
            "Hierarchical N-body: private tree walks, migrating bodies, "
            "widely read (occasionally rebuilt) root cells.",
            PaperReference(967.0, 57.4, 0.978, 0.317, 47.1,
                           (0.47, 0.28, 0.15, 0.10), 0.71, 0.48),
            [
                ("private", dict(weight=0.26, ws_bytes=44 * KB, alpha=1.2)),
                ("private", dict(weight=0.28, ws_bytes=448 * KB, alpha=1.2,
                                 run_mean=16)),
                ("migratory", dict(weight=0.06, n_objects=48)),
                ("shared_readonly", dict(weight=0.40, region_bytes=24 * KB,
                                         write_frac=0.03, alpha=1.1)),
            ],
            repeat_frac=0.78,
            n_accesses=320_000,
        ),
        _spec(
            "cholesky",
            "ch",
            "Sparse factorisation: dominant private panels, light hand-off.",
            PaperReference(224.4, 26.3, 0.980, 0.642, 9.9,
                           (0.92, 0.05, 0.03, 0.00), 0.95, 0.59),
            [
                ("private", dict(weight=0.72, ws_bytes=48 * KB, alpha=1.2)),
                ("private", dict(weight=0.18, ws_bytes=320 * KB, alpha=1.3,
                                 run_mean=16)),
                ("producer_consumer", dict(weight=0.06, n_pairs=2,
                                           buffer_bytes=8 * KB)),
                ("shared_readonly", dict(weight=0.04, region_bytes=20 * KB,
                                         write_frac=0.04, alpha=1.3)),
            ],
            repeat_frac=0.80,
            n_accesses=320_000,
        ),
        _spec(
            "em3d",
            "em",
            "Electromagnetic wave propagation: streaming sweeps with remote "
            "graph edges (15% remote input); snoop-dominated.",
            PaperReference(333.4, 34.4, 0.765, 0.233, 252.6,
                           (0.80, 0.17, 0.02, 0.01), 0.92, 0.69),
            [
                ("streaming", dict(weight=0.57, partition_bytes=768 * KB,
                                   remote_frac=0.10, write_frac=0.3,
                                   boundary_bytes=8 * KB)),
                ("private", dict(weight=0.37, ws_bytes=40 * KB, alpha=1.2)),
                ("shared_readonly", dict(weight=0.06, region_bytes=16 * KB,
                                         write_frac=0.03, alpha=1.3)),
            ],
            repeat_frac=0.30,
            n_accesses=220_000,
        ),
        _spec(
            "fft",
            "ff",
            "Radix-sqrt(n) FFT: private butterflies, transpose hand-offs.",
            PaperReference(60.2, 12.7, 0.968, 0.363, 7.5,
                           (0.93, 0.07, 0.00, 0.00), 0.98, 0.73),
            [
                ("private", dict(weight=0.51, ws_bytes=48 * KB, alpha=1.2)),
                ("private", dict(weight=0.35, ws_bytes=448 * KB, alpha=1.2,
                                 run_mean=16)),
                ("producer_consumer", dict(weight=0.14, n_pairs=2,
                                           buffer_bytes=16 * KB)),
            ],
            repeat_frac=0.72,
            n_accesses=280_000,
        ),
        _spec(
            "fmm",
            "fm",
            "Fast multipole: small hot private sets, migrating interaction "
            "lists.",
            PaperReference(1751.2, 36.1, 0.996, 0.812, 8.1,
                           (0.82, 0.15, 0.02, 0.01), 0.93, 0.39),
            [
                ("private", dict(weight=0.86, ws_bytes=44 * KB, alpha=1.2)),
                ("private", dict(weight=0.065, ws_bytes=512 * KB, alpha=1.2,
                                 run_mean=16)),
                ("migratory", dict(weight=0.035, n_objects=64)),
                ("shared_readonly", dict(weight=0.04, region_bytes=20 * KB,
                                         write_frac=0.03, alpha=1.3)),
            ],
            repeat_frac=0.85,
            n_accesses=400_000,
        ),
        _spec(
            "lu",
            "lu",
            "Blocked dense LU: private blocks, pivot row/column hand-off.",
            PaperReference(188.7, 4.6, 0.957, 0.825, 6.3,
                           (0.73, 0.26, 0.01, 0.00), 0.91, 0.39),
            [
                ("private", dict(weight=0.79, ws_bytes=44 * KB, alpha=1.2)),
                ("private", dict(weight=0.04, ws_bytes=384 * KB, alpha=1.2,
                                 run_mean=16)),
                ("producer_consumer", dict(weight=0.17, n_pairs=4,
                                           buffer_bytes=8 * KB)),
            ],
            repeat_frac=0.76,
            n_accesses=320_000,
        ),
        _spec(
            "ocean",
            "oc",
            "Ocean currents: nearest-neighbour grids dominated by private "
            "partitions far larger than L2.",
            PaperReference(182.8, 41.6, 0.835, 0.522, 90.0,
                           (0.97, 0.03, 0.00, 0.00), 0.99, 0.66),
            [
                ("private", dict(weight=0.68, ws_bytes=52 * KB, alpha=1.2,
                                 run_mean=12)),
                ("private", dict(weight=0.27, ws_bytes=384 * KB, alpha=1.2,
                                 run_mean=16)),
                ("producer_consumer", dict(weight=0.05, n_pairs=4,
                                           buffer_bytes=4 * KB)),
            ],
            repeat_frac=0.45,
            n_accesses=220_000,
        ),
        _spec(
            "radix",
            "ra",
            "Radix sort: private histograms plus streaming permutation "
            "writes to private output partitions.",
            PaperReference(399.4, 82.1, 0.962, 0.794, 42.6,
                           (1.00, 0.00, 0.00, 0.00), 1.00, 0.56),
            [
                ("private", dict(weight=0.80, ws_bytes=44 * KB, alpha=1.2)),
                ("streaming", dict(weight=0.20, partition_bytes=320 * KB,
                                   write_frac=0.55)),
            ],
            repeat_frac=0.75,
            n_accesses=320_000,
        ),
        _spec(
            "raytrace",
            "rt",
            "Ray tracing: read-only scene geometry partitioned by image "
            "tile; almost no inter-processor reuse.",
            PaperReference(299.9, 69.1, 0.983, 0.466, 12.3,
                           (1.00, 0.00, 0.00, 0.00), 1.00, 0.69),
            [
                ("private", dict(weight=0.62, ws_bytes=48 * KB,
                                 write_frac=0.0, alpha=1.2, run_mean=5)),
                ("private", dict(weight=0.33, ws_bytes=640 * KB,
                                 write_frac=0.0, alpha=1.2, run_mean=10)),
                ("private", dict(weight=0.05, ws_bytes=24 * KB,
                                 write_frac=0.9, alpha=2.0)),
            ],
            repeat_frac=0.82,
            n_accesses=320_000,
        ),
        _spec(
            "unstructured",
            "un",
            "CFD on an irregular mesh: heavy pairwise edge exchange, some "
            "widely shared boundary nodes.",
            PaperReference(1693.6, 3.5, 0.924, 0.787, 304.8,
                           (0.33, 0.55, 0.04, 0.08), 0.71, 0.28),
            [
                ("private", dict(weight=0.585, ws_bytes=40 * KB, alpha=1.2)),
                ("private", dict(weight=0.01, ws_bytes=320 * KB, alpha=1.2,
                                 run_mean=16)),
                ("producer_consumer", dict(weight=0.30, n_pairs=4,
                                           buffer_bytes=12 * KB,
                                           consumer_reads=2)),
                ("migratory", dict(weight=0.035, n_objects=32)),
                ("shared_readonly", dict(weight=0.07, region_bytes=12 * KB,
                                         write_frac=0.02, alpha=1.0)),
            ],
            repeat_frac=0.66,
            n_accesses=320_000,
        ),
    ]
}

#: Paper presentation order (Tables 2-3, Figures 4-6).
WORKLOAD_ORDER = tuple(WORKLOADS)


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload, suite, or two-letter abbreviation by name."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    for spec in WORKLOADS.values():
        if spec.abbrev == name:
            return spec
    # Phase-structured suites live in their own registry; the import is
    # lazy because repro.traces.suite builds on this module.
    from repro.traces.suite import SUITES

    if name in SUITES:
        return SUITES[name]
    raise WorkloadError(
        f"unknown workload {name!r}; choose from "
        f"{sorted(WORKLOADS) + sorted(SUITES)}"
    )


def stream_fingerprint(
    spec: WorkloadSpec,
    n_cpus: int = 4,
    seed: int = 0,
    n_accesses: int | None = None,
    include_warmup: bool = False,
) -> str:
    """Stable content hash of everything that shapes an access stream.

    Stamped onto every stream built by :func:`build_workload_stream` and
    carried inside stream checkpoints, so a resume under a different
    spec, phase structure, seed, or CPU count is refused instead of
    silently generating a diverged stream.  Intentionally independent of
    the experiment store's spec fingerprint: this one hashes the stream
    *inputs* (including seed and topology), not the cache identity.
    """
    payload = {
        "name": spec.name,
        "n_accesses": spec.n_accesses if n_accesses is None else n_accesses,
        "warmup_accesses": spec.warmup_accesses,
        "include_warmup": bool(include_warmup),
        "repeat_frac": spec.repeat_frac,
        "recipe": [[kind, params] for kind, params in spec.recipe],
        "n_cpus": n_cpus,
        "seed": seed,
    }
    phases = getattr(spec, "phases", ())
    if phases:
        payload["phases"] = [
            [p.name, p.accesses, p.repeat_frac,
             [[kind, params] for kind, params in p.recipe]]
            for p in phases
        ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_workload_stream(
    spec: WorkloadSpec | str,
    n_cpus: int = 4,
    n_accesses: int | None = None,
    seed: int = 0,
    include_warmup: bool = False,
) -> MixStream:
    """Generate the interleaved access stream for one workload.

    The returned :class:`~repro.traces.synth.MixStream` is a lazy,
    resumable cursor: iterate it whole, drain it in bounded batches
    (``stream.take(n)``), or checkpoint it and continue with
    :func:`resume_stream` — paper-scale traces are never materialised.

    With ``include_warmup`` the stream is prefixed by the spec's warm-up
    accesses (pass ``warmup=spec.warmup_accesses`` to
    :func:`repro.coherence.smp.simulate_streaming` to exclude them from
    statistics).

    A plain workload is one phase.  A phase-structured suite
    (:class:`repro.traces.suite.SuiteSpec`) gets one phase per slice of
    its scaled schedule, each drawn from its own mix seeded by the
    stream seed mixed with the phase's index and name — reordering,
    renaming, or resizing any phase changes exactly the accesses it
    should.  Warm-up extends phase 0, matching
    :meth:`~repro.traces.suite.SuiteSpec.phase_marks` placing mark 0 at
    the warm-up boundary.
    """
    if isinstance(spec, str):
        spec = get_workload(spec)
    fingerprint = stream_fingerprint(
        spec,
        n_cpus=n_cpus,
        seed=seed,
        n_accesses=n_accesses,
        include_warmup=include_warmup,
    )
    n = spec.n_accesses if n_accesses is None else n_accesses
    # Distinct (but process-independent) seed per workload so equal seeds
    # do not correlate streams across workloads.
    base = seed * 1_000_003 + zlib.crc32(spec.name.encode())
    suite_phases = getattr(spec, "phases", ())
    if suite_phases:
        starts = spec.phase_starts(n)
        phases = [
            (
                build_recipe_mix(phase.recipe, phase.repeat_frac, n_cpus),
                end - start,
                base + zlib.crc32(f"{index}:{phase.name}".encode()),
            )
            for index, (phase, start, end) in enumerate(
                zip(suite_phases, starts, starts[1:] + (n,))
            )
        ]
    else:
        phases = [(spec.build_mix(n_cpus), n, base)]
    if include_warmup:
        mix, count, phase_seed = phases[0]
        phases[0] = (mix, count + spec.warmup_accesses, phase_seed)
    return MixStream(phases, fingerprint=fingerprint)


def resume_stream(blob: bytes, fingerprint: str | None = None) -> MixStream:
    """Continue a stream from its :meth:`MixStream.checkpoint` blob.

    Any blob that does not unpickle to a :class:`MixStream` raises
    :class:`~repro.errors.ConfigurationError`.  With ``fingerprint``
    (from :func:`stream_fingerprint` with the resume-side
    spec/seed/topology), the checkpointed stream's own fingerprint must
    match too — resuming a checkpoint generated under a different
    profile or spec would silently produce a diverged access stream,
    the one failure the byte-identical determinism contract cannot
    detect downstream.  A checkpoint written before fingerprints
    existed never matches a requested one.

    .. warning:: ``blob`` is a pickle and is executed on load — resume
       only checkpoints you wrote yourself, from storage you trust.
       The checks catch mix-ups (wrong or damaged file fed back, stale
       chain under a changed spec), not tampering.
    """
    try:
        stream = pickle.loads(blob)
    except Exception as error:
        # Damaged pickle bytes can raise nearly any type (UnpicklingError,
        # EOFError, ValueError, ImportError, MemoryError, ...); all mean
        # the same thing here: this checkpoint cannot be resumed.
        raise ConfigurationError(
            f"unreadable stream checkpoint ({type(error).__name__}: {error})"
        ) from error
    if not isinstance(stream, MixStream):
        raise ConfigurationError(
            f"not a stream checkpoint: {type(stream).__name__}"
        )
    if fingerprint is not None:
        found = getattr(stream, "fingerprint", None)
        if found != fingerprint:
            raise ConfigurationError(
                "stream checkpoint fingerprint mismatch: checkpoint carries "
                f"{found!r}, resume expects {fingerprint!r} — refusing to "
                "continue a stream generated under a different configuration"
            )
    return stream


def simulate_workload_accesses(
    spec: WorkloadSpec | str, n_cpus: int = 4, seed: int = 0
) -> tuple[MixStream, int]:
    """Return ``(stream_with_warmup, warmup_count)`` ready to simulate."""
    if isinstance(spec, str):
        spec = get_workload(spec)
    stream = build_workload_stream(spec, n_cpus=n_cpus, seed=seed, include_warmup=True)
    return stream, spec.warmup_accesses


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

#: Access-count ceiling for the ``paper-scale`` preset.  Table 2's traces
#: range from tens of millions to ~1.75 billion references; the cap keeps
#: the preset's worst case at a size a pure-Python overnight run can
#: absorb while still being two orders of magnitude past the seed sizes.
PAPER_SCALE_CAP = 25_000_000


def paper_scale(spec: WorkloadSpec, cap: int = PAPER_SCALE_CAP) -> WorkloadSpec:
    """Scale a spec to its paper-reported trace length (Table 2, capped).

    Only ``n_accesses`` changes: warm-up is a property of the cache
    geometry, not the trace length, so the spec's warm-up count is kept.
    Both execution modes handle these in bounded memory: recording
    writes O(segment) at a time, streaming holds O(chunk).
    """
    target = int(spec.paper.accesses_millions * 1_000_000)
    if cap:
        target = min(target, cap)
    return replace(spec, n_accesses=max(target, spec.n_accesses))


#: Named spec transformations selectable from the CLI (``--preset``).
PRESETS = {
    "paper-scale": paper_scale,
}


def apply_preset(spec: WorkloadSpec, preset: str) -> WorkloadSpec:
    """Apply a named preset transformation to one workload spec."""
    try:
        transform = PRESETS[preset]
    except KeyError:
        raise WorkloadError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    return transform(spec)


def override_spec(
    spec: WorkloadSpec,
    *,
    preset: str | None = None,
    accesses: int | None = None,
    warmup: int | None = None,
) -> WorkloadSpec:
    """Apply the run-time overrides to ``spec`` in their one order.

    ``preset`` first, then ``accesses`` (``n_accesses``), then
    ``warmup`` (``warmup_accesses``); ``None`` leaves that field alone.
    Every entry point that sizes a spec — sweeps, service shards, trace
    commands — goes through here, so equal flags always meet under equal
    store keys.
    """
    if preset is not None:
        spec = apply_preset(spec, preset)
    if accesses is not None:
        spec = replace(spec, n_accesses=accesses)
    if warmup is not None:
        spec = replace(spec, warmup_accesses=warmup)
    return spec
