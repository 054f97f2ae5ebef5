"""All-profiles x all-filters evaluation matrix with per-phase metrics.

The capacity-planning view the sharing-profile library exists for:
every canonical profile suite (and the phase-flipping mixes) crossed
with every filter configuration, reported *per phase* — filtering rate,
false-exclusion check, snoop tag probes saved — so "which filter wins
for a read-mostly web tier mid-scan?" is a table lookup, not a study.

Results are doubly warm.  The sweep itself runs through the experiment
store (streamed mode: every evaluation lands under the shared ``eval``
keyspace), and the *rendered matrix* is stored content-addressed under
its own ``matrix`` kind, keyed by every suite's fingerprint, the filter
list, the system geometry, and the seed.  A second invocation with the
same inputs therefore answers from one key lookup — zero simulations,
zero replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import store as store_mod
from repro.analysis.runner import DEFAULT_SWEEP_FILTERS, run_sweep
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.smp import DEFAULT_CHUNK_SIZE
from repro.errors import WorkloadError
from repro.traces.suite import SUITE_ORDER, SUITES
from repro.traces.workloads import override_spec
from repro.utils.text import format_percent, render_table


@dataclass
class MatrixOutcome:
    """One rendered matrix: the stored payload plus presentation strings."""

    payload: dict
    #: Execution summary line (``sims: 0 run / ...`` when fully warm).
    summary: str
    #: True when the matrix came from the store's ``matrix`` row without
    #: touching the sweep engine at all (the pure-key-lookup path).
    from_store: bool = False

    def tables(self) -> str:
        """Render the per-phase rate table plus the per-class winners."""
        filters = self.payload["filters"]
        rate_rows = []
        winner_rows = []
        for entry in self.payload["suites"]:
            for phase in entry["phases"]:
                per_filter = phase["per_filter"]
                rate_rows.append([
                    entry["workload"],
                    phase["phase"],
                    *(
                        format_percent(per_filter[name]["rate"])
                        for name in filters
                    ),
                ])
            violations = entry["false_exclusions"]
            winner_rows.append([
                entry["workload"],
                entry["winner"],
                format_percent(entry["winner_coverage"]),
                f"{entry['probes_saved']:,}",
                "none" if violations == 0 else f"VIOLATION x{violations}",
            ])
        rate_table = render_table(
            ["workload", "phase", *filters],
            rate_rows,
            title="Per-phase filtering rate (filtered snoops / all snoops)",
        )
        winner_table = render_table(
            ["workload", "winner", "coverage", "probes saved", "false excl"],
            winner_rows,
            title="Workload-class winners (whole-run coverage)",
        )
        return rate_table + "\n\n" + winner_table


def _phase_cell(phase_stats) -> dict:
    """One phase's stored metrics for one filter."""
    coverage = phase_stats.coverage
    return {
        "snoops": coverage.snoops,
        "would_hit": coverage.snoop_would_hit,
        "would_miss": coverage.snoop_would_miss,
        "filtered": coverage.filtered,
        "rate": coverage.filtered / coverage.snoops if coverage.snoops else 0.0,
        "coverage": coverage.coverage,
        # False exclusions: snoops the filter suppressed that would have
        # *hit* a remote cache.  The replay kernels raise
        # FilterSafetyError the moment one happens, so any completed
        # evaluation shows filtered <= would_miss; the stored count keeps
        # the check visible (and greppable) in the matrix itself.
        "false_exclusions": max(
            0, coverage.filtered - coverage.snoop_would_miss
        ),
        "allocs": phase_stats.allocs,
        "evicts": phase_stats.evicts,
    }


def evaluate_matrix(
    profiles=None,
    filters=DEFAULT_SWEEP_FILTERS,
    *,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 1,
    accesses: int | None = None,
    warmup: int | None = None,
    workers: int = 1,
    backend: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_every: int | None = None,
    experiment_store: ExperimentStore | None = None,
) -> MatrixOutcome:
    """Build (or fetch) the profile x filter per-phase evaluation matrix.

    ``profiles`` names suites from the registry
    (:data:`repro.traces.suite.SUITES` — canonical per-profile suites
    plus the flip mixes); default is all of them in catalogue order.
    ``accesses``/``warmup`` shrink every suite (phase boundaries scale
    proportionally), for smoke runs.

    The store is consulted at two levels: a stored matrix row under the
    exact same inputs short-circuits everything (``from_store=True``,
    zero simulations); otherwise the streamed sweep runs through the
    shared ``eval`` keyspace — warm evaluations are never recomputed —
    and the finished matrix is stored for next time.
    """
    if experiment_store is None:
        from repro.analysis import experiments

        experiment_store = experiments.get_store()

    names = list(profiles) if profiles else list(SUITE_ORDER)
    filters = tuple(filters)
    specs = {}
    for name in names:
        suite = SUITES.get(name)
        if suite is None:
            raise WorkloadError(
                f"unknown profile suite {name!r}; choose from {sorted(SUITES)}"
            )
        specs[name] = override_spec(suite, accesses=accesses, warmup=warmup)

    mkey = store_mod.matrix_key(
        [specs[name] for name in names], filters, system, seed
    )
    blob = experiment_store.get_blob(mkey)
    if blob is not None:
        payload = store_mod.decode_matrix(blob)
        return MatrixOutcome(
            payload=payload,
            summary=(
                f"sims: 0 run / {len(names)} cached; matrix answered from "
                f"stored key {mkey[:12]} (no sweep executed)"
            ),
            from_store=True,
        )

    result = run_sweep(
        [specs[name] for name in names],
        filters,
        system=system,
        seeds=(seed,),
        workers=workers,
        experiment_store=experiment_store,
        stream=True,
        backend=backend,
        chunk_size=chunk_size,
        checkpoint_every=checkpoint_every,
    )

    suites = []
    for name in names:
        spec = specs[name]
        phase_rows = []
        totals = {}
        false_exclusions = 0
        for phase_name in spec.phase_names():
            per_filter = {}
            for filter_name in filters:
                evaluation = result.evaluations[(name, filter_name, seed)]
                cell = _phase_cell(evaluation.phases[phase_name])
                per_filter[filter_name] = cell
                false_exclusions += cell["false_exclusions"]
            phase_rows.append({"phase": phase_name, "per_filter": per_filter})
        for filter_name in filters:
            evaluation = result.evaluations[(name, filter_name, seed)]
            totals[filter_name] = evaluation.coverage
        winner = max(totals, key=lambda f: totals[f].coverage)
        suites.append({
            "workload": name,
            "spec": store_mod.spec_fingerprint(spec),
            "phases": phase_rows,
            "winner": winner,
            "winner_coverage": totals[winner].coverage,
            "probes_saved": totals[winner].filtered,
            "false_exclusions": false_exclusions,
        })

    payload = {
        "version": 1,
        "filters": list(filters),
        "seed": seed,
        "system": store_mod.system_fingerprint(system),
        "suites": suites,
    }
    experiment_store.put_blob(
        mkey,
        store_mod.encode_matrix(payload),
        kind=store_mod.MATRIX_KIND,
        workload="matrix",
        filter_name=None,
        n_cpus=system.n_cpus,
        seed=seed,
    )
    return MatrixOutcome(payload=payload, summary=result.report.summary())
