"""Paired A/B overhead gates: per-phase accounting and supervision.

Each gate times the same work with and without the feature as 101
interleaved pairs (see :func:`_paired_overhead`) and fails when the
median per-pair ratio is more than its budget over 1:

* ``phase`` — a plain streamed lu run against the same run with four
  PHASE marks and per-phase splits in every filter bank (3%);
* ``supervision`` — a clean lu replay fan-out through
  :class:`~repro.analysis.resilience.SupervisedExecutor` against a bare
  ``ProcessPoolExecutor`` (2%).

Sizes and budgets are constants.  Prints one JSON line (the pair
statistics plus ``bound`` and ``ok``) and exits 1 over the budget::

    PYTHONPATH=src python tools/overhead_ab.py {phase|supervision}
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis import runner
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.workloads import get_workload

FILTERS = runner.DEFAULT_SWEEP_FILTERS


def _sized(name: str, n_accesses: int, warmup: int):
    spec = get_workload(name)
    return replace(spec, n_accesses=n_accesses, warmup_accesses=warmup)


def _paired_overhead(baseline, variant, sides: tuple[str, str],
                     pairs: int = 31) -> dict:
    """Time two callables as ``pairs`` interleaved pairs.

    Each call returns its own wall time; ``sides`` names the two
    medians' ``<side>_seconds`` keys.  The pairs alternate which side
    goes first, and the overhead is the median of the per-pair
    ``variant / baseline`` ratios minus one (floored at zero): host drift
    slower than one pair cancels within it, and a pair hit by a
    scheduler hiccup is an outlier the median ignores.  The ratios'
    quartiles show how wide the noise was.
    """
    base, other = [], []
    for pair in range(pairs):
        if pair % 2:
            other.append(variant())
            base.append(baseline())
        else:
            base.append(baseline())
            other.append(variant())
    ratios = sorted(b / a for a, b in zip(base, other))
    return {
        "pairs": pairs,
        f"{sides[0]}_seconds": round(statistics.median(base), 4),
        f"{sides[1]}_seconds": round(statistics.median(other), 4),
        "median_ratio": round(ratios[pairs // 2], 4),
        "ratio_quartiles": [round(ratios[pairs // 4], 4),
                            round(ratios[3 * pairs // 4], 4)],
        "overhead_frac": round(max(0.0, ratios[pairs // 2] - 1.0), 4),
    }


def measure_phase_overhead(name: str, n_accesses: int, warmup: int,
                           n_phases: int = 4, pairs: int = 101) -> dict:
    """Per-phase accounting price on the streamed path.

    Two streamed runs over byte-identical access streams (same spec,
    same seed, rebuilt fresh per run): one plain, one with
    ``n_phases`` synthetic phase boundaries emitted mid-run and
    per-phase splits accounted in every filter bank.  The loop is
    otherwise instruction-identical, so the ratio is the price of
    phase accounting alone.  The banks ride the run as a live sweep's
    do (one ``LiveBanks`` consumer), so the A/B times the compiled group
    walk where the native core loads.  The
    runs are short (about 10 ms at 120k accesses, 40-60 ms at 1M), so
    they are timed as ``pairs`` interleaved pairs (see
    :func:`_paired_overhead`): 31 pairs left the 3% budget inside the
    median's noise.
    """
    from repro.coherence.smp import simulate_streaming
    from repro.core.stats import LiveBanks
    from repro.traces.workloads import simulate_workload_accesses

    spec = _sized(name, n_accesses, warmup)

    def one_run(marks, names) -> float:
        stream, warm = simulate_workload_accesses(
            spec, n_cpus=SCALED_SYSTEM.n_cpus, seed=1
        )
        banks = [
            runner._build_bank(f, SCALED_SYSTEM, phase_names=names)
            for f in FILTERS
        ]
        started = time.perf_counter()
        simulate_streaming(
            SCALED_SYSTEM, stream, spec.name, warmup=warm,
            sinks=[LiveBanks(banks)], phase_marks=marks,
        )
        for bank in banks:
            bank.finish()
        return time.perf_counter() - started

    marks = tuple(
        warmup + (i * n_accesses) // n_phases for i in range(n_phases)
    )
    names = tuple(f"q{i}" for i in range(n_phases))
    return {
        "workload": name,
        "accesses": n_accesses,
        "warmup": warmup,
        "filters": len(FILTERS),
        "phases": n_phases,
        **_paired_overhead(lambda: one_run((), ()),
                           lambda: one_run(marks, names),
                           ("plain", "phased"), pairs),
    }


def measure_supervision_overhead(name: str, n_accesses: int, warmup: int,
                                 workers: int = 2, pairs: int = 101) -> dict:
    """Supervision price on a clean replay fan-out: supervised vs raw pool.

    Records one trace, then replays all four filter configurations over
    the *same* task list, once through
    :class:`~repro.analysis.resilience.SupervisedExecutor` (deadlines,
    crash detection, retry bookkeeping armed but never firing) and once
    through a bare ``ProcessPoolExecutor.map``, as interleaved pairs
    (see :func:`_paired_overhead`).  Pool startup is paid by both sides
    and the tasks are byte-identical, so the ratio is the supervision
    machinery's price alone.
    """
    import concurrent.futures

    from repro.analysis import store as store_mod
    from repro.analysis.resilience import SupervisedExecutor
    from repro.analysis.runner import (
        _phase_plan,
        _replay_task,
        _segment_payload,
        load_trace,
    )

    spec = _sized(name, n_accesses, warmup)
    with tempfile.TemporaryDirectory() as tmp:
        store = ExperimentStore(Path(tmp) / "bench-supervision.sqlite")
        runner.execute(
            [runner.SweepJob(spec)], mode="replay", experiment_store=store
        )
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        loaded = load_trace(store, tkey)
        assert loaded is not None  # the record job above just wrote it
        path, segments = _segment_payload(store, loaded[1])
        phase_names = _phase_plan(spec)[1]
        tasks = [
            (path, segments, SCALED_SYSTEM,
             [(store_mod.eval_key(spec, f, SCALED_SYSTEM, 1), f)],
             phase_names)
            for f in FILTERS
        ]

        def raw_run() -> float:
            started = time.perf_counter()
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers
            ) as pool:
                list(pool.map(_replay_task, tasks))
            return time.perf_counter() - started

        def supervised_run() -> float:
            started = time.perf_counter()
            SupervisedExecutor(workers, backend="process").map(
                _replay_task, tasks
            )
            return time.perf_counter() - started

        timed = _paired_overhead(raw_run, supervised_run,
                                 ("raw", "supervised"), pairs)
        store.close()
    return {
        "workload": name,
        "accesses": n_accesses,
        "warmup": warmup,
        "filters": len(FILTERS),
        "workers": workers,
        **timed,
    }


#: gate -> (measure, lu accesses, warm-up, budget).  The phase runs are
#: 1M accesses long: phase accounting costs a fixed ≈1 ms per run (four
#: marks), +1-2% of a 1M-access run but +11-12% of a 120k one.
#: The supervision fan-out is floored at 400k accesses: the 2% budget is
#: smaller than timer noise on the shortest fan-outs, even as a median
#: of pairs.
GATES = {
    "phase": (measure_phase_overhead, 1_000_000, 10_000, 0.03),
    "supervision": (measure_supervision_overhead, 400_000, 10_000, 0.02),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", choices=sorted(GATES))
    gate = parser.parse_args(argv).gate
    measure, n_accesses, warmup, bound = GATES[gate]
    entry = measure("lu", n_accesses, warmup)
    ok = entry["overhead_frac"] <= bound
    print(json.dumps({"gate": gate, **entry, "bound": bound, "ok": ok}),
          flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
