"""Standing end-to-end throughput benchmark (accesses per second).

Measures how fast the simulator consumes accesses in both execution
modes and writes a machine-readable ``BENCH_throughput.json`` at the
repository root, seeding the performance trajectory the ROADMAP asks
for ("as fast as the hardware allows" needs a standing measurement,
not one-off timings buried in test logs).

Protocol (identical across code versions, so numbers are comparable):

* **streamed** — one single-pass simulation per workload with the four
  :data:`~repro.analysis.runner.DEFAULT_SWEEP_FILTERS` banks attached
  live (the paper-scale configuration; the headline number);
* **replay** — the record-once / replay-many trace store: a *cold
  record* (one streaming simulation persisting its packed event shards)
  followed by a *warm replay* of all four filter configurations from
  the stored segments, with no simulation at all.  Warm replay is the
  number a filter sweep over a recorded configuration actually pays;
  its ratio to the streamed throughput is reported per workload.  On a
  multi-core machine the replay is also measured on the ``process``
  backend with two workers (one filter config per task);
* **checkpoint** (with ``--checkpoint-every N``) — the streamed run
  again, snapshotting the full simulation state into a scratch store
  every N accesses.  The per-workload ``overhead_vs_streamed`` fraction
  is the wall time spent inside snapshot writes over the pure
  simulation time (the loop is otherwise instruction-identical to the
  streamed path, so this is the checkpoint price without cross-run
  machine noise); the target budget is under 5% at
  ``--checkpoint-every 500000`` (``--assert-checkpoint-overhead 0.05``
  guards it).

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick \
        --assert-floor 15000 --output /tmp/BENCH_throughput.json
    PYTHONPATH=src python benchmarks/bench_throughput.py --set-baseline \
        --label "PR2: tuple events, per-access loops"

``--set-baseline`` stores the freshly measured results as the file's
``baseline`` section (run it *before* an optimisation lands); later
plain runs keep that section and report per-run speedups against it.
``--assert-floor N`` exits non-zero when the headline streamed
throughput falls below N accesses/s — a CI guard against catastrophic
regressions, deliberately generous so machine noise never trips it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import zlib
from dataclasses import replace
from pathlib import Path

from repro.analysis import runner
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_throughput.json"

#: The three measured workloads: two ends of the snoop-locality spectrum
#: plus the heaviest snooper (em3d) — enough shape diversity that a fast
#: path helping only one access pattern cannot fake a global win.
BENCH_WORKLOADS = ("lu", "em3d", "radix")

FILTERS = runner.DEFAULT_SWEEP_FILTERS

#: (accesses, warm-up).  Full mode pins the acceptance configuration: a
#: 2M-access streamed run with all four filter banks attached.
FULL_SIZES = (2_000_000, 100_000)
QUICK_SIZES = (120_000, 10_000)


def _sized(name: str, n_accesses: int, warmup: int):
    spec = get_workload(name)
    return replace(spec, n_accesses=n_accesses, warmup_accesses=warmup)


def measure_streamed(name: str, n_accesses: int, warmup: int) -> dict:
    spec = _sized(name, n_accesses, warmup)
    started = time.perf_counter()
    runner.compute_stream(spec, SCALED_SYSTEM, 1, FILTERS)
    elapsed = time.perf_counter() - started
    return {
        "workload": name,
        "accesses": n_accesses,
        "warmup": warmup,
        "filters": len(FILTERS),
        "seconds": round(elapsed, 3),
        "accesses_per_sec": round(n_accesses / elapsed),
    }


def measure_replay(name: str, n_accesses: int, warmup: int) -> dict:
    """Cold-record one trace, then warm-replay all four filter configs.

    The replay numbers use the same accesses/second accounting as the
    live modes, so ``replay_accesses_per_sec / streamed accesses_per_sec``
    is exactly the wall-clock speedup a warm filter sweep enjoys over
    re-simulating.  The warm replay is measured on the per-event oracle
    (``replay_python_*``, the native core hidden) and, when the native
    core loads, on the default banks' compiled kernels
    (``replay_native_*``); the canonical ``replay_*`` /
    ``accesses_per_sec`` numbers are the default banks' — the throughput
    a plain replay sweep actually gets.
    """
    from repro.core import _cmachine

    spec = _sized(name, n_accesses, warmup)
    with tempfile.TemporaryDirectory() as tmp:
        store = ExperimentStore(Path(tmp) / "bench-traces.sqlite")
        started = time.perf_counter()
        runner.execute(
            [runner.SweepJob(spec)], mode="replay", experiment_store=store
        )
        record_elapsed = time.perf_counter() - started

        kernels = ["python"]
        if _cmachine.library() is not None:
            kernels.append("native")
        elapsed_by_kernel = {}
        for kernel in kernels:
            store.delete_kind("eval")
            saved = _cmachine.library()
            if kernel == "python":
                # Every bank falls back to the oracle without the core.
                _cmachine._lib = None
            try:
                started = time.perf_counter()
                runner.execute(
                    [runner.SweepJob(spec, FILTERS)], mode="replay",
                    experiment_store=store, backend="serial",
                )
                elapsed_by_kernel[kernel] = time.perf_counter() - started
            finally:
                _cmachine._lib = saved

        # What a plain replay runs here: native whenever it loads.
        default_kernel = kernels[-1]
        replay_elapsed = elapsed_by_kernel[default_kernel]
        entry = {
            "workload": name,
            "accesses": n_accesses,
            "warmup": warmup,
            "filters": len(FILTERS),
            "record_seconds": round(record_elapsed, 3),
            "record_accesses_per_sec": round(n_accesses / record_elapsed),
            "replay_kernel": default_kernel,
            "replay_seconds": round(replay_elapsed, 3),
            "replay_accesses_per_sec": round(n_accesses / replay_elapsed),
            # The uniform cross-mode key: every mode's entry reports its
            # end-to-end rate under the same name, so cross-mode readers
            # never fall back to a missing-key None.
            "accesses_per_sec": round(n_accesses / replay_elapsed),
            "trace_bytes": sum(
                e.payload_bytes for e in store.entries()
                if e.kind == "sim-events"
            ),
        }
        for kernel, elapsed in elapsed_by_kernel.items():
            entry[f"replay_{kernel}_seconds"] = round(elapsed, 3)
            entry[f"replay_{kernel}_accesses_per_sec"] = round(
                n_accesses / elapsed
            )
        if (os.cpu_count() or 1) >= 2:
            # Re-replay on 2 process workers (evals cleared for a fair
            # rerun): one filter configuration per worker task.
            store.delete_kind("eval")
            started = time.perf_counter()
            runner.execute(
                [runner.SweepJob(spec, FILTERS)], mode="replay",
                experiment_store=store, workers=2, backend="process",
            )
            process_elapsed = time.perf_counter() - started
            entry["replay_process2_seconds"] = round(process_elapsed, 3)
            entry["replay_process2_accesses_per_sec"] = round(
                n_accesses / process_elapsed
            )
        store.close()
    return entry


def _raw_v1_bytes(store: ExperimentStore) -> int:
    """Stored trace bytes had every segment been written as legacy raw-v1.

    The raw-v1 reference of the trace-economics ratio: zlib level 6
    over each stored segment's decoded little-endian packed events (the
    raw-v1 wire format), plus the manifest rows unchanged.
    """
    from repro.analysis import store as store_mod

    total = 0
    for e in store.entries():
        if e.kind != store_mod.TRACE_KIND:
            continue
        if e.filter_name is None:  # manifest row
            total += e.payload_bytes
            continue
        events = store_mod.decode_trace_segment(store.get_blob(e.key))
        if sys.byteorder == "big":  # pragma: no cover - exotic platforms
            events.byteswap()
        total += len(zlib.compress(events.tobytes(), 6))
    return total


def measure_trace_economics(name: str, n_accesses: int, warmup: int) -> dict:
    """Trace economics: the delta-v1 archive against a raw-v1 reference.

    One cold record of ``(workload, seed)`` into a scratch store, then a
    warm serial replay of all four filter configurations.  Segments are
    written in delta-v1, the only segment encoder; ``raw_full`` is the
    same trace's size had its segments been written in legacy raw-v1
    (see :func:`_raw_v1_bytes`).  Reports stored trace bytes (manifest +
    segments), bytes/access, record and replay rates, and the headline
    ratio ``delta_vs_raw_bytes`` (the CI gate's number).
    """
    from repro.analysis import store as store_mod

    spec = _sized(name, n_accesses, warmup)
    with tempfile.TemporaryDirectory() as tmp:
        store = ExperimentStore(Path(tmp) / "bench-delta_full.sqlite")
        started = time.perf_counter()
        runner.execute(
            [runner.SweepJob(spec)], mode="replay", experiment_store=store
        )
        record_elapsed = time.perf_counter() - started
        trace_bytes = sum(
            e.payload_bytes for e in store.entries()
            if e.kind == store_mod.TRACE_KIND
        )
        raw_bytes = _raw_v1_bytes(store)
        started = time.perf_counter()
        runner.execute(
            [runner.SweepJob(spec, FILTERS)], mode="replay",
            experiment_store=store, backend="serial",
        )
        replay_elapsed = time.perf_counter() - started
        store.close()
    return {
        "workload": name,
        "accesses": n_accesses,
        "warmup": warmup,
        "filters": len(FILTERS),
        "variants": {
            "delta_full": {
                "codec": "delta-v1",
                "trace_bytes": trace_bytes,
                "bytes_per_access": round(trace_bytes / n_accesses, 3),
                "record_seconds": round(record_elapsed, 3),
                "record_accesses_per_sec": round(n_accesses / record_elapsed),
                "replay_seconds": round(replay_elapsed, 3),
                "replay_accesses_per_sec": round(n_accesses / replay_elapsed),
            },
            "raw_full": {
                "codec": "raw-v1",
                "trace_bytes": raw_bytes,
                "bytes_per_access": round(raw_bytes / n_accesses, 3),
            },
        },
        "delta_vs_raw_bytes": round(trace_bytes / raw_bytes, 3),
    }


def measure_checkpointed(name: str, n_accesses: int, warmup: int,
                         every: int) -> dict:
    """One streamed run with mid-run checkpointing into a scratch store.

    Same protocol as :func:`measure_streamed` plus ``checkpoint_every``.
    The reported overhead is the wall time spent inside snapshot writes
    over the remaining (pure simulation) time — the loop around the
    saves is instruction-identical to the plain streamed path, so this
    ratio is the checkpoint price, measured without the minutes-apart
    cross-run comparison that machine noise would otherwise dominate.
    """
    spec = _sized(name, n_accesses, warmup)
    with tempfile.TemporaryDirectory() as tmp:
        store = ExperimentStore(Path(tmp) / "bench-checkpoints.sqlite")
        report = runner.execute(
            [runner.SweepJob(spec, FILTERS)], mode="stream",
            experiment_store=store, checkpoint_every=every,
        )
        store.close()
    elapsed = report.elapsed_seconds
    saving = report.checkpoint_seconds
    overhead = saving / (elapsed - saving) if elapsed > saving else 0.0
    return {
        "workload": name,
        "accesses": n_accesses,
        "warmup": warmup,
        "filters": len(FILTERS),
        "checkpoint_every": every,
        "checkpoints_written": report.checkpoints_written,
        "seconds": round(elapsed, 3),
        "checkpoint_seconds": round(saving, 3),
        "accesses_per_sec": round(n_accesses / elapsed),
        "overhead_vs_streamed": round(overhead, 4),
    }


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
    runs are short (about 10 ms at the quick size), so they are timed as
    ``pairs`` interleaved pairs (see :func:`_paired_overhead`): 31 pairs
    left the 3% budget inside the median's noise.
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
    machinery's price alone.  The budget is under 2% on a clean run
    (``--assert-supervision-overhead 0.02`` guards it).
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


def run_benchmark(quick: bool, checkpoint_every: int | None = None,
                  phase_overhead: bool = False,
                  phase_only: bool = False,
                  supervision_overhead: bool = False,
                  supervision_only: bool = False,
                  trace_economics: bool = False,
                  trace_economics_only: bool = False) -> dict:
    s_acc, s_warm = QUICK_SIZES if quick else FULL_SIZES
    results: dict = {"streamed": {}, "replay": {}}
    if trace_economics:
        results["trace_economics"] = {}
        # A warm-up of a quarter of the run: a filter-warming fraction
        # representative of the workloads, not the token one the
        # throughput modes use.
        eco_warm = max(s_warm, s_acc // 4)
        print(f"trace economics em3d: {s_acc:,} accesses "
              f"({eco_warm:,} warm-up), delta-v1 against a raw-v1 "
              "reference ...", flush=True)
        entry = measure_trace_economics("em3d", s_acc, eco_warm)
        results["trace_economics"]["em3d"] = entry
        raw = entry["variants"]["raw_full"]
        print(f"  raw-v1 {raw['trace_bytes']:,} B "
              f"({raw['bytes_per_access']} B/access); delta-v1 "
              f"x{entry['delta_vs_raw_bytes']} of raw", flush=True)
    if trace_economics_only:
        return results
    if phase_overhead:
        results["phase"] = {}
        print(f"phase-accounting lu: {s_acc:,} accesses, plain vs "
              "4 phase boundaries ...", flush=True)
        entry = measure_phase_overhead("lu", s_acc, s_warm)
        results["phase"]["lu"] = entry
        print(f"  plain {entry['plain_seconds']}s, phased "
              f"{entry['phased_seconds']}s = "
              f"{entry['overhead_frac']:+.1%} overhead (median ratio "
              f"{entry['median_ratio']} of {entry['pairs']} pairs; "
              f"quartiles {entry['ratio_quartiles']})")
    if supervision_overhead:
        results["supervision"] = {}
        # Floor the run length: the 2% budget is smaller than timer
        # noise on the shortest fan-outs, even as a median of pairs.
        sup_acc = max(s_acc, 400_000)
        print(f"supervision lu: {sup_acc:,} accesses, supervised vs raw "
              "process pool on a clean replay fan-out ...", flush=True)
        entry = measure_supervision_overhead("lu", sup_acc, s_warm)
        results["supervision"]["lu"] = entry
        print(f"  raw {entry['raw_seconds']}s, supervised "
              f"{entry['supervised_seconds']}s = "
              f"{entry['overhead_frac']:+.1%} overhead (median ratio "
              f"{entry['median_ratio']} of {entry['pairs']} pairs; "
              f"quartiles {entry['ratio_quartiles']})")
    if phase_only or supervision_only:
        return results
    for name in BENCH_WORKLOADS:
        print(f"streamed {name}: {s_acc:,} accesses, "
              f"{len(FILTERS)} filter banks ...", flush=True)
        entry = measure_streamed(name, s_acc, s_warm)
        results["streamed"][name] = entry
        print(f"  {entry['accesses_per_sec']:,} accesses/s "
              f"({entry['seconds']}s)")
    for name in BENCH_WORKLOADS:
        print(f"replay {name}: {s_acc:,} accesses "
              f"(cold record, then warm {len(FILTERS)}-filter replay) ...",
              flush=True)
        entry = measure_replay(name, s_acc, s_warm)
        results["replay"][name] = entry
        line = (f"  record {entry['record_accesses_per_sec']:,} acc/s "
                f"({entry['record_seconds']}s); warm replay "
                f"{entry['replay_accesses_per_sec']:,} acc/s "
                f"({entry['replay_seconds']}s, {entry['replay_kernel']} "
                "kernel)")
        if "replay_native_accesses_per_sec" in entry:
            ratio = (entry["replay_native_accesses_per_sec"]
                     / entry["replay_python_accesses_per_sec"])
            line += f"; native vs python x{ratio:.2f}"
        print(line, flush=True)
    if checkpoint_every is not None:
        results["checkpoint"] = {}
        for name in BENCH_WORKLOADS:
            print(f"checkpointed {name}: {s_acc:,} accesses, snapshot "
                  f"every {checkpoint_every:,} ...", flush=True)
            entry = measure_checkpointed(name, s_acc, s_warm, checkpoint_every)
            results["checkpoint"][name] = entry
            print(f"  {entry['accesses_per_sec']:,} accesses/s "
                  f"({entry['seconds']}s; {entry['checkpoints_written']} "
                  f"snapshots costing {entry['checkpoint_seconds']}s = "
                  f"{entry['overhead_vs_streamed']:+.1%} overhead)")
    return results


def _headline(results: dict) -> int | None:
    """Slowest streamed workload: the honest end-to-end number."""
    if not results.get("streamed"):
        return None  # --phase-overhead-only runs skip the streamed modes
    return min(e["accesses_per_sec"] for e in results["streamed"].values())


def _replay_headline(results: dict) -> int | None:
    """Slowest warm replay across workloads (the replay-path floor).

    Reads the uniform ``accesses_per_sec`` key and fails loudly when an
    entry lacks it: a silent ``.get(...) -> None`` here once turned the
    replay floor assertion into a no-op comparison against ``None``.
    """
    entries = results.get("replay", {})
    if not entries:
        return None
    rates = []
    for name, entry in entries.items():
        rate = entry.get("accesses_per_sec")
        if rate is None:
            raise KeyError(
                f"replay entry for {name!r} has no accesses_per_sec rate; "
                "the replay floor cannot be checked against a missing key"
            )
        rates.append(rate)
    return min(rates)


def _replay_speedups(results: dict) -> dict:
    """Warm replay vs same-run streamed throughput, per workload."""
    out = {}
    for name, entry in results.get("replay", {}).items():
        streamed = results.get("streamed", {}).get(name)
        if streamed and streamed.get("accesses_per_sec"):
            out[name] = round(
                entry["replay_accesses_per_sec"] / streamed["accesses_per_sec"],
                2,
            )
    return out


def _speedups(results: dict, baseline: dict) -> dict:
    out: dict = {}
    for mode in ("streamed",):
        for name, entry in results.get(mode, {}).items():
            base = baseline.get("results", {}).get(mode, {}).get(name)
            if base and base.get("accesses_per_sec"):
                out.setdefault(mode, {})[name] = round(
                    entry["accesses_per_sec"] / base["accesses_per_sec"], 2
                )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced access counts (CI smoke)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON (default: repo root)")
    parser.add_argument("--set-baseline", action="store_true",
                        help="record these results as the baseline section")
    parser.add_argument("--label", default="",
                        help="human label for this measurement")
    parser.add_argument("--assert-floor", type=int, default=None,
                        metavar="N", help="fail when the headline streamed "
                        "throughput drops below N accesses/s")
    parser.add_argument("--assert-replay-floor", type=int, default=None,
                        metavar="N", help="fail when the slowest warm-replay "
                        "throughput drops below N accesses/s")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N", help="also measure the streamed runs "
                        "with mid-run checkpointing every N accesses, "
                        "recording the overhead vs plain streaming")
    parser.add_argument("--assert-checkpoint-overhead", type=float,
                        default=None, metavar="FRAC",
                        help="fail when any workload's checkpoint overhead "
                        "exceeds FRAC (e.g. 0.05 for the 5%% budget)")
    parser.add_argument("--assert-phase-overhead", type=float, default=None,
                        metavar="FRAC",
                        help="also measure per-phase accounting on the lu "
                        "streamed path (plain vs phase-marked, identical "
                        "streams) and fail when the overhead exceeds FRAC "
                        "(e.g. 0.03 for the 3%% budget)")
    parser.add_argument("--phase-overhead-only", action="store_true",
                        help="measure only the phase-accounting overhead, "
                        "skipping the streamed/replay modes "
                        "(requires --assert-phase-overhead)")
    parser.add_argument("--assert-supervision-overhead", type=float,
                        default=None, metavar="FRAC",
                        help="also A/B the supervised executor against a "
                        "raw process pool on a clean lu replay fan-out and "
                        "fail when the overhead exceeds FRAC (e.g. 0.02 "
                        "for the 2%% budget)")
    parser.add_argument("--supervision-overhead-only", action="store_true",
                        help="measure only the supervision overhead, "
                        "skipping the streamed/replay modes "
                        "(requires --assert-supervision-overhead)")
    parser.add_argument("--assert-trace-bytes-per-access", type=float,
                        default=None, metavar="RATIO",
                        help="also record an em3d trace and fail when its "
                        "delta-v1 archive exceeds RATIO x the same "
                        "trace's raw-v1 size (zlib-6 over its decoded "
                        "segments; e.g. 0.80 for the CI budget)")
    parser.add_argument("--trace-economics-only", action="store_true",
                        help="measure only the trace economics, "
                        "skipping the streamed/replay modes "
                        "(requires --assert-trace-bytes-per-access)")
    args = parser.parse_args(argv)
    if args.trace_economics_only and (
        args.assert_trace_bytes_per_access is None
    ):
        parser.error("--trace-economics-only requires "
                     "--assert-trace-bytes-per-access "
                     "(nothing would be measured otherwise)")
    if args.phase_overhead_only and args.assert_phase_overhead is None:
        parser.error("--phase-overhead-only requires --assert-phase-overhead "
                     "(nothing would be measured otherwise)")
    if args.supervision_overhead_only and (
        args.assert_supervision_overhead is None
    ):
        parser.error("--supervision-overhead-only requires "
                     "--assert-supervision-overhead "
                     "(nothing would be measured otherwise)")
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error("--checkpoint-every must be >= 1")
    if args.assert_checkpoint_overhead is not None and (
        args.checkpoint_every is None
    ):
        parser.error("--assert-checkpoint-overhead requires "
                     "--checkpoint-every (nothing is measured otherwise)")

    mode = "quick" if args.quick else "full"
    results = run_benchmark(
        args.quick, args.checkpoint_every,
        phase_overhead=args.assert_phase_overhead is not None,
        phase_only=args.phase_overhead_only,
        supervision_overhead=args.assert_supervision_overhead is not None,
        supervision_only=args.supervision_overhead_only,
        trace_economics=(args.assert_trace_bytes_per_access is not None
                         or not args.quick),
        trace_economics_only=args.trace_economics_only,
    )
    document = {
        "schema": 1,
        "mode": mode,
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": list(BENCH_WORKLOADS),
        "filters": list(FILTERS),
        "headline_streamed_accesses_per_sec": _headline(results),
        "headline_replay_accesses_per_sec": _replay_headline(results),
        "replay_speedup_vs_streamed": _replay_speedups(results),
        "results": results,
    }
    if "checkpoint" in results:
        document["checkpoint_every"] = args.checkpoint_every
        document["checkpoint_overhead_frac"] = {
            name: entry["overhead_vs_streamed"]
            for name, entry in results["checkpoint"].items()
        }
    if "phase" in results:
        document["phase_overhead_frac"] = {
            name: entry["overhead_frac"]
            for name, entry in results["phase"].items()
        }
    if "supervision" in results:
        document["supervision_overhead_frac"] = {
            name: entry["overhead_frac"]
            for name, entry in results["supervision"].items()
        }
    if "trace_economics" in results:
        document["trace_bytes_ratio"] = {
            name: {"delta_vs_raw": entry["delta_vs_raw_bytes"]}
            for name, entry in results["trace_economics"].items()
        }

    previous = {}
    if args.output.exists():
        try:
            previous = json.loads(args.output.read_text())
        except json.JSONDecodeError:
            previous = {}
    if args.set_baseline:
        document["baseline"] = {
            "mode": mode,
            "label": args.label,
            "results": results,
        }
    elif isinstance(previous.get("baseline"), dict):
        document["baseline"] = previous["baseline"]
        # Speedups are only meaningful against a same-mode baseline.
        if document["baseline"].get("mode") == mode:
            document["speedup_vs_baseline"] = _speedups(
                results, document["baseline"]
            )

    args.output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    headline = document["headline_streamed_accesses_per_sec"]
    if headline is not None:
        print(f"\nheadline (slowest streamed workload): {headline:,} accesses/s")
    replay_headline = document["headline_replay_accesses_per_sec"]
    if replay_headline is not None:
        ratios = document["replay_speedup_vs_streamed"]
        print(f"warm replay (slowest workload): {replay_headline:,} accesses/s"
              + ("; vs streamed: "
                 + ", ".join(f"{n} x{v}" for n, v in sorted(ratios.items()))
                 if ratios else ""))
    if "speedup_vs_baseline" in document:
        ratios = document["speedup_vs_baseline"].get("streamed", {})
        if ratios:
            print("speedup vs baseline (streamed): "
                  + ", ".join(f"{n} x{v}" for n, v in sorted(ratios.items())))
    print(f"wrote {args.output}")

    if args.assert_phase_overhead is not None:
        worst = max(document.get("phase_overhead_frac", {"none": 0.0}).values())
        if worst > args.assert_phase_overhead:
            print(f"FAIL: per-phase accounting overhead {worst:.1%} exceeds "
                  f"the {args.assert_phase_overhead:.1%} budget",
                  file=sys.stderr)
            return 1
    if args.assert_supervision_overhead is not None:
        worst = max(
            document.get("supervision_overhead_frac", {"none": 0.0}).values()
        )
        if worst > args.assert_supervision_overhead:
            print(f"FAIL: supervision overhead {worst:.1%} exceeds the "
                  f"{args.assert_supervision_overhead:.1%} budget",
                  file=sys.stderr)
            return 1
    if args.assert_floor is not None and headline is not None and (
        headline < args.assert_floor
    ):
        print(f"FAIL: headline {headline:,} accesses/s is below the floor "
              f"of {args.assert_floor:,}", file=sys.stderr)
        return 1
    if args.assert_replay_floor is not None and (
        replay_headline is None or replay_headline < args.assert_replay_floor
    ):
        print(f"FAIL: warm-replay headline "
              f"{replay_headline if replay_headline is not None else 0:,} "
              f"accesses/s is below the floor of "
              f"{args.assert_replay_floor:,}", file=sys.stderr)
        return 1
    if args.assert_checkpoint_overhead is not None:
        worst = max(
            document.get("checkpoint_overhead_frac", {"none": 0.0}).values()
        )
        if worst > args.assert_checkpoint_overhead:
            print(f"FAIL: checkpoint overhead {worst:.1%} exceeds the "
                  f"{args.assert_checkpoint_overhead:.1%} budget",
                  file=sys.stderr)
            return 1
    if args.assert_trace_bytes_per_access is not None:
        for name, entry in results.get("trace_economics", {}).items():
            ratio = entry["delta_vs_raw_bytes"]
            if ratio > args.assert_trace_bytes_per_access:
                print(f"FAIL: {name} delta-v1 archive is x{ratio} of its "
                      f"raw-v1 size, above the "
                      f"x{args.assert_trace_bytes_per_access} budget",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
