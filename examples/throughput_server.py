#!/usr/bin/env python3
"""A throughput-engine SMP: independent programs per processor.

The paper's introduction argues JETTY's savings grow when an SMP runs
*independent* programs rather than one parallel application: without
sharing, essentially every snoop misses everywhere.  This example builds
such a multiprogrammed workload from scratch with the pattern API —
each CPU runs its own "program" (a private working set with its own
locality profile) — and compares JETTY filters against the best parallel
workload.

The evaluation uses the record-once / replay-many path: the SMP is
simulated exactly once, with a :class:`~repro.coherence.smp.TraceSink`
packing the coherence events into in-memory segments as the run
advances, and every filter configuration then replays the recorded
trace through a :class:`~repro.core.stats.StreamingFilterBank` (on the
compiled walk, or the per-event oracle without a compiler;
byte-identical either way).  Four filters therefore cost one simulation
plus four cheap replays — not four simulations.

    python examples/throughput_server.py
"""

from array import array

from repro import SCALED_SYSTEM, build_filter
from repro.coherence.smp import TraceSink, simulate_streaming
from repro.core.stats import StreamingFilterBank, TraceReader, replay_trace
from repro.energy import EnergyAccountant
from repro.traces.synth import PrivateWorkingSet, WorkloadMix

FILTERS = ("EJ-32x4", "IJ-10x4x7", "HJ(IJ-10x4x7, EJ-32x4)", "oracle")
N_ACCESSES = 240_000
WARMUP = 60_000


def build_multiprogrammed_mix() -> WorkloadMix:
    """Four unrelated programs: distinct footprints and locality."""
    programs = [
        # (working-set bytes, write fraction, temporal skew)
        (96 * 1024, 0.35, 1.4),   # database-ish: mid-size, write-heavy
        (320 * 1024, 0.20, 1.2),  # analytics scan: large and cold
        (48 * 1024, 0.30, 2.0),   # hot transactional loop
        (192 * 1024, 0.25, 1.3),  # compile job
    ]
    components = []
    for cpu, (ws_bytes, write_frac, alpha) in enumerate(programs):
        pattern = PrivateWorkingSet(
            cpus=[cpu],
            bases=[(cpu + 1) * (1 << 23)],
            ws_bytes=ws_bytes,
            write_frac=write_frac,
            alpha=alpha,
            run_mean=12,
        )
        components.append((pattern, 1.0))
    return WorkloadMix(components, repeat_frac=0.6)


def record_once(mix: WorkloadMix) -> tuple:
    """Simulate the server once, packing its events into memory segments.

    Returns ``(metrics, segments)`` where ``segments[node]`` is that
    node's list of raw packed-event byte strings — the same bytes the
    experiment store would persist, minus the compression.
    """
    segments: dict[int, list[bytes]] = {
        cpu: [] for cpu in range(SCALED_SYSTEM.n_cpus)
    }

    def write_segment(node_id: int, index: int, raw: bytes) -> None:
        assert index == len(segments[node_id])
        segments[node_id].append(raw)

    sink = TraceSink(SCALED_SYSTEM.n_cpus, write_segment)
    stream = mix.generate(N_ACCESSES + WARMUP, seed=2024)
    metrics = simulate_streaming(
        SCALED_SYSTEM, stream, "throughput", warmup=WARMUP, sinks=(sink,)
    )
    sink.finish()
    return metrics, [segments[cpu] for cpu in range(SCALED_SYSTEM.n_cpus)]


def replay_filter(name: str, segments: list) -> "FilterEvaluation":
    """Replay the recorded trace through one filter configuration."""
    bank = StreamingFilterBank(
        [
            build_filter(
                name,
                counter_bits=SCALED_SYSTEM.ij_counter_bits,
                addr_bits=SCALED_SYSTEM.block_address_bits,
            )
            for _cpu in range(SCALED_SYSTEM.n_cpus)
        ]
    )

    def fetch(node_id: int, index: int) -> array:
        events = array("q")
        events.frombytes(segments[node_id][index])
        return events

    reader = TraceReader([len(node) for node in segments], fetch)
    replay_trace(reader, [bank])
    return bank.finish()


def main() -> None:
    mix = build_multiprogrammed_mix()

    print("Simulating a 4-way throughput server (no data sharing) ...")
    metrics, segments = record_once(mix)

    aggregate = metrics.aggregate
    miss_fraction = metrics.snoop_miss_fraction_of_snoops
    n_segments = sum(len(node) for node in segments)
    n_bytes = sum(len(raw) for node in segments for raw in node)
    print(f"  snoop probes            : {aggregate.snoop_tag_probes:,}")
    print(f"  snoops that miss        : {miss_fraction:.1%} "
          "(no sharing => every snoop should miss)")
    print(f"  remote-hit histogram    : {metrics.bus.remote_hit_histogram}")
    print(f"  recorded trace          : {n_segments} segment(s), "
          f"{n_bytes / 1024:.0f} KiB packed "
          f"(replayed {len(FILTERS)}x, simulated once)")

    accountant = EnergyAccountant()
    print(f"\n{'filter':28s} {'coverage':>9s} {'snoop-energy saved':>19s}")
    for name in FILTERS:
        merged = replay_filter(name, segments)
        if name == "oracle":
            saved = "(not a hardware design)"
        else:
            reduction = accountant.reduction(aggregate, merged, name)
            saved = f"{reduction.over_snoops_serial:.1%} (serial L2)"
        print(f"{name:28s} {merged.coverage.coverage:>8.1%} {saved:>19s}")

    print(
        "\nAs the paper's introduction predicts, a throughput engine is "
        "JETTY's best case:\nvirtually every snoop misses and the include-"
        "JETTY filters nearly all of them."
    )


if __name__ == "__main__":
    main()
