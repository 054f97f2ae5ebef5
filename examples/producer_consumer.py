#!/usr/bin/env python3
"""Dissecting producer/consumer sharing — the paper's Section 2 example.

Figure 1 of the paper walks through a producer/consumer hand-off: the
consumer's read appears on the bus, every other cache snoops, and only
the producer has the block — the third processor wastes a tag probe.
This example builds exactly that scenario at machine level, traces the
MOESI states through the hand-off, and shows where an exclude-JETTY
erases the wasted probes.

    python examples/producer_consumer.py
"""

from repro import SCALED_SYSTEM, EventReplayer, SMPSystem, build_filter
from repro.coherence.states import MOESI
from repro.traces.synth import ProducerConsumer, WorkloadMix


def state_of(system: SMPSystem, cpu: int, address: int) -> str:
    config = system.nodes[cpu].l2.config
    states = system.nodes[cpu].l2.subblock_states(
        address >> config.block_offset_bits
    )
    if states is None:
        return "-"
    sub = (address >> config.subblock_offset_bits) % config.subblocks_per_block
    return states[sub].name


def walk_through_handoff() -> None:
    """Replay Figure 1's example step by step on a 3+1 CPU system."""
    system = SMPSystem(SCALED_SYSTEM)
    address = 0x40000

    print("Step-by-step hand-off of one block (CPUs 0=producer, 1=consumer):")
    steps = [
        ("producer writes the block", 0, True),
        ("consumer reads it (bus read, snoops everywhere)", 1, False),
        ("producer rewrites it (upgrade, invalidates consumer)", 0, True),
        ("consumer reads again", 1, False),
    ]
    for description, cpu, is_write in steps:
        system.access(cpu, address, is_write)
        states = "  ".join(
            f"CPU{i}:{state_of(system, i, address):1s}" for i in range(4)
        )
        print(f"  {description:52s} {states}")

    idle = system.nodes[3].stats
    print(
        f"\nCPU3 never touched the block, yet snooped "
        f"{idle.snoops_observed} transactions and probed its L2 tag array "
        f"{idle.snoop_tag_probes} times — all misses ({idle.snoop_misses})."
    )
    assert state_of(system, 0, address) == MOESI.O.name


def measure_filtering() -> None:
    """Run a sustained producer/consumer workload and filter the idlers."""
    pattern = ProducerConsumer(
        pairs=[(0, 1)], bases=[0x800000], buffer_bytes=8 * 1024
    )
    mix = WorkloadMix([(pattern, 1.0)])

    system = SMPSystem(SCALED_SYSTEM)
    for cpu, address, is_write in mix.generate(60_000, seed=7):
        system.access(cpu, address, is_write)
    system.finish()
    result = system.result("producer-consumer")

    print("\nSustained 8 KiB buffer hand-off between CPU0 and CPU1:")
    print(f"  remote-hit histogram: {result.bus.remote_hit_histogram} "
          "(1-hit dominates: only the partner holds a copy)")

    for cpu in (1, 2):
        # The run never detached its events into shards, so each node
        # still holds its whole stream.
        stream = system.nodes[cpu].events
        ej = build_filter(
            "EJ-32x4",
            counter_bits=SCALED_SYSTEM.ij_counter_bits,
            addr_bits=SCALED_SYSTEM.block_address_bits,
        )
        replayer = EventReplayer(ej, cpu)
        replayer.feed(stream.events)
        evaluation = replayer.finish()
        role = "consumer (partner)" if cpu == 1 else "bystander"
        print(
            f"  CPU{cpu} {role:18s}: {evaluation.coverage.snoops:6,} snoops, "
            f"{evaluation.coverage.snoop_would_miss:6,} would miss, "
            f"EJ-32x4 filters {evaluation.coverage.coverage:.1%} of the misses"
        )

    print(
        "\nThe bystanders' JETTYs capture the hand-off stream almost "
        "entirely: the same\nbuffer blocks are snooped over and over, and "
        "none of them is ever cached there."
    )


if __name__ == "__main__":
    walk_through_handoff()
    measure_filtering()
