#!/usr/bin/env python3
"""Quickstart: filter snoops on one workload and measure the savings.

Runs the paper's best hybrid JETTY on the `raytrace` workload — the
paper's showcase for the include-JETTY — and prints coverage and the
four Figure-6-style energy-reduction numbers.

    python examples/quickstart.py
"""

from repro import (
    coverage_for,
    energy_reduction_for,
    evaluate_filter,
    workload_metrics,
)

WORKLOAD = "raytrace"
FILTER = "HJ(IJ-10x4x7, EJ-32x4)"


def main() -> None:
    # Evaluating first records the workload's trace, which stores its
    # metrics too: the workload simulates once for everything below.
    print(f"Simulating '{WORKLOAD}' on the scaled 4-way SMP and replaying "
          f"a {FILTER} at each node's bus interface ...")
    evaluation = evaluate_filter(WORKLOAD, FILTER)
    result = workload_metrics(WORKLOAD)
    aggregate = result.aggregate

    print(f"  accesses            : {result.accesses:,}")
    print(f"  L1 hit rate         : {aggregate.l1_hit_rate:.1%}")
    print(f"  L2 local hit rate   : {aggregate.l2_local_hit_rate:.1%}")
    print(f"  snoop-induced probes: {aggregate.snoop_tag_probes:,}")
    print(f"  ... of which miss   : {result.snoop_miss_fraction_of_snoops:.1%}")

    print(f"\n{FILTER}:")
    print(f"  snoops observed     : {evaluation.coverage.snoops:,}")
    print(f"  snoops filtered     : {evaluation.coverage.filtered:,}")
    print(f"  snoop-miss coverage : {coverage_for(WORKLOAD, FILTER):.1%}")
    print(f"  filter storage      : {evaluation.storage_bits / 8 / 1024:.1f} KiB")

    reduction = energy_reduction_for(WORKLOAD, FILTER)
    print("\nEnergy reduction (priced at the paper-scale 1 MB L2):")
    print(f"  over snoop accesses, serial L2   : {reduction.over_snoops_serial:.1%}")
    print(f"  over all L2 accesses, serial L2  : {reduction.over_all_serial:.1%}")
    print(f"  over snoop accesses, parallel L2 : {reduction.over_snoops_parallel:.1%}")
    print(f"  over all L2 accesses, parallel L2: {reduction.over_all_parallel:.1%}")


if __name__ == "__main__":
    main()
