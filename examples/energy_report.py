#!/usr/bin/env python3
"""Full per-workload energy report — an expanded Figure 6.

For every paper workload, prints the baseline energy breakdown (local
vs snoop vs write-buffer), then the best hybrid JETTY's breakdown and
the resulting reductions, for both serial and parallel L2 organisations.

    python examples/energy_report.py [workload ...]
"""

import sys

from repro import evaluate_filter, workload_metrics
from repro.energy import EnergyAccountant
from repro.traces.workloads import WORKLOADS
from repro.utils.text import render_table

FILTER = "HJ(IJ-9x4x7, EJ-32x4)"  # the paper's headline config (29%)


def report(workload: str, accountant: EnergyAccountant) -> list[str]:
    # Evaluating first records the trace, which stores the metrics too.
    evaluation = evaluate_filter(workload, FILTER)
    aggregate = workload_metrics(workload).aggregate

    row = [workload]
    for parallel in (False, True):
        base = accountant.breakdown(aggregate, parallel=parallel)
        with_jetty = accountant.breakdown(
            aggregate, evaluation, FILTER, parallel=parallel
        )
        snoop_saving = 1 - with_jetty.snoop_total_j / base.snoop_total_j
        total_saving = 1 - with_jetty.total_j / base.total_j
        row.extend([
            f"{base.snoop_total_j / base.total_j:.0%}",
            f"{snoop_saving:.1%}",
            f"{total_saving:.1%}",
        ])
    return row


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    accountant = EnergyAccountant()

    print(f"Energy report for {FILTER} "
          "(priced at the paper-scale 1 MB L2, 0.18 um)\n")
    headers = [
        "workload",
        "snoop share (ser)", "snoop saved (ser)", "total saved (ser)",
        "snoop share (par)", "snoop saved (par)", "total saved (par)",
    ]
    rows = [report(name, accountant) for name in names]
    print(render_table(headers, rows))

    print(
        "\n'snoop share' is how much of all L2 energy snoops consume in "
        "the baseline;\n'saved' columns are the JETTY's net reduction "
        "(its own energy already charged)."
    )


if __name__ == "__main__":
    main()
