"""Golden-metrics regression suite.

Every numeric the paper-facing exhibits are built from — simulation
counters, bus statistics, coverage and filter event counts — is pinned
for a few seeded (workload, filter) pairs in ``tests/golden/*.json``.
The simulator and the synthetic trace generators are deterministic in
their seeds, so *any* numeric drift here means behaviour changed: either
a bug, or an intentional change that must be acknowledged by
regenerating the files with::

    PYTHONPATH=src python -m pytest tests/test_golden_metrics.py --regen-golden

and reviewing the diff.  The golden workloads are miniatures (a few
thousand accesses) so the whole suite stays fast.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.analysis.store import ExperimentStore, evaluation_to_dict
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec

GOLDEN_DIR = Path(__file__).parent / "golden"

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: Two deliberately different miniatures: a private/pairwise mix and a
#: streaming/migratory mix (the two ends of the snoop-locality spectrum).
GOLDEN_WORKLOADS = (
    WorkloadSpec(
        name="golden-mix",
        abbrev="gm",
        description="golden miniature: private sets with pairwise hand-off",
        paper=_PAPER,
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.2,
        recipe=(
            ("private", dict(weight=0.7, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer", dict(weight=0.3, n_pairs=2,
                                       buffer_bytes=4096)),
        ),
    ),
    WorkloadSpec(
        name="golden-stream",
        abbrev="gs",
        description="golden miniature: streaming sweeps with migration",
        paper=_PAPER,
        n_accesses=4_000,
        warmup_accesses=1_000,
        repeat_frac=0.1,
        recipe=(
            ("streaming", dict(weight=0.6, partition_bytes=64 * 1024,
                               remote_frac=0.1)),
            ("migratory", dict(weight=0.3, n_objects=24)),
            ("shared_readonly", dict(weight=0.1, region_bytes=8 * 1024)),
        ),
    ),
)

CASES = (
    ("golden-mix", "EJ-16x2", 1),
    ("golden-mix", "HJ(IJ-8x4x7, EJ-16x2)", 1),
    ("golden-stream", "VEJ-16x2-4", 1),
)


def golden_path(workload: str, filter_name: str, seed: int) -> Path:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", filter_name).strip("-")
    return GOLDEN_DIR / f"{workload}__{slug}__seed{seed}.json"


def compute_metrics(workload: str, filter_name: str, seed: int) -> dict:
    """Every reported metric for one pair, as a JSON-exact document."""
    # Evaluating first records the trace, which stores the metrics too.
    evaluation = experiments.evaluate_filter(workload, filter_name, seed=seed)
    result = experiments.workload_metrics(workload, seed=seed)
    aggregate = result.aggregate
    return {
        "workload": workload,
        "filter": filter_name,
        "seed": seed,
        "sim": {
            "accesses": result.accesses,
            "n_cpus": result.n_cpus,
            "aggregate": vars(aggregate).copy(),
            "bus": {
                "reads": result.bus.reads,
                "read_exclusives": result.bus.read_exclusives,
                "upgrades": result.bus.upgrades,
                "writebacks": result.bus.writebacks,
                "remote_hit_histogram": list(result.bus.remote_hit_histogram),
            },
            "snoop_miss_fraction_of_snoops": result.snoop_miss_fraction_of_snoops,
            "snoop_miss_fraction_of_all": result.snoop_miss_fraction_of_all,
        },
        "evaluation": evaluation_to_dict(evaluation),
        "coverage": evaluation.coverage.coverage,
    }


@pytest.fixture(autouse=True)
def golden_workloads():
    for spec in GOLDEN_WORKLOADS:
        WORKLOADS[spec.name] = spec
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield
    experiments._STORE.close()
    experiments._STORE = previous
    for spec in GOLDEN_WORKLOADS:
        del WORKLOADS[spec.name]


@pytest.mark.parametrize("workload,filter_name,seed", CASES)
def test_golden_metrics(workload, filter_name, seed, request):
    path = golden_path(workload, filter_name, seed)
    computed = compute_metrics(workload, filter_name, seed)
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path.name} missing - run with --regen-golden"
    )
    expected = json.loads(path.read_text())
    # Exact comparison, integers and floats alike: any drift in any
    # counter is a behaviour change that must be explicitly acknowledged.
    assert computed == expected


def test_golden_files_cover_all_cases():
    committed = {p.name for p in GOLDEN_DIR.glob("*.json")}
    expected = {golden_path(*case).name for case in CASES}
    assert committed == expected
