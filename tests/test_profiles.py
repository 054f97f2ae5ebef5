"""Property and golden tests for the sharing-profile library.

Two layers of guard:

* **Properties** — every catalogue profile generates streams whose
  addresses stay inside the region allocator's arena, whose sharing
  degree (fraction of accesses to blocks touched by two or more CPUs)
  and popularity skew (access share of the top decile of blocks) sit in
  a per-profile band, and whose content fingerprint is pinned.  The
  bands are measured envelopes with generous margins: they catch a
  profile silently changing character (a weight typo turning the
  read-mostly web tier into private compute), not small drift.
* **Goldens** — two seeded profile x filter pairs have every reported
  metric pinned JSON-exact under ``tests/golden/profiles/``, same
  contract as ``tests/test_golden_metrics.py``::

      PYTHONPATH=src python -m pytest tests/test_profiles.py --regen-golden
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from repro.analysis import experiments
from repro.analysis.store import ExperimentStore, evaluation_to_dict
from repro.errors import WorkloadError
from repro.traces.access import unpack_access
from repro.traces.profiles import (
    PROFILE_ORDER,
    PROFILES,
    get_profile,
    zipf_hot,
)
from repro.traces.workloads import WORKLOADS

GOLDEN_DIR = Path(__file__).parent / "golden" / "profiles"

#: Generated addresses must stay inside the region allocator's arena.
#: Profiles allocate a handful of 4 MiB regions; 64 MiB is several times
#: the largest catalogue footprint.
ADDRESS_BOUND = 1 << 26

N_CPUS = 4
SAMPLE_ACCESSES = 12_000
SEEDS = (1, 2, 7)

#: Measured (min, max) envelopes per profile, widened by a generous
#: margin.  ``shared``: fraction of accesses to blocks touched by >= 2
#: CPUs.  ``top10``: access share of the most-popular decile of blocks.
EXPECTED_BANDS = {
    "zipf-hot": dict(shared=(0.35, 0.65), top10=(0.30, 0.60)),
    "producer-consumer-burst": dict(shared=(0.00, 0.10), top10=(0.10, 0.35)),
    "migratory-heavy": dict(shared=(0.20, 0.45), top10=(0.28, 0.55)),
    "read-mostly-web": dict(shared=(0.08, 0.32), top10=(0.18, 0.40)),
    "scan-stream": dict(shared=(0.08, 0.28), top10=(0.10, 0.28)),
    "private-compute": dict(shared=(0.00, 0.02), top10=(0.15, 0.40)),
    "shared-hot-write": dict(shared=(0.30, 0.60), top10=(0.28, 0.55)),
    "mixed-tier": dict(shared=(0.06, 0.25), top10=(0.15, 0.35)),
}

#: Content-hash pins: a profile's resolved recipe may only change
#: together with this table (and any stored results keyed off it).
EXPECTED_FINGERPRINTS = {
    "zipf-hot":
        "f300316ba45f2c41f223f63dcdcc3bfde817aecca174e7fe5960e7f01fb6d14e",
    "producer-consumer-burst":
        "d4249d06c4d192198732aee32bd2efd30d643e2e9505f46354a3200c5553ff1a",
    "migratory-heavy":
        "114cf8914515337d546a5618baf64244ff9ea0474379aeb1a3c88acb19442240",
    "read-mostly-web":
        "09f1f4b99b2dbf817b2a9e9e182fef9239c5f5c0c179d24e624c93e9db16e302",
    "scan-stream":
        "695df6adf127f5f9ed4f486342aa30d76e3d2ffd5806533dd743572cb9a1eed7",
    "private-compute":
        "b0e6465df1912235a6b737fece445f48644922e9470daad346a4aa9421944e05",
    "shared-hot-write":
        "75c118ed1e733c3a07ae6507f74b508b37e2318e0fbee41767abd489a62e3bec",
    "mixed-tier":
        "030f1a384fbd4152899aa3258c782269fce09226515d7b2a84fb22f35c9bca57",
}


def _sample(profile, seed):
    mix = profile.build_mix(N_CPUS)
    sample = mix.generate(SAMPLE_ACCESSES, seed=seed).take(SAMPLE_ACCESSES)
    return [unpack_access(word) for word in sample]


def _sharing_stats(accesses):
    """(shared-access fraction, top-decile access share) at 64 B blocks."""
    block_cpus = defaultdict(set)
    popularity = Counter()
    for cpu, address, _is_write in accesses:
        block = address >> 6
        block_cpus[block].add(cpu)
        popularity[block] += 1
    total = sum(popularity.values())
    shared = sum(
        count for block, count in popularity.items()
        if len(block_cpus[block]) >= 2
    ) / total
    ranked = popularity.most_common()
    decile = max(1, len(ranked) // 10)
    top10 = sum(count for _, count in ranked[:decile]) / total
    return shared, top10


class TestProfileProperties:
    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_stream_shape_and_address_bounds(self, name):
        for cpu, address, is_write in _sample(PROFILES[name], seed=1):
            assert 0 <= cpu < N_CPUS
            assert 0 <= address < ADDRESS_BOUND
            assert isinstance(is_write, bool)

    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_sharing_degree_and_skew_within_band(self, name):
        band = EXPECTED_BANDS[name]
        for seed in SEEDS:
            shared, top10 = _sharing_stats(_sample(PROFILES[name], seed))
            lo, hi = band["shared"]
            assert lo <= shared <= hi, (
                f"{name} seed {seed}: shared-access fraction {shared:.3f} "
                f"outside [{lo}, {hi}]"
            )
            lo, hi = band["top10"]
            assert lo <= top10 <= hi, (
                f"{name} seed {seed}: top-decile share {top10:.3f} "
                f"outside [{lo}, {hi}]"
            )

    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_generation_is_seed_deterministic(self, name):
        profile = PROFILES[name]
        assert _sample(profile, seed=5) == _sample(profile, seed=5)
        assert _sample(profile, seed=5) != _sample(profile, seed=6)

    @pytest.mark.parametrize("name", PROFILE_ORDER)
    def test_fingerprint_pinned_and_stable(self, name):
        profile = PROFILES[name]
        assert profile.fingerprint() == EXPECTED_FINGERPRINTS[name]
        assert profile.fingerprint() == profile.fingerprint()

    def test_fingerprint_tracks_parameters(self):
        assert zipf_hot().fingerprint() == PROFILES["zipf-hot"].fingerprint()
        assert (
            zipf_hot(alpha=2.5).fingerprint()
            != PROFILES["zipf-hot"].fingerprint()
        )

    def test_registry_order_and_lookup(self):
        assert PROFILE_ORDER == tuple(PROFILES)
        assert len(PROFILES) == 8
        assert get_profile("zipf-hot") is PROFILES["zipf-hot"]
        with pytest.raises(WorkloadError):
            get_profile("no-such-profile")

    def test_to_spec_preserves_recipe(self):
        profile = PROFILES["scan-stream"]
        spec = profile.to_spec(n_accesses=5_000, warmup_accesses=500)
        assert spec.name == "profile:scan-stream"
        assert spec.recipe == profile.recipe
        assert spec.repeat_frac == profile.repeat_frac
        assert spec.n_accesses == 5_000
        assert spec.warmup_accesses == 500


# ----------------------------------------------------------------------
# Golden-pinned metrics for two seeded profile x filter pairs
# ----------------------------------------------------------------------

GOLDEN_CASES = (
    ("zipf-hot", "EJ-16x2", 2),
    ("scan-stream", "VEJ-16x2-4", 2),
)


def golden_path(profile: str, filter_name: str, seed: int) -> Path:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", filter_name).strip("-")
    return GOLDEN_DIR / f"{profile}__{slug}__seed{seed}.json"


def compute_metrics(profile: str, filter_name: str, seed: int) -> dict:
    workload = f"profile:{profile}"
    # Evaluating first records the trace, which stores the metrics too.
    evaluation = experiments.evaluate_filter(workload, filter_name, seed=seed)
    result = experiments.workload_metrics(workload, seed=seed)
    return {
        "profile": profile,
        "profile_fingerprint": PROFILES[profile].fingerprint(),
        "filter": filter_name,
        "seed": seed,
        "sim": {
            "accesses": result.accesses,
            "n_cpus": result.n_cpus,
            "aggregate": vars(result.aggregate).copy(),
            "snoop_miss_fraction_of_snoops":
                result.snoop_miss_fraction_of_snoops,
        },
        "evaluation": evaluation_to_dict(evaluation),
        "coverage": evaluation.coverage.coverage,
    }


@pytest.fixture(autouse=True)
def profile_miniatures():
    """Register 4k-access miniatures of the golden profiles as workloads."""
    specs = [
        PROFILES[profile].to_spec(n_accesses=4_000, warmup_accesses=1_000)
        for profile, _filter, _seed in GOLDEN_CASES
    ]
    for spec in specs:
        WORKLOADS[spec.name] = spec
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield
    experiments._STORE.close()
    experiments._STORE = previous
    for spec in specs:
        del WORKLOADS[spec.name]


@pytest.mark.parametrize("profile,filter_name,seed", GOLDEN_CASES)
def test_golden_profile_metrics(profile, filter_name, seed, request):
    path = golden_path(profile, filter_name, seed)
    computed = compute_metrics(profile, filter_name, seed)
    if request.config.getoption("--regen-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file {path.name} missing - run with --regen-golden"
    )
    expected = json.loads(path.read_text())
    assert computed == expected


def test_golden_profile_files_cover_all_cases():
    committed = {p.name for p in GOLDEN_DIR.glob("*.json")}
    expected = {golden_path(*case).name for case in GOLDEN_CASES}
    assert committed == expected
