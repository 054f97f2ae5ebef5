"""Shared fixtures: small system configurations and trace helpers.

Unit and property tests run on deliberately tiny cache geometries so the
interesting states (evictions, conflicts, write-buffer pressure) appear
within a few hundred accesses.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.coherence.config import CacheConfig, SystemConfig
from repro.core import _cmachine


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current implementation "
        "instead of comparing against it (review the diff before committing)",
    )


@contextlib.contextmanager
def oracle_replay(enabled: bool = True):
    """Build every filter bank inside on the per-event oracle.

    Hides the native core, so ``replayer_for`` returns ``None`` for
    every filter and each bank falls back to
    :class:`~repro.core.stats.EventReplayer` (and segments code in pure
    Python).  Process workers need not see the patch, so runner calls
    inside use the serial backend.  With ``enabled`` false the banks keep
    their default replayers.
    """
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(_cmachine, "_lib", None)
        yield


@pytest.fixture
def oracle_banks():
    """Every bank the test builds runs the oracle (:func:`oracle_replay`)."""
    with oracle_replay():
        yield


@pytest.fixture
def tiny_system() -> SystemConfig:
    """A 4-way SMP with very small caches (heavy eviction traffic)."""
    return SystemConfig(
        n_cpus=4,
        l1=CacheConfig(capacity_bytes=256, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=2048, block_bytes=64, subblock_bytes=32),
        wb_entries=2,
        address_bits=24,
    )


@pytest.fixture
def tiny_system_2cpu(tiny_system: SystemConfig) -> SystemConfig:
    return tiny_system.with_cpus(2)


def make_random_trace(
    n_accesses: int,
    n_cpus: int = 4,
    seed: int = 0,
    shared_span: int = 1 << 12,
    private_span: int = 1 << 13,
    shared_frac: float = 0.4,
    write_frac: float = 0.3,
) -> list[tuple[int, int, bool]]:
    """A random trace with both shared and per-CPU private regions."""
    rng = random.Random(seed)
    trace = []
    for _ in range(n_accesses):
        cpu = rng.randrange(n_cpus)
        if rng.random() < shared_frac:
            address = rng.randrange(shared_span)
        else:
            address = (1 << 16) * (cpu + 1) + rng.randrange(private_span)
        trace.append((cpu, address & ~0x3, rng.random() < write_frac))
    return trace


def put_legacy_sim_row(store, spec, system, seed: int = 1) -> str:
    """Insert a ``sim`` row as stores written by the buffered mode hold it.

    That retired kind kept a whole recording: the run's metrics plus every
    node's events as JSON ``(kind, block, flag)`` triples, under a key
    fingerprinted like every other result.  Returns the key.
    """
    import json
    import zlib

    from repro.analysis import store as store_mod

    key = store_mod._digest({
        "kind": "sim",
        "schema": store_mod.SCHEMA_VERSION,
        "spec": store_mod.spec_fingerprint(spec),
        "system": store_mod.system_fingerprint(system),
        "seed": seed,
    })
    document = {
        "workload": spec.name,
        "n_cpus": system.n_cpus,
        "accesses": 3,
        "node_stats": [{} for _ in range(system.n_cpus)],
        "bus": {"reads": 1, "read_exclusives": 0, "upgrades": 0,
                "writebacks": 0, "remote_hit_histogram": [1, 0]},
        "event_streams": [
            {"node_id": node_id, "events": [[1, 0x40, 0], [3, 0, 0],
                                            [0, 0x41, 0]]}
            for node_id in range(system.n_cpus)
        ],
    }
    blob = zlib.compress(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode(), 6
    )
    store.put_blob(key, blob, kind="sim", workload=spec.name,
                   filter_name=None, n_cpus=system.n_cpus, seed=seed)
    return key


def put_legacy_matrix_row(store, spec, system, seed: int = 1) -> str:
    """Insert a ``matrix`` row as the removed ``matrix`` command stored it.

    That retired kind kept a rendered profile x filter table as
    compressed canonical JSON, keyed by its suites, filters, system and
    seed.  Returns the key.
    """
    import json
    import zlib

    from repro.analysis import store as store_mod

    filters = ["EJ-32x4"]
    key = store_mod._digest({
        "kind": "matrix",
        "schema": store_mod.SCHEMA_VERSION,
        "specs": [store_mod.spec_fingerprint(spec)],
        "filters": filters,
        "system": store_mod.system_fingerprint(system),
        "seed": seed,
    })
    payload = {
        "version": 1,
        "filters": filters,
        "seed": seed,
        "system": store_mod.system_fingerprint(system),
        "suites": [{
            "workload": spec.name, "phases": [], "winner": filters[0],
            "winner_coverage": 0.5, "probes_saved": 1, "false_exclusions": 0,
        }],
    }
    blob = zlib.compress(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(), 6
    )
    store.put_blob(key, blob, kind="matrix", workload="matrix",
                   filter_name=None, n_cpus=system.n_cpus, seed=seed)
    return key
