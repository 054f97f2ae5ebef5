"""Property-based tests: protocol invariants under random traces.

Random access interleavings over a shared/private address mix must keep
the global MOESI invariants (single writer, single owner, inclusion) at
every prefix of the trace, and the recorded JETTY event streams must be
consistent with the true cache contents.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.config import CacheConfig, SystemConfig
from repro.coherence.smp import SMPSystem, check_coherence_invariants
from repro.core.stats import ALLOC, EVICT, SNOOP


def tiny_config(n_cpus: int = 2) -> SystemConfig:
    return SystemConfig(
        n_cpus=n_cpus,
        l1=CacheConfig(capacity_bytes=128, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=512, block_bytes=64, subblock_bytes=32),
        wb_entries=2,
        address_bits=16,
    )


accesses_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),   # cpu
        st.integers(min_value=0, max_value=63),  # word index (tiny space)
        st.booleans(),                           # is_write
    ),
    max_size=200,
)


@given(accesses=accesses_strategy)
@settings(max_examples=50, deadline=None)
def test_invariants_hold_throughout(accesses):
    system = SMPSystem(tiny_config())
    for step, (cpu, word, is_write) in enumerate(accesses):
        system.access(cpu, word * 8, is_write)
        if step % 10 == 0:
            check_coherence_invariants(system)
    check_coherence_invariants(system)


@given(accesses=accesses_strategy)
@settings(max_examples=50, deadline=None)
def test_event_streams_match_cache_state(accesses):
    """Replaying ALLOC/EVICT events reconstructs the resident-block set."""
    system = SMPSystem(tiny_config())
    for cpu, word, is_write in accesses:
        system.access(cpu, word * 8, is_write)
    for node in system.nodes:
        reconstructed: set[int] = set()
        for kind, block, _flag in node.events.triples():
            if kind == ALLOC:
                assert block not in reconstructed
                reconstructed.add(block)
            elif kind == EVICT:
                assert block in reconstructed
                reconstructed.remove(block)
        # Blocks reclaimed from the WB are re-allocated; the final set
        # must match the actual L2 contents exactly.
        assert reconstructed == set(node.l2.resident_blocks())


@given(accesses=accesses_strategy)
@settings(max_examples=50, deadline=None)
def test_snoop_event_flags_truthful(accesses):
    """Replay the trace twice; the second run checks the recorded flags
    against an independent shadow of the first run's cache state."""
    system = SMPSystem(tiny_config())
    for cpu, word, is_write in accesses:
        system.access(cpu, word * 8, is_write)
    for node in system.nodes:
        resident: set[int] = set()
        for kind, block, flag in node.events.triples():
            if kind == ALLOC:
                resident.add(block)
            elif kind == EVICT:
                resident.discard(block)
            elif kind == SNOOP:
                block_present = bool(flag & 2)
                assert block_present == (block in resident)
                if flag & 1:  # subblock hit implies block present
                    assert block_present


@given(
    accesses=accesses_strategy,
    n_cpus=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_remote_hit_histogram_totals(accesses, n_cpus):
    system = SMPSystem(tiny_config(n_cpus))
    for cpu, word, is_write in accesses:
        system.access(cpu % n_cpus, word * 8, is_write)
    histogram = system.bus.stats.remote_hit_histogram
    assert sum(histogram) == system.bus.stats.snoopable
    assert len(histogram) == n_cpus


@given(accesses=accesses_strategy)
@settings(max_examples=30, deadline=None)
def test_access_accounting_balances(accesses):
    system = SMPSystem(tiny_config())
    for cpu, word, is_write in accesses:
        system.access(cpu, word * 8, is_write)
    for node in system.nodes:
        stats = node.stats
        assert stats.l1_hits + stats.l1_misses == stats.local_accesses
        assert stats.l2_local_hits + stats.l2_local_misses == stats.l2_local_accesses
        assert stats.snoop_hits + stats.snoop_misses == stats.snoop_tag_probes
        assert stats.snoop_block_present >= stats.snoop_hits
    agg_local_misses = sum(n.stats.l2_local_misses for n in system.nodes)
    # Every snoopable bus transaction was caused by a local miss or an
    # upgrade on some node.
    agg_upgrades = sum(n.stats.upgrades_issued for n in system.nodes)
    assert system.bus.stats.snoopable == agg_local_misses + agg_upgrades
