"""The native coherence core against its Python twin.

``smp_run`` in ``repro/core/machine.c`` runs the whole protocol -- L1
hits, misses, the L2, the write buffer, snoops and the bus -- on the
same buffers :class:`~repro.coherence.node.CacheNode` works on.  On tiny
machines, where drains, reclaims and snoop cancels all fire, random
batches must leave both tiers with equal statistics, bus counters,
event streams and snapshots after every batch, whichever tier ran which
batch, and a fault must surface as the same error on both.
"""

from __future__ import annotations

import contextlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import smp
from repro.coherence.cache import DIRTY, WRITABLE
from repro.coherence.config import CacheConfig, SystemConfig
from repro.coherence.smp import SMPSystem
from repro.coherence.states import MOESI
from repro.core import _cmachine
from repro.errors import CoherenceError, TraceError
from repro.traces.access import pack_access

pytestmark = pytest.mark.skipif(
    _cmachine.library() is None, reason="the native core needs a C compiler"
)


@contextlib.contextmanager
def python_tier():
    """Run the body on the Python twin, the native core hidden."""
    saved = _cmachine.library()
    _cmachine._lib = None
    try:
        yield
    finally:
        _cmachine._lib = saved


def run(system: SMPSystem, batch: array, native: bool) -> None:
    if native:
        system._run_batch(batch)
    else:
        with python_tier():
            system._run_batch(batch)


configs = st.builds(
    lambda n_cpus, l1_sets, l2_sets, n_sub, wb_entries: SystemConfig(
        n_cpus=n_cpus,
        l1=CacheConfig(capacity_bytes=32 * l1_sets, block_bytes=32,
                       subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=32 * n_sub * l2_sets,
                       block_bytes=32 * n_sub, subblock_bytes=32),
        wb_entries=wb_entries,
        address_bits=16,
    ),
    n_cpus=st.integers(2, 4),
    l1_sets=st.sampled_from([1, 2, 4]),
    l2_sets=st.sampled_from([1, 2, 4, 8]),
    n_sub=st.sampled_from([1, 2]),
    wb_entries=st.integers(1, 2),
)

#: Accesses to 48 L1 blocks (a few words each): many conflicts.
accesses = st.tuples(
    st.integers(0, 3), st.integers(0, 48 * 4 - 1), st.booleans()
)
batches = st.lists(st.lists(accesses, max_size=40), min_size=1, max_size=8)


def pack(config: SystemConfig, batch) -> array:
    return array("q", [
        pack_access(cpu % config.n_cpus, word * 8, is_write, config.n_cpus)
        for cpu, word, is_write in batch
    ])


@given(config=configs, batches=batches,
       scratch=st.sampled_from([2, 3, smp.EVENT_SCRATCH]))
@settings(max_examples=150, deadline=None)
def test_both_tiers_agree_after_every_batch(config, batches, scratch):
    with pytest.MonkeyPatch.context() as patch:
        # A scratch of 2 stops the native core after every emitting
        # access, to be emptied: the headroom stop at its tightest.
        patch.setattr(smp, "EVENT_SCRATCH", scratch)
        native, python = SMPSystem(config), SMPSystem(config)
        for batch in batches:
            packed = pack(config, batch)
            run(native, packed, native=True)
            run(python, packed, native=False)
            # The snapshot holds statistics, caches, write buffers,
            # pending events and bus counters.
            assert native.snapshot() == python.snapshot()
            assert [vars(n.stats) for n in native.nodes] == [
                vars(n.stats) for n in python.nodes
            ]
            assert [n.events.events for n in native.nodes] == [
                n.events.events for n in python.nodes
            ]
        native.finish()
        python.finish()
        assert native.snapshot() == python.snapshot()


@given(config=configs, batches=batches,
       tiers=st.lists(st.booleans(), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_a_run_may_switch_tiers_at_any_batch(config, batches, tiers):
    """On the shared buffers, and across a snapshot and restore into a
    fresh machine, each batch on either tier."""
    reference, shared = SMPSystem(config), SMPSystem(config)
    restored = SMPSystem(config)
    for batch, native in zip(batches, tiers):
        packed = pack(config, batch)
        run(reference, packed, native=False)
        run(shared, packed, native=native)
        fresh = SMPSystem(config)
        fresh.restore(restored.snapshot())
        restored = fresh
        run(restored, packed, native=not native)
        assert shared.snapshot() == reference.snapshot()
        assert restored.snapshot() == reference.snapshot()


def tiny() -> SystemConfig:
    return SystemConfig(
        n_cpus=2,
        l1=CacheConfig(capacity_bytes=64, block_bytes=32, subblock_bytes=32),
        l2=CacheConfig(capacity_bytes=256, block_bytes=64, subblock_bytes=32),
        wb_entries=1,
        address_bits=16,
    )


def _raw_access(cpu: int, address: int, is_write: bool = False) -> int:
    """A packed access word, unchecked (pack_access refuses bad ones)."""
    return address << 8 | cpu << 1 | is_write


def _stale_dirty_line(system: SMPSystem) -> None:
    """CPU 0's L1 holds block 0 dirty over an L2 copy in E."""
    system.access(0, 0x0, False)
    system.nodes[0].l1.lines[0] |= DIRTY | WRITABLE
    system.nodes[0].l2.states[0] = MOESI.E


def _orphan_dirty_line(system: SMPSystem) -> None:
    """CPU 0's L1 holds block 0 dirty with no L2 frame behind it."""
    system.nodes[0].l1.lines[0] = 0 << 2 | DIRTY | WRITABLE


def _unbacked_writable_line(system: SMPSystem) -> None:
    """CPU 0's L1 may write block 0 (read in E), whose L2 copy is
    invalid."""
    system.access(0, 0x0, False)
    system.nodes[0].l2.states[0] = MOESI.I


FAULTS = {
    # name: (set-up, the batch, the error, its message)
    "negative address": (
        None, [_raw_access(0, 0x40), -1 << 8], TraceError,
        "negative address -0x1",
    ),
    "CPU outside the machine": (
        None, [_raw_access(0, 0x40), _raw_access(2, 0x40)], TraceError,
        "access for CPU 2 on a 2-way system",
    ),
    "dirty L1 line backed by E": (
        _stale_dirty_line, [_raw_access(0, 0x40)], CoherenceError,
        "dirty L1 block 0x0 on node 0 backed by L2 state E",
    ),
    "dirty L1 line without an L2 frame": (
        _orphan_dirty_line, [_raw_access(0, 0x40)], CoherenceError,
        "L1 inclusion violated on node 0: displaced L1 block 0x0 has no "
        "L2 frame",
    ),
    "writable L1 line not backed": (
        _unbacked_writable_line, [_raw_access(0, 0x0, True)], CoherenceError,
        "L1 writable line 0x0 on node 0 not backed by a valid L2 subblock",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_surfaces_as_the_same_error_on_both_tiers(fault):
    set_up, words, error, message = FAULTS[fault]
    after = []
    for native in (True, False):
        system = SMPSystem(tiny())
        if set_up is not None:
            set_up(system)
        with pytest.raises(error) as raised:
            run(system, array("q", words), native)
        assert str(raised.value) == message
        after.append(system.snapshot())
    assert after[0] == after[1]
