"""The simulator's conservation laws, checked by every streamed run.

:func:`repro.coherence.smp.check_simulator_laws` runs at the end of
:func:`~repro.coherence.smp.simulate_streaming`, before any result row
is written.  A broken hit loop or a broken protocol step must be caught
by those laws alone, whichever tier ran the L1 hits.
"""

from __future__ import annotations

import pytest

from repro.analysis import runner
from repro.analysis.store import ExperimentStore
from repro.coherence.cache import WRITABLE
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.node import CacheNode
from repro.coherence.smp import SMPSystem, simulate_streaming
from repro.core import _cmachine
from repro.errors import ConfigurationError, InvariantError, TraceError
from repro.traces.access import MAX_CPUS
from repro.traces.workloads import build_workload_stream


@pytest.fixture(params=["native", "python"])
def tier(request, monkeypatch):
    """Run the test on the native hit loop, then on its Python twin."""
    if request.param == "python":
        monkeypatch.setattr(_cmachine, "_lib", None)
    elif _cmachine.library() is None:
        pytest.skip("the native hit loop needs a C compiler")
    return request.param


def _lu(n_accesses: int = 6_000):
    return build_workload_stream("lu", n_accesses=n_accesses, seed=1)


@pytest.fixture
def lossy_hit_loop(monkeypatch):
    """Count write hits as L1 hits but drop them from ``local_writes``."""
    fold = SMPSystem._fold_hits

    def lossy(self):
        for cpu, node in enumerate(self.nodes):
            node.stats.local_writes -= self._hits[2 * cpu + 1]
        fold(self)

    monkeypatch.setattr(SMPSystem, "_fold_hits", lossy)


def test_a_clean_run_obeys_the_laws(tier):
    result = simulate_streaming(SCALED_SYSTEM, _lu(), warmup=1_000)
    assert result.accesses == 5_000
    assert sum(s.l1_hits for s in result.node_stats) > 4_000


def test_a_hit_loop_dropping_local_writes_is_caught(tier, lossy_hit_loop):
    with pytest.raises(InvariantError, match="L1 hits"):
        simulate_streaming(SCALED_SYSTEM, _lu())


def test_a_stale_writable_bit_after_a_downgrade_is_caught(
    tier, tiny_system, monkeypatch
):
    snoop_read = CacheNode._snoop_read

    def stale(self, frame, sub, state, reply):
        snoop_read(self, frame, sub, state, reply)
        slot = self.l1.find(self._l1_block_of(frame.block, sub))
        if slot >= 0:
            self.l1.lines[slot] |= WRITABLE

    monkeypatch.setattr(CacheNode, "_snoop_read", stale)
    # CPU 0 owns the line (the second store a clean hit), CPU 1's read
    # downgrades it to O, and CPU 0 reads it again from its L1.
    accesses = [(0, 0x1000, True), (0, 0x1000, True), (1, 0x1000, False),
                (0, 0x1000, False)]
    with pytest.raises(InvariantError, match="writable L1 block"):
        simulate_streaming(tiny_system, accesses)


def test_a_broken_run_stores_no_row(tier, lossy_hit_loop):
    store = ExperimentStore()
    with pytest.raises(InvariantError):
        runner.run_sweep(
            ("lu",), ("EJ-8x2",), experiment_store=store,
            accesses=4_000, warmup=1_000,
        )
    assert not [
        entry for entry in store.entries()
        if entry.kind in ("sim-metrics", "eval")
    ]


def test_accesses_for_cpus_outside_the_machine_are_refused(tier):
    """The hit loop stops at a CPU the machine lacks; the run raises."""
    stream = build_workload_stream("lu", n_cpus=8, n_accesses=2_000, seed=1)
    with pytest.raises(TraceError, match="on a 4-way system"):
        simulate_streaming(SCALED_SYSTEM, stream)


def test_the_cpu_field_bounds_the_machine():
    SystemConfig(n_cpus=MAX_CPUS)
    with pytest.raises(ConfigurationError, match=f"at most {MAX_CPUS}"):
        SystemConfig(n_cpus=MAX_CPUS + 1)
