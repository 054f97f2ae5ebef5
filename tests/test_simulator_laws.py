"""The simulator's conservation laws, checked by every streamed run.

:func:`repro.coherence.smp.check_simulator_laws` runs at the end of
:func:`~repro.coherence.smp.simulate_streaming`, before any result row
is written.  A broken hit loop or a broken protocol step must be caught
by those laws alone, whichever tier ran the simulation.
"""

from __future__ import annotations

import pytest

from repro.analysis import runner
from repro.analysis.store import ExperimentStore
from repro.coherence.bus import Bus, BusOp, SnoopReply
from repro.coherence.cache import WRITABLE
from repro.coherence.config import SCALED_SYSTEM, SystemConfig
from repro.coherence.node import CacheNode
from repro.coherence.smp import STAT_FIELDS, SMPSystem, simulate_streaming
from repro.core import _cmachine
from repro.errors import ConfigurationError, InvariantError, TraceError
from repro.traces.access import MAX_CPUS
from repro.traces.workloads import build_workload_stream


@pytest.fixture(params=["native", "python"])
def tier(request, monkeypatch):
    """Run the test on the native core, then on its Python twin."""
    if request.param == "python":
        monkeypatch.setattr(_cmachine, "_lib", None)
    elif _cmachine.library() is None:
        pytest.skip("the native core needs a C compiler")
    return request.param


def _lu(n_accesses: int = 6_000):
    return build_workload_stream("lu", n_accesses=n_accesses, seed=1)


def _corrupt_before_fold(monkeypatch, corrupt):
    """Apply ``corrupt(system)`` to the counted deltas before each fold."""
    fold = SMPSystem._fold

    def corrupted(self):
        corrupt(self)
        fold(self)

    monkeypatch.setattr(SMPSystem, "_fold", corrupted)


def _row(system, cpu: int) -> int:
    """Where node ``cpu``'s counter deltas start."""
    return cpu * len(STAT_FIELDS)


def _field(name: str) -> int:
    return STAT_FIELDS.index(name)


@pytest.fixture
def lossy_hit_loop(monkeypatch):
    """Each batch that counted local writes on a node loses one of them
    from its ``local_writes`` (but not from its L1 hits or misses)."""
    fold = SMPSystem._fold
    writes = _field("local_writes")

    def lossy(self):
        counted = [
            self._hits[2 * cpu + 1] + self._deltas[_row(self, cpu) + writes]
            for cpu in range(self.config.n_cpus)
        ]
        fold(self)
        for node, count in zip(self.nodes, counted):
            if count:
                node.stats.local_writes -= 1

    monkeypatch.setattr(SMPSystem, "_fold", lossy)


@pytest.fixture
def dropped_snoop(tier, monkeypatch):
    """Node 1 misses bus transactions: some of its snoops never run.

    On the Python tier every 100th snoop is skipped; the native core's
    batches each drop one from the counts they hand back.
    """
    if tier == "python":
        snoop = CacheNode.snoop
        seen = [0]

        def dropping(self, op, address):
            if self.node_id == 1:
                seen[0] += 1
                if seen[0] % 100 == 0:
                    return SnoopReply()
            return snoop(self, op, address)

        monkeypatch.setattr(CacheNode, "snoop", dropping)
        return
    def drop(system):
        row = _row(system, 1)
        deltas = system._deltas
        if deltas[row + _field("snoops_observed")] == 0:
            return
        for name in ("wb_probes", "snoops_observed", "snoop_tag_probes"):
            deltas[row + _field(name)] -= 1
        outcome = "snoop_misses" if deltas[row + _field("snoop_misses")] else "snoop_hits"
        deltas[row + _field(outcome)] -= 1

    _corrupt_before_fold(monkeypatch, drop)


@pytest.fixture
def double_counted_transaction(tier, monkeypatch):
    """The bus counts transactions twice.

    On the Python tier every 100th; the native core's batches each count
    one read again in the deltas they hand back.
    """
    if tier == "python":
        record = Bus.record_transaction
        seen = [0]

        def doubling(self, op, replies):
            seen[0] += 1
            if seen[0] % 100 == 0:
                record(self, op, replies)
            return record(self, op, replies)

        monkeypatch.setattr(Bus, "record_transaction", doubling)
        return
    def double(system):
        bus = system._bus_deltas
        if bus[0] == 0:  # the READ count
            return
        bus[0] += 1
        bus[len(BusOp) + 1] += 1  # remote-hit histogram bin 0

    _corrupt_before_fold(monkeypatch, double)


def test_a_clean_run_obeys_the_laws(tier):
    result = simulate_streaming(SCALED_SYSTEM, _lu(), warmup=1_000)
    assert result.accesses == 5_000
    assert sum(s.l1_hits for s in result.node_stats) > 4_000


def test_a_hit_loop_dropping_local_writes_is_caught(tier, lossy_hit_loop):
    with pytest.raises(InvariantError, match="L1 hits"):
        simulate_streaming(SCALED_SYSTEM, _lu())


def test_a_stale_writable_bit_after_a_downgrade_is_caught(tier, tiny_system):
    # CPU 0 owns the line (the second store a clean hit) and CPU 1's
    # read downgrades it to O; a stale writable bit left behind in CPU
    # 0's L1 is caught when the run ends.
    system = SMPSystem(tiny_system)
    for access in [(0, 0x1000, True), (0, 0x1000, True), (1, 0x1000, False)]:
        system.access(*access)
    node = system.nodes[0]
    node.l1.lines[node.l1.find(0x1000 >> tiny_system.l1.block_offset_bits)] |= (
        WRITABLE
    )
    with pytest.raises(InvariantError, match="writable L1 block"):
        simulate_streaming(system, [(0, 0x1000, False)])


def test_a_dropped_snoop_is_caught(tier, dropped_snoop):
    with pytest.raises(InvariantError, match="others_bus_transactions"):
        simulate_streaming(SCALED_SYSTEM, _lu())


def test_a_double_counted_transaction_is_caught(
    tier, double_counted_transaction
):
    with pytest.raises(InvariantError, match="bus_transactions"):
        simulate_streaming(SCALED_SYSTEM, _lu())


def test_a_broken_run_stores_no_row(tier, lossy_hit_loop):
    _assert_the_sweep_stores_no_row()


@pytest.mark.parametrize("fault", ["dropped_snoop", "double_counted_transaction"])
def test_a_broken_bus_run_stores_no_row(tier, fault, request):
    request.getfixturevalue(fault)
    _assert_the_sweep_stores_no_row()


def _assert_the_sweep_stores_no_row():
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
