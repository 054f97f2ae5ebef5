"""Directed MOESI protocol scenarios on a small SMP.

Each test drives the system with a hand-written access sequence and
checks states, statistics, and snoop responses against the protocol
definition (write-invalidate MOESI at subblock granularity).
"""

import pytest

from repro.coherence.cache import DIRTY, WRITABLE
from repro.coherence.smp import SMPSystem, check_coherence_invariants
from repro.coherence.states import MOESI


def l2_state(system: SMPSystem, cpu: int, address: int) -> MOESI:
    config = system.config.l2
    states = system.nodes[cpu].l2.subblock_states(
        address >> config.block_offset_bits
    )
    sub = (address >> config.subblock_offset_bits) % config.subblocks_per_block
    if states is None:
        return MOESI.I
    return states[sub]


class TestReadPaths:
    def test_cold_read_installs_exclusive(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        assert l2_state(system, 0, 0x1000) is MOESI.E
        assert system.bus.stats.remote_hit_histogram[0] == 1

    def test_second_reader_shares(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        system.access(1, 0x1000, False)
        assert l2_state(system, 0, 0x1000) is MOESI.S
        assert l2_state(system, 1, 0x1000) is MOESI.S
        # The second read found exactly one remote copy.
        assert system.bus.stats.remote_hit_histogram[1] == 1

    def test_read_after_modified_leaves_owner(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, True)
        assert l2_state(system, 0, 0x1000) is MOESI.M
        system.access(1, 0x1000, False)
        assert l2_state(system, 0, 0x1000) is MOESI.O
        assert l2_state(system, 1, 0x1000) is MOESI.S
        assert system.nodes[0].stats.snoop_data_supplies == 1

    def test_owner_keeps_supplying(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, True)
        system.access(1, 0x1000, False)
        system.access(2, 0x1000, False)
        assert l2_state(system, 0, 0x1000) is MOESI.O
        assert system.nodes[0].stats.snoop_data_supplies == 2


class TestWritePaths:
    def test_cold_write_installs_modified(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x2000, True)
        assert l2_state(system, 0, 0x2000) is MOESI.M

    def test_write_invalidates_sharers(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x2000, False)
        system.access(1, 0x2000, False)
        system.access(2, 0x2000, True)  # BusRdX
        assert l2_state(system, 0, 0x2000) is MOESI.I
        assert l2_state(system, 1, 0x2000) is MOESI.I
        assert l2_state(system, 2, 0x2000) is MOESI.M

    def test_upgrade_on_shared_write_hit(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x2000, False)
        system.access(1, 0x2000, False)
        upgrades_before = system.bus.stats.transactions
        system.access(0, 0x2000, True)  # write hit on S => BusUpgr
        assert system.nodes[0].stats.upgrades_issued == 1
        assert l2_state(system, 0, 0x2000) is MOESI.M
        assert l2_state(system, 1, 0x2000) is MOESI.I
        del upgrades_before

    def test_silent_exclusive_upgrade(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x2000, False)  # E
        snoopable_before = system.bus.stats.snoopable
        system.access(0, 0x2000, True)  # E -> M without a bus transaction
        assert system.bus.stats.snoopable == snoopable_before
        assert l2_state(system, 0, 0x2000) is MOESI.M

    def test_migratory_handoff(self, tiny_system):
        system = SMPSystem(tiny_system)
        for cpu in (0, 1, 2, 3, 0):
            system.access(cpu, 0x3000, False)
            system.access(cpu, 0x3000, True)
            assert l2_state(system, cpu, 0x3000) is MOESI.M
            check_coherence_invariants(system)


class TestSubblockGranularity:
    def test_subblocks_track_state_independently(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, True)       # subblock 0 -> M
        system.access(0, 0x1000 + 32, False)  # subblock 1 -> E
        assert l2_state(system, 0, 0x1000) is MOESI.M
        assert l2_state(system, 0, 0x1000 + 32) is MOESI.E

    def test_invalidation_spares_other_subblock(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        system.access(0, 0x1000 + 32, False)
        system.access(1, 0x1000, True)  # invalidates subblock 0 only
        assert l2_state(system, 0, 0x1000) is MOESI.I
        assert l2_state(system, 0, 0x1000 + 32) is MOESI.E

    def test_snoop_miss_on_invalid_subblock_of_present_block(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)       # only subblock 0 at CPU0
        system.access(1, 0x1000 + 32, False)  # snoop for subblock 1
        stats = system.nodes[0].stats
        assert stats.snoop_misses == 1
        assert stats.snoop_block_present == 1  # tag matched, subblock absent


class TestL1Behaviour:
    def test_l1_hit_after_fill(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        system.access(0, 0x1000, False)
        stats = system.nodes[0].stats
        assert stats.l1_hits == 1
        assert stats.l1_misses == 1
        assert stats.l2_local_accesses == 1

    def test_write_permission_miss_goes_to_l2(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        system.access(1, 0x1000, False)  # both S now; CPU0's L1 not writable
        system.access(0, 0x1000, True)
        stats = system.nodes[0].stats
        assert stats.upgrades_issued == 1
        assert stats.l2_local_accesses == 2

    def test_snoop_read_revokes_l1_write_permission(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, True)
        system.access(1, 0x1000, False)  # downgrade M -> O
        l1 = system.nodes[0].l1
        slot = l1.find(0x1000 >> l1.config.block_offset_bits)
        assert slot >= 0
        assert not l1.lines[slot] & WRITABLE
        assert not l1.lines[slot] & DIRTY  # data pulled into L2 during the supply

    def test_inclusion_on_l2_eviction(self, tiny_system):
        system = SMPSystem(tiny_system)
        # tiny L2: 32 sets of 64 B; two addresses 2048 apart conflict.
        system.access(0, 0x0000, False)
        assert system.nodes[0].l1.find(0) >= 0
        system.access(0, 0x0000 + 2048, False)  # evicts block 0 from L2
        assert system.nodes[0].l1.find(0) == -1
        check_coherence_invariants(system)


class TestWriteBufferPaths:
    def test_dirty_eviction_enters_wb(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)
        system.access(0, 0x0000 + 2048, False)  # conflict evicts dirty block
        node = system.nodes[0]
        assert node.wb.probe(0) is not None
        assert node.stats.l2_dirty_evictions == 1

    def test_wb_services_snoop(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)
        system.access(0, 0x0000 + 2048, False)
        # Block 0 now only lives in CPU0's WB; CPU1 reads it.
        system.access(1, 0x0000, False)
        assert system.nodes[0].stats.wb_hits == 1
        assert system.bus.stats.remote_hit_histogram[1] >= 1

    def test_wb_reclaim_without_bus_traffic(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)
        system.access(0, 0x0000 + 2048, False)
        snoopable_before = system.bus.stats.snoopable
        system.access(0, 0x0000, False)  # reclaim from own WB
        assert system.nodes[0].stats.wb_reclaims == 1
        assert system.bus.stats.snoopable == snoopable_before
        assert l2_state(system, 0, 0x0000) is MOESI.M  # state restored
        check_coherence_invariants(system)

    def test_wb_invalidated_by_remote_write(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)
        system.access(0, 0x0000 + 2048, False)
        system.access(1, 0x0000, True)  # BusRdX takes ownership from the WB
        assert system.nodes[0].wb.probe(0) is None
        assert l2_state(system, 1, 0x0000) is MOESI.M
        check_coherence_invariants(system)

    def test_drain_on_finish(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)
        system.access(0, 0x0000 + 2048, False)
        system.finish()
        assert len(system.nodes[0].wb) == 0
        assert system.bus.stats.writebacks >= 1


class TestOwnedReclaim:
    def test_owned_copy_is_not_promoted_by_reclaim(self, tiny_system):
        """An O block that round-trips through the WB must stay O."""
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)   # M at CPU0
        system.access(1, 0x0000, False)  # CPU0: M -> O, CPU1: S
        system.access(0, 0x0000 + 2048, False)  # evict the O block to WB
        system.access(0, 0x0000, False)  # reclaim
        assert l2_state(system, 0, 0x0000) is MOESI.O
        check_coherence_invariants(system)


class TestMeasurementBoundary:
    def test_begin_measurement_resets_counters(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        system.begin_measurement()
        assert system.nodes[0].stats.local_reads == 0
        assert system.accesses == 0
        assert system.bus.stats.snoopable == 0
        # Cache state is preserved across the boundary.
        assert l2_state(system, 0, 0x1000) is MOESI.E

    def test_marker_recorded_in_event_streams(self, tiny_system):
        from repro.core.stats import MARKER

        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        system.begin_measurement()
        for node in system.nodes:
            assert (MARKER, 0, 0) in node.events.triples()


class TestTraceValidation:
    def test_bad_cpu_rejected(self, tiny_system):
        from repro.errors import TraceError

        system = SMPSystem(tiny_system)
        with pytest.raises(TraceError):
            system.access(9, 0x1000, False)
