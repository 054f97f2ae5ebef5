"""Error paths and rarely exercised branches of the node protocol."""

import pytest

from repro.coherence.cache import WRITABLE
from repro.coherence.smp import SMPSystem
from repro.coherence.states import MOESI
from repro.errors import CoherenceError


class TestWriteBufferPressure:
    def fill_wb(self, system, cpu=0, count=2):
        """Evict `count` dirty blocks into CPU's write buffer.

        tiny_system has 32 L2 sets and a 2-entry WB; consecutive
        conflicting writes create dirty evictions.
        """
        for i in range(count):
            base = i << 6  # distinct sets
            system.access(cpu, base, True)
            system.access(cpu, base + 2048, True)  # conflict: evicts dirty

    def test_wb_drains_under_pressure(self, tiny_system):
        system = SMPSystem(tiny_system)
        self.fill_wb(system, count=4)  # 4 dirty evictions, 2 WB entries
        node = system.nodes[0]
        assert node.stats.wb_pushes == 4
        assert node.stats.wb_drains >= 2
        assert len(node.wb) <= tiny_system.wb_entries
        assert system.bus.stats.writebacks == node.stats.wb_drains

    def test_partial_wb_cancellation(self, tiny_system):
        """A remote RdX strips one subblock from a two-subblock WB entry;
        the other subblock's writeback must survive."""
        system = SMPSystem(tiny_system)
        system.access(0, 0x0000, True)       # subblock 0 dirty
        system.access(0, 0x0000 + 32, True)  # subblock 1 dirty
        system.access(0, 0x0000 + 2048, False)  # evict both to WB
        assert system.nodes[0].wb.probe(0) == bytes([MOESI.M, MOESI.M])

        system.access(1, 0x0000, True)  # RdX takes subblock 0 only
        assert system.nodes[0].wb.probe(0) == bytes([MOESI.I, MOESI.M])


class TestL1SnoopProbes:
    def test_l1_probed_only_when_hinted(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, True)  # in L1 and L2 of CPU0
        before = system.nodes[0].stats.l1_snoop_probes
        system.access(1, 0x1000, False)
        assert system.nodes[0].stats.l1_snoop_probes == before + 1

    def test_no_l1_probe_after_l1_eviction(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        # Displace the line from CPU0's tiny L1 (8 blocks, same set 256B apart).
        system.access(0, 0x1000 + 256, False)
        before = system.nodes[0].stats.l1_snoop_probes
        system.access(1, 0x1000, False)
        # The inclusion hint was cleared on displacement: no L1 probe.
        assert system.nodes[0].stats.l1_snoop_probes == before


class TestCoherenceErrorPaths:
    def test_unattached_node_cannot_broadcast(self, tiny_system):
        from repro.coherence.node import CacheNode

        node = CacheNode(0, tiny_system)
        with pytest.raises(CoherenceError):
            node.local_access(0x1000, True)  # cold write needs the bus

    def test_mirror_detects_missing_backing(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x1000, False)
        node = system.nodes[0]
        # Corrupt the state behind the model's back: invalidate the L2
        # subblock while the L1 still claims a writable copy.
        l2_slot = node.l2.find(0x1000 >> tiny_system.l2.block_offset_bits)
        slot = node.l1.find(0x1000 >> tiny_system.l1.block_offset_bits)
        node.l1.lines[slot] |= WRITABLE
        node.l2.states[l2_slot * node.l2.n_subblocks] = MOESI.I
        with pytest.raises(CoherenceError):
            node.local_access(0x1000, True)


class TestStatsCrossChecks:
    def test_data_supplies_only_from_owners(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x3000, False)  # E at CPU0
        system.access(1, 0x3000, False)  # E supplies nothing (memory does)
        assert system.nodes[0].stats.snoop_data_supplies == 0
        system.access(2, 0x3000, True)   # RdX: S holders supply nothing
        assert sum(n.stats.snoop_data_supplies for n in system.nodes) == 0
        system.access(3, 0x3000, False)  # M at CPU2 supplies
        assert system.nodes[2].stats.snoop_data_supplies == 1

    def test_upgrade_counts_as_hit_not_miss(self, tiny_system):
        system = SMPSystem(tiny_system)
        system.access(0, 0x2000, False)
        system.access(1, 0x2000, False)
        stats = system.nodes[0].stats
        hits_before, misses_before = stats.l2_local_hits, stats.l2_local_misses
        system.access(0, 0x2000, True)
        assert stats.l2_local_hits == hits_before + 1
        assert stats.l2_local_misses == misses_before
