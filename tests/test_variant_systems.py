"""Protocol behaviour on system variants: NSB and 8-way.

The default experiments run a direct-mapped subblocked 4-way SMP; these
tests exercise the other configurations the substrate supports.
"""

import pytest

from repro.coherence.config import SystemConfig
from repro.coherence.smp import SMPSystem, check_coherence_invariants
from repro.coherence.states import MOESI
from tests.conftest import make_random_trace


class TestNoSubblocking:
    def test_nsb_single_coherence_unit(self, tiny_system):
        nsb = tiny_system.without_subblocking()
        system = SMPSystem(nsb)
        system.access(0, 0x1000, True)
        # The whole 64-byte block is one unit: an access to the other
        # half hits without any bus transaction.
        snoopable = system.bus.stats.snoopable
        system.access(0, 0x1000 + 32, False)
        assert system.bus.stats.snoopable == snoopable
        node = system.nodes[0]
        assert node.l2.subblock_states(0x1000 >> nsb.l2.block_offset_bits) == [
            MOESI.M
        ]

    def test_nsb_random_trace_invariants(self, tiny_system):
        nsb = tiny_system.without_subblocking()
        system = SMPSystem(nsb)
        for cpu, address, is_write in make_random_trace(3000, seed=6):
            system.access(cpu, address, is_write)
        check_coherence_invariants(system)

    def test_nsb_snoop_flags_consistent(self, tiny_system):
        """Without subblocking a would-hit still implies block-present,
        and present-but-invalid frames only arise from invalidations
        (the tag survives a snoop invalidation with its unit dead)."""
        from repro.core.stats import SNOOP

        nsb = tiny_system.without_subblocking()
        system = SMPSystem(nsb)
        for cpu, address, is_write in make_random_trace(2000, seed=7):
            system.access(cpu, address, is_write)
        system.finish()
        snoops = present_but_dead = 0
        for stream in (node.events for node in system.nodes):
            for kind, _block, flag in stream.triples():
                if kind == SNOOP:
                    snoops += 1
                    if flag & 1:
                        assert flag & 2
                    elif flag & 2:
                        present_but_dead += 1
        assert snoops > 0
        # Dead-frame snoops exist but stay a minority of all snoops.
        assert present_but_dead < snoops / 2


class TestEightWay:
    def eight_way(self, tiny_system) -> SystemConfig:
        return tiny_system.with_cpus(8)

    def test_widely_shared_invalidation(self, tiny_system):
        system = SMPSystem(self.eight_way(tiny_system))
        for cpu in range(8):
            system.access(cpu, 0x4000, False)
        # Seven remote copies found by the last reader.
        assert system.bus.stats.remote_hit_histogram[7] == 1
        system.access(0, 0x4000, True)  # upgrade invalidates all seven
        for cpu in range(1, 8):
            node = system.nodes[cpu]
            states = node.l2.subblock_states(
                0x4000 >> node.config.l2.block_offset_bits
            )
            assert states is None or states[0] is MOESI.I
        check_coherence_invariants(system)

    def test_histogram_width(self, tiny_system):
        system = SMPSystem(self.eight_way(tiny_system))
        system.access(0, 0x1000, False)
        assert len(system.bus.stats.remote_hit_histogram) == 8

    def test_random_trace_invariants(self, tiny_system):
        system = SMPSystem(self.eight_way(tiny_system))
        for cpu, address, is_write in make_random_trace(
            4000, n_cpus=8, seed=8
        ):
            system.access(cpu, address, is_write)
        check_coherence_invariants(system)
