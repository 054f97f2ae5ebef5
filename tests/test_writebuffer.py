"""Unit tests for the write-back buffer."""

import pytest

from repro.coherence.cache import EMPTY
from repro.coherence.states import MOESI
from repro.coherence.writebuffer import WriteBuffer
from repro.errors import ConfigurationError

M, O, I = MOESI.M, MOESI.O, MOESI.I


class TestWriteBuffer:
    def test_push_and_probe(self):
        wb = WriteBuffer(2, n_subblocks=2)
        wb.push(0x10, [M, MOESI.S])  # only the dirty subblock is buffered
        assert wb.probe(0x10) == bytes([M, I])

    def test_probe_missing(self):
        wb = WriteBuffer(2)
        assert wb.probe(0x10) is None

    def test_fifo_drain_order(self):
        wb = WriteBuffer(2, n_subblocks=2)
        wb.push(0x10, [M, I])
        wb.push(0x20, [I, O])
        assert wb.drain_oldest() == 0x10
        assert wb.drain_oldest() == 0x20

    def test_overflow_rejected(self):
        wb = WriteBuffer(1)
        wb.push(0x10, [M])
        with pytest.raises(ConfigurationError):
            wb.push(0x20, [M])

    def test_remove(self):
        wb = WriteBuffer(2)
        wb.push(0x10, [M])
        assert wb.remove(0x10) == bytes([M])
        assert wb.probe(0x10) is None
        assert wb.remove(0x10) is None

    def test_remove_closes_the_gap_in_place(self):
        wb = WriteBuffer(3, n_subblocks=2)
        tags, states = wb.tags, wb.states
        for block in (0x10, 0x20, 0x30):
            wb.push(block, [M, block == 0x20 and O])
        wb.remove(0x20)
        assert wb.tags is tags and wb.states is states
        assert list(tags) == [0x10, 0x30, EMPTY]
        assert states == bytes([M, I, M, I, I, I])

    def test_repush_merges_states(self):
        wb = WriteBuffer(2, n_subblocks=2)
        wb.push(0x10, [O, I])
        wb.push(0x10, [I, M])
        assert wb.probe(0x10) == bytes([O, M])
        assert len(wb) == 1

    def test_repush_newer_state_wins(self):
        wb = WriteBuffer(2, n_subblocks=2)
        wb.push(0x10, [O, I])
        wb.push(0x10, [M, I])
        assert wb.probe(0x10)[0] == M

    def test_drain_all(self):
        wb = WriteBuffer(4)
        wb.push(0x10, [M])
        wb.push(0x20, [M])
        assert wb.drain_all() == [0x10, 0x20]
        assert len(wb) == 0

    def test_drain_empty_rejected(self):
        wb = WriteBuffer(1)
        with pytest.raises(ConfigurationError):
            wb.drain_oldest()

    def test_full_flag(self):
        wb = WriteBuffer(1)
        assert not wb.full
        wb.push(0x10, [M])
        assert wb.full

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            WriteBuffer(0)
