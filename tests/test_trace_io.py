"""Unit tests for trace archiving (.npz round trips)."""

import pytest

np = pytest.importorskip("numpy", reason="trace archiving uses .npz files")

from repro.errors import TraceError
from repro.traces.io import FORMAT_VERSION, load_trace, save_trace, trace_length


@pytest.fixture
def sample_trace():
    return [
        (0, 0x1000, False),
        (1, 0x2008, True),
        (3, 0xFFFF_FFF8, False),
        (2, 0x0, True),
    ]


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, sample_trace):
        path = tmp_path / "trace.npz"
        count = save_trace(path, sample_trace)
        assert count == 4
        assert list(load_trace(path)) == sample_trace

    def test_types_after_load(self, tmp_path, sample_trace):
        path = tmp_path / "trace.npz"
        save_trace(path, sample_trace)
        cpu, address, is_write = next(iter(load_trace(path)))
        assert isinstance(cpu, int)
        assert isinstance(address, int)
        assert isinstance(is_write, bool)

    def test_trace_length(self, tmp_path, sample_trace):
        path = tmp_path / "trace.npz"
        save_trace(path, sample_trace)
        assert trace_length(path) == 4

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        assert save_trace(path, []) == 0
        assert list(load_trace(path)) == []

    def test_workload_stream_round_trip(self, tmp_path):
        from repro.traces.workloads import build_workload_stream

        stream = list(build_workload_stream("lu", n_accesses=500, seed=9))
        path = tmp_path / "lu.npz"
        save_trace(path, stream)
        assert list(load_trace(path)) == stream

    def test_loaded_trace_drives_simulator(self, tmp_path, tiny_system):
        from repro.coherence.smp import simulate_streaming

        trace = [(cpu, 0x1000 + 8 * i, i % 3 == 0)
                 for i, cpu in enumerate([0, 1, 2, 3] * 25)]
        path = tmp_path / "drive.npz"
        save_trace(path, trace)
        result = simulate_streaming(tiny_system, load_trace(path), "from-file")
        assert result.accesses == 100


class TestDeltaFormat:
    def test_archives_are_written_as_version_2_deltas(
        self, tmp_path, sample_trace
    ):
        path = tmp_path / "v2.npz"
        save_trace(path, sample_trace)
        with np.load(path) as archive:
            assert int(archive["jetty_trace_version"][0]) == 2
            assert "address" not in archive
            deltas = archive["address_delta"]
            assert deltas.dtype == np.int64
            # First element is the first address; the rest are diffs.
            assert int(deltas[0]) == sample_trace[0][1]
            assert (deltas[2] < 0) if sample_trace[2][1] < (
                sample_trace[1][1]) else (deltas[2] >= 0)

    def test_legacy_v1_archives_still_load(self, tmp_path, sample_trace):
        path = tmp_path / "v1.npz"
        np.savez(
            path,
            cpu=np.asarray([a[0] for a in sample_trace], dtype=np.uint16),
            address=np.asarray([a[1] for a in sample_trace], dtype=np.uint64),
            is_write=np.asarray([a[2] for a in sample_trace], dtype=bool),
            jetty_trace_version=np.asarray([1], dtype=np.int64),
        )
        assert list(load_trace(path)) == sample_trace
        assert trace_length(path) == 4

    def test_huge_addresses_fall_back_to_absolute_form(self, tmp_path):
        # Deltas between top-half 64-bit addresses could overflow int64.
        trace = [(0, (1 << 63) + 16, False), (1, 8, True)]
        path = tmp_path / "huge.npz"
        save_trace(path, trace)
        with np.load(path) as archive:
            assert int(archive["jetty_trace_version"][0]) == 1
            assert "address_delta" not in archive
        assert list(load_trace(path)) == trace

    def test_deltas_shrink_a_local_stream(self, tmp_path):
        trace = [(i % 4, 0x10_0000 + 64 * i, i % 5 == 0)
                 for i in range(5_000)]
        v2 = tmp_path / "v2.npz"
        save_trace(v2, trace)
        v1 = tmp_path / "v1.npz"
        np.savez_compressed(
            v1,
            cpu=np.asarray([a[0] for a in trace], dtype=np.uint16),
            address=np.asarray([a[1] for a in trace], dtype=np.uint64),
            is_write=np.asarray([a[2] for a in trace], dtype=bool),
            jetty_trace_version=np.asarray([1], dtype=np.int64),
        )
        assert v2.stat().st_size < v1.stat().st_size
        assert list(load_trace(v2)) == trace


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            list(load_trace(tmp_path / "nope.npz"))

    def test_negative_values_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            save_trace(tmp_path / "bad.npz", [(0, -8, False)])

    def test_foreign_archive_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(TraceError):
            list(load_trace(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            cpu=np.zeros(1, dtype=np.uint16),
            address=np.zeros(1, dtype=np.uint64),
            is_write=np.zeros(1, dtype=bool),
            jetty_trace_version=np.asarray([FORMAT_VERSION + 1]),
        )
        with pytest.raises(TraceError):
            list(load_trace(path))

    def test_mismatched_lengths_rejected(self, tmp_path):
        path = tmp_path / "ragged.npz"
        np.savez(
            path,
            cpu=np.zeros(2, dtype=np.uint16),
            address=np.zeros(1, dtype=np.uint64),
            is_write=np.zeros(2, dtype=bool),
            jetty_trace_version=np.asarray([FORMAT_VERSION]),
        )
        with pytest.raises(TraceError):
            trace_length(path)
