"""Drawing accesses ahead on a helper thread never changes a byte.

:func:`repro.coherence.smp.simulate_streaming` lets a workload's
:class:`~repro.traces.synth.MixStream` draw its next batch on a helper
thread while the current one simulates and walks
(:meth:`MixStream.draw_ahead`).  Each case here runs with the helper
forced on (a two-CPU budget) and forced off (a one-CPU budget) and pins:

* the stored rows, at awkward and default chunk sizes, with warm-up,
  PHASE marks and a checkpoint cadence that divides no chunk, streamed
  and recorded;
* that a take which splits a drawn block raises;
* the threads left behind by a run that raises;
* where the helper stays off: off the main thread, in a pool worker, on
  one CPU, on the Python tier;
* the stream pickled at every save, and the resume of a checkpoint that
  a stream without the helper wrote.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import sys
import threading

import pytest

from repro.analysis import runner
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.coherence.smp import simulate_streaming
from repro.core import _cmachine
from repro.errors import TraceError
from repro.traces.suite import Phase, Suite
from repro.traces.synth import mix
from repro.traces.workloads import build_workload_stream
from tests.conftest import oracle_replay
from tests.test_checkpoint import kill_after_checkpoints

requires_native = pytest.mark.skipif(
    _cmachine.library() is None,
    reason="the helper draws through the native generator",
)

#: Warm-up 800 and phase boundaries at 800, 2300 and 4300: none is a
#: multiple of any chunk size below.
SUITE = Suite(
    [
        Phase("ramp", "zipf-hot", 1_500),
        Phase("steady", "scan-stream", 2_000),
        Phase("cool", "read-mostly-web", 1_000),
    ],
    name="draw-ahead",
    warmup_accesses=800,
)
FILTERS = ("EJ-16x2", "VEJ-16x2-4", "HJ(IJ-8x4x7, EJ-16x2)")
CHUNK_SIZES = (512, 1_777, 65_536)
#: Divides no chunk size, the warm-up or a phase boundary.
CHECKPOINT_EVERY = 1_300


@pytest.fixture(params=["off", "on"])
def helper(request, monkeypatch):
    """Force the helper on or off; yields the list of helpers started."""
    on = request.param == "on"
    if on and _cmachine.library() is None:
        pytest.skip("the helper draws through the native generator")
    monkeypatch.setattr(_cmachine, "thread_budget", lambda: 2 if on else 1)
    started = []

    class Counted(mix._DrawAhead):
        def __init__(self, *args):
            started.append(self)
            super().__init__(*args)

    monkeypatch.setattr(mix, "_DrawAhead", Counted)
    yield started
    assert bool(started) == on


def _rows(mode: str, chunk_size: int, checkpoint_every=None) -> dict:
    store = ExperimentStore()
    runner.execute(
        [runner.SweepJob(SUITE, FILTERS, SCALED_SYSTEM, 1, chunk_size)],
        mode=mode, experiment_store=store, checkpoint_every=checkpoint_every,
    )
    return store.dump()


@pytest.fixture(scope="module")
def reference() -> dict:
    """Per mode, the rows of a run with no helper and no checkpoints."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_cmachine, "thread_budget", lambda: 1)
        return {mode: _rows(mode, 1_777) for mode in ("stream", "replay")}


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("mode", ["stream", "replay"])
def test_rows_are_byte_identical(reference, helper, mode, chunk_size):
    rows = _rows(mode, chunk_size, CHECKPOINT_EVERY)
    assert rows == reference[mode]


def test_a_take_that_splits_a_block_raises(helper):
    """The caller takes the blocks whole, in order: a take of another
    size is a caller's bug, not a stream to serve by copying."""
    stream = build_workload_stream("lu", n_accesses=9_000, seed=3)
    expected = build_workload_stream("lu", n_accesses=9_000, seed=3)
    stream.draw_ahead(iter([500, 500]))
    try:
        assert stream.take(500) == expected.take(500)
        if helper:  # a helper started: its blocks are taken whole
            with pytest.raises(TraceError, match="not the next drawn block"):
                stream.take(250)
        else:
            assert stream.take(250) == expected.take(250)
    finally:
        stream.stop_drawing()


def test_four_helpers_under_rapid_thread_switches(helper):
    """More helpers than cores, tiny blocks, a switch every microsecond:
    each stream is still the stream drawn on one thread."""
    streams = [build_workload_stream("em3d", n_accesses=6_000, seed=seed)
               for seed in range(4)]
    drawn = [[] for _ in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for stream in streams:
            stream.draw_ahead([37] * 162 + [6])
        while any(stream.remaining for stream in streams):
            for out, stream in zip(drawn, streams):
                out += stream.take(37)
    finally:
        sys.setswitchinterval(interval)
        for stream in streams:
            stream.stop_drawing()
    assert drawn == [
        list(build_workload_stream("em3d", n_accesses=6_000, seed=seed)
             .take(6_000))
        for seed in range(4)
    ]


class _Fails:
    def __init__(self) -> None:
        self.shards = 0

    def consume(self, shard) -> None:
        self.shards += 1
        if self.shards == 2:
            raise RuntimeError("sink failed")


def test_a_run_that_raises_leaves_no_thread(helper):
    before = set(threading.enumerate())
    stream = build_workload_stream("em3d", n_accesses=20_000, seed=1)
    with pytest.raises(RuntimeError, match="sink failed"):
        simulate_streaming(SCALED_SYSTEM, stream, "em3d", warmup=3_000,
                           chunk_size=2_000, sinks=[_Fails()])
    assert set(threading.enumerate()) == before


def _helper_started() -> bool:
    stream = build_workload_stream("lu", n_accesses=1_000, seed=1)
    stream.draw_ahead(iter([400]))
    started = stream._ahead is not None
    stream.stop_drawing()
    return started


@requires_native
class TestHelperStaysOff:
    def test_it_runs_on_the_main_thread_with_two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert _helper_started()

    def test_off_the_main_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            assert not pool.submit(_helper_started).result()

    def test_in_a_multiprocessing_child(self):
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            assert not pool.submit(_helper_started).result()

    def test_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not _helper_started()

    def test_on_the_python_tier(self, monkeypatch):
        monkeypatch.setattr(_cmachine, "thread_budget", lambda: 2)
        with oracle_replay():
            assert not _helper_started()


def _pickles_at_saves() -> list[bytes]:
    from repro.traces.workloads import simulate_workload_accesses

    stream, warmup = simulate_workload_accesses(
        SUITE, n_cpus=SCALED_SYSTEM.n_cpus, seed=1
    )
    pickles = []
    simulate_streaming(
        SCALED_SYSTEM, stream, SUITE.name, warmup=warmup, chunk_size=512,
        phase_marks=SUITE.phase_marks(), checkpoint_every=CHECKPOINT_EVERY,
        on_checkpoint=lambda system, position: pickles.append(
            stream.checkpoint()
        ),
    )
    return pickles


def test_pickles_at_saves_are_byte_identical(helper):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_cmachine, "thread_budget", lambda: 1)
        expected = _pickles_at_saves()
    assert len(expected) == 4
    assert _pickles_at_saves() == expected
    assert all(b"_ahead" not in blob for blob in expected)


def _getstate_without_helper(self) -> dict:
    """``MixStream.__getstate__`` as it was before the helper existed."""
    state = self.__dict__.copy()
    if self._rng is not None:
        state["_mt"] = mix.array("q", self._rng.getstate()[1])
    state["_rng"] = state["_native"] = None
    return state


@pytest.mark.parametrize("mode", ["stream", "replay"])
def test_a_checkpoint_written_without_the_helper_resumes(
    reference, helper, mode
):
    store = ExperimentStore()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mix.MixStream, "__getstate__", _getstate_without_helper)
        patch.setattr(mix.MixStream, "draw_ahead",
                      lambda self, sizes: None)
        with kill_after_checkpoints(store, 2):
            with pytest.raises(KeyboardInterrupt):
                runner.execute(
                    [runner.SweepJob(SUITE, FILTERS, SCALED_SYSTEM, 1, 512)],
                    mode=mode, experiment_store=store,
                    checkpoint_every=CHECKPOINT_EVERY,
                )
    report = runner.execute(
        [runner.SweepJob(SUITE, FILTERS, SCALED_SYSTEM, 1, 1_777)],
        mode=mode, experiment_store=store, checkpoint_every=CHECKPOINT_EVERY,
    )
    assert report.checkpoints_resumed == 1
    assert report.resumed_accesses == 2 * CHECKPOINT_EVERY
    assert store.dump() == reference[mode]


def test_an_unpickled_stream_has_no_helper():
    stream = build_workload_stream("lu", n_accesses=1_000, seed=1)
    stream.take(300)
    copy = pickle.loads(stream.checkpoint())
    assert "_ahead" not in vars(copy) and copy._ahead is None
    assert copy.take(700) == stream.take(700)
