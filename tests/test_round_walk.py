"""Rounds: one native call walks one segment per node, each on a thread.

A node's compiled replayers read and write only that node's buffers, so
the groups of a round share nothing and may walk on separate threads.
These tests pin that a round walks every node exactly as the node would
walk alone, under any thread budget; that replay feeds rounds in the
reader's round-major order, so the first error raised is the first in
that order; and the budget policy: a process's main thread walks on up
to one thread per CPU, pool workers on one, and no thread outlives the
call that started it.

They pass thread counts of 2 and 4 on segments far below
:data:`~repro.core.vector_replay.MIN_THREAD_STEPS`, so the threaded path
runs here, and under ``tools/sanitize_native.py``'s ASan build, on small
inputs.
"""

from __future__ import annotations

import concurrent.futures
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import store as store_mod
from repro.core import _cmachine, vector_replay
from repro.core.stats import (
    ALLOC,
    EVICT,
    MARKER,
    PHASE_FLAG,
    LiveBanks,
    NodeEventStream,
    StreamingFilterBank,
    TraceReader,
    pack_event,
    replay_trace,
)
from repro.errors import CoherenceError, FilterSafetyError
from tests.conftest import oracle_replay
from tests.test_vector_replay import (
    PAPER_FILTERS,
    PAPER_HJ_NAMES,
    _GROUP_BLOCKS,
    _GROUP_STEPS,
    _RANDOM_PHASES,
    _single_filter,
    _snoop,
    _vector,
    golden_streams,  # noqa: F401 - the fixture, used by name
    requires_native,
)

#: The budgets every round is walked under.
BUDGETS = (1, 2, 4)

#: Filters of every family, two hybrids sharing the IJ's lanes.
ROUND_FILTERS = (
    "EJ-32x4", "VEJ-32x4-8", "IJ-10x4x7", "HJ(IJ-10x4x7, EJ-32x4)",
    "HJ(IJ-10x4x7, VEJ-32x4-8)",
)


@st.composite
def _node_rounds(draw):
    """One to four nodes' packed streams, each cut into segments, and a
    group of paper filters every node walks.

    A node's stream keeps its own cache contents, as
    ``test_vector_replay._group_replays`` does, with warm-up MARKERs,
    PHASE marks, P1 snoops of uncached blocks (safety violations) and
    evicts of uncached blocks (IJ underflows) anywhere.
    """
    nodes = []
    for _node in range(draw(st.integers(1, 4))):
        cached, events = set(), []
        steps = draw(st.lists(
            st.tuples(st.sampled_from(_GROUP_STEPS),
                      st.sampled_from(_GROUP_BLOCKS), st.booleans()),
            min_size=0, max_size=80,
        ))
        for step, block, flag in steps:
            if step == "snoop":
                events.append(_snoop(block, would_hit=flag,
                                     present=block in cached))
            elif step == "alloc" and block not in cached:
                cached.add(block)
                events.append(pack_event(ALLOC, block))
            elif step == "evict" and block in cached:
                cached.discard(block)
                events.append(pack_event(EVICT, block))
            elif step == "warm-up":
                events.append(pack_event(MARKER, 0))
            elif step == "phase":
                events.append(pack_event(
                    MARKER, block % len(_RANDOM_PHASES), PHASE_FLAG
                ))
            elif step == "unsafe-snoop" and block not in cached:
                events.append(_snoop(block, present=True))
            elif step == "underflow" and block not in cached:
                events.append(pack_event(EVICT, block))
        cuts = sorted(draw(st.lists(st.integers(0, len(events)),
                                    max_size=3)))
        bounds = [0, *cuts, len(events)]
        nodes.append([array("q", events[lo:hi])
                      for lo, hi in zip(bounds, bounds[1:])])
    names = draw(st.lists(st.sampled_from(PAPER_FILTERS), min_size=1,
                          max_size=5, unique=True))
    if draw(st.booleans()):
        hybrid = draw(st.sampled_from(PAPER_HJ_NAMES))
        names = [hybrid, hybrid[len("HJ("):hybrid.index(",")],
                 *(name for name in names if name != hybrid)]
    return nodes, list(dict.fromkeys(names))


def _state(replayer) -> tuple:
    """A replayer's walked state, as bytes: lanes, lane totals, rows,
    fill counts and presence vectors (``None`` where it has none)."""
    exclude = replayer._exclude
    return tuple(
        None if buffer is None else buffer.tobytes()
        for buffer in (
            replayer._lanes, replayer._lane_totals,
            *(getattr(exclude, name, None)
              for name in ("_rows", "_fill", "_vecs")),
        )
    )


def _walked(nodes, names, threads) -> list:
    """Every node's members walked segment by segment: in rounds of one
    segment per node under ``threads``, or (``None``) each node alone.
    A member stops walking at its first error.  Returns, per node and
    member, its spans and its final state."""
    groups = [[_vector(name) for name in names] for _node in nodes]
    spans = [{replayer: [] for replayer in group} for group in groups]
    walking = [list(group) for group in groups]
    for index in range(max(len(segments) for segments in nodes)):
        present = [node for node, segments in enumerate(nodes)
                   if index < len(segments)]
        pairs = [(walking[node], nodes[node][index]) for node in present]
        if threads is None:
            results = [vector_replay.walk_segment(group, events)
                       for group, events in pairs]
        else:
            results = vector_replay.walk_round(pairs, threads)
        for node, result in zip(present, results):
            for replayer, walked in result.items():
                spans[node][replayer] += walked
            walking[node] = [
                replayer for replayer in walking[node]
                if not any(span[1] for span in result[replayer])
            ]
    return [
        [(spans[node][replayer], _state(replayer)) for replayer in group]
        for node, group in enumerate(groups)
    ]


@requires_native
class TestRoundWalk:
    """A round walks each node's group exactly as the node alone."""

    @given(rounds=_node_rounds())
    @settings(max_examples=60, deadline=None)
    def test_round_equals_each_node_alone(self, rounds):
        nodes, names = rounds
        alone = _walked(nodes, names, None)
        for threads in BUDGETS:
            assert _walked(nodes, names, threads) == alone, threads

    def test_a_threaded_walk_leaves_no_thread(self):
        """The walk's threads are joined inside the call: the process
        has the same threads before and after a four-thread round."""
        tasks = Path("/proc/self/task")
        if not tasks.is_dir():
            pytest.skip("no /proc task list")
        events = array("q", [_snoop(0x40), pack_event(ALLOC, 0x40),
                             _snoop(0x40, present=True)] * 50)
        before = sorted(os.listdir(tasks))
        pairs = [([_vector(name) for name in ROUND_FILTERS], events)
                 for _node in range(4)]
        vector_replay.walk_round(pairs, threads=4)
        assert sorted(os.listdir(tasks)) == before


def _banks(names, nodes=4) -> list[StreamingFilterBank]:
    return [StreamingFilterBank([_single_filter(name) for _ in range(nodes)],
                                phase_names=_RANDOM_PHASES)
            for name in names]


def _payloads(banks) -> list[bytes]:
    return [store_mod.encode_eval(bank.finish()) for bank in banks]


@pytest.fixture(params=BUDGETS, ids=[f"threads-{n}" for n in BUDGETS])
def budget(request, monkeypatch):
    """Every round walks on ``min(nodes, param)`` threads, however small."""
    threads = request.param
    monkeypatch.setattr(vector_replay, "MIN_THREAD_STEPS", 1)
    monkeypatch.setattr(_cmachine, "thread_budget", lambda: threads)
    return threads


@requires_native
class TestRoundFeeds:
    """Replay and live banks feed rounds; the bytes never move."""

    def _serial(self, feed) -> list[bytes]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_cmachine, "thread_budget", lambda: 1)
            return feed()

    def test_replay_is_byte_identical_under_any_budget(
        self, golden_streams, budget
    ):
        streams = golden_streams["vector-golden-mix"]
        size = 1_777
        segments = [
            [array("q", stream.events[lo:lo + size])
             for lo in range(0, len(stream.events), size)]
            for stream in streams
        ]

        def replay():
            banks = _banks(ROUND_FILTERS, len(segments))
            reader = TraceReader([len(node) for node in segments],
                                 lambda node, index: segments[node][index])
            replay_trace(reader, banks)
            return _payloads(banks)

        assert replay() == self._serial(replay)

    def test_live_chunks_are_byte_identical_under_any_budget(
        self, golden_streams, budget
    ):
        streams = golden_streams["vector-golden-stream"]
        size = 701

        def stream():
            banks = _banks(ROUND_FILTERS, len(streams))
            live = LiveBanks(banks)
            longest = max(len(s.events) for s in streams)
            for lo in range(0, longest, size):
                live.consume([
                    NodeEventStream(node, s.events[lo:lo + size])
                    for node, s in enumerate(streams)
                ])
            return _payloads(banks)

        assert stream() == self._serial(stream)


class TestRoundMajorOrder:
    def test_reader_yields_segment_k_of_every_node(self):
        fetched = []

        def fetch(node, index):
            fetched.append((node, index))
            return array("q")

        reader = TraceReader([2, 1, 3], fetch)
        order = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (2, 2)]
        assert [node for node, _events in reader] == [n for n, _ in order]
        assert fetched == order
        fetched.clear()
        assert [[node for node, _events in pairs]
                for pairs in reader.rounds(2)] == [[0, 1], [2], [0, 2], [2]]
        assert fetched == order

    @pytest.mark.parametrize("threads", BUDGETS)
    def test_first_error_is_the_first_in_reader_order(
        self, monkeypatch, threads
    ):
        """Node 1 errs in its first segment and node 0 in its second:
        the round-major reader reaches node 1's first, on any budget,
        as the oracle does."""
        monkeypatch.setattr(vector_replay, "MIN_THREAD_STEPS", 1)
        monkeypatch.setattr(_cmachine, "thread_budget", lambda: threads)
        clean = array("q", [_snoop(0x40), pack_event(ALLOC, 0x40)])
        unsafe = array("q", [_snoop(0x300), _snoop(0x300, present=True)])
        underflow = array("q", [pack_event(EVICT, 0x123)])
        nodes = [[clean, unsafe], [underflow]]
        for oracle in (False, True):
            with oracle_replay(oracle):
                banks = _banks(["EJ-32x4", "IJ-10x4x7"], len(nodes))
            with pytest.raises((FilterSafetyError, CoherenceError)) as raised:
                replay_trace(TraceReader([2, 1], lambda n, i: nodes[n][i]),
                             banks)
            assert "underflow for block 0x123" in str(raised.value)


def _budget_in_worker() -> int:
    return _cmachine.thread_budget()


class TestThreadBudget:
    def test_main_thread_takes_a_thread_per_node_up_to_the_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert _cmachine.thread_budget() == cpus
        steps = vector_replay.MIN_THREAD_STEPS
        jobs = [([None], None, 0, steps)] * 4
        assert vector_replay._round_threads(jobs) == min(4, cpus)
        assert vector_replay._round_threads(jobs[:1]) == 1

    def test_thread_pool_worker_walks_on_one_thread(self):
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            assert pool.submit(_budget_in_worker).result() == 1

    def test_process_pool_worker_walks_on_one_thread(self):
        with concurrent.futures.ProcessPoolExecutor(1) as pool:
            assert pool.submit(_budget_in_worker).result() == 1

    @requires_native
    def test_small_rounds_stay_on_one_thread(self, monkeypatch):
        """Below ``MIN_THREAD_STEPS`` per thread a round asks for fewer
        threads; the budget is the cap above it."""
        asked = []
        walk = vector_replay.walk

        def counting(jobs, threads=1):
            asked.append(threads)
            return walk(jobs, threads)

        monkeypatch.setattr(vector_replay, "walk", counting)
        monkeypatch.setattr(_cmachine, "thread_budget", lambda: 4)
        events = array("q", [_snoop(0x40)] * 100)
        pairs = [([_vector("EJ-32x4")], events) for _node in range(4)]
        vector_replay.walk_round(pairs)
        monkeypatch.setattr(vector_replay, "MIN_THREAD_STEPS", 150)
        vector_replay.walk_round(pairs)
        monkeypatch.setattr(vector_replay, "MIN_THREAD_STEPS", 1)
        vector_replay.walk_round(pairs)
        assert asked == [1, 2, 4]

    def test_the_serial_path_does_not_import_multiprocessing(self):
        code = (
            "import sys\n"
            "from repro.core import _cmachine, vector_replay\n"
            "_cmachine.thread_budget()\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        src = Path(vector_replay.__file__).resolve().parents[2]
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})
