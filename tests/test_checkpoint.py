"""Checkpoint/restore tests: the snapshot protocol and resumable runs.

Mid-run checkpointing rests on three claims, all pinned here:

* **protocol completeness** — every stateful layer's ``snapshot()`` /
  ``restore()`` pair captures its logical state exactly and rebuilds its
  derived state (flat tag indexes, bound fast-path methods) so a
  restored object is behaviourally indistinguishable from the original;
* **interruption-invariance** — for every filter family and awkward
  chunk size, a streamed run killed at an arbitrary checkpoint (inside
  warm-up, on the warm-up marker, or mid-chunk) and resumed produces byte-identical metrics,
  evaluation payloads, and recorded trace segments versus an
  uninterrupted run;
* **store hygiene** — completed runs retire their checkpoint chains,
  interrupted recordings validate their last durable segment (a
  truncated tail drops back one watermark instead of crashing), and
  garbage collection evicts a chain atomically, stale-first.
"""

from __future__ import annotations

import base64
import logging
import zlib
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.analysis import runner, store as store_mod
from repro.analysis.store import CHECKPOINT_KIND, ExperimentStore
from repro.coherence.bus import Bus, BusOp
from repro.coherence.cache import (
    DIRTY,
    EMPTY,
    LINE_SHIFT,
    WRITABLE,
    L1Cache,
    L2Cache,
)
from repro.coherence.config import CacheConfig, SCALED_SYSTEM
from repro.coherence.smp import (
    _MEASURE,
    _SAVE,
    SMPSystem,
    TraceSink,
    _boundary_schedule,
    _plan,
    _sizes_to_save,
)
from repro.coherence.writebuffer import WriteBuffer
from repro.core.config import (
    EJConfig,
    IJConfig,
    VEJConfig,
    build_filter,
    parse_filter_name,
)
from repro.core.stats import EventReplayer, pack_event, SNOOP
from repro.errors import ConfigurationError, TraceError
from repro.traces.workloads import (
    WORKLOADS,
    PaperReference,
    WorkloadSpec,
    simulate_workload_accesses,
)
from tests.conftest import oracle_replay

#: One representative of every filter family, sized for a tiny workload.
FAMILIES = (
    "EJ-8x2",
    "IJ-6x2x3",
    "VEJ-16x2-4",
    "HJ(IJ-6x2x3, EJ-8x2)",
    "HIJ-8x2",
    "null",
)

#: Awkward chunk sizes (a small power of two and a prime), as in
#: tests/test_streaming.py.
CHUNK_SIZES = (512, 1777)

#: Checkpoint cadences: 400 divides the warm-up, so a save lands exactly
#: on the warm-up MARKER (the save comes first, the marker after it);
#: 800 *is* the warm-up, so the kill lands there and the resumed run
#: must emit the marker before anything else; 600 lands *inside the
#: warm-up* (600 < 800); 1300 lands mid-chunk in the measured region
#: (1300 divides neither chunk).
CHECKPOINT_KS = (400, 600, 800, 1300)

#: Tiny segments so recordings produce durable mid-run segments.
SEGMENT_EVENTS = 256

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

SPEC = WorkloadSpec(
    name="test-checkpoint",
    abbrev="tc",
    description="miniature workload for checkpoint tests",
    paper=_PAPER,
    n_accesses=3_000,
    warmup_accesses=800,
    repeat_frac=0.2,
    recipe=(
        ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
        ("migratory", dict(weight=0.4, n_objects=16)),
    ),
)


@contextmanager
def kill_after_rows(store: ExperimentStore, kind: str, n: int):
    """Simulate a SIGKILL right after the ``n``-th ``kind`` row is put.

    The wrapper lets the row land and then raises, which is exactly the
    state a killed process leaves behind.  Outside ``batch()`` the row
    is durable by then (``put_blob`` commits before returning); inside
    one it sits in the scope's open transaction.
    """
    original = store.put_blob
    seen = {"rows": 0}

    def wrapper(key, blob, **kwargs):
        original(key, blob, **kwargs)
        if kwargs["kind"] == kind:
            seen["rows"] += 1
            if seen["rows"] == n:
                raise KeyboardInterrupt("simulated SIGKILL")

    store.put_blob = wrapper
    try:
        yield
    finally:
        store.put_blob = original


def kill_after_checkpoints(store: ExperimentStore, n: int):
    """Simulate a SIGKILL right after the ``n``-th checkpoint commits
    (checkpoints are never written inside ``batch()``)."""
    return kill_after_rows(store, CHECKPOINT_KIND, n)


def _stream_jobs(filter_name: str, chunk_size: int):
    return [runner.SweepJob(SPEC, (filter_name,), SCALED_SYSTEM, 1,
                            chunk_size)]


# ----------------------------------------------------------------------
# Unit round trips of the snapshot protocol
# ----------------------------------------------------------------------

class TestSnapshotUnits:
    def test_boundary_schedule_saves_before_markers_at_one_position(self):
        """A save at a marker's position comes first, so a run resumed
        from it (``start`` = that position) still has the marker ahead;
        no save lands at or past the stream's end.  The plan cuts the
        schedule into batches of at most ``chunk_size`` accesses from
        each stop (and from ``end``, a stop past it included), summing
        to the run's length, and keeps the stops in order."""
        schedule = list(_boundary_schedule(800, (800, 1200), 0, 400, 1600))
        assert schedule == [
            (400, _SAVE), (800, _SAVE), (800, _MEASURE), (800, 0),
            (1200, _SAVE), (1200, 1),
        ]
        assert list(_boundary_schedule(800, (800, 1200), 800, 400, 1600)) == [
            (800, _MEASURE), (800, 0), (1200, _SAVE), (1200, 1),
        ]
        assert list(_boundary_schedule(800, (800, 1200), 1200)) == [(1200, 1)]
        for start, end, chunk_size in [
            (0, 1600, 300), (800, 1600, 300), (0, 1600, 1), (0, 1600, 5_000),
            (0, 1000, 300), (1200, 1600, 7),
        ]:
            stops = list(_boundary_schedule(800, (800, 1200), start, 400, end))
            steps = list(_plan(stops, chunk_size, start, end))
            assert [step for step in steps if isinstance(step, tuple)] == stops
            assert sum(step for step in steps if isinstance(step, int)) == (
                end - start
            )
            position, stretch = start, []
            for step in [*steps, (end, None)]:
                if isinstance(step, int):
                    position += step
                    stretch.append(step)
                    continue
                assert position == min(step[0], end)
                assert all(size == chunk_size for size in stretch[:-1])
                assert all(0 < size <= chunk_size for size in stretch)
                stretch = []
            saves = [i for i, step in enumerate(steps)
                     if isinstance(step, tuple) and step[1] == _SAVE]
            assert list(_sizes_to_save(iter(steps))) == [
                step for step in steps[:(saves or [len(steps)])[0]]
                if isinstance(step, int)
            ]

    def test_l2_restore_rebuilds_index_in_place(self):
        config = CacheConfig(capacity_bytes=1024, block_bytes=64,
                             subblock_bytes=32)
        from repro.coherence.states import MOESI

        state = {"frames": [[5, "MI", 0b10], [6, "II", 0]]}
        cache = L2Cache(config)
        cache.restore(state)
        assert cache.snapshot() == state

        fresh = L2Cache(config)
        fresh.restore({"frames": [[5 + config.n_sets, "SS", 1]]})  # stale
        buffers = [buffer.buffer_info() if hasattr(buffer, "buffer_info")
                   else id(buffer)
                   for buffer in (fresh.tags, fresh.states, fresh.in_l1)]
        fresh.restore(state)
        # The native core holds the buffers' addresses.
        assert buffers == [
            buffer.buffer_info() if hasattr(buffer, "buffer_info")
            else id(buffer)
            for buffer in (fresh.tags, fresh.states, fresh.in_l1)
        ]
        assert len(fresh.tags) == config.n_sets
        assert sorted(fresh.resident_blocks()) == [5, 6]
        assert fresh.subblock_states(5) == [MOESI.M, MOESI.I]
        assert fresh.in_l1[fresh.find(5)] == 0b10
        assert fresh.find(5 + config.n_sets) == -1
        # One frame per set: a second one in block 5's set cannot fit.
        state["frames"].append([5 + config.n_sets, "II", 0])
        with pytest.raises(TraceError, match="in set 5"):
            L2Cache(config).restore(state)

    def test_l1_restore_round_trip(self):
        config = CacheConfig(capacity_bytes=256, block_bytes=32,
                             subblock_bytes=32)
        cache = L1Cache(config)
        cache.fill(3, writable=True, dirty=True)
        cache.fill(7, writable=False)
        fresh = L1Cache(config)
        lines_at = fresh.lines.buffer_info()
        fresh.restore(cache.snapshot())
        # The native hit loop holds the buffer's address.
        assert fresh.lines.buffer_info() == lines_at
        assert fresh.lines == cache.lines
        assert fresh.lines[fresh.find(3)] & (DIRTY | WRITABLE) == (
            DIRTY | WRITABLE
        )
        assert not fresh.lines[fresh.find(7)] & WRITABLE
        with pytest.raises(TraceError):
            L1Cache(CacheConfig(capacity_bytes=128, block_bytes=32,
                                subblock_bytes=32)).restore(cache.snapshot())
        # Block 3 lives in slot 3 only.
        state = cache.snapshot()
        state["lines"][3], state["lines"][4] = EMPTY, state["lines"][3]
        with pytest.raises(TraceError, match="in slot 4"):
            L1Cache(config).restore(state)

    def test_write_buffer_preserves_fifo_order_in_place(self):
        from repro.coherence.states import MOESI

        wb = WriteBuffer(4, n_subblocks=2)
        wb.push(10, [MOESI.M, MOESI.I])
        wb.push(11, [MOESI.I, MOESI.O])
        wb.push(12, [MOESI.M, MOESI.M])
        assert wb.snapshot()["entries"][1] == [11, [[1, "O"]]]
        fresh = WriteBuffer(4, n_subblocks=2)
        tags_at = fresh.tags.buffer_info()
        states = fresh.states
        fresh.restore(wb.snapshot())
        assert fresh.tags.buffer_info() == tags_at
        assert fresh.states is states
        assert fresh.blocks() == (10, 11, 12)
        assert fresh.drain_oldest() == 10
        assert fresh.probe(12) == bytes([MOESI.M, MOESI.M])
        with pytest.raises(ConfigurationError):
            WriteBuffer(2, n_subblocks=2).restore(wb.snapshot())
        with pytest.raises(TraceError, match="subblock 1 of 1"):
            WriteBuffer(4).restore(wb.snapshot())

    def test_bus_counters_round_trip(self):
        bus = Bus(4)
        from repro.coherence.bus import SnoopReply

        bus.record_transaction(BusOp.READ, [SnoopReply(hit=True)])
        bus.record_writeback()
        fresh = Bus(4)
        fresh.restore(bus.snapshot())
        assert fresh.stats.transactions == bus.stats.transactions
        assert fresh.stats.writebacks == 1
        assert fresh.stats.remote_hit_histogram == bus.stats.remote_hit_histogram

    @pytest.mark.parametrize("name", FAMILIES)
    def test_filter_snapshot_behavioural_equivalence(self, name):
        """A restored filter probes, learns, and counts like the original."""
        import random

        rng = random.Random(7)
        original = build_filter(name)
        replayer = EventReplayer(original, 0)
        events = []
        live = set()
        for _ in range(600):
            block = rng.randrange(128)
            kind = rng.random()
            if kind < 0.7:
                present = block in live
                flag = 3 if present else 0
                events.append(pack_event(SNOOP, block, flag))
            elif kind < 0.85 and block not in live:
                live.add(block)
                events.append(pack_event(1, block))  # ALLOC
            elif block in live:
                live.discard(block)
                events.append(pack_event(2, block))  # EVICT
        replayer.feed(events)

        clone = build_filter(name)
        clone_replayer = EventReplayer(clone, 0)
        clone_replayer.restore(replayer.snapshot())
        tail = []
        for _ in range(200):
            block = rng.randrange(128)
            tail.append(pack_event(SNOOP, block, 3 if block in live else 0))
        replayer.feed(tail)
        clone_replayer.feed(tail)
        assert store_mod.encode_eval(replayer.finish()) == store_mod.encode_eval(
            clone_replayer.finish()
        )

    def test_filter_snapshot_rejects_wrong_configuration(self):
        snapshot = build_filter("EJ-8x2").snapshot()
        with pytest.raises(ConfigurationError):
            build_filter("EJ-32x4").restore(snapshot)

    def test_trace_sink_rejects_mismatched_segment_size(self):
        sink = TraceSink(2, lambda *a: None, segment_events=16)
        other = TraceSink(2, lambda *a: None, segment_events=32)
        with pytest.raises(TraceError):
            other.restore(sink.snapshot())

    def test_smp_system_round_trip_continues_identically(self):
        """Snapshot mid-run, restore into a fresh machine, outputs match."""
        system = SMPSystem(SCALED_SYSTEM)
        stream, _warmup = simulate_workload_accesses(SPEC, n_cpus=4, seed=3)
        system._run_batch(stream.take(2_000))
        system.take_shard()
        state = system.snapshot()
        tail = stream.take(1_000)

        fresh = SMPSystem(SCALED_SYSTEM)
        fresh.restore(state)
        for clone in fresh.nodes:
            # The hot paths must alias the restored structures.
            assert clone._l2_tags is clone.l2.tags
            assert clone._l2_states is clone.l2.states
            assert clone._l2_in_l1 is clone.l2.in_l1
            assert clone._wb_tags is clone.wb.tags
            assert clone._wb_states is clone.wb.states
            assert clone._l1_lines is clone.l1.lines
            assert clone._emit.__self__ is clone.events.events
        system._run_batch(tail)
        fresh._run_batch(tail)
        first = system.take_shard()
        second = fresh.take_shard()
        assert [s.events for s in first] == [s.events for s in second]
        assert [vars(a.stats) for a in system.nodes] == [
            vars(b.stats) for b in fresh.nodes
        ]
        assert fresh.bus.snapshot() == system.bus.snapshot()


# ----------------------------------------------------------------------
# Interruption-invariance: every family, awkward chunks, awkward K
# ----------------------------------------------------------------------

class TestStreamKillResumeByteIdentity:
    @pytest.mark.parametrize("filter_name", FAMILIES)
    def test_kill_and_resume_matches_clean_run(self, filter_name):
        """Kill at K (inside warm-up and mid-chunk), resume, diff stores.

        The clean reference never checkpoints; the interrupted store is
        killed immediately after its first checkpoint commits and then
        resumed — with a *different* chunk size, which must not matter.
        Every payload byte (``sim-metrics`` and ``eval``) must match.
        """
        clean = ExperimentStore()
        runner.execute(
            _stream_jobs(filter_name, 1_000_000),
            mode="stream", experiment_store=clean,
        )
        reference = clean.dump()
        for chunk_size in CHUNK_SIZES:
            for k in CHECKPOINT_KS:
                interrupted = ExperimentStore()
                with kill_after_checkpoints(interrupted, 1):
                    with pytest.raises(KeyboardInterrupt):
                        runner.execute(
                            _stream_jobs(filter_name, chunk_size),
                            mode="stream", experiment_store=interrupted,
                            checkpoint_every=k,
                        )
                assert interrupted.stats().checkpoints == 1
                resume_chunk = 512 if chunk_size != 512 else 1777
                report = runner.execute(
                    _stream_jobs(filter_name, resume_chunk),
                    mode="stream", experiment_store=interrupted,
                    checkpoint_every=k,
                )
                assert report.checkpoints_resumed == 1
                assert report.resumed_accesses == k
                assert interrupted.dump() == reference, (
                    f"divergence for {filter_name} chunk={chunk_size} K={k}"
                )

    @pytest.mark.parametrize("filter_name", FAMILIES)
    def test_checkpoint_resumes_under_the_other_kernel(self, filter_name):
        """One checkpoint format: a pass killed on oracle banks resumes
        on the default replayers, and the reverse, to the clean run's
        bytes — inside warm-up and mid-chunk in the measured region."""
        clean = ExperimentStore()
        runner.execute(
            _stream_jobs(filter_name, 1_000_000),
            mode="stream", experiment_store=clean,
        )
        reference = clean.dump()
        for first, second in ((True, False), (False, True)):
            for k in (600, 1300):
                interrupted = ExperimentStore()
                killed = kill_after_checkpoints(interrupted, 1)
                with killed, oracle_replay(first):
                    with pytest.raises(KeyboardInterrupt):
                        runner.execute(
                            _stream_jobs(filter_name, 1777),
                            mode="stream", experiment_store=interrupted,
                            checkpoint_every=k, backend="serial",
                        )
                with oracle_replay(second):
                    report = runner.execute(
                        _stream_jobs(filter_name, 512),
                        mode="stream", experiment_store=interrupted,
                        checkpoint_every=k, backend="serial",
                    )
                assert report.checkpoints_resumed == 1
                assert interrupted.dump() == reference, (
                    f"divergence for {filter_name} oracle {first}->{second} "
                    f"K={k}"
                )

    def test_live_chain_is_pruned_to_newest_two_watermarks(self):
        """A long run must not accumulate one row per watermark: only
        the newest snapshot plus one fallback stay live."""
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 4):
            with pytest.raises(KeyboardInterrupt):
                runner.execute(
                    _stream_jobs("EJ-8x2", 512),
                    mode="stream", experiment_store=interrupted,
                    checkpoint_every=900,
                )
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, ("EJ-8x2",), False
        )
        keys = interrupted.group_keys(CHECKPOINT_KIND, chain)
        positions = sorted(
            store_mod.decode_checkpoint(interrupted.get_blob(key))["position"]
            for key in keys
        )
        # Saves landed at 900/1800/2700/3600; each save prunes beyond
        # the newest two, and the kill (inside the 4th save's write)
        # preempts that save's prune — so the oldest row is gone and at
        # most newest-two-plus-in-flight remain.
        assert positions == [1_800, 2_700, 3_600]

    def test_chain_survives_externally_warmed_evals(self):
        """The chain key covers the job's full filter union, so an eval
        warmed between kill and resume (here: copied in from another
        store) must not orphan the checkpoint chain."""
        filters = ("EJ-8x2", "IJ-6x2x3")
        jobs = [runner.SweepJob(SPEC, filters, SCALED_SYSTEM, 1, 512)]
        clean = ExperimentStore()
        runner.execute(jobs, mode="stream", experiment_store=clean,)

        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                runner.execute(
                    jobs, mode="stream", experiment_store=interrupted,
                    checkpoint_every=900,
                )
        ekey = store_mod.eval_key(SPEC, "EJ-8x2", SCALED_SYSTEM, 1)
        interrupted.put_blob(
            ekey, clean.get_blob(ekey), kind="eval", workload=SPEC.name,
            filter_name="EJ-8x2", n_cpus=4, seed=1,
        )
        report = runner.execute(
            jobs, mode="stream", experiment_store=interrupted,
            checkpoint_every=900,
        )
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses == 1_800
        assert interrupted.dump() == clean.dump()

    def test_checkpointed_uninterrupted_run_is_invisible(self):
        """checkpoint_every alone never changes any stored byte, and a
        completed run leaves no checkpoint rows behind."""
        clean = ExperimentStore()
        runner.execute(
            _stream_jobs("EJ-8x2", 1777), mode="stream", experiment_store=clean,
        )
        checkpointed = ExperimentStore()
        report = runner.execute(
            _stream_jobs("EJ-8x2", 512), mode="stream",
            experiment_store=checkpointed, checkpoint_every=700,
        )
        assert report.checkpoints_written > 0
        assert checkpointed.stats().checkpoints == 0  # chain retired
        assert checkpointed.dump() == clean.dump()

    def test_in_memory_pool_checkpointed_streams_match_serial(self):
        """Checkpointed passes on an in-memory store fan out too: each
        process worker checkpoints into a scratch store and ships its
        result rows back, and the parent store ends byte-identical to
        a serial run with no chain left behind."""
        jobs = [
            runner.SweepJob(SPEC, ("EJ-8x2", "IJ-6x2x3"),
                            SCALED_SYSTEM, seed, 512)
            for seed in (1, 2)
        ]
        serial = ExperimentStore()
        runner.execute(jobs, mode="stream", experiment_store=serial,)
        pooled = ExperimentStore()
        report = runner.execute(
            jobs, mode="stream", experiment_store=pooled,
            workers=2, backend="process", checkpoint_every=700,
        )
        assert report.sims_run == 2
        assert report.evals_run == 4
        assert report.checkpoints_written > 0
        assert pooled.stats().checkpoints == 0
        assert pooled.dump() == serial.dump()

    def test_compute_stream_checkpoint_front_door(self):
        store = ExperimentStore()
        plain = runner.compute_stream(SPEC, SCALED_SYSTEM, 1, ("EJ-8x2",), 512)
        checked = runner.compute_stream(
            SPEC, SCALED_SYSTEM, 1, ("EJ-8x2",), 1777,
            checkpoint_every=900, experiment_store=store,
        )
        assert store_mod.encode_sim_metrics(plain[0]) == (
            store_mod.encode_sim_metrics(checked[0])
        )
        assert store_mod.encode_eval(plain[1]["EJ-8x2"]) == (
            store_mod.encode_eval(checked[1]["EJ-8x2"])
        )
        assert store.stats().checkpoints == 0

    def test_compute_stream_checkpoint_requires_store(self):
        with pytest.raises(ConfigurationError):
            runner.compute_stream(
                SPEC, SCALED_SYSTEM, 1, (), 512, checkpoint_every=100,
            )

    def test_run_sweep_checkpoints_default_recordings(self, monkeypatch):
        """A sweep with no mode flag takes ``checkpoint_every`` too: its
        recording snapshots mid-run, retires the chain on completion, and
        lands the same bytes as an unchecked sweep."""
        monkeypatch.setitem(WORKLOADS, SPEC.name, SPEC)
        clean = ExperimentStore()
        runner.run_sweep([SPEC.name], ["EJ-8x2"], experiment_store=clean)
        checkpointed = ExperimentStore()
        result = runner.run_sweep(
            [SPEC.name], ["EJ-8x2"], experiment_store=checkpointed,
            checkpoint_every=700,
        )
        assert result.report.checkpoints_written > 0
        assert checkpointed.stats().checkpoints == 0  # chain retired
        assert checkpointed.dump() == clean.dump()


# ----------------------------------------------------------------------
# Interrupted recordings: segment watermarks, validation, fallback
# ----------------------------------------------------------------------

#: One filter of every family whose storage is the walk's flat layout.
FLAT_FAMILIES = ("EJ-8x2", "VEJ-16x2-4", "IJ-6x2x3", "HJ(IJ-6x2x3, EJ-8x2)")


def _legacy_filter_state(snapshot: dict) -> None:
    """Rewrite one filter snapshot, in place, into the shape filters
    checkpointed before they kept the walk's layout: EJ and VEJ sets as
    way rows (``None`` for an invalid way) plus LRU orders, IJ lanes as
    one list per sub-array."""
    state = snapshot["state"]
    config = parse_filter_name(snapshot["name"])
    if isinstance(config, IJConfig):
        lanes, size = state["lanes"], 1 << config.entry_bits
        snapshot["state"] = {"counters": [
            lanes[lo:lo + size] for lo in range(0, len(lanes), size)
        ]}
    elif isinstance(config, EJConfig):
        ways, rows = config.ways, state["rows"]
        snapshot["state"] = {
            "tags": [row + [None] * (ways - len(row)) for row in rows],
            "lru": [list(range(ways))] * len(rows),
        }
    elif isinstance(config, VEJConfig):
        ways, rows = config.ways, state["rows"]
        snapshot["state"] = {
            "chunks": [row[::-1] + [None] * (ways - len(row)) for row in rows],
            "vectors": [vector[::-1] + [0] * (ways - len(vector))
                        for vector in state["vectors"]],
            "lru": [list(range(ways))] * len(rows),
        }
    else:
        _legacy_filter_state(state["include"])
        _legacy_filter_state(state["exclude"])


class TestLegacyFilterCheckpoint:
    @pytest.mark.parametrize("every_checkpoint", [False, True],
                             ids=["newest", "every"])
    def test_old_filter_shape_falls_back(self, caplog, every_checkpoint):
        """A checkpoint whose filter state has the old shape fails to
        restore: the ladder logs it, deletes it and resumes from the
        previous watermark (or from access zero when every checkpoint
        has it), and the finished store is a clean run's, byte for
        byte."""
        def jobs(chunk_size):
            return [runner.SweepJob(SPEC, FLAT_FAMILIES, SCALED_SYSTEM, 1,
                                    chunk_size)]

        clean = ExperimentStore()
        runner.execute(jobs(1_000_000), mode="stream", experiment_store=clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                runner.execute(jobs(1777), mode="stream",
                               experiment_store=interrupted,
                               checkpoint_every=900)
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, FLAT_FAMILIES, False
        )
        states = {
            key: store_mod.decode_checkpoint(interrupted.get_blob(key))
            for key in interrupted.group_keys(CHECKPOINT_KIND, chain)
        }
        assert sorted(state["position"] for state in states.values()) == [
            900, 1800
        ]
        damaged = [
            key for key, state in states.items()
            if every_checkpoint or state["position"] == 1800
        ]
        for key in damaged:
            state = states[key]
            for bank in state["banks"].values():
                for replayer in bank:
                    _legacy_filter_state(replayer["filter"])
            interrupted.put_blob(
                key, store_mod.encode_checkpoint(state),
                kind=CHECKPOINT_KIND, workload=SPEC.name, filter_name=chain,
                n_cpus=4, seed=1,
            )
        deleted = []
        delete_key = interrupted.delete_key

        def recording_delete(key):
            deleted.append(key)
            return delete_key(key)

        interrupted.delete_key = recording_delete
        with caplog.at_level(logging.WARNING, logger="repro.runner"):
            report = runner.execute(jobs(512), mode="stream",
                                    experiment_store=interrupted,
                                    checkpoint_every=900)
        fallbacks = [
            record.getMessage() for record in caplog.records
            if "failed to restore" in record.getMessage()
        ]
        assert len(fallbacks) == len(damaged)
        assert all("KeyError" in message for message in fallbacks)
        assert set(damaged) <= set(deleted)
        assert report.checkpoints_resumed == (not every_checkpoint)
        assert report.resumed_accesses == (0 if every_checkpoint else 900)
        assert interrupted.dump() == clean.dump()


def _record(store, *, checkpoint_every=None, chunk_size=1777, report=None):
    return runner.record_trace(
        SPEC, SCALED_SYSTEM, 1, experiment_store=store,
        chunk_size=chunk_size, checkpoint_every=checkpoint_every,
        report=report, segment_events=SEGMENT_EVENTS,
    )


def _chain_states(store):
    chain = store_mod.checkpoint_chain_key(SPEC, SCALED_SYSTEM, 1, (), True)
    return [
        store_mod.decode_checkpoint(store.get_blob(key))
        for key in store.group_keys(CHECKPOINT_KIND, chain)
    ]


def _damage_system(state):
    state["system"] = {"accesses": 0, "nodes": [], "bus": {}}


def _truncate_stream(state):
    blob = base64.b64decode(state["stream"])
    state["stream"] = base64.b64encode(blob[: len(blob) // 2]).decode("ascii")


def _snapshot_version_1(state):
    state["version"] = 1


def _two_l2_frames_in_one_set(state):
    """A second frame in an occupied set of a direct-mapped L2."""
    frames = state["system"]["nodes"][0]["l2"]["frames"]
    block, states, _in_l1 = frames[0]
    frames.append([block + SCALED_SYSTEM.l2.n_sets, states, 0])


def _narrow_bus_histogram(state):
    """A remote-hit histogram one bin wide on a 4-CPU bus."""
    bus = state["system"]["bus"]
    bus["remote_hit_histogram"] = [sum(bus["remote_hit_histogram"])]


def _l1_line_in_the_wrong_slot(state):
    """An L1 line word whose block does not index its slot."""
    lines = state["system"]["nodes"][0]["l1"]["lines"]
    slot = next(i for i, line in enumerate(lines) if line != EMPTY)
    lines[slot] += 1 << LINE_SHIFT  # the next block, which indexes slot + 1


class TestRecordingKillResume:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_interrupted_recording_resumes_at_last_segment(self, chunk_size):
        """Kill a recording after two checkpoints; the rerun resumes from
        the durable watermark and the trace rows come out byte-identical
        to an uninterrupted recording's (manifest, segments, metrics)."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900,
                        chunk_size=chunk_size)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        assert any(count > 0 for count in newest["sink"]["next_index"]), (
            "test must exercise durable mid-run segments"
        )
        report = runner.ExecutionReport()
        resume_chunk = 512 if chunk_size != 512 else 1777
        _record(interrupted, checkpoint_every=900, chunk_size=resume_chunk,
                report=report)
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses == 1_800
        assert interrupted.dump() == clean.dump()

    @pytest.mark.parametrize("python_first", [False, True])
    def test_recording_resumes_on_the_other_tier(self, python_first):
        """One checkpoint format for both simulator tiers: a recording
        killed on the native core resumes on the Python tier, and the
        reverse, to an uninterrupted recording's bytes."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2), oracle_replay(python_first):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        report = runner.ExecutionReport()
        with oracle_replay(not python_first):
            _record(interrupted, checkpoint_every=900, chunk_size=512,
                    report=report)
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses == 1_800
        assert interrupted.dump() == clean.dump()

    def test_truncated_final_segment_falls_back_one_watermark(self):
        """A truncated last segment is dropped and the resume restarts
        from the previous checkpoint — and still matches a clean run."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        tkey = newest["tkey"]
        node = next(
            n for n, count in enumerate(newest["sink"]["next_index"])
            if count > 0
        )
        last_index = newest["sink"]["next_index"][node] - 1
        segment_key = store_mod.trace_segment_key(tkey, node, last_index)
        blob = interrupted.get_blob(segment_key)
        interrupted.put_blob(
            segment_key, blob[: len(blob) // 2], kind=store_mod.TRACE_KIND,
            workload=SPEC.name, filter_name=tkey, n_cpus=4, seed=1,
        )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.checkpoints_resumed == 1
        assert report.resumed_accesses < newest["position"]
        assert interrupted.dump() == clean.dump()

    def test_crc_mismatch_detected_even_when_decompressible(self):
        """A last segment that decompresses but carries the wrong bytes
        (e.g. overwritten by a different store) fails the CRC check."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        tkey = newest["tkey"]
        node = next(
            n for n, count in enumerate(newest["sink"]["next_index"])
            if count > 0
        )
        last_index = newest["sink"]["next_index"][node] - 1
        segment_key = store_mod.trace_segment_key(tkey, node, last_index)
        bogus = zlib.compress(b"\x00" * (SEGMENT_EVENTS * 8), 6)
        interrupted.put_blob(
            segment_key, bogus, kind=store_mod.TRACE_KIND,
            workload=SPEC.name, filter_name=tkey, n_cpus=4, seed=1,
        )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.resumed_accesses < newest["position"]
        assert interrupted.dump() == clean.dump()

    def test_missing_mid_segment_falls_back_or_restarts(self):
        """Deleting a durable segment invalidates every checkpoint that
        references it; the run drops back to a watermark that does not
        (possibly access zero) and the trace still comes out clean."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        newest = max(_chain_states(interrupted), key=lambda s: s["position"])
        tkey = newest["tkey"]
        node = next(
            n for n, count in enumerate(newest["sink"]["next_index"])
            if count > 0
        )
        interrupted.delete_key(store_mod.trace_segment_key(tkey, node, 0))
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.resumed_accesses < newest["position"]
        assert interrupted.dump() == clean.dump()

    @pytest.mark.parametrize(
        "damage, every_checkpoint, resumed_at",
        [
            (_damage_system, False, 900),
            (_truncate_stream, False, 900),
            (_snapshot_version_1, True, 0),
            (_two_l2_frames_in_one_set, False, 900),
            (_narrow_bus_histogram, False, 900),
            (_l1_line_in_the_wrong_slot, False, 900),
        ],
        ids=["damaged system", "truncated stream pickle", "snapshot version 1",
             "two L2 frames in one set", "narrow bus histogram",
             "L1 line in the wrong slot"],
    )
    def test_structurally_invalid_checkpoint_never_bricks_the_chain(
        self, damage, every_checkpoint, resumed_at
    ):
        """A checkpoint that decodes as JSON but cannot *restore* (wrong
        structure, an unreadable stream pickle) is deleted like any other
        bad row — the run falls to the previous watermark instead of
        crashing on every rerun.  A chain written under an older
        snapshot version is discarded whole: the run restarts from access
        zero."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, (), True
        )
        keys = interrupted.group_keys(CHECKPOINT_KIND, chain)
        if not every_checkpoint:
            keys = [max(
                keys,
                key=lambda k: store_mod.decode_checkpoint(
                    interrupted.get_blob(k)
                )["position"],
            )]
        for key in keys:
            state = store_mod.decode_checkpoint(interrupted.get_blob(key))
            damage(state)
            interrupted.put_blob(
                key, store_mod.encode_checkpoint(state),
                kind=CHECKPOINT_KIND, workload=SPEC.name, filter_name=chain,
                n_cpus=4, seed=1,
            )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.checkpoints_resumed == (resumed_at > 0)
        assert report.resumed_accesses == resumed_at
        assert interrupted.dump() == clean.dump()

    def test_corrupt_checkpoint_payloads_restart_from_scratch(self):
        """Undecodable checkpoints are discarded and the recording
        restarts from access zero — still byte-identical (the fresh
        start drops every stale trace row first)."""
        clean = ExperimentStore()
        _record(clean)
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 2):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=900)
        chain = store_mod.checkpoint_chain_key(
            SPEC, SCALED_SYSTEM, 1, (), True
        )
        for key in interrupted.group_keys(CHECKPOINT_KIND, chain):
            blob = interrupted.get_blob(key)
            interrupted.put_blob(
                key, blob[: len(blob) // 3], kind=CHECKPOINT_KIND,
                workload=SPEC.name, filter_name=chain, n_cpus=4, seed=1,
            )
        report = runner.ExecutionReport()
        _record(interrupted, checkpoint_every=900, report=report)
        assert report.checkpoints_resumed == 0
        assert interrupted.dump() == clean.dump()

    def test_replay_after_resumed_recording_matches_streamed_evals(self):
        """Filters replayed from a kill-resumed trace produce the same
        eval bytes as a live streamed evaluation."""
        interrupted = ExperimentStore()
        with kill_after_checkpoints(interrupted, 1):
            with pytest.raises(KeyboardInterrupt):
                _record(interrupted, checkpoint_every=1_300)
        _record(interrupted, checkpoint_every=1_300)
        runner.execute(
            [runner.SweepJob(SPEC, ("EJ-8x2",), SCALED_SYSTEM, 1)],
            mode="replay", experiment_store=interrupted,
        )
        streamed = ExperimentStore()
        runner.execute(
            _stream_jobs("EJ-8x2", 512), mode="stream", experiment_store=streamed,
        )
        ekey = store_mod.eval_key(SPEC, "EJ-8x2", SCALED_SYSTEM, 1)
        assert interrupted.get_blob(ekey) == streamed.get_blob(ekey)


# ----------------------------------------------------------------------
# Store hygiene: chain GC atomicity, superseded-first, CLI-facing stats
# ----------------------------------------------------------------------

def _fake_chain(store, chain, workload, positions, mkey="absent", tkey=None):
    for position in positions:
        state = {
            "version": 1, "workload": workload, "n_cpus": 4, "seed": 1,
            "filters": [], "record": tkey is not None, "position": position,
            "measured": True, "mkey": mkey, "tkey": tkey,
            "system": {}, "banks": {}, "sink": None, "stream": "",
        }
        store.put_blob(
            store_mod.checkpoint_key(chain, position),
            store_mod.encode_checkpoint(state),
            kind=CHECKPOINT_KIND, workload=workload,
            filter_name=chain, n_cpus=4, seed=1,
        )


class TestCheckpointStoreHygiene:
    def test_gc_evicts_a_chain_atomically(self):
        store = ExperimentStore()
        _fake_chain(store, "chain-a", "lu", [100, 200, 300])
        stats = store.stats()
        assert stats.checkpoints == 3
        removed, _freed = store.gc(stats.payload_bytes - 1)
        assert removed == 3  # never a partial chain
        assert store.stats().checkpoints == 0

    def test_gc_evicts_superseded_chains_first(self):
        store = ExperimentStore()
        # The *older* chain is live (its run never finished); the newer
        # one is superseded by a stored sim-metrics row.
        _fake_chain(store, "chain-live", "lu", [100])
        store.put_blob(
            "mkey-done", b"metrics", kind="sim-metrics", workload="fft",
            filter_name=None, n_cpus=4, seed=1,
        )
        _fake_chain(store, "chain-stale", "fft", [100], mkey="mkey-done")
        live_key = store_mod.checkpoint_key("chain-live", 100)
        stale_key = store_mod.checkpoint_key("chain-stale", 100)
        total = store.stats().payload_bytes
        stale_size = len(store.get_blob(stale_key))
        removed, freed = store.gc(total - stale_size)
        assert removed == 1 and freed == stale_size
        assert store.get_blob(stale_key) is None
        assert store.get_blob(live_key) is not None

    def test_checkpoints_counted_in_cache_info_stats(self):
        store = ExperimentStore()
        interrupted_jobs = _stream_jobs("EJ-8x2", 512)
        with kill_after_checkpoints(store, 1):
            with pytest.raises(KeyboardInterrupt):
                runner.execute(
                    interrupted_jobs, mode="stream", experiment_store=store,
                    checkpoint_every=1_000,
                )
        stats = store.stats()
        assert stats.checkpoints == 1
        assert dict(stats.bytes_by_kind).get(CHECKPOINT_KIND, 0) > 0

    def test_persistent_store_round_trips_checkpoints(self, tmp_path):
        """A chain written to SQLite resumes after a process 'restart'
        (store close + reopen), byte-identical to a clean run."""
        clean = ExperimentStore()
        runner.execute(
            _stream_jobs("EJ-8x2", 1777), mode="stream", experiment_store=clean,
        )
        path = tmp_path / "resume.sqlite"
        first = ExperimentStore(path)
        with kill_after_checkpoints(first, 1):
            with pytest.raises(KeyboardInterrupt):
                runner.execute(
                    _stream_jobs("EJ-8x2", 512), mode="stream",
                    experiment_store=first, checkpoint_every=1_300,
                )
        first.close()
        second = ExperimentStore(path)
        report = runner.execute(
            _stream_jobs("EJ-8x2", 1777), mode="stream",
            experiment_store=second, checkpoint_every=1_300,
        )
        assert report.checkpoints_resumed == 1
        assert second.dump() == clean.dump()
        second.close()
