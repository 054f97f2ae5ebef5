"""The experiment store's ``batch()`` scope and the runner's use of it.

Pinned here:

* **one transaction** — rows put inside the scope are visible on the
  store's own connection and invisible to a second connection until
  the scope exits; nested scopes commit once, at the outer exit;
* **all or nothing** — an exception inside the scope, a
  ``KeyboardInterrupt`` included, leaves none of its rows (and no
  memoised result claiming one), and ``cache fsck`` reports the store
  clean;
* **contention** — a commit that meets ``database is locked`` from a
  second connection retries under ``SQLITE_RETRY_POLICY`` and lands;
* **runner** — an interrupt from the second evaluation write of a replay
  or streamed task, or from the metrics row of a recording's tail,
  leaves none of that burst's rows, and the next sweep stores them
  byte-identical to a clean run's.
"""

from __future__ import annotations

import contextlib
import logging
import sqlite3
from array import array

import pytest

from repro.analysis import experiments, resilience, runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.cli import main
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.workloads import WORKLOADS, PaperReference, WorkloadSpec
from tests.test_checkpoint import kill_after_rows

WORKLOAD = "test-store-batch"
FILTERS = ("EJ-32x4", "VEJ-16x2-4", "IJ-8x4x7")

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)

#: The packed events every test segment holds.
_EVENTS = array("q", [(block << 4) | (block & 3) for block in range(64)])


@pytest.fixture(autouse=True)
def batch_workload():
    WORKLOADS[WORKLOAD] = WorkloadSpec(
        name=WORKLOAD,
        abbrev="sb",
        description="miniature workload for store batch tests",
        paper=_PAPER,
        n_accesses=3_000,
        warmup_accesses=800,
        repeat_frac=0.2,
        recipe=(
            ("streaming", dict(weight=0.6, partition_bytes=64 * 1024)),
            ("migratory", dict(weight=0.4, n_objects=16)),
        ),
    )
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield WORKLOADS[WORKLOAD]
    experiments._STORE.close()
    experiments._STORE = previous
    del WORKLOADS[WORKLOAD]


def _put_trace(store: ExperimentStore, tkey: str, segments: int = 2) -> set:
    """Write a one-node trace the way a recording's tail does (segments,
    then the manifest naming them); return its keys."""
    keys = {tkey}
    for index in range(segments):
        key = store_mod.trace_segment_key(tkey, 0, index)
        store.put_blob(
            key, store_mod.encode_trace_segment(_EVENTS.tobytes()),
            kind=store_mod.TRACE_KIND, workload=WORKLOAD, filter_name=tkey,
            n_cpus=1, seed=1,
        )
        keys.add(key)
    manifest = {"segments_per_node": [segments]}
    store.put_blob(
        tkey, store_mod.encode_trace_manifest(manifest),
        kind=store_mod.TRACE_KIND, workload=WORKLOAD, filter_name=None,
        n_cpus=1, seed=1,
    )
    return keys


def _keys(connection: sqlite3.Connection) -> set:
    return {key for (key,) in connection.execute("SELECT key FROM results")}


def _eval_rows(store: ExperimentStore) -> dict:
    return {
        entry.key: store.get_blob(entry.key)
        for entry in store.entries() if entry.kind == "eval"
    }


class TestBatchScope:
    def test_rows_are_hidden_from_other_connections_until_exit(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ExperimentStore(path) as store, \
                contextlib.closing(sqlite3.connect(path)) as other:
            with store.batch():
                keys = _put_trace(store, "trace-a")
                assert {key for key in keys if store.contains(key)} == keys
                assert store.get_blob("trace-a") is not None
                assert _keys(other) == set()
            assert _keys(other) == keys

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_exception_rolls_back_every_row(self, tmp_path, error, capsys):
        path = tmp_path / "store.sqlite"
        with ExperimentStore(path) as store:
            kept = _put_trace(store, "trace-kept")
            with pytest.raises(error):
                with store.batch():
                    _put_trace(store, "trace-dropped")
                    store.put_blob(
                        "trace-kept", b"overwritten",
                        kind=store_mod.TRACE_KIND, workload=WORKLOAD,
                        filter_name=None, n_cpus=1, seed=1,
                    )
                    raise error("interrupted")
            assert not store.contains("trace-dropped")
            assert {entry.key for entry in store.entries()} == kept
            assert store.get_blob("trace-kept") != b"overwritten"
        assert main(["--store", str(path), "cache", "fsck"]) == 0
        assert "store clean" in capsys.readouterr().out

    def test_a_rolled_back_row_leaves_no_memoised_result(self, tmp_path):
        metrics, _evaluations = runner.compute_stream(
            WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1, ()
        )
        with ExperimentStore(tmp_path / "store.sqlite") as store:
            with pytest.raises(KeyboardInterrupt):
                with store.batch():
                    store.put_sim_metrics("metrics", metrics, seed=1)
                    assert store.get_sim_metrics("metrics") is metrics
                    raise KeyboardInterrupt("interrupted")
            assert not store.contains("metrics")
            assert store.get_sim_metrics("metrics") is None

    def test_recency_stamps_flushed_in_a_rolled_back_scope_survive(
        self, tmp_path
    ):
        def last_used(store):
            return dict(store._db.execute(
                "SELECT key, last_used FROM results"
            ).fetchall())

        with ExperimentStore(tmp_path / "store.sqlite") as store:
            _put_trace(store, "trace-a", segments=0)
            written = last_used(store)["trace-a"]
            store.contains("trace-a")  # a buffered recency stamp
            with pytest.raises(RuntimeError):
                with store.batch():
                    _put_trace(store, "trace-b", segments=0)
                    raise RuntimeError("interrupted")
            _put_trace(store, "trace-c", segments=0)
            used = last_used(store)
        # The stamp landed with trace-c's write instead.
        assert used.keys() == {"trace-a", "trace-c"}
        assert written < used["trace-a"] < used["trace-c"]

    def test_nested_scopes_commit_once(self, tmp_path):
        path = tmp_path / "store.sqlite"
        statements = []
        with ExperimentStore(path) as store, \
                contextlib.closing(sqlite3.connect(path)) as other:
            store._db.set_trace_callback(statements.append)
            with store.batch():
                outer = _put_trace(store, "trace-a")
                with store.batch():
                    inner = _put_trace(store, "trace-b")
                assert _keys(other) == set()
            assert _keys(other) == outer | inner
        assert statements.count("COMMIT") == 1

    def test_a_locked_commit_retries_and_lands(
        self, tmp_path, monkeypatch, caplog
    ):
        """A second connection's read transaction blocks the exit's
        commit; the retry's back-off ends it, and the next attempt
        lands."""
        path = tmp_path / "store.sqlite"
        with ExperimentStore(path) as store, \
                contextlib.closing(sqlite3.connect(path)) as reader:
            store._db.execute("PRAGMA busy_timeout = 0")
            pauses = []

            def back_off(seconds):
                pauses.append(seconds)
                reader.rollback()  # the reader's transaction ends

            monkeypatch.setattr(resilience.time, "sleep", back_off)
            with caplog.at_level(logging.WARNING, logger="repro.resilience"):
                with store.batch():
                    keys = _put_trace(store, "trace-a")
                    reader.execute("BEGIN")
                    assert _keys(reader) == set()  # holds a shared lock
            assert len(pauses) == 1
            assert "batch-commit" in caplog.text
            assert "database is locked" in caplog.text
            assert _keys(reader) == keys


class TestRunnerBatches:
    def _clean_evals(self) -> dict:
        with ExperimentStore() as clean:
            runner.run_sweep(
                (WORKLOAD,), FILTERS, experiment_store=clean, replay=True
            )
            return _eval_rows(clean)

    @pytest.mark.parametrize("mode", ["replay", "stream"])
    def test_interrupted_task_leaves_none_of_its_evals(self, tmp_path, mode):
        """An interrupt from a task's second evaluation write: a replay
        task keeps none of its evaluations (the trace recorded before
        them stays), a streamed task none of its evaluations and not
        its metrics row."""
        path = tmp_path / "store.sqlite"
        mkey = store_mod.sim_metrics_key(
            WORKLOADS[WORKLOAD], SCALED_SYSTEM, 1
        )
        with ExperimentStore(path) as store:
            with kill_after_rows(store, "eval", 2):
                with pytest.raises(KeyboardInterrupt):
                    runner.run_sweep(
                        (WORKLOAD,), FILTERS, experiment_store=store,
                        **{mode: True},
                    )
            assert _eval_rows(store) == {}
            assert store.contains(mkey) == (mode == "replay")
        with ExperimentStore(path) as store:
            result = runner.run_sweep(
                (WORKLOAD,), FILTERS, experiment_store=store, **{mode: True}
            )
            assert result.report.sims_run == (mode == "stream")
            assert result.report.evals_run == len(FILTERS)
            assert _eval_rows(store) == self._clean_evals()
            assert store.fsck().clean

    def test_interrupted_recording_tail_leaves_no_trace(self, tmp_path):
        path = tmp_path / "store.sqlite"
        spec = WORKLOADS[WORKLOAD]
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        mkey = store_mod.sim_metrics_key(spec, SCALED_SYSTEM, 1)
        with ExperimentStore(path) as store:
            with kill_after_rows(store, "sim-metrics", 1):
                with pytest.raises(KeyboardInterrupt):
                    runner.record_trace(
                        spec, SCALED_SYSTEM, 1, experiment_store=store
                    )
            # The miniature's segments are all tail segments: nothing
            # of the recording is left.
            assert store.entries() == []
            assert not store.contains(mkey)
            assert runner.load_trace(store, tkey) is None
        with ExperimentStore(path) as store:
            result = runner.run_sweep(
                (WORKLOAD,), FILTERS, experiment_store=store, replay=True
            )
            assert result.report.sims_run == 1
            assert _eval_rows(store) == self._clean_evals()
            assert store.fsck().clean
