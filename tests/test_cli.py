"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.store import ExperimentStore
from repro.cli import build_parser, main
from repro.traces.workloads import WORKLOADS


@pytest.fixture(autouse=True)
def tiny_workload():
    from tests.test_experiments import tiny_spec

    spec = tiny_spec()
    WORKLOADS[spec.name] = spec
    # Install a fresh in-memory store so the tests neither see nor touch
    # whatever REPRO_STORE points at (never clear a user's real store).
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    yield spec
    del WORKLOADS[spec.name]
    # Drop any store a --store invocation installed, then restore.
    experiments.get_store().close()
    experiments._STORE = previous


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_seed_option(self):
        args = build_parser().parse_args(["--seed", "7", "workloads"])
        assert args.seed == 7


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("barnes", "raytrace", "unstructured"):
            assert name in out

    def test_coverage_command(self, capsys):
        assert main(["coverage", "test-tiny", "EJ-8x2"]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_energy_command(self, capsys):
        assert main(["energy", "test-tiny", "EJ-8x2"]) == 0
        out = capsys.readouterr().out
        assert "over snoops, serial L2" in out
        assert "over all L2, parallel L2" in out

    def test_size_command(self, capsys):
        assert main(["size", "0.05", "test-tiny"]) == 0
        assert "smallest configuration" in capsys.readouterr().out

    def test_size_command_unreachable(self, capsys):
        assert main(["size", "1.0", "test-tiny"]) == 1

    def test_sweep_records_then_warms(self, tmp_path, capsys):
        store = str(tmp_path / "traces.sqlite")
        argv = ["--store", store, "sweep", "--workloads", "test-tiny",
                "--filters", "EJ-8x2", "null"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[replayed]" in out
        assert "sims: 1 run / 0 cached" in out
        assert "evals: 2 run / 0 cached" in out
        # Warm: the recorded trace satisfies everything without simulating.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sims: 0 run / 1 cached" in out
        assert "evals: 0 run / 2 cached" in out
        # A *new* filter config still needs no simulation: pure replay.
        assert main(["--store", store, "sweep", "--workloads", "test-tiny",
                     "--filters", "VEJ-16x2-4"]) == 0
        out = capsys.readouterr().out
        assert "sims: 0 run / 1 cached" in out
        assert "evals: 1 run / 0 cached" in out
        # ``cache info`` lists the trace with its measured accesses.
        assert main(["--store", store, "cache", "info"]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines()
                   if "test-tiny" in line)
        assert "4,000" in row
        assert "(incomplete)" not in row

    def test_sweep_paper_scale_preset_records_by_default(self, tmp_path,
                                                         capsys):
        store = str(tmp_path / "paper.sqlite")
        assert main(["--store", store, "sweep", "--preset", "paper-scale",
                     "--accesses", "20000", "--warmup", "5000",
                     "--workloads", "test-tiny", "--filters", "EJ-8x2"]) == 0
        out = capsys.readouterr().out
        assert "[replayed]" in out
        assert "sims: 1 run / 0 cached" in out
        assert experiments.get_store().stats().traces == 1

    def test_sweep_stream_with_checkpoints_completes_clean(self, tmp_path,
                                                           capsys):
        store = str(tmp_path / "ckpt.sqlite")
        argv = ["--store", store, "sweep", "--stream",
                "--checkpoint-every", "1500",
                "--workloads", "test-tiny", "--filters", "EJ-8x2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "checkpoints:" in out  # written mid-run...
        assert main(["--store", store, "checkpoint", "list"]) == 0
        # ...but retired on completion: none left to list.
        assert "no stored checkpoints" in capsys.readouterr().out

    def test_sweep_default_mode_with_checkpoints_completes_clean(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "ckpt-default.sqlite")
        argv = ["--store", store, "sweep", "--checkpoint-every", "1500",
                "--workloads", "test-tiny", "--filters", "EJ-8x2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[replayed]" in out
        assert "checkpoints:" in out  # the recording snapshots mid-run...
        assert main(["--store", store, "checkpoint", "list"]) == 0
        # ...and retires its chain once the trace is durable.
        assert "no stored checkpoints" in capsys.readouterr().out

    def test_checkpoint_list_info_rm_after_interruption(self, tmp_path,
                                                        capsys):
        from repro.analysis import runner as runner_mod
        from repro.analysis.store import CHECKPOINT_KIND
        from tests.test_experiments import tiny_spec

        store_path = str(tmp_path / "interrupted.sqlite")
        spec = tiny_spec()
        experiments.set_store(store_path)
        store = experiments.get_store()
        original = store.put_blob

        def bomb(key, blob, **kwargs):
            original(key, blob, **kwargs)
            if kwargs["kind"] == CHECKPOINT_KIND:
                raise KeyboardInterrupt("simulated SIGKILL")

        store.put_blob = bomb
        with pytest.raises(KeyboardInterrupt):
            runner_mod.execute(
                [runner_mod.SweepJob(spec, ("EJ-8x2",))], mode="stream",
                experiment_store=store, checkpoint_every=1_500,
            )
        store.put_blob = original

        assert main(["--store", store_path, "checkpoint", "list"]) == 0
        out = capsys.readouterr().out
        assert "test-tiny" in out and "stream" in out and "1,500" in out
        assert main(["--store", store_path, "checkpoint", "info",
                     "test-tiny"]) == 0
        out = capsys.readouterr().out
        assert "1,500" in out
        # A corrupt checkpoint payload must render, not crash inspection.
        # (main --store reopened the file; grab the live store object.)
        store = experiments.get_store()
        rows = [
            e for e in store.entries() if e.kind == CHECKPOINT_KIND
        ]
        store.put_blob(
            rows[0].key, b"garbage", kind=CHECKPOINT_KIND,
            workload=rows[0].workload, filter_name=rows[0].filter_name,
            n_cpus=rows[0].n_cpus, seed=rows[0].seed,
        )
        assert main(["--store", store_path, "checkpoint", "list"]) == 0
        assert "(undecodable)" in capsys.readouterr().out
        assert main(["--store", store_path, "checkpoint", "info"]) == 0
        assert "(undecodable)" in capsys.readouterr().out
        # rm without a target is refused; --all clears the chain.
        assert main(["--store", store_path, "checkpoint", "rm"]) == 2
        capsys.readouterr()
        assert main(["--store", store_path, "checkpoint", "rm", "--all"]) == 0
        assert "1 chain(s)" in capsys.readouterr().out
        assert main(["--store", store_path, "checkpoint", "list"]) == 0
        assert "no stored checkpoints" in capsys.readouterr().out

    def test_sweep_command_parallel_then_warm(self, tmp_path, capsys):
        store = str(tmp_path / "sweep.sqlite")
        argv = ["--store", store, "sweep", "--workers", "2",
                "--workloads", "test-tiny", "--filters", "EJ-8x2", "null"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "test-tiny" in out
        assert "sims: 1 run / 0 cached" in out
        assert "evals: 2 run / 0 cached" in out
        # Second invocation: everything comes from the persistent store.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sims: 0 run / 1 cached" in out
        assert "evals: 0 run / 2 cached" in out

    def test_coverage_table_means_seeds_and_marks_failed_cells(self):
        from repro.cli import _coverage_table

        coverage = {("a", "EJ", 1): 0.25, ("a", "EJ", 2): 0.75,
                    ("a", "IJ", 1): 0.5, ("b", "EJ", 1): 0.0,
                    ("b", "EJ", 2): 0.0, ("b", "IJ", 1): 1.0,
                    ("b", "IJ", 2): 1.0}
        table = _coverage_table(["a", "b"], ["EJ", "IJ"], (1, 2),
                                lambda *cell: coverage.get(cell), "t")
        lines = table.splitlines()
        assert lines[0] == "t (mean over seeds (1, 2))"
        assert lines[1].split() == ["workload", "EJ", "(cov)", "IJ", "(cov)"]
        assert lines[3].split() == ["a", "50.0%", "(failed)"]
        assert lines[4].split() == ["b", "0.0%", "100.0%"]

    def test_sweep_multiple_seeds(self, capsys):
        assert main(["sweep", "--workloads", "test-tiny",
                     "--filters", "EJ-8x2", "--seeds", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "sims: 2 run" in out
        assert "mean over seeds (1, 2)" in out

    def test_cache_info_and_clear(self, tmp_path, capsys):
        store = str(tmp_path / "cache.sqlite")
        assert main(["--store", store, "sweep", "--workloads", "test-tiny",
                     "--filters", "EJ-8x2"]) == 0
        capsys.readouterr()
        assert main(["--store", store, "cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "sims:     1" in out
        assert "EJ-8x2" in out
        assert "traces:   1" in out
        assert main(["--store", store, "cache", "clear"]) == 0
        # Metrics, one evaluation, and the trace: manifest plus one
        # segment per node.
        assert "cleared 7 stored result(s)" in capsys.readouterr().out
        assert main(["--store", store, "cache"]) == 0
        assert "sims:     0" in capsys.readouterr().out

    def test_cache_info_in_memory_default(self, capsys):
        assert main(["cache", "info"]) == 0
        assert "in-memory" in capsys.readouterr().out


class TestResilienceCommands:
    def test_sweep_task_timeout_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "test-tiny", "--task-timeout", "5"]
        )
        assert args.task_timeout == 5.0

    def test_cache_fsck_clean(self, capsys):
        assert main(["cache", "fsck"]) == 0
        assert "store clean" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["sim", "matrix"])
    def test_retired_sim_rows_are_reported_labelled_and_evicted_first(
        self, tmp_path, capsys, kind
    ):
        from repro.coherence.config import SCALED_SYSTEM
        from tests.conftest import put_legacy_matrix_row, put_legacy_sim_row

        put_legacy_row = {"sim": put_legacy_sim_row,
                          "matrix": put_legacy_matrix_row}[kind]
        path = str(tmp_path / "legacy.sqlite")
        assert main(["--store", path, "sweep", "--workloads", "test-tiny",
                     "--filters", "EJ-8x2"]) == 0
        store = experiments.get_store()
        before = store.dump()
        # Written last, so the legacy row is the most recently used one.
        legacy_key = put_legacy_row(
            store, WORKLOADS["test-tiny"], SCALED_SYSTEM
        )
        capsys.readouterr()

        assert main(["--store", path, "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "retired:  1" in out
        assert f"{kind} (retired):" in out

        assert main(["--store", path, "cache", "fsck"]) == 0
        out = capsys.readouterr().out
        assert "store clean" in out
        assert "1 row(s) of retired kind sim/fast-forward/matrix" in out
        assert experiments.get_store().fsck().retired == (legacy_key,)

        legacy_bytes = len(experiments.get_store().get_blob(legacy_key))
        total = experiments.get_store().stats().payload_bytes
        assert main(["--store", path, "cache", "gc", "--max-bytes",
                     str(total - legacy_bytes)]) == 0
        assert "evicted 1 " in capsys.readouterr().out
        assert experiments.get_store().dump() == before

    def test_cache_fsck_detects_corruption_and_heals(self, capsys):
        from repro.testing.faults import corrupt_blobs

        argv = ["sweep", "--workloads", "test-tiny", "--filters", "EJ-8x2"]
        assert main(argv) == 0
        capsys.readouterr()
        doomed = corrupt_blobs(experiments.get_store(), seed=1, fraction=1.0)
        assert doomed
        assert main(["cache", "fsck"]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert "removed" in out
        # The next sweep recomputes the deleted rows; fsck is then clean.
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["cache", "fsck"]) == 0
        assert "store clean" in capsys.readouterr().out

    def test_cache_fsck_quarantine_flag(self, capsys):
        from repro.testing.faults import corrupt_blobs

        assert main(["sweep", "--workloads", "test-tiny",
                     "--filters", "EJ-8x2"]) == 0
        capsys.readouterr()
        corrupt_blobs(experiments.get_store(), seed=1, fraction=1.0, limit=1)
        assert main(["cache", "fsck", "--quarantine"]) == 1
        assert "quarantined" in capsys.readouterr().out
        assert main(["cache", "fsck"]) == 0  # quarantined rows are skipped

    def test_sweep_renders_failed_for_quarantined_cells(self, capsys,
                                                        monkeypatch):
        from repro.analysis import runner

        def partial_sweep(*_args, **_kwargs):
            report = runner.ExecutionReport(workers=1)
            report.quarantined = 1
            return runner.SweepResult(report=report, evaluations={})

        monkeypatch.setattr(runner, "run_sweep", partial_sweep)
        assert main(["sweep", "--workloads", "test-tiny",
                     "--filters", "EJ-8x2"]) == 0
        out = capsys.readouterr().out
        assert "(failed)" in out
        assert "quarantined" in out

    def test_chaos_command_none_plan(self, capsys):
        assert main(["chaos", "--plan", "none", "--workers", "1",
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "chaos plan 'none'" in out
        assert "store byte-identical to clean run: yes" in out
        assert "poisoned-task demo" in out


class TestTraceEconomicsCommands:
    """The per-trace table and stored-vs-decoded accounting of ``cache
    info``, and the options and commands that are gone."""

    @pytest.mark.parametrize("command", [
        ["sweep", "--codec", "delta-v1"],
        ["submit", "--codec", "delta-v1"],
        ["sweep", "--measured-only"],
        ["submit", "--measured-only"],
        ["sweep", "--warm-filters", "EJ-8x2"],
    ])
    def test_there_is_no_codec_option(self, command, capsys):
        """delta-v1 is the only segment encoder and every trace is
        recorded in full, warm-up included: nothing to choose."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(command)

    @pytest.mark.parametrize("command", [
        ["trace", "transcode", "test-tiny"],
        ["trace", "save", "test-tiny", "t.npz"],
        ["trace", "record", "test-tiny"],
        ["trace", "replay", "test-tiny"],
        ["trace", "info"],
    ])
    def test_removed_trace_commands_are_gone(self, command, capsys):
        """``sweep`` is the one way to record and replay, ``cache info``
        the one trace report, and the store the one archive: there is no
        ``trace`` command group."""
        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--replay", "--kernel"])
    def test_sweep_has_no_mode_or_kernel_option(self, option, capsys):
        """Record-then-replay is the default and ``--stream`` the one
        alternative; each bank picks its replayers itself."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--workloads", "test-tiny", option])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err

    @staticmethod
    def _record(store_path, seed=1):
        """Record test-tiny's trace alone, as a filterless sweep."""
        from repro.analysis import runner

        with ExperimentStore(store_path) as store:
            runner.run_sweep(["test-tiny"], (), seeds=(seed,),
                             experiment_store=store)

    def test_cache_info_flags_incomplete_and_orphaned(self, tmp_path, capsys):
        from repro.analysis import store as store_mod
        from repro.coherence.config import SCALED_SYSTEM

        store_path = str(tmp_path / "orphan.sqlite")
        self._record(store_path)
        spec = WORKLOADS["test-tiny"]
        tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 1)
        # Drop one segment: the manifest must be flagged incomplete.
        with ExperimentStore(store_path) as surgery:
            surgery._db.execute(
                "DELETE FROM results WHERE key = ?",
                (store_mod.trace_segment_key(tkey, 0, 0),),
            )
            surgery._db.commit()
        assert main(["--store", store_path, "cache", "info"]) == 0
        assert "3/4 (incomplete)" in capsys.readouterr().out
        # Drop the manifest: the remaining segments become orphans.
        with ExperimentStore(store_path) as surgery:
            surgery._db.execute(
                "DELETE FROM results WHERE key = ?", (tkey,)
            )
            surgery._db.commit()
        assert main(["--store", store_path, "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "recorded traces" not in out
        assert f"{tkey[:16]}: 3 segment(s)" in out
        assert "cache fsck removes them" in out

    def test_cache_info_lists_around_a_corrupt_manifest(
        self, tmp_path, capsys
    ):
        from repro.analysis import store as store_mod
        from repro.coherence.config import SCALED_SYSTEM

        store_path = str(tmp_path / "corrupt.sqlite")
        for seed in (1, 2):
            self._record(store_path, seed)
        spec = WORKLOADS["test-tiny"]
        with ExperimentStore(store_path) as surgery:
            tkey = store_mod.trace_key(spec, SCALED_SYSTEM, 2)
            entry = next(e for e in surgery.entries() if e.key == tkey)
            surgery.put_blob(
                tkey, b"not a manifest", kind=entry.kind,
                workload=entry.workload, filter_name=None,
                n_cpus=entry.n_cpus, seed=entry.seed,
            )
        assert main(["--store", store_path, "cache", "info"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "test-tiny" in line]
        assert len(rows) == 2
        assert sum("(undecodable)" in row for row in rows) == 1
        assert sum("?" not in row for row in rows) == 1
        assert "1 undecodable manifest(s): `cache fsck`" in out
        # fsck removes the damaged trace; the intact one stays listed.
        assert main(["--store", store_path, "cache", "fsck"]) == 1
        capsys.readouterr()
        assert main(["--store", store_path, "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "(undecodable)" not in out
        assert sum("test-tiny" in line for line in out.splitlines()) == 1

    def test_cache_info_reports_stored_vs_decoded_economics(
        self, tmp_path, capsys
    ):
        from repro.analysis.store import TRACE_KIND

        store_path = str(tmp_path / "eco.sqlite")
        self._record(store_path)
        with ExperimentStore(store_path) as store:
            stored = sum(e.payload_bytes for e in store.entries()
                         if e.kind == TRACE_KIND)
        assert main(["--store", store_path, "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "KiB stored /" in out
        assert "KiB decoded" in out
        header = next(line for line in out.splitlines() if "workload" in line)
        assert header.split()[-1] == "bytes/access"
        row = next(line for line in out.splitlines() if "test-tiny" in line)
        # Manifest plus segments over the trace's 4,000 measured accesses.
        assert row.split()[-1] == f"{stored / 4000:.2f}"

    def test_cache_info_decodes_no_trace_segment(
        self, tmp_path, capsys, monkeypatch
    ):
        """A complete trace decodes to 8 bytes per event its manifest
        counts, so ``cache info`` reads that count instead of decoding
        every segment — and reports the bytes a full decode would."""
        import zlib

        from repro.analysis import store as store_mod
        from repro.analysis.store import TRACE_KIND

        store_path = str(tmp_path / "decoded.sqlite")
        self._record(store_path)
        with ExperimentStore(store_path) as store:
            rows = [e for e in store.entries() if e.kind == TRACE_KIND]
            manifest_row = next(e for e in rows if e.filter_name is None)
            manifest_blob = store.get_blob(manifest_row.key)
            events = sum(store_mod.decode_trace_manifest(
                manifest_blob)["events_per_node"])
            segment_bytes = sum(
                8 * len(store_mod.decode_trace_segment(store.get_blob(e.key)))
                for e in rows if e.filter_name is not None
            )
        assert segment_bytes == 8 * events
        decoded = 8 * events + len(zlib.decompress(manifest_blob))

        def no_decode(_blob):
            raise AssertionError("cache info decoded a trace segment")

        monkeypatch.setattr(store_mod, "decode_trace_segment", no_decode)
        assert main(["--store", store_path, "cache", "info"]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.strip().startswith(f"{TRACE_KIND}:"))
        assert line.endswith(f"/ {decoded / 1024:.1f} KiB decoded")
