"""Tests for the checked exhibit table and ``repro exhibits``.

One module-scoped run builds every exhibit at default size on a fresh
in-memory store; each check is then its own test, so the paper-shape
claims run with the rest of the suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil

import pytest

from repro.analysis import exhibits, experiments, runner, tables
from repro.analysis import store as store_mod
from repro.analysis.exhibits import Outcome
from repro.analysis.store import ExperimentStore
from repro.cli import main
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.suite import SUITES


@contextlib.contextmanager
def own_store():
    """Run the block on a fresh in-memory store (or on the one a
    ``--store`` installs), then restore the process-wide store."""
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    try:
        yield
    finally:
        experiments.get_store().close()
        experiments._STORE = previous


@pytest.fixture(scope="module")
def outcomes():
    with own_store():
        _report, results = exhibits.run()
        results = list(results)
    return {o.id: o for result in results for o in result.outcomes}


@pytest.fixture(scope="module")
def warm_matrix(tmp_path_factory):
    """A SQLite store filled by ``exhibits profile-matrix``, and the
    output of that cold run and of a warm repeat of it."""
    path = str(tmp_path_factory.mktemp("matrix") / "store.sqlite")
    outputs = []
    with own_store():
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["--store", path, "exhibits",
                             "profile-matrix"]) == 0
            outputs.append(out.getvalue())
    return path, outputs


@pytest.mark.parametrize("check_id", exhibits.check_ids())
def test_check_holds(outcomes, check_id):
    outcome = outcomes[check_id]
    assert outcome.passed, (
        f"{check_id}: measured {outcome.measured!r}, bound "
        f"{outcome.op} {outcome.bound!r}"
    )


def test_run_reports_every_check_in_order(outcomes):
    assert list(outcomes) == exhibits.check_ids()


def test_check_ids_are_unique_and_name_their_exhibit():
    ids = exhibits.check_ids()
    assert len(ids) == len(set(ids))
    for name, exhibit in exhibits.EXHIBITS.items():
        for check in exhibit.checks:
            assert check.id.startswith(f"{name}.")


def test_failed_check_reports_measured_value_and_bound(monkeypatch, capsys):
    headers, rows = tables.build_table1()
    # The L2's share now falls with its size, and ends at 15%.
    monkeypatch.setattr(tables, "build_table1", lambda: (headers, rows[::-1]))
    _report, [result] = exhibits.run(["table1"])
    assert result.outcomes == (
        Outcome("table1.l2-share-rises", 2, "==", 0, False),
        Outcome("table1.l2-share-2mb", 15, "within", (30, 40), False),
    )
    assert main(["exhibits", "table1"]) == 1
    out = capsys.readouterr().out
    assert "checks: 0 passed, 2 failed" in out
    assert "table1.l2-share-2mb" in out and "within [30, 40]" in out
    assert "FAIL" in out


def test_false_exclusion_fails_the_profile_matrix(
    warm_matrix, tmp_path, capsys
):
    path = str(tmp_path / "doctored.sqlite")
    shutil.copyfile(warm_matrix[0], path)
    # One stored phase of one filter drops 3 snoops that would have hit.
    suite, name = "flip-web-scan", runner.DEFAULT_SWEEP_FILTERS[1]
    key = store_mod.eval_key(SUITES[suite], name, SCALED_SYSTEM, 1)
    with own_store():
        store = experiments.set_store(path)
        evaluation = store.get_eval(key)
        scan = evaluation.phases["scan"]
        evaluation.phases["scan"] = dataclasses.replace(
            scan, coverage=dataclasses.replace(
                scan.coverage, filtered=scan.coverage.snoop_would_miss + 3))
        store.put_eval_blob(key, store_mod.encode_eval(evaluation),
                            workload=suite, filter_name=name,
                            n_cpus=SCALED_SYSTEM.n_cpus, seed=1)
        report, [result] = exhibits.run(["profile-matrix"])
        assert report.sims_run == report.evals_run == 0
        assert result.outcomes == (Outcome(
            "profile-matrix.no-false-exclusions", 3, "==", 0, False),)
        assert "VIOLATION x3" in result.text
        assert main(["--store", path, "exhibits", "profile-matrix"]) == 1
    out = capsys.readouterr().out
    assert "checks: 0 passed, 1 failed" in out
    [row] = [line.split() for line in out.splitlines()
             if line.startswith("profile-matrix.no-false-exclusions")]
    assert row[1:] == ["3", "==", "0", "FAIL"]


def test_unknown_name_exits_2_and_lists_the_names(capsys):
    assert main(["exhibits", "table1", "table9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown exhibit 'table9'" in captured.err
    for name in exhibits.EXHIBITS:
        assert name in captured.err


class TestCommand:
    def test_table1(self, capsys):
        assert main(["exhibits", "table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table 1\n")
        assert "L2 share" in out
        assert "checks: 2 passed, 0 failed" in out

    def test_table4(self, capsys):
        assert main(["exhibits", "table4"]) == 0
        assert "IJ-10x4x7" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["exhibits", "figure2a", "figure2b"]) == 0
        out = capsys.readouterr().out
        assert "figure2-32B" in out and "figure2-64B" in out
        assert "R=0%" in out

    def test_repeated_name_builds_once(self, capsys):
        assert main(["exhibits", "table4", "table4"]) == 0
        assert capsys.readouterr().out.count("Table 4\n") == 1

    def test_warm_rerun_simulates_nothing_and_prints_the_same(
        self, warm_matrix
    ):
        cold, warm = (out.rstrip("\n").rsplit("\n", 1)
                      for out in warm_matrix[1])
        assert cold[1].startswith("sims: 10 run / 0 cached; "
                                  "evals: 40 run / 0 cached;")
        assert warm[1].startswith("sims: 0 run / 10 cached; "
                                  "evals: 0 run / 40 cached;")
        assert warm[0] == cold[0]
        assert "Per-phase filtering rate" in warm[0]
        assert "checks: 1 passed, 0 failed" in warm[0]
