"""Tests for the checked exhibit table and ``repro exhibits``.

One module-scoped run builds every exhibit at default size on a fresh
in-memory store; each check is then its own test, so the paper-shape
claims run with the rest of the suite.
"""

from __future__ import annotations

import pytest

from repro.analysis import exhibits, experiments, tables
from repro.analysis.exhibits import Outcome
from repro.analysis.store import ExperimentStore
from repro.cli import main


@pytest.fixture(scope="module")
def outcomes():
    previous = experiments._STORE
    experiments._STORE = ExperimentStore()
    try:
        results = list(exhibits.run())
    finally:
        experiments.get_store().close()
        experiments._STORE = previous
    return {o.id: o for result in results for o in result.outcomes}


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
    [result] = exhibits.run(["table1"])
    assert result.outcomes == (
        Outcome("table1.l2-share-rises", 2, "==", 0, False),
        Outcome("table1.l2-share-2mb", 15, "within", (30, 40), False),
    )
    assert main(["exhibits", "table1"]) == 1
    out = capsys.readouterr().out
    assert "checks: 0 passed, 2 failed" in out
    assert "table1.l2-share-2mb" in out and "within [30, 40]" in out
    assert "FAIL" in out


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
