"""The paired A/B statistics of ``tools/overhead_ab.py`` and the
append-only trajectory of ``tools/bench_history.py``, loaded by path,
with their timers and perfbench runner stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, _REPO / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def overhead_ab():
    return _load("overhead_ab")


@pytest.fixture(scope="module")
def bench_history():
    return _load("bench_history")


def _timer(times, calls, side):
    times = iter(times)

    def call():
        calls.append(side)
        return next(times)

    return call


class TestPairedOverhead:
    def test_median_and_quartiles_of_the_pair_ratios(self, overhead_ab):
        base = [1.0, 2.0, 1.0, 4.0, 1.0]
        other = [1.1, 2.0, 1.3, 4.4, 1.05]  # ratios 1.1 1.0 1.3 1.1 1.05
        timed = overhead_ab._paired_overhead(
            _timer(base, [], "a"), _timer(other, [], "b"), ("a", "b"),
            pairs=5,
        )
        assert timed["pairs"] == 5
        assert timed["median_ratio"] == 1.1
        assert timed["ratio_quartiles"] == [1.05, 1.1]
        assert timed["overhead_frac"] == 0.1
        assert timed["a_seconds"] == 1.0 and timed["b_seconds"] == 1.3

    def test_a_faster_variant_floors_the_overhead_at_zero(self, overhead_ab):
        timed = overhead_ab._paired_overhead(
            _timer([2.0] * 3, [], "a"), _timer([1.0] * 3, [], "b"),
            ("a", "b"), pairs=3,
        )
        assert timed["median_ratio"] == 0.5
        assert timed["overhead_frac"] == 0.0

    def test_pairs_alternate_which_side_runs_first(self, overhead_ab):
        calls = []
        overhead_ab._paired_overhead(
            _timer([1.0] * 4, calls, "base"),
            _timer([1.0] * 4, calls, "variant"), ("a", "b"), pairs=4,
        )
        assert calls == ["base", "variant", "variant", "base"] * 2


def _bench():
    return json.loads((_REPO / "BENCHMARK.json").read_text())


def _result(correct=True, value=1.0):
    return {
        "correct": correct,
        "metrics": {
            metric["name"]: {"value": value, "unit": metric["unit"]}
            for metric in _bench()["end_to_end"]
        },
    }


def _line(commit, machine="x86_64", nproc=2, value=1.0):
    return {"commit": commit, "dirty": False, "date": "2026-01-01T00:00:00Z",
            "machine": machine, "nproc": nproc, "python": "3.12.0",
            "workloads": {"cold-lu": {"correct": True, "accesses_per_s": value}}}


class TestBenchHistory:
    def test_measure_runs_every_workload_at_run_seconds(self, bench_history):
        bench = _bench()
        runs = []

        def run(workload, seconds):
            runs.append((workload, seconds))
            return _result(value=2.0)

        workloads = bench_history.measure(bench, run)
        names = [w["name"] for w in bench["workloads"]]
        assert runs == [(name, bench["run_seconds"]) for name in names]
        assert list(workloads) == names
        for metrics in workloads.values():
            assert metrics.pop("correct") is True
            assert metrics == {m["name"]: 2.0 for m in bench["end_to_end"]}

    def test_append_refuses_to_rewrite_a_line(self, bench_history, tmp_path):
        path = tmp_path / "history.jsonl"
        bench_history.append(path, _line("a"))
        bench_history.append(path, _line("b"))
        before = path.read_bytes()
        with pytest.raises(bench_history.HistoryError, match="already"):
            bench_history.append(path, _line("a", value=9.0))
        assert path.read_bytes() == before
        assert [line["commit"] for line in
                bench_history.read_history(path)] == ["a", "b"]

    def test_a_history_that_does_not_parse_is_left_alone(
        self, bench_history, tmp_path
    ):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(_line("a")) + "\n{truncated\n")
        with pytest.raises(bench_history.HistoryError, match=":2 "):
            bench_history.append(path, _line("b"))
        path.write_text(json.dumps(_line("a")))  # no final newline
        with pytest.raises(bench_history.HistoryError, match="newline"):
            bench_history.append(path, _line("b"))

    def test_ratios_are_to_the_last_same_class_line(self, bench_history):
        history = [_line("a", value=1.0), _line("b", nproc=8, value=4.0),
                   _line("c", value=2.0), _line("d", machine="arm64")]
        new = _line("e", value=3.0)
        previous = bench_history.last_same_class(history, new)
        assert previous["commit"] == "c"
        assert bench_history.ratios(previous, new) == {
            ("cold-lu", "accesses_per_s"): 1.5
        }
        assert bench_history.last_same_class(
            history, _line("f", nproc=1)
        ) is None

    def test_committed_history_covers_every_workload_and_metric(
        self, bench_history
    ):
        bench = _bench()
        names = {m["name"] for m in bench["end_to_end"]}
        history = bench_history.read_history(bench_history.HISTORY)
        assert history
        for line in history:
            assert {"commit", "date", "machine", "nproc",
                    "python"} <= set(line)
            assert set(line["workloads"]) == {
                w["name"] for w in bench["workloads"]
            }
            for metrics in line["workloads"].values():
                assert set(metrics) == names | {"correct"}
