"""The benchmark checks itself: failure accounting, tracer hygiene, and
conservation between layer counts, all at a small size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.probe import HostSampler
from perfbench.workloads import (
    WORKLOADS,
    check_store,
    layer_unit,
    run_rep,
    score,
)

HERE = Path(__file__).resolve().parent
SMALL = {"accesses": 6000, "warmup": 3000}


def flip_one_byte(store: Path) -> None:
    with contextlib.closing(sqlite3.connect(store)) as db:
        key, payload = db.execute(
            "SELECT key, payload FROM results WHERE kind = 'eval' "
            "ORDER BY key LIMIT 1"
        ).fetchone()
        middle = len(payload) // 2
        flipped = (
            payload[:middle] + bytes([payload[middle] ^ 1]) + payload[middle + 1:]
        )
        db.execute("UPDATE results SET payload = ? WHERE key = ?", (flipped, key))
        db.commit()


def test_flipped_stored_byte_counts_as_failed(tmp_path):
    rep = run_rep("cold-lu", 1, tmp_path, **SMALL)
    [call] = rep["calls"]
    pinned = dict(call["digests"])
    assert score([rep], pinned)[:2] == (5, 0)

    store = tmp_path / "store-0.sqlite"
    flip_one_byte(store)
    call.update(check_store(store, WORKLOADS["cold-lu"].filters(), rep["accesses"]))
    attempted, failed, notes = score([rep], pinned)
    assert attempted == 5
    assert failed / attempted > 0
    assert notes


def _patched_namespaces():
    from repro.analysis import runner, store
    from repro.coherence.smp import SMPSystem, TraceSink
    from repro.core.stats import StreamingFilterBank, TraceReader
    from repro.traces.synth.mix import MixStream

    return [runner, store, store.ExperimentStore, SMPSystem, TraceSink,
            StreamingFilterBank, TraceReader, MixStream]


def test_tracer_is_removed_after_a_traced_run(tmp_path):
    before = [dict(vars(ns)) for ns in _patched_namespaces()]
    traced = run_rep("cold-lu", 1, tmp_path / "traced", trace=True, **SMALL)
    assert traced["counts"]["generate.accesses"] > 0  # the wrappers ran
    after = [dict(vars(ns)) for ns in _patched_namespaces()]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())

    plain = run_rep("cold-lu", 1, tmp_path / "plain", **SMALL)
    assert "counts" not in plain
    assert plain["calls"][0]["digests"] == traced["calls"][0]["digests"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_are_conserved_and_repeat(tmp_path, name):
    first = run_rep(name, 2, tmp_path / "a", trace=True, **SMALL)
    second = run_rep(name, 2, tmp_path / "b", trace=True, **SMALL)
    assert first["violations"] == []
    assert first["calls"][0]["failures"] == []
    assert first["counts"] == second["counts"]
    assert first["calls"][0]["digests"] == second["calls"][0]["digests"]
    layers = first["layers"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (metric, layer_unit(metric)) for metric in layers
    ]
    if WORKLOADS[name].mode == "stream":
        assert layers["bank.events"] == layers["coherence.events"] > 0
        assert layers["sink.events"] == layers["kernel.events"] == 0
    else:
        assert layers["codec.encode.bytes_in"] == 8 * layers["sink.events"] > 0
        assert layers["kernel.events"] == (
            layers["codec.decode.events"] * len(WORKLOADS[name].filters())
        )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_timed_call_starts_from_the_same_state(tmp_path, name):
    rep = run_rep(name, 3, tmp_path, budget=0.3, **SMALL)
    calls = rep["calls"]
    assert len(calls) >= 2
    assert all(call["failures"] == [] for call in calls)
    assert all(call["digests"] == calls[0]["digests"] for call in calls)
    assert score([rep], calls[0]["digests"])[1] == 0


def test_host_sampler_samples_then_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with HostSampler(interval=0.01) as sampler:
        while time.perf_counter() < start + 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    window = sampler.during(start, start + 0.2)
    assert window["samples"] > 0
    assert 0 < window["sampled_s"] < 0.2
    assert window["probe_s"] > 0


def test_plain_calls_carry_the_host_probe(tmp_path):
    rep = run_rep("cold-lu", 1, tmp_path)
    assert rep["setup_probe"]["probe_s"] > 0
    [call] = rep["calls"]
    assert call["probe_s"] > 0
    assert 0 <= call["sampled_s"] < call["wall_s"]


def test_pinned_digests_cover_every_workload():
    pins = json.loads((HERE / "digests.json").read_text())
    assert sorted(pins) == sorted(WORKLOADS)
    for name, seeds in pins.items():
        labels = set(WORKLOADS[name].filters()) | {"metrics"}
        assert "1" in seeds
        assert all(set(digests) == labels for digests in seeds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-lu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
