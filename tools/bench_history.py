"""Append this tree's benchmark numbers to ``BENCH_history.jsonl``.

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json``, for
its ``run_seconds``, at seed 1, and appends one JSON line: the commit
checked out (``dirty`` when the tracked tree differs from it), the UTC
date, the host class (``machine``, ``nproc``, ``python``) and, per
workload, ``correct`` and each end-to-end metric ``BENCHMARK.json``
names.  Then prints each metric's ratio to the last earlier line from
the same ``(machine, nproc)``.  The history is append-only: the tool
refuses a commit it already holds and a line that does not parse::

    python tools/bench_history.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
HISTORY = REPO_ROOT / "BENCH_history.jsonl"
SEED = 1


class HistoryError(Exception):
    """The history cannot take the line without rewriting itself."""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def host() -> dict:
    """The commit, date and host class a line is measured on."""
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run_perfbench(workload: str, seconds: float) -> dict:
    """The last JSON line of one ``perfbench/run.py`` run."""
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=REPO_ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure(bench: dict, run=run_perfbench) -> dict:
    """workload -> ``correct`` and each end-to-end metric's value."""
    names = [metric["name"] for metric in bench["end_to_end"]]
    workloads = {}
    for workload in bench["workloads"]:
        result = run(workload["name"], bench["run_seconds"])
        workloads[workload["name"]] = {
            "correct": result["correct"],
            **{name: result["metrics"][name]["value"] for name in names},
        }
    return workloads


def read_history(path: Path) -> list[dict]:
    """Every line of the history, refusing one that does not parse."""
    if not path.exists():
        return []
    text = path.read_text()
    if text and not text.endswith("\n"):
        raise HistoryError(f"{path.name} does not end in a newline")
    lines = []
    for number, line in enumerate(text.splitlines(), 1):
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise HistoryError(f"{path.name}:{number} does not parse: {exc}")
    return lines


def check_new(history: list[dict], commit: str) -> None:
    if any(line["commit"] == commit for line in history):
        raise HistoryError(
            f"the history already has a line for {commit}; "
            "earlier lines are never rewritten"
        )


def append(path: Path, line: dict) -> None:
    """Append ``line`` to the history at ``path``, leaving the rest as is."""
    check_new(read_history(path), line["commit"])
    with path.open("a") as history:
        history.write(json.dumps(line, sort_keys=True) + "\n")


def last_same_class(history: list[dict], line: dict) -> dict | None:
    """The last line measured on ``line``'s ``(machine, nproc)``."""
    for old in reversed(history):
        if (old["machine"], old["nproc"]) == (line["machine"], line["nproc"]):
            return old
    return None


def ratios(previous: dict, line: dict) -> dict:
    """``(workload, metric) -> new / old`` for every metric both carry."""
    out = {}
    for workload, metrics in line["workloads"].items():
        old = previous["workloads"].get(workload, {})
        for name, value in metrics.items():
            if name != "correct" and old.get(name):
                out[workload, name] = value / old[name]
    return out


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    line = host()
    try:
        history = read_history(HISTORY)
        check_new(history, line["commit"])
        line["workloads"] = measure(bench)
        append(HISTORY, line)
    except HistoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line, sort_keys=True))
    previous = last_same_class(history, line)
    if previous is None:
        print(f"no earlier line from {line['machine']} x{line['nproc']}")
        return 0
    print(f"ratios to {previous['commit'][:12]} ({previous['date']}):")
    for (workload, name), ratio in ratios(previous, line).items():
        print(f"  {workload:12} {name:24} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
