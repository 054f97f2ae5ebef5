"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-em3d [--seed 1]
        [--seconds 10] [--trace 0|1]

Run from the root of a checkout.  Work happens in repetitions, one
process at a time: each is a fresh Python process (this script again,
with ``--rep``) that sets up once -- imports included -- and then times
the workload's sweep over and over for its share of ``--seconds``.
A fresh process per repetition times set-up on every repetition and
keeps one repetition's peak memory out of the next.

With ``--trace 0`` the last line of standard output is a JSON object
whose ``metrics`` are the end-to-end metrics: ``accesses_per_s`` and
``setup_s`` are medians over timed calls and set-ups of times corrected
for the host's speed (see ``perfbench/probe.py``), the others medians
over repetitions.
With ``--trace 1`` one plain call runs first, then traced repetitions
until ``--seconds`` have passed, and ``metrics`` are the per-layer
metrics (median times, exact counts); plain and traced results must be
byte-identical.  The line before the result is a JSON record of the
machine, the seed, the sizes and every call's raw values.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench.probe import host_scale  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    layer_unit,
    run_rep,
    score,
)

PINS = Path(__file__).resolve().parent / "digests.json"
WORK = ROOT / ".perfbench_work"
#: Plain repetitions per run: the number of set-up samples.
PLAIN_REPS = 6
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def spawn_rep(args, work: Path, trace: bool, budget: float) -> dict:
    """Run one repetition in a fresh process and return its result."""
    work.mkdir(parents=True)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(trace)), "--rep", str(work),
        "--budget", repr(budget),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"repetition failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[list, list]:
    """Plain and traced repetitions, one process at a time."""
    work = WORK / f"run-{os.getpid()}"
    plain, traced = [], []

    def repeat(batch: list, trace: bool, budget: float = 0.0) -> None:
        rep_dir = work / f"rep-{len(plain) + len(traced)}"
        batch.append(spawn_rep(args, rep_dir, trace, budget))
        shutil.rmtree(rep_dir)

    try:
        if not args.trace:
            for _ in range(PLAIN_REPS):
                repeat(plain, False, args.seconds / PLAIN_REPS)
            return plain, traced
        deadline = time.perf_counter() + args.seconds
        repeat(plain, False)
        while len(traced) < MIN_TRACED_REPS or time.perf_counter() < deadline:
            repeat(traced, True)
        return plain, traced
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pinned_digests(workload: str, seed: int) -> dict | None:
    with open(PINS) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def corrected(seconds: float, probe: dict) -> float:
    """A time without the probe's samples, corrected for the host's speed."""
    return (seconds - probe["sampled_s"]) * host_scale(probe["probe_s"])


def end_to_end(plain: list, attempted: int, failed: int) -> dict:
    calls = [call for rep in plain for call in rep["calls"]]
    accesses = plain[0]["accesses"]
    recorded = plain[0]["recorded_accesses"]
    # Medians of times corrected for the host's speed, as the probe
    # measured it during each: a slow spell that lasts a whole run slows
    # the probe too, and one slow call moves no median.
    return {
        "accesses_per_s": {
            "value": median(
                accesses / corrected(call["wall_s"], call) for call in calls
            ),
            "unit": "1/s",
        },
        "setup_s": {
            "value": median(
                corrected(rep["setup_s"], rep["setup_probe"]) for rep in plain
            ),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": median(r["peak_rss_mb"] for r in plain), "unit": "MB",
        },
        "ok_frac": {"value": 1 - failed / attempted, "unit": "fraction"},
        "store_bytes_per_access": {
            "value": median(call["store_bytes"] for call in calls) / recorded,
            "unit": "bytes",
        },
    }


def per_layer(traced: list) -> dict:
    # Times are medians; counts repeat exactly, so any one will do.
    return {
        name: {
            "value": (
                median(rep["layers"][name] for rep in traced)
                if layer_unit(name) == "s" else value
            ),
            "unit": layer_unit(name),
        }
        for name, value in traced[0]["layers"].items()
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.rep:
        rep = run_rep(args.workload, args.seed, args.rep, trace=bool(args.trace),
                      budget=args.budget, started=STARTED)
        print(json.dumps(rep))
        return 0

    plain, traced = measure(args)
    reference = (
        pinned_digests(args.workload, args.seed)
        or plain[0]["calls"][0]["digests"]
    )
    attempted, failed, notes = score(plain + traced, reference)
    if any(rep["counts"] != traced[0]["counts"] for rep in traced):
        notes.append("traced counts differ between repetitions")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "accesses": plain[0]["accesses"],
        "recorded_accesses": plain[0]["recorded_accesses"],
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "failed_frac": failed / attempted,
        "failure_notes": notes,
        "reps": [
            {
                "traced": "layers" in rep,
                "setup_s": rep["setup_s"],
                "setup_probe": rep.get("setup_probe"),
                "peak_rss_mb": rep["peak_rss_mb"],
                "wall_s": [call["wall_s"] for call in rep["calls"]],
                "probe_s": [call.get("probe_s") for call in rep["calls"]],
                "sampled_s": [call.get("sampled_s") for call in rep["calls"]],
                "store_bytes": rep["calls"][0]["store_bytes"],
                "trace_bytes": rep["calls"][0]["trace_bytes"],
            }
            for rep in plain + traced
        ],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer(traced) if args.trace
        else end_to_end(plain, attempted, failed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
