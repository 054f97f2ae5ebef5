"""Kill-and-resume smoke: SIGKILL a checkpointed sweep, resume, diff stores.

The end-to-end guard behind the checkpoint feature's acceptance
criterion, runnable locally and in CI:

1. start ``repro sweep --checkpoint-every N`` (record, then replay) as a
   subprocess against a fresh store — or, with ``--stream``, ``repro sweep
   --stream --workers 2 --seeds 1 2 --checkpoint-every N``, whose two
   passes run in pool workers that each write their own checkpoints
   and results over their own SQLite connection;
2. poll the store until the first checkpoint row is durable, then
   ``SIGKILL`` the sweep's whole process group mid-run (no cleanup
   handlers get to run — exactly the shape of an OOM kill or node
   preemption);
3. rerun the identical command and require its output to report
   ``resumed from checkpoint``;
4. run the same sweep against a second, clean store *without* ever
   being interrupted;
5. assert the two stores' result payloads — metrics, evaluations, trace
   manifest and every recorded segment — are byte-for-byte identical
   (checkpoint rows are excluded: completed runs retire their chains,
   so both stores should hold none anyway).

Exit status 0 on success, 1 with a diagnostic otherwise.  Usage::

    PYTHONPATH=src python tools/kill_resume_smoke.py [--stream]
        [--accesses N] [--warmup N] [--checkpoint-every N]
        [--workload NAME]
"""

from __future__ import annotations

import argparse
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sweep_argv(store: Path, args: argparse.Namespace) -> list[str]:
    mode = (
        ["--stream", "--workers", "2", "--seeds", "1", "2"] if args.stream
        else []
    )
    return [
        sys.executable, "-m", "repro.cli", "--store", str(store),
        "sweep", *mode, "--workloads", args.workload,
        "--filters", "EJ-32x4", "IJ-10x4x7",
        "--accesses", str(args.accesses), "--warmup", str(args.warmup),
        "--chunk-size", str(args.chunk_size),
        "--checkpoint-every", str(args.checkpoint_every),
    ]


def _checkpoint_rows(store: Path) -> int:
    if not store.exists():
        return 0
    try:
        with sqlite3.connect(f"file:{store}?mode=ro", uri=True) as db:
            (count,) = db.execute(
                "SELECT COUNT(*) FROM results WHERE kind = 'checkpoint'"
            ).fetchone()
            return count
    except sqlite3.Error:
        return 0


def _result_payloads(store: Path) -> dict[str, bytes]:
    """Every non-checkpoint payload by key (the byte-identity surface)."""
    with sqlite3.connect(f"file:{store}?mode=ro", uri=True) as db:
        rows = db.execute(
            "SELECT key, kind, payload FROM results WHERE kind != 'checkpoint'"
        ).fetchall()
    return {key: (kind, payload) for key, kind, payload in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stream", action="store_true",
                        help="kill a two-worker streamed sweep instead of "
                             "a recording one")
    parser.add_argument("--workload", default="lu")
    parser.add_argument("--accesses", type=int, default=400_000)
    parser.add_argument("--warmup", type=int, default=50_000)
    parser.add_argument("--chunk-size", type=int, default=16_384)
    parser.add_argument("--checkpoint-every", type=int, default=50_000)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds before giving up on any phase")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )

    with tempfile.TemporaryDirectory() as tmp:
        interrupted = Path(tmp) / "interrupted.sqlite"
        clean = Path(tmp) / "clean.sqlite"

        # Phase 1: start the sweep and SIGKILL it once a checkpoint is
        # durable.  If the run finishes before a checkpoint lands, the
        # smoke is too fast to be meaningful — fail loudly so the sizes
        # get adjusted rather than silently not testing resume.
        print(f"[smoke] starting sweep against {interrupted.name} ...")
        # A session of its own, so the kill takes the pool workers down
        # with the sweep instead of leaving them to finish behind it.
        process = subprocess.Popen(
            _sweep_argv(interrupted, args), env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True,
        )
        deadline = time.monotonic() + args.timeout
        killed = False
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            if _checkpoint_rows(interrupted) > 0:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                killed = True
                break
            time.sleep(0.05)
        if not killed:
            output = process.communicate()[0] if process.poll() is None else ""
            print("[smoke] FAIL: run finished (or hung) before the first "
                  "checkpoint; raise --accesses or lower --checkpoint-every",
                  file=sys.stderr)
            if output:
                print(output, file=sys.stderr)
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            return 1
        print(f"[smoke] SIGKILLed mid-run with "
              f"{_checkpoint_rows(interrupted)} checkpoint row(s) durable")

        # Phase 2: identical command again; it must resume, not restart.
        rerun = subprocess.run(
            _sweep_argv(interrupted, args), env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=args.timeout,
        )
        print(rerun.stdout, end="")
        if rerun.returncode != 0:
            print(f"[smoke] FAIL: resume run exited {rerun.returncode}:\n"
                  f"{rerun.stderr}", file=sys.stderr)
            return 1
        if "resumed from checkpoint" not in rerun.stdout:
            print("[smoke] FAIL: resume run did not report 'resumed from "
                  "checkpoint'", file=sys.stderr)
            return 1

        # Phase 3: uninterrupted reference run into a clean store.
        reference = subprocess.run(
            _sweep_argv(clean, args), env=env, cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=args.timeout,
        )
        if reference.returncode != 0:
            print(f"[smoke] FAIL: clean run exited {reference.returncode}:\n"
                  f"{reference.stderr}", file=sys.stderr)
            return 1

        # Phase 4: byte-for-byte identical result payloads.
        killed_payloads = _result_payloads(interrupted)
        clean_payloads = _result_payloads(clean)
        if killed_payloads != clean_payloads:
            only_killed = set(killed_payloads) - set(clean_payloads)
            only_clean = set(clean_payloads) - set(killed_payloads)
            differing = [
                f"{kind}:{key[:12]}"
                for key, (kind, payload) in sorted(killed_payloads.items())
                if key in clean_payloads and clean_payloads[key][1] != payload
            ]
            print(f"[smoke] FAIL: stores differ — {len(only_killed)} extra, "
                  f"{len(only_clean)} missing, differing: {differing[:8]}",
                  file=sys.stderr)
            return 1
        kinds = sorted({kind for kind, _p in killed_payloads.values()})
        print(f"[smoke] OK: {len(killed_payloads)} payloads byte-identical "
              f"after SIGKILL + resume (kinds: {', '.join(kinds)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
