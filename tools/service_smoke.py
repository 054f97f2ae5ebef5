"""Service smoke: kill a leased worker, drain the server, diff stores.

The end-to-end guard behind the sweep service's acceptance criteria,
runnable locally and in CI:

1. run a clean reference sweep (``repro sweep``, record then replay)
   into a scratch store;
2. start ``repro serve`` against a second store plus one worker,
   submit the same sweep over HTTP, and ``SIGKILL`` the worker while
   it holds a lease;
3. start a replacement worker and require the job to finish anyway —
   the orphaned lease must expire and be **reassigned** (visible in
   ``/health``);
4. with zero workers attached, re-submit the identical request and
   require an instant warm answer (``sims: 0 run``) that grants no new
   lease;
5. ``SIGTERM`` the server and require a clean drain (exit 0);
6. assert the service store's result payloads are **byte-identical**
   to the clean store's (journal rows excluded — they are operational
   state, not results) and that ``fsck`` finds nothing to heal.

Exit status 0 on success, 1 with a diagnostic otherwise.  Usage::

    PYTHONPATH=src python tools/service_smoke.py [--accesses N]
        [--warmup N] [--lease-seconds S]
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import ServiceClient  # noqa: E402

WORKLOADS = ("lu", "fft")
FILTERS = ("EJ-32x4", "IJ-10x4x7")
SEEDS = (1, 2)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    return env


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn(argv: list[str], log: Path) -> tuple[subprocess.Popen, object]:
    handle = open(log, "w", encoding="utf-8")
    process = subprocess.Popen(
        argv, env=_env(), cwd=REPO_ROOT,
        stdout=handle, stderr=subprocess.STDOUT,
    )
    return process, handle


def _wait(predicate, *, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return
        except OSError:
            pass
        time.sleep(0.05)
    raise TimeoutError(f"timed out waiting for {what}")


def _result_payloads(store: Path) -> dict[str, tuple[str, bytes]]:
    """Every result payload by key — journal rows are not results."""
    with sqlite3.connect(f"file:{store}?mode=ro", uri=True) as db:
        rows = db.execute(
            "SELECT key, kind, payload FROM results "
            "WHERE kind NOT IN ('job', 'checkpoint')"
        ).fetchall()
    return {key: (kind, payload) for key, kind, payload in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--accesses", type=int, default=30_000)
    parser.add_argument("--warmup", type=int, default=8_000)
    parser.add_argument("--lease-seconds", type=float, default=3.0)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds before giving up on any phase")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        tmp_path = Path(tmp)
        clean = tmp_path / "clean.sqlite"
        served = tmp_path / "served.sqlite"

        # Phase 1: clean serial reference.
        print(f"[smoke] clean reference sweep into {clean.name} ...")
        reference = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "--store", str(clean),
                "sweep",
                "--workloads", *WORKLOADS, "--filters", *FILTERS,
                "--seeds", *map(str, SEEDS),
                "--accesses", str(args.accesses),
                "--warmup", str(args.warmup),
            ],
            env=_env(), cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=args.timeout,
        )
        if reference.returncode != 0:
            print(f"[smoke] FAIL: clean run exited {reference.returncode}:\n"
                  f"{reference.stderr}", file=sys.stderr)
            return 1

        # Phase 2: server + one worker; SIGKILL the worker mid-lease.
        port = _free_port()
        base = f"http://127.0.0.1:{port}"
        client = ServiceClient(base, timeout=5.0)
        server, server_log = _spawn(
            [
                sys.executable, "-m", "repro.cli", "--store", str(served),
                "serve", "--port", str(port),
                "--lease-seconds", str(args.lease_seconds),
            ],
            tmp_path / "server.log",
        )

        def worker_argv(name: str) -> list[str]:
            return [
                sys.executable, "-m", "repro.cli", "--store", str(served),
                "worker", "--server", base, "--name", name,
                "--poll", "0.1", "--idle-exit", "30",
            ]

        w1 = w2 = None
        handles = [server_log]
        try:
            _wait(lambda: client.health()["status"] == "ok",
                  timeout=30, what="the server to listen")
            job_id = client.submit(
                workloads=list(WORKLOADS), filters=list(FILTERS),
                seeds=list(SEEDS), mode="replay",
                accesses=args.accesses, warmup=args.warmup,
            )["job"]
            w1, w1_log = _spawn(worker_argv("w1"), tmp_path / "w1.log")
            handles.append(w1_log)
            _wait(lambda: len(client.health()["leases"]) >= 1,
                  timeout=60, what="worker w1 to hold a lease")
            w1.send_signal(signal.SIGKILL)
            w1.wait(timeout=10)
            print("[smoke] SIGKILLed worker w1 while it held a lease")

            # Phase 3: a replacement worker heals the job; the orphaned
            # lease must show up as a reassignment.
            w2, w2_log = _spawn(worker_argv("w2"), tmp_path / "w2.log")
            handles.append(w2_log)
            _wait(lambda: client.health()["reassigned"] >= 1,
                  timeout=60, what="the orphaned lease to be reassigned")
            final = client.wait(job_id, timeout=args.timeout)
            if final["state"] != "done":
                print(f"[smoke] FAIL: job settled {final['state']}: "
                      f"{final['summary']}", file=sys.stderr)
                return 1
            print(f"[smoke] job done after worker death: {final['summary']}")

            # Phase 4: warm re-submit with zero workers attached.
            w2.terminate()
            w2.wait(timeout=30)
            granted_before = client.health()["leases_granted"]
            warm = client.submit(
                workloads=list(WORKLOADS), filters=list(FILTERS),
                seeds=list(SEEDS), mode="replay",
                accesses=args.accesses, warmup=args.warmup,
            )
            granted_after = client.health()["leases_granted"]
            if (warm["state"] != "done"
                    or not warm["summary"].startswith("sims: 0 run")
                    or granted_after != granted_before):
                print(f"[smoke] FAIL: warm re-submit not answered from the "
                      f"store: {warm['state']} / {warm['summary']} "
                      f"(leases {granted_before} -> {granted_after})",
                      file=sys.stderr)
                return 1
            print(f"[smoke] warm re-submit with zero workers: "
                  f"{warm['summary']}")

            # Phase 5: SIGTERM drain must exit 0.
            server.terminate()
            server.wait(timeout=60)
            if server.returncode != 0:
                print(f"[smoke] FAIL: drained server exited "
                      f"{server.returncode}", file=sys.stderr)
                return 1
            print("[smoke] server drained cleanly on SIGTERM (exit 0)")
        finally:
            for process in (w1, w2, server):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
            for handle in handles:
                handle.close()

        # Phase 6: byte-identity and fsck.
        served_payloads = _result_payloads(served)
        clean_payloads = _result_payloads(clean)
        if served_payloads != clean_payloads:
            only_served = set(served_payloads) - set(clean_payloads)
            only_clean = set(clean_payloads) - set(served_payloads)
            differing = [
                f"{kind}:{key[:12]}"
                for key, (kind, payload) in sorted(served_payloads.items())
                if key in clean_payloads and clean_payloads[key][1] != payload
            ]
            print(f"[smoke] FAIL: stores differ — {len(only_served)} extra, "
                  f"{len(only_clean)} missing, differing: {differing[:8]}",
                  file=sys.stderr)
            return 1
        from repro.analysis.store import ExperimentStore
        store = ExperimentStore(served)
        try:
            if not store.fsck().clean:
                print("[smoke] FAIL: fsck found corruption in the served "
                      "store", file=sys.stderr)
                return 1
        finally:
            store.close()
        kinds = sorted({kind for kind, _payload in served_payloads.values()})
        print(f"[smoke] OK: {len(served_payloads)} payloads byte-identical "
              f"after worker SIGKILL + drain (kinds: {', '.join(kinds)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
