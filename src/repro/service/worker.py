"""Leased sweep worker: pull one shard, heartbeat, execute, report.

A worker is one process with *its own* store connection — it opens the
shared SQLite file per shard, runs the shard as a serial
:func:`~repro.analysis.runner.run_sweep`, and lets the store's
content-addressed writes (retried under ``SQLITE_RETRY_POLICY``) land
the results.  The server never ships payloads over HTTP; the store is
the data plane, the service is only the control plane.

Robustness posture:

* a heartbeat thread extends the lease while the shard computes; if
  the lease is reported gone (410) the worker finishes anyway — its
  writes are byte-identical to whoever re-ran the shard, so finishing
  is free healing, and the completion round trip answers ``stale``
  without side effects;
* transport errors (server SIGKILLed mid-sweep) never kill the worker:
  it keeps polling until the server returns, exits on ``max_shards``
  or after ``idle_seconds`` without work;
* ``drop_heartbeats=True`` and ``poison=(...)`` are chaos hooks — the
  former silences the heartbeat thread so every lease expires mid-run,
  the latter makes the worker report failure for named workloads
  without executing them (driving shards into quarantine).
"""

from __future__ import annotations

import threading
import time

from repro.analysis.runner import run_sweep
from repro.analysis.store import ExperimentStore
from repro.coherence.smp import DEFAULT_CHUNK_SIZE
from repro.service.client import http_json
from repro.service.journal import resolve_spec, resolve_system


def _log(name: str, message: str) -> None:
    print(f"[worker {name}] {message}", flush=True)


class ServiceWorker:
    """One registered worker's lease-pull loop."""

    def __init__(
        self,
        server: str,
        store_path: str,
        *,
        name: str = "worker",
        poll_seconds: float = 0.5,
        max_shards: int | None = None,
        idle_seconds: float | None = None,
        drop_heartbeats: bool = False,
        poison: tuple[str, ...] = (),
    ) -> None:
        self.server = server.rstrip("/")
        self.store_path = store_path
        self.name = name
        self.poll_seconds = poll_seconds
        self.max_shards = max_shards
        self.idle_seconds = idle_seconds
        self.drop_heartbeats = drop_heartbeats
        self.poison = tuple(poison)
        self.lease_seconds = 15.0
        self.completed = 0

    # -- transport helpers --------------------------------------------

    def _post(self, path: str, payload: dict) -> tuple[int, dict]:
        return http_json(
            "POST", f"{self.server}{path}", payload, timeout=10.0
        )

    def _register(self) -> bool:
        try:
            status, body = self._post("/register", {"worker": self.name})
        except OSError:
            return False
        if status == 200:
            self.lease_seconds = float(
                body.get("lease_seconds", self.lease_seconds)
            )
            return True
        return False

    # -- execution ----------------------------------------------------

    def _execute(self, shard: dict) -> dict:
        """Run one shard serially against a private store connection."""
        store = ExperimentStore(self.store_path)
        try:
            result = run_sweep(
                [resolve_spec(shard)],
                tuple(shard["filters"]),
                system=resolve_system(shard),
                seeds=(shard["seed"],),
                experiment_store=store,
                checkpoint_every=shard.get("checkpoint_every"),
                workers=1,
                backend="serial",
                chunk_size=shard.get("chunk_size") or DEFAULT_CHUNK_SIZE,
                **{shard["mode"]: True},
            )
        finally:
            store.close()
        report = result.report
        return {
            "sims_run": report.sims_run,
            "sims_cached": report.sims_cached,
            "evals_run": report.evals_run,
            "evals_cached": report.evals_cached,
        }

    def _heartbeat_loop(self, token: str, stop: threading.Event) -> None:
        interval = max(0.2, self.lease_seconds / 3.0)
        while not stop.wait(interval):
            try:
                status, _body = self._post(
                    "/heartbeat", {"worker": self.name, "lease": token}
                )
            except OSError:
                continue  # server mid-restart; the journal protects us
            if status == 410:
                # Lease reassigned while we compute.  Keep going: the
                # results are content-addressed, so landing them anyway
                # just heals the shard faster.
                _log(self.name, f"lease {token} expired under us")
                return

    def _work_one(self, grant: dict) -> None:
        token = grant["lease"]
        shard = grant["shard"]
        label = f"{shard['workload']} seed {shard['seed']}"
        if shard["workload"] in self.poison:
            _log(self.name, f"poisoned shard {label}; reporting failure")
            self._post("/fail", {
                "worker": self.name,
                "lease": token,
                "error": f"poisoned workload {shard['workload']}",
            })
            return
        _log(self.name, f"leased {token}: {label} ({shard['mode']})")
        stop = threading.Event()
        beater = None
        if not self.drop_heartbeats:
            beater = threading.Thread(
                target=self._heartbeat_loop, args=(token, stop), daemon=True
            )
            beater.start()
        try:
            report = self._execute(shard)
        except Exception as error:
            stop.set()
            _log(self.name, f"shard {label} failed: {error}")
            try:
                self._post("/fail", {
                    "worker": self.name,
                    "lease": token,
                    "error": f"{type(error).__name__}: {error}",
                })
            except OSError:
                pass  # lease will expire and requeue on its own
            return
        finally:
            stop.set()
            if beater is not None:
                beater.join(timeout=1.0)
        try:
            status, body = self._post("/complete", {
                "worker": self.name,
                "lease": token,
                "report": report,
            })
        except OSError:
            _log(self.name, f"completed {label} but server unreachable; "
                            "results are durable either way")
            return
        disposition = body.get("disposition", "stale")
        if status == 200 and disposition == "done":
            self.completed += 1
            _log(self.name, f"completed {label}")
        else:
            _log(self.name, f"completion for {label} was {disposition}")

    # -- the loop ------------------------------------------------------

    def run(self) -> int:
        """Pull leases until exhausted/idle; returns shards completed."""
        while not self._register():
            time.sleep(self.poll_seconds)
        _log(self.name, f"registered with {self.server} "
                        f"(lease {self.lease_seconds:.1f}s)")
        last_grant = time.monotonic()
        while True:
            if (self.max_shards is not None
                    and self.completed >= self.max_shards):
                _log(self.name, f"reached max shards ({self.max_shards})")
                return self.completed
            try:
                status, body = self._post("/lease", {"worker": self.name})
            except OSError:
                status, body = -1, {}
            if status == 200 and body.get("lease"):
                last_grant = time.monotonic()
                self._work_one(body)
                continue
            if (self.idle_seconds is not None
                    and time.monotonic() - last_grant > self.idle_seconds):
                _log(self.name, f"idle for {self.idle_seconds:.0f}s; exiting")
                return self.completed
            time.sleep(self.poll_seconds)
