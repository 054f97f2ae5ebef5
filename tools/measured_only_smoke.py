"""CI smoke: measured-only recording must replay byte-identically.

Runs the same (workload, seed) replay sweep twice into separate scratch
stores — once as a full trace, once measured-region-only (warm-up
events replaced by a fast-forward snapshot of the warmed filter state),
both in the one segment encoding, delta-v1 — and requires every filter
configuration's *stored evaluation payload* to be byte-identical
between the two, on the default banks (which also record both traces)
and again on the per-event oracle (the native core hidden).  That is the whole correctness contract of fast-forward: it
may only change stored bytes and wall time, never a result.

Prints ``eval payloads byte-identical: yes`` on success (the CI step
greps for it) and exits non-zero on any divergence.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import runner
from repro.analysis import store as store_mod
from repro.analysis.store import ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.core import _cmachine
from repro.traces.workloads import get_workload

WORKLOAD = "em3d"
ACCESSES = 60_000
WARMUP = 15_000
SEED = 3
FILTERS = runner.DEFAULT_SWEEP_FILTERS


def _sweep(store: ExperimentStore, *, measured_only: bool,
           oracle: bool) -> float:
    saved = _cmachine.library()
    if oracle:
        # Every bank falls back to the per-event oracle without the core.
        _cmachine._lib = None
    try:
        started = time.perf_counter()
        runner.run_sweep(
            [WORKLOAD], FILTERS, seeds=(SEED,), replay=True,
            experiment_store=store, accesses=ACCESSES, warmup=WARMUP,
            measured_only=measured_only, backend="serial",
        )
        return time.perf_counter() - started
    finally:
        _cmachine._lib = saved


def main() -> int:
    from dataclasses import replace

    spec = replace(get_workload(WORKLOAD), n_accesses=ACCESSES,
                   warmup_accesses=WARMUP)
    passes = ["oracle"]
    if _cmachine.library() is not None:
        passes.insert(0, "default")
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        full = ExperimentStore(Path(tmp) / "full.sqlite")
        measured = ExperimentStore(Path(tmp) / "measured.sqlite")
        for banks in passes:
            full.delete_kind("eval")
            measured.delete_kind("eval")
            oracle = banks == "oracle"
            full_elapsed = _sweep(full, measured_only=False, oracle=oracle)
            measured_elapsed = _sweep(measured, measured_only=True,
                                      oracle=oracle)
            for name in FILTERS:
                ekey = store_mod.eval_key(spec, name, SCALED_SYSTEM, SEED)
                a = full.get_blob(ekey)
                b = measured.get_blob(ekey)
                if a is None or a != b:
                    ok = False
                    print(f"DIVERGENCE [{banks}] {name}: full-trace and "
                          "measured-only eval payloads differ",
                          file=sys.stderr)
            print(f"[{banks}] full sweep {full_elapsed:.2f}s, "
                  f"measured-only sweep {measured_elapsed:.2f}s "
                  f"({len(FILTERS)} filters)", flush=True)
        trace_kinds = (store_mod.TRACE_KIND, store_mod.FAST_FORWARD_KIND)
        full_bytes = sum(e.payload_bytes for e in full.entries()
                         if e.kind in trace_kinds)
        measured_bytes = sum(e.payload_bytes for e in measured.entries()
                             if e.kind in trace_kinds)
        print(f"archive bytes: full {full_bytes:,}, measured-only "
              f"{measured_bytes:,} "
              f"(x{measured_bytes / full_bytes:.2f})")
        full.close()
        measured.close()
    print("eval payloads byte-identical: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
