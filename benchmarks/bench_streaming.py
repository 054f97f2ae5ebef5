"""Streaming engine: peak memory stays flat while trace length grows 100x.

The streaming engine (``repro.analysis.runner.compute_stream``) hands
every node's JETTY events to the filters in bounded shards and never
accumulates them; this bench pushes one workload through it at
geometrically growing access counts and renders the measured
``tracemalloc`` peaks.

Expected shape (asserted): the streamed peak is flat — within 2x across
a 100x growth in trace length.  ``REPRO_BENCH_STREAM_MAX`` overrides the
largest size (default 2M accesses, ~1 minute of pure-Python simulation
under tracemalloc).
"""

from __future__ import annotations

import os
import tracemalloc

from benchmarks._shared import once, save_exhibit
from repro.analysis import runner
from repro.coherence.config import SCALED_SYSTEM
from repro.traces.workloads import PaperReference, WorkloadSpec
from repro.utils.text import render_table

FILTERS = ("EJ-32x4",)
CHUNK_SIZE = 8_192

_PAPER = PaperReference(1.0, 1.0, 0.9, 0.5, 1.0, (1.0, 0.0, 0.0, 0.0), 1.0, 0.5)


def _spec(n_accesses: int) -> WorkloadSpec:
    return WorkloadSpec(
        name="bench-stream",
        abbrev="bs",
        description="streaming memory bench: private sets with hand-off",
        paper=_PAPER,
        n_accesses=n_accesses,
        warmup_accesses=10_000,
        repeat_frac=0.5,
        recipe=(
            ("private", dict(weight=0.8, ws_bytes=96 * 1024, alpha=1.5)),
            ("producer_consumer", dict(weight=0.2, n_pairs=2,
                                       buffer_bytes=4096)),
        ),
    )


def _max_accesses() -> int:
    try:
        configured = int(float(os.environ.get("REPRO_BENCH_STREAM_MAX") or 0))
    except ValueError:
        configured = 0
    return configured if configured > 0 else 2_000_000


def _streamed_peak(n_accesses: int) -> int:
    tracemalloc.start()
    runner.compute_stream(
        _spec(n_accesses), SCALED_SYSTEM, 1, FILTERS, chunk_size=CHUNK_SIZE
    )
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def bench_streaming_memory(benchmark):
    largest = _max_accesses()
    sizes = [largest // 100, largest // 10, largest]

    def measure():
        return {n: _streamed_peak(n) for n in sizes}

    streamed = once(benchmark, measure)

    rows = [[f"{n:,}", f"{streamed[n] / 1e6:.2f} MB"] for n in sizes]
    text = render_table(
        ["accesses", "streamed peak"],
        rows,
        title=f"tracemalloc peaks, chunk={CHUNK_SIZE}, filters={FILTERS}",
    )
    save_exhibit("streaming-memory", text)
    print(text)

    # Flat streamed curve over a 100x span.
    assert streamed[sizes[-1]] < 2 * streamed[sizes[0]], streamed
