"""Layer spans timed from outside the program.

:func:`traced` swaps timing wrappers onto the public functions that
bound each layer, runs the body, and puts the original functions back.
Nothing under ``src/`` knows it is being measured.  Spans nest: a span's
*self* time is its duration minus the time its child spans cover, so the
self times of all spans add up to the time spent inside the outermost
ones.

Spans open once per chunk, segment, store row or evaluation, never per
access, so the tracer's own cost stays small next to the work it times.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

#: Filter classes -> the paper's family labels used in span names.
FAMILIES = {
    "ExcludeJetty": "EJ",
    "VectorExcludeJetty": "VEJ",
    "IncludeJetty": "IJ",
    "HashedIncludeJetty": "IJ",
    "HybridJetty": "HJ",
}
#: The family labels in the order the paper presents them.
FAMILY_LABELS = ("EJ", "VEJ", "IJ", "HJ")


class Tracer:
    """Span totals and exact counts, kept in memory for one traced run."""

    def __init__(self) -> None:
        #: span name -> seconds inside the span (children included).
        self.total: dict[str, float] = defaultdict(float)
        #: span name -> seconds of that span covered by its child spans.
        self.child: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def self_seconds(self, name: str) -> float:
        return self.total.get(name, 0.0) - self.child.get(name, 0.0)

    def covered_seconds(self) -> float:
        """Seconds inside any span (the sum of every span's self time)."""
        return sum(self.total[name] - self.child[name] for name in self.total)

    def wrap(self, fn, name, count=None):
        """``fn`` timed as span ``name`` (a string, or ``name(args)``).

        ``count(counts, args, result)`` adds exact counts after each
        successful call.  With ``name=None`` the call is counted but
        opens no span.
        """
        total, child, stack = self.total, self.child, self._stack
        counts = self.counts
        perf_counter = time.perf_counter

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if type(name) is str else name(args)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                total[span] += elapsed
                child[span] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper


def family(bank) -> str:
    """The filter family a :class:`StreamingFilterBank` evaluates."""
    kind = type(bank.replayers[0].snoop_filter).__name__
    return FAMILIES.get(kind, kind)


def _events_in(shard) -> int:
    return sum(len(stream.events) for stream in shard)


def _count_take(counts, args, result):
    counts["generate.accesses"] += len(result)


def _count_shard(counts, args, result):
    counts["coherence.events"] += _events_in(result)


def _count_bank(counts, args, result):
    bank, shard = args
    counts[f"bank.events.{family(bank)}"] += _events_in(shard)


def _count_build(counts, args, result):
    counts["bank.build.banks"] += 1


def _count_sink(counts, args, result):
    counts["sink.events"] += _events_in(args[1])


def _count_sink_finish(counts, args, result):
    counts["sink.segments"] += sum(result)


def _count_encode(counts, args, result):
    counts["codec.encode.bytes_in"] += len(args[0])
    counts["codec.encode.bytes_out"] += len(result)


def _count_decode(counts, args, result):
    counts["codec.decode.segments"] += 1
    counts["codec.decode.events"] += len(result)
    counts["codec.decode.bytes_in"] += len(args[0])


def _count_put(counts, args, result):
    counts["store.write.rows"] += 1
    counts["store.write.bytes"] += len(args[2])  # put_blob(self, key, blob)


def _count_get(counts, args, result):
    if result is not None:
        counts["store.read.rows"] += 1
        counts["store.read.bytes"] += len(result)


def _count_fetch(counts, args, result):
    counts["store.read.rows"] += 1


def _count_feed(counts, args, result):
    events = args[2]  # feed_node(self, node_id, events)
    events = getattr(events, "events", events)  # a PackedSegment or raw
    counts["kernel.events"] += len(events)


def _count_eval(counts, args, result):
    counts["eval.encode.evals"] += 1


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the ``with`` body.

    The patch points, and why each is the right one:

    * ``MixStream.take`` -- the generator's batch entry, which the
      simulation engine drives once per chunk;
    * ``runner.simulate_streaming`` -- the runner imported the function
      by name, so the wrapper must replace the runner's binding, not the
      one in :mod:`repro.coherence.smp`; its self time is coherence;
    * ``SMPSystem.take_shard`` -- counted only: every event the machine
      emits leaves through it;
    * ``StreamingFilterBank.__init__`` -- building a bank's per-node
      filters and replayers (the first one also imports the vector
      kernels and NumPy);
    * ``StreamingFilterBank.consume`` / ``feed_node`` -- live banks and
      replay kernels, per filter family;
    * ``TraceSink.consume`` / ``finish`` -- the trace sink;
    * ``store.encode_trace_segment`` / ``decode_trace_segment`` /
      ``encode_eval`` -- looked up on the module at call time, so
      patching the module attribute reaches every caller;
    * ``ExperimentStore.put_blob`` / ``get_blob`` plus the ``fetch``
      closure each :class:`TraceReader` receives -- the replay path reads
      segments over its own read-only connection, not through the store
      object.
    """
    from repro.analysis import runner, store
    from repro.coherence.smp import SMPSystem, TraceSink
    from repro.core.stats import StreamingFilterBank, TraceReader
    from repro.traces.synth.mix import MixStream

    wrap = tracer.wrap
    counts = tracer.counts
    reader_init = TraceReader.__init__

    def fetch_span(self, segments_per_node, fetch):
        # The fetch hands back decoded events, so the bytes it read from
        # the store are the bytes its codec/decode child span consumed.
        timed = wrap(fetch, "store/read", _count_fetch)

        def fetch_with_bytes(node_id, index):
            before = counts["codec.decode.bytes_in"]
            events = timed(node_id, index)
            counts["store.read.bytes"] += counts["codec.decode.bytes_in"] - before
            return events

        reader_init(self, segments_per_node, fetch_with_bytes)

    patches = [
        (MixStream, "take", wrap(MixStream.take, "generate", _count_take)),
        (runner, "simulate_streaming",
         wrap(runner.simulate_streaming, "coherence")),
        (SMPSystem, "take_shard",
         wrap(SMPSystem.take_shard, None, _count_shard)),
        (StreamingFilterBank, "__init__",
         wrap(StreamingFilterBank.__init__, "bank/build", _count_build)),
        (StreamingFilterBank, "consume",
         wrap(StreamingFilterBank.consume,
              lambda args: f"bank/{family(args[0])}", _count_bank)),
        (StreamingFilterBank, "feed_node",
         wrap(StreamingFilterBank.feed_node,
              lambda args: f"kernel/{family(args[0])}", _count_feed)),
        (TraceSink, "consume", wrap(TraceSink.consume, "sink", _count_sink)),
        (TraceSink, "finish",
         wrap(TraceSink.finish, "sink", _count_sink_finish)),
        (store, "encode_trace_segment",
         wrap(store.encode_trace_segment, "codec/encode", _count_encode)),
        (store, "decode_trace_segment",
         wrap(store.decode_trace_segment, "codec/decode", _count_decode)),
        (store, "encode_eval",
         wrap(store.encode_eval, "eval/encode", _count_eval)),
        (store.ExperimentStore, "put_blob",
         wrap(store.ExperimentStore.put_blob, "store/write", _count_put)),
        (store.ExperimentStore, "get_blob",
         wrap(store.ExperimentStore.get_blob, "store/read", _count_get)),
        (TraceReader, "__init__", fetch_span),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
