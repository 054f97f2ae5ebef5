"""A fixed reference task that measures how fast the host runs right now.

On a shared host a process's speed drifts: on a 2-core KVM guest the
same pure-Python loop ran at one speed for 15-20 s and then 1.4-1.8x
slower for the next 20 s, with shorter swings of 20-30% in between.
The drift slows CPU time as much as wall time, so neither clock hides
it.  While the benchmark times the program, :class:`HostSampler`
therefore interrupts it every ``SAMPLE_INTERVAL_S`` and runs a short,
fixed probe task in the same thread.  The probe's code never changes, so
the mean probe time during a call tracks the host alone.

A call's time follows the probe's one for one.  Regressing log call time
(samples excluded) on log mean probe time over 35-67 calls of 3 runs
gave slopes of 1.00, 0.87 and 1.09 on ``stream-em3d``, ``sweep-em3d``
and ``cold-lu``, with correlations of 0.96, 0.98 and 0.94.  So
:func:`host_scale` corrects a time by the plain ratio of the reference
probe time to the probe time measured during it.  On those calls the
corrected times' standard deviation was 4-5% of their mean; the raw
times' was 13-14%.

The task is pure Python, like most of the simulator: a hashed table of
small lists updated from a linear congruential stream, plus a sort.
"""

from __future__ import annotations

import gc
import signal
import time

#: Iterations of one probe task: about 2 ms on a 2-core x86-64 KVM guest.
PROBE_ITERATIONS = 2_000
#: The task's result, the same on every host and run.
PROBE_CHECKSUM = 6_220_841
#: Seconds between probe samples.
SAMPLE_INTERVAL_S = 0.05
#: The reference probe time: corrected times are those of a host on
#: which one probe task takes this long (about the median on the 2-core
#: host the benchmark was tuned on).
PROBE_REFERENCE_S = 0.002


def probe_task() -> int:
    """The reference task.  Returns a checksum of its work."""
    table: dict[int, list[int]] = {}
    state = 12345
    checksum = 0
    for step in range(PROBE_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state >> 16
        entry = table.get(key)
        if entry is None:
            table[key] = [step, state & 0xFF]
        else:
            checksum = (checksum + entry[1] * (step - entry[0])) & 0x7FFFFFFF
            entry[0] = step
            entry[1] ^= state & 0xFF
    order = sorted(table, key=lambda k: table[k][1] * 4096 + k)
    return (checksum + sum(order[::97])) & 0x7FFFFFFF


class HostSampler:
    """Run the probe task on a timer signal while the program runs.

    A context manager.  Inside it, ``SIGALRM`` fires every
    ``SAMPLE_INTERVAL_S``, and its handler runs one probe task between
    two of the program's bytecodes (a long C call delays it) with the
    collector off, so the sample costs the same whatever the program's
    heap holds.  System calls the signal interrupts are restarted.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self.interval = interval
        #: ``(start, seconds)`` of every sample, in order.
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            result = probe_task()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()
        if result != PROBE_CHECKSUM:
            raise RuntimeError(f"probe checksum {result} != {PROBE_CHECKSUM}")

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def during(self, start: float, end: float) -> dict:
        """The samples that started between ``start`` and ``end``.

        ``probe_s`` is their mean time (that of every sample if none fell
        in the interval) and ``sampled_s`` their total, the share of the
        interval the probe took.
        """
        inside = [s for t, s in self.samples if start <= t < end]
        pool = inside or [s for _, s in self.samples]
        return {
            "probe_s": sum(pool) / len(pool) if pool else None,
            "samples": len(inside),
            "sampled_s": sum(inside),
        }


def host_scale(probe_s: float) -> float:
    """Factor that corrects a time measured next to a ``probe_s`` probe.

    Multiplying by it gives the time on a host whose probe takes
    ``PROBE_REFERENCE_S``.
    """
    return PROBE_REFERENCE_S / probe_s
