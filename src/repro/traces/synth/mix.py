"""Weighted mixing of sharing patterns into a full workload stream.

:meth:`WorkloadMix.generate` returns a :class:`MixStream` — a resumable
cursor that can be consumed whole, drained in bounded batches
(:meth:`MixStream.take`), or checkpointed and resumed later with its
complete RNG and pattern state intact.  The streaming simulation
engine relies on this: a paper-scale trace is never materialised, and an
interrupted run can restart generation from the last checkpoint instead
of the beginning.
"""

from __future__ import annotations

import itertools
import pickle
import random
from collections.abc import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.traces.synth.base import Pattern


class WorkloadMix:
    """Draw each access from one of several patterns by weight.

    The mix is the whole synthetic-application model: e.g. Barnes is
    "mostly private tree walks, some migratory bodies, a widely read
    root region" — expressed as three patterns with weights.

    ``repeat_frac`` re-issues the previous access (as a load, on the same
    CPU) with the given probability.  This models the very-short-range
    reuse real programs exhibit (loop variables, stack slots) that the
    coarse patterns do not: it raises the L1 hit rate toward the paper's
    97-99% without disturbing the L2-level miss and snoop streams.
    """

    def __init__(
        self,
        components: Sequence[tuple[Pattern, float]],
        repeat_frac: float = 0.0,
    ) -> None:
        if not components:
            raise ConfigurationError("a workload mix needs at least one pattern")
        total = sum(weight for _p, weight in components)
        if total <= 0:
            raise ConfigurationError("pattern weights must sum to a positive value")
        if not 0.0 <= repeat_frac < 1.0:
            raise ConfigurationError(f"repeat_frac must be in [0, 1), got {repeat_frac}")
        self.patterns = [pattern for pattern, _w in components]
        self.repeat_frac = repeat_frac
        self._cumulative = list(
            itertools.accumulate(weight / total for _p, weight in components)
        )
        #: (pattern, cumulative bound) pairs, zipped once — the per-access
        #: pick loop must not rebuild a zip object.
        self._choices = tuple(zip(self.patterns, self._cumulative))

    def _pick(self, rng: random.Random) -> Pattern:
        draw = rng.random()
        for pattern, bound in self._choices:
            if draw <= bound:
                return pattern
        return self.patterns[-1]

    def generate(
        self, n_accesses: int, seed: int = 0, fingerprint: str | None = None
    ) -> "MixStream":
        """Return a resumable stream of ``n_accesses`` accesses.

        The stream is a one-phase :class:`MixStream` drawing every
        random decision from a single seeded RNG, so equal seeds
        reproduce equal streams.  Note that the mix's patterns are
        stateful and shared: interleaving two streams over the *same*
        mix instance correlates them — build a fresh mix per stream.
        ``fingerprint`` stamps the stream with the identity of the spec
        that built it, validated by
        :func:`repro.traces.workloads.resume_stream`.
        """
        return MixStream([(self, n_accesses, seed)], fingerprint=fingerprint)


class MixStream(Iterator[tuple[int, int, bool]]):
    """A resumable cursor over an ordered list of mix phases.

    Each phase is ``(mix, n_accesses, seed)``: ``n_accesses`` accesses
    drawn from ``mix`` with a fresh ``random.Random(seed)`` and fresh
    repeat memory.  A plain workload is one phase; a suite is one phase
    per slice (see :func:`repro.traces.workloads.build_workload_stream`).

    :meth:`take` is the one draw loop: iteration pops through it one
    access at a time, :func:`repro.coherence.smp.iter_batches` drains it
    in bounded batches, and :meth:`checkpoint` serialises the complete
    generation state (phase cursor, RNG, pattern state, repeat memory,
    position) for :func:`repro.traces.workloads.resume_stream` to
    continue exactly where this one stopped.
    """

    def __init__(
        self,
        phases: Sequence[tuple[WorkloadMix, int, int]],
        fingerprint: str | None = None,
    ) -> None:
        self._phases = list(phases)
        self.remaining = sum(count for _mix, count, _seed in self._phases)
        self.position = 0
        #: Identity of the spec/profile that built this stream (a stable
        #: content hash).  Rides inside every checkpoint so resume can
        #: refuse a checkpoint generated under a different configuration
        #: instead of silently continuing a diverged stream.
        self.fingerprint = fingerprint
        self._phase = -1
        self._left = 0  # accesses left in the current phase
        self._mix: WorkloadMix | None = None
        self._rng: random.Random | None = None
        self._last: tuple[int, int, bool] | None = None

    def _start_next_phase(self) -> None:
        self._phase += 1
        self._mix, self._left, seed = self._phases[self._phase]
        self._rng = random.Random(seed)
        self._last = None

    def __next__(self) -> tuple[int, int, bool]:
        batch = self.take(1)
        if not batch:
            raise StopIteration
        return batch[0]

    def take(self, count: int) -> list[tuple[int, int, bool]]:
        """Pop up to ``count`` accesses (shorter only at end of stream).

        This is the batch fast path the simulation engine drives
        (:func:`repro.coherence.smp.iter_batches`): the batch list is
        preallocated and, one phase span at a time, filled by a loop
        with the RNG, repeat fraction, and pattern picker hoisted to
        locals — no per-access iterator-frame overhead.
        """
        n = min(count, self.remaining)
        if n <= 0:
            return []
        out: list[tuple[int, int, bool]] = [None] * n  # type: ignore[list-item]
        i = 0
        while i < n:
            while self._left == 0:
                self._start_next_phase()
            stop = i + min(n - i, self._left)
            rand = self._rng.random
            rng = self._rng
            mix = self._mix
            repeat_frac = mix.repeat_frac
            pick = mix._pick
            last = self._last
            for j in range(i, stop):
                if last is not None and rand() < repeat_frac:
                    cpu, address, _w = last
                    out[j] = (cpu, address, False)
                else:
                    last = pick(rng).next_access(rng)
                    out[j] = last
            self._last = last
            self._left -= stop - i
            i = stop
        self.remaining -= n
        self.position += n
        return out

    def checkpoint(self) -> bytes:
        """Serialise the full generation state (RNG, patterns, position).

        .. warning:: the blob is a pickle — resume only checkpoints you
           wrote yourself, from storage you trust.
        """
        return pickle.dumps(self)
