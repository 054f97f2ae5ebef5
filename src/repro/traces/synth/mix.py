"""Weighted mixing of sharing patterns into a full workload stream.

:meth:`WorkloadMix.generate` returns a :class:`MixStream` — a resumable
cursor that can be consumed whole, drained in bounded batches of packed
accesses (:meth:`MixStream.take`), or checkpointed and resumed later
with its complete RNG and pattern state intact.  The streaming
simulation engine relies on this: a paper-scale trace is never materialised, and an
interrupted run can restart generation from the last checkpoint instead
of the beginning.
"""

from __future__ import annotations

import ctypes
import itertools
import pickle
import queue
import random
import threading
from array import array
from collections.abc import Iterable, Iterator, Sequence

from repro.core import _cmachine
from repro.errors import ConfigurationError, TraceError
from repro.traces.access import WRITE_BIT, unpack_access
from repro.traces.synth.base import NativePattern, Pattern, address_of


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

    def native(self, mt: array, last: array) -> "NativeMix":
        """This mix drawn with the RNG state ``mt`` and repeat memory
        ``last``, for the native generator."""
        count = len(self.patterns)
        return NativeMix(
            mt=address_of(mt),
            last=address_of(last),
            patterns=(NativePattern * count)(
                *(pattern.native() for pattern in self.patterns)
            ),
            bounds=(ctypes.c_double * count)(*self._cumulative),
            n_patterns=count,
            repeat_frac=self.repeat_frac,
        )

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


class NativeMix(ctypes.Structure):
    """One phase of a stream as the native generator reads it (``mix``
    in ``machine.c``): the stream's RNG and repeat memory, the mix's
    patterns and their cumulative pick bounds."""

    _fields_ = [
        ("mt", ctypes.c_void_p),
        ("last", ctypes.c_void_p),
        ("patterns", ctypes.POINTER(NativePattern)),
        ("bounds", ctypes.POINTER(ctypes.c_double)),
        ("n_patterns", ctypes.c_int64),
        ("repeat_frac", ctypes.c_double),
    ]


#: ``random.Random.getstate()`` version tag for the MT19937 state.
_RNG_VERSION = 3

#: The repeat memory when there is nothing to repeat (no access packs
#: to a negative word).
_NO_LAST = -1


class MixStream(Iterator[tuple[int, int, bool]]):
    """A resumable cursor over an ordered list of mix phases.

    Each phase is ``(mix, n_accesses, seed)``: ``n_accesses`` accesses
    drawn from ``mix`` with a fresh ``random.Random(seed)`` and fresh
    repeat memory.  A plain workload is one phase; a suite is one phase
    per slice (see :func:`repro.traces.workloads.build_workload_stream`).

    :meth:`take` is the one draw entry: it returns packed accesses
    (:mod:`repro.traces.access`), iteration unpacks them one at a time,
    :func:`repro.coherence.smp.simulate_streaming` drains them in
    bounded batches, and :meth:`checkpoint` serialises the complete
    generation state (phase cursor, RNG, pattern state, repeat memory,
    position) for :func:`repro.traces.workloads.resume_stream` to
    continue exactly where this one stopped.

    **Two tiers.**  With the native core loaded
    (:func:`repro.core._cmachine.library`), each phase span is drawn by
    its ``mix_take``, which reproduces CPython's MT19937 ``random()``
    and ``_randbelow`` bit for bit; without it the Python loop below
    draws the same words.  Both advance the same state: the 624 MT19937
    words and index in :attr:`_mt`, the repeat memory in :attr:`_last`,
    and each pattern's :attr:`~Pattern.state`.  The native tier advances
    the latter two in place; it copies :attr:`_mt` into 32-bit words at
    the start of each ``mix_take`` call and writes the words and index
    back before it returns, so between takes :attr:`_mt` is always
    ``random.Random.getstate()``'s.  The Python tier draws from a
    ``random.Random`` (``_rng``) seeded from :attr:`_mt` when it takes
    over and copied back only when the native tier takes over or the
    stream is pickled, so a checkpoint written on either tier resumes on
    the other.
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
        self._mt = array("q", bytes(8 * 625))
        self._last = array("q", [_NO_LAST])
        #: The Python tier's RNG while it is ahead of ``_mt``, else None.
        self._rng: random.Random | None = None
        #: The current phase's :class:`NativeMix`, built on first use.
        self._native: NativeMix | None = None

    #: The draw-ahead helper (:meth:`draw_ahead`), set on the instance
    #: while one runs; pickling drops it.
    _ahead: "_DrawAhead | None" = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_ahead", None)
        if self._rng is not None:
            state["_mt"] = array("q", self._rng.getstate()[1])
        state["_rng"] = state["_native"] = None
        return state

    def _start_next_phase(self) -> None:
        self._phase += 1
        self._mix, self._left, seed = self._phases[self._phase]
        self._rng = random.Random(seed)
        self._last[0] = _NO_LAST
        self._native = None

    def __next__(self) -> tuple[int, int, bool]:
        batch = self.take(1)
        if not batch:
            raise StopIteration
        return unpack_access(batch[0])

    def take(self, count: int) -> array:
        """Pop up to ``count`` packed accesses (shorter only at end of
        stream), as one ``array('q')``.

        This is the batch fast path the simulation engine drives
        (:func:`repro.coherence.smp.simulate_streaming`): one phase span
        at a time is drawn by the native ``mix_take`` or, without the
        native core, by :meth:`_draw`; or by a helper
        (:meth:`draw_ahead`), whose blocks are handed back whole.
        """
        n = max(0, min(count, self.remaining))
        if self._ahead is not None and n:
            out = self._ahead.take(n)
        else:
            # One exact-size block and no temporary (simulate_streaming).
            out = array("q", [0]) * n
            self._fill(out, 0, n)
        self.remaining -= n
        self.position += n
        return out

    def draw_ahead(self, sizes: Iterable[int]) -> None:
        """Draw the next blocks, ``sizes`` accesses each, on a helper
        thread, each while the caller consumes the one before.

        Call it where every block drawn ahead was taken; the caller then
        takes exactly ``sizes``, in order, and a take that splits a
        block raises :class:`~repro.errors.TraceError`.  The helper
        draws nothing past ``sizes``, so once its blocks are taken the
        stream pickles with nothing drawn ahead.  It starts only with
        the native core (``mix_take`` releases the GIL) and two CPUs
        (:func:`~repro.core._cmachine.thread_budget`).
        """
        self.stop_drawing()
        self._ahead = _DrawAhead(self, sizes) if (
            _cmachine.thread_budget() > 1 and _cmachine.library() is not None
        ) else None

    def stop_drawing(self) -> None:
        """Stop and join the helper; a block it drew is still taken."""
        if self._ahead is not None:
            self._ahead.stop()

    def _fill(self, out: array, lo: int, hi: int) -> None:
        """Draw ``out[lo:hi]``, one phase span at a time."""
        lib = _cmachine.library()
        i = lo
        while i < hi:
            while self._left == 0:
                self._start_next_phase()
            stop = i + min(hi - i, self._left)
            if lib is None:
                self._draw(out, i, stop)
            else:
                if self._rng is not None:
                    # An equal-length slice copies in place: the native
                    # mix keeps this buffer's address.
                    self._mt[:] = array("q", self._rng.getstate()[1])
                    self._rng = None
                if self._native is None:
                    self._native = self._mix.native(self._mt, self._last)
                lib.mix_take(
                    ctypes.byref(self._native),
                    out.buffer_info()[0] + 8 * i, stop - i,
                )
            self._left -= stop - i
            i = stop

    def _draw(self, out: array, lo: int, hi: int) -> None:
        """The Python tier: fill ``out[lo:hi]`` from the current phase,
        with the RNG, repeat fraction and pattern picker hoisted."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random()
            rng.setstate((_RNG_VERSION, tuple(self._mt), None))
        rand = rng.random
        mix = self._mix
        repeat_frac = mix.repeat_frac
        pick = mix._pick
        last = self._last[0]
        as_load = ~WRITE_BIT
        for j in range(lo, hi):
            if last >= 0 and rand() < repeat_frac:
                out[j] = last & as_load  # the same access, as a load
            else:
                last = pick(rng).draw(rng)
                out[j] = last
        self._last[0] = last

    def checkpoint(self) -> bytes:
        """Serialise the full generation state (RNG, patterns, position).

        .. warning:: the blob is a pickle — resume only checkpoints you
           wrote yourself, from storage you trust.
        """
        return pickle.dumps(self)


class _DrawAhead:
    """A helper thread filling a stream's next blocks, one ahead.  The
    caller allocates each (from its own malloc arena) as it takes the
    one before; ``remaining`` and ``position`` stay the caller's."""

    def __init__(self, stream: MixStream, sizes: Iterable[int]) -> None:
        self._sizes = iter(sizes)
        self._blocks, self._wanted = queue.SimpleQueue(), queue.SimpleQueue()
        self._error: Exception | None = None
        self._thread = threading.Thread(
            target=self._fill, args=(stream._fill,),
            name="repro-draw-ahead", daemon=True,
        )
        self._ask()
        self._thread.start()

    def _ask(self) -> None:
        """Hand the helper the next block to fill, or None to end."""
        size = next(self._sizes, 0)
        self._wanted.put(array("q", [0]) * size if size else None)

    def _fill(self, fill) -> None:
        try:
            for block in iter(self._wanted.get, None):
                fill(block, 0, len(block))
                self._blocks.put(block)
                del block
        except Exception as error:  # raised again on the caller's thread
            self._error = error
        finally:
            self._blocks.put(None)

    def take(self, n: int) -> array:
        """The next drawn block, which must hold ``n`` accesses."""
        block = self._blocks.get()
        if block is None:  # the helper ended, for later takes too
            self._blocks.put(None)
            if self._error is not None:
                raise self._error
        if block is None or len(block) != n:
            raise TraceError(f"take({n}) is not the next drawn block")
        self._ask()
        return block

    def stop(self) -> None:
        """Let the helper fill what is queued, then join it."""
        self._wanted.put(None)
        self._thread.join()
