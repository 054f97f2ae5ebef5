"""Per-processor private working sets.

Models the dominant access class in most of the paper's applications:
data structures touched by a single processor (paper §2 — "a substantial
fraction of L2 misses are to data structures only accessed by a single
processor, resulting in snoop misses in all L2s").  Misses here produce
bus reads whose snoops find no remote copy — the 0-remote-hit mass of
Table 3 — and their locality (sequential runs, hot working-set front) is
what exclude-JETTYs capture.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.traces.access import ADDRESS_SHIFT, CPU_SHIFT
from repro.traces.synth.base import (
    WALK,
    WORD_BYTES,
    NativePattern,
    Pattern,
    address_of,
    checked_cpus,
    geometric_run,
    skewed_offset,
)


class PrivateWorkingSet(Pattern):
    """Each CPU walks its own region with temporal and spatial locality.

    Args:
        cpus: the processors this pattern covers (each listed once).
        bases: region base byte address per CPU (same length as ``cpus``).
        ws_bytes: working-set span per CPU.  A span larger than the L2
            produces capacity/conflict misses (and hence snoops).
        write_frac: fraction of accesses that are stores.
        run_mean: mean sequential-run length in words (spatial locality).
        alpha: temporal skew; larger concentrates reuse near the region
            start (see :func:`~repro.traces.synth.base.skewed_offset`).
    """

    def __init__(
        self,
        cpus: Sequence[int],
        bases: Sequence[int],
        ws_bytes: int,
        write_frac: float = 0.3,
        run_mean: int = 8,
        alpha: float = 2.0,
    ) -> None:
        if len(cpus) != len(bases):
            raise ConfigurationError("need one region base per CPU")
        if ws_bytes < WORD_BYTES:
            raise ConfigurationError(f"working set too small: {ws_bytes} B")
        self.cpus = checked_cpus(cpus)
        self.bases = array("q", bases)
        self.ws_bytes = ws_bytes
        self.write_frac = write_frac
        self.run_mean = run_mean
        self.alpha = alpha
        #: Per slot: the next address and the accesses left in its run.
        self.state = array("q", [v for base in bases for v in (base, 0)])
        self._n_slots = len(self.cpus)
        self._ws_words = ws_bytes // WORD_BYTES
        # Python-tier constants per slot: the run limit, the CPU field.
        self._limits = tuple(base + ws_bytes for base in bases)
        self._cpu_bits = tuple(cpu << CPU_SHIFT for cpu in cpus)

    def draw(self, rng: random.Random) -> int:
        # Same draw as randrange(len(cpus)) without its argument parsing.
        slot = rng._randbelow(self._n_slots)
        state = self.state
        at = slot + slot
        address = state[at]
        remaining = state[at + 1]
        if remaining <= 0 or address >= self._limits[slot]:
            offset = skewed_offset(rng, self._ws_words, self.alpha)
            address = self.bases[slot] + offset * WORD_BYTES
            remaining = geometric_run(rng, self.run_mean)
        state[at] = address + WORD_BYTES
        state[at + 1] = remaining - 1
        return (
            address << ADDRESS_SHIFT
            | self._cpu_bits[slot]
            | (rng.random() < self.write_frac)
        )

    def native(self) -> NativePattern:
        # words: working-set words; bytes: working-set bytes (the run
        # limit); count: the mean run length.
        return NativePattern(
            kind=WALK, n=self._n_slots, n_cpus=self._n_slots,
            cpus=address_of(self.cpus), bases=address_of(self.bases),
            state=address_of(self.state), words=self._ws_words,
            bytes=self.ws_bytes, count=self.run_mean,
            write_frac=self.write_frac, alpha=self.alpha,
        )
