"""Producer/consumer sharing between processor pairs.

"The most common form of (either migratory or producer/consumer) sharing
occurs among two processors resulting in snoop misses in all but a single
L2" (paper §2).  A pair alternates phases: the producer writes a buffer,
then the consumer reads it.  Consumer read misses snoop the bus and find
exactly one copy (the producer's dirty line); producer rewrites invalidate
the consumer's copy and likewise find one remote copy.  This pattern is
the main source of Table 3's 1-remote-hit mass.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.traces.access import ADDRESS_SHIFT, CPU_SHIFT
from repro.traces.synth.base import (
    PAIRS,
    WORD_BYTES,
    NativePattern,
    Pattern,
    address_of,
    checked_cpus,
)


class ProducerConsumer(Pattern):
    """Phase-alternating buffer hand-off between CPU pairs.

    Args:
        pairs: ``(producer, consumer)`` CPU pairs.
        bases: buffer base address per pair.
        buffer_bytes: size of each pair's shared buffer.
        consumer_reads_per_word: how many times the consumer re-reads each
            word per phase (models reduction loops reading inputs twice).
    """

    def __init__(
        self,
        pairs: Sequence[tuple[int, int]],
        bases: Sequence[int],
        buffer_bytes: int = 8192,
        consumer_reads_per_word: int = 1,
    ) -> None:
        if len(pairs) != len(bases):
            raise ConfigurationError("need one buffer base per pair")
        if buffer_bytes < WORD_BYTES:
            raise ConfigurationError(f"buffer too small: {buffer_bytes} B")
        self.pairs = tuple(pairs)
        #: Producer then consumer, per pair.
        self.cpus = checked_cpus(
            [cpu for pair in self.pairs for cpu in pair], distinct=False
        )
        self.bases = array("q", bases)
        self.words = buffer_bytes // WORD_BYTES
        self.consumer_reads = max(1, consumer_reads_per_word)
        #: Per pair: producing (1) or consuming (0), word position,
        #: repeat counter.
        self.state = array("q", [1, 0, 0]) * len(self.pairs)
        self._n_pairs = len(self.pairs)

    def draw(self, rng: random.Random) -> int:
        # Same draw as randrange(len(pairs)) without its argument parsing.
        pair_index = rng._randbelow(self._n_pairs)
        state = self.state
        at = 3 * pair_index
        producing = state[at]
        position = state[at + 1]

        address = self.bases[pair_index] + position * WORD_BYTES
        if producing:
            cpu = self.cpus[2 * pair_index]
            position += 1
            if position >= self.words:
                state[at] = 0
                position = 0
        else:
            cpu = self.cpus[2 * pair_index + 1]
            repeat = state[at + 2] + 1
            if repeat >= self.consumer_reads:
                repeat = 0
                position += 1
                if position >= self.words:
                    state[at] = 1
                    position = 0
            state[at + 2] = repeat
        state[at + 1] = position
        return address << ADDRESS_SHIFT | cpu << CPU_SHIFT | producing

    def native(self) -> NativePattern:
        # words: buffer words; count: reads per word by the consumer.
        return NativePattern(
            kind=PAIRS, n=self._n_pairs, n_cpus=len(self.cpus),
            cpus=address_of(self.cpus), bases=address_of(self.bases),
            state=address_of(self.state), words=self.words,
            count=self.consumer_reads,
        )
