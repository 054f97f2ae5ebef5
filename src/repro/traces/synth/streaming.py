"""Streaming sweeps over large partitioned arrays (Em3d-like).

Each processor repeatedly sweeps its own partition of a large array —
far bigger than the L2 — so nearly every block access misses and snoops
the bus, and almost no snoop finds a remote copy.  This is the
snoop-dominated regime of Em3d and Ocean in Table 2 (snoop-induced L2
accesses several times the local access count).  The sequential block
order gives exclude-JETTYs with presence vectors (VEJ) their spatial
locality to exploit.

An optional ``remote_frac`` redirects some reads to the *next* CPU's
partition boundary, modelling Em3d's remote graph edges (its input is
"15% remote"): those reads find one remote copy.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.traces.access import ADDRESS_SHIFT, CPU_SHIFT
from repro.traces.synth.base import (
    SWEEP,
    WORD_BYTES,
    NativePattern,
    Pattern,
    address_of,
    checked_cpus,
)


class StreamingSweep(Pattern):
    """Cyclic sequential sweeps over per-CPU partitions.

    Args:
        cpus: the sweeping processors (each listed once).
        bases: partition base per CPU.
        partition_bytes: partition span per CPU (should exceed the L2).
        write_frac: fraction of stores (updates written during the sweep).
        remote_frac: fraction of accesses that read from the next CPU's
            partition instead (boundary/ghost-cell reads).
        boundary_bytes: span of the neighbour window those reads touch.
    """

    def __init__(
        self,
        cpus: Sequence[int],
        bases: Sequence[int],
        partition_bytes: int,
        write_frac: float = 0.25,
        remote_frac: float = 0.0,
        boundary_bytes: int = 4096,
    ) -> None:
        if len(cpus) != len(bases):
            raise ConfigurationError("need one partition base per CPU")
        if partition_bytes < WORD_BYTES:
            raise ConfigurationError(f"partition too small: {partition_bytes} B")
        self.cpus = checked_cpus(cpus)
        self.bases = array("q", bases)
        self.partition_bytes = partition_bytes
        self.write_frac = write_frac
        self.remote_frac = remote_frac
        self.boundary_bytes = min(boundary_bytes, partition_bytes)
        if remote_frac > 0.0 and self.boundary_bytes < WORD_BYTES:
            raise ConfigurationError(
                f"ghost-read window too small: {self.boundary_bytes} B"
            )
        #: Per slot: the sweep cursor's offset into its partition.
        self.state = array("q", [0]) * len(self.cpus)
        self._n_slots = len(self.cpus)
        self._boundary_words = self.boundary_bytes // WORD_BYTES

    def draw(self, rng: random.Random) -> int:
        # rng._randbelow(n) is exactly what randrange(n) calls for a
        # positive stop — same bits consumed, same value, minus the
        # argument-parsing overhead (this is the per-access hot path).
        slot = rng._randbelow(self._n_slots)
        cpu_bits = self.cpus[slot] << CPU_SHIFT

        if self.remote_frac > 0.0 and rng.random() < self.remote_frac:
            # Ghost-cell read trailing just behind the neighbour's sweep
            # cursor — data the neighbour touched recently and still
            # caches, so the snoop finds exactly one remote copy.
            neighbour = slot + 1
            if neighbour == self._n_slots:
                neighbour = 0
            delta = (1 + rng._randbelow(self._boundary_words)) * WORD_BYTES
            offset = (self.state[neighbour] - delta) % self.partition_bytes
            return (self.bases[neighbour] + offset) << ADDRESS_SHIFT | cpu_bits

        offset = self.state[slot]
        self.state[slot] = (offset + WORD_BYTES) % self.partition_bytes
        return (
            (self.bases[slot] + offset) << ADDRESS_SHIFT
            | cpu_bits
            | (rng.random() < self.write_frac)
        )

    def native(self) -> NativePattern:
        # words: neighbour-window words; bytes: the partition span.
        return NativePattern(
            kind=SWEEP, n=self._n_slots, n_cpus=self._n_slots,
            cpus=address_of(self.cpus), bases=address_of(self.bases),
            state=address_of(self.state), words=self._boundary_words,
            bytes=self.partition_bytes, write_frac=self.write_frac,
            remote_frac=self.remote_frac,
        )
