"""Migratory sharing through small critical sections.

Objects protected by locks migrate from processor to processor: each
holder reads then updates the object before the next processor takes it
(paper §3.1 — "migratory sharing in small critical sections when data
migrates from one processor to another").  The take-over read finds
exactly one remote copy (the previous holder's dirty line) and the update
invalidates it, so this pattern feeds both the 1-remote-hit mass and the
upgrade traffic of Table 3.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.traces.access import ADDRESS_SHIFT, CPU_SHIFT
from repro.traces.synth.base import (
    MIGRATE,
    WORD_BYTES,
    NativePattern,
    Pattern,
    address_of,
    checked_cpus,
)


class MigratoryPattern(Pattern):
    """Round-robin object migration with read-modify-write holders.

    Args:
        cpus: processors participating in the migration ring.
        base: byte address of the first object.
        n_objects: number of migrating objects (each one L2 block).
        object_bytes: object size; one 64-byte block by default so a
            hand-off is a single coherence transfer.
        holder_accesses: accesses each holder performs before the object
            migrates (first is the take-over read, the rest alternate
            read/write within the object).
    """

    def __init__(
        self,
        cpus: Sequence[int],
        base: int,
        n_objects: int = 64,
        object_bytes: int = 64,
        holder_accesses: int = 6,
    ) -> None:
        if len(cpus) < 2:
            raise ConfigurationError("migratory sharing needs >= 2 CPUs")
        if n_objects < 1:
            raise ConfigurationError("need at least one migrating object")
        self.cpus = checked_cpus(cpus, distinct=False)
        self.base = base
        self._base = array("q", [base])  # the native port's view of it
        self.n_objects = n_objects
        self.object_bytes = object_bytes
        self.holder_accesses = max(2, holder_accesses)
        #: Per object: holder index into cpus, accesses done this hold.
        self.state = array("q", [0, 0]) * n_objects
        self._words = max(1, object_bytes // WORD_BYTES)

    def draw(self, rng: random.Random) -> int:
        # randrange(n)'s fast path is exactly _randbelow(n) — same draw,
        # no argument parsing (this runs once per generated access).
        obj = rng._randbelow(self.n_objects)
        state = self.state
        at = 2 * obj
        holder_index = state[at]
        done = state[at + 1]
        cpu = self.cpus[holder_index]

        address = (
            self.base + obj * self.object_bytes
            + (done % self._words) * WORD_BYTES
        )
        # Take-over access is a read; later accesses alternate write/read,
        # ending the hold with a write (the critical-section update).
        is_write = done > 0 and (done % 2 == 1 or done == self.holder_accesses - 1)

        done += 1
        if done >= self.holder_accesses:
            state[at] = (holder_index + 1) % len(self.cpus)
            done = 0
        state[at + 1] = done
        return address << ADDRESS_SHIFT | cpu << CPU_SHIFT | is_write

    def native(self) -> NativePattern:
        # n: objects; n_cpus: the ring; words: words per object; bytes:
        # the object size; count: accesses per hold.
        return NativePattern(
            kind=MIGRATE, n=self.n_objects, n_cpus=len(self.cpus),
            cpus=address_of(self.cpus), bases=address_of(self._base),
            state=address_of(self.state), words=self._words,
            bytes=self.object_bytes, count=self.holder_accesses,
        )
