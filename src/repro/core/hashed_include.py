"""Hashed include-JETTY: the paper's footnote design (§3.2, footnote 3).

The paper observes that the IJ's sub-array organisation "may in effect be
an implementation of a hash function.  If so, we could use a single p-bit
array accessed through a carefully-tuned hash function."  This module
builds that design: one counter/p-bit array probed through ``k``
independent hash functions — a counting Bloom filter over the cached
block set.

Compared with the field-sliced IJ, hashing decorrelates the probe
positions from address structure: it cannot exploit region locality the
way the IJ's high-order fields do, but it also cannot be defeated by an
adversarial address layout.  The ``ablation-hashed-include`` exhibit
(``src/repro/analysis/exhibits.py``; ``repro exhibits
ablation-hashed-include``) compares both at equal p-bit budgets.
"""

from __future__ import annotations

from repro.core.base import SnoopFilter
from repro.errors import CoherenceError, ConfigurationError
from repro.utils.bitops import mask

#: Odd multiplicative constants (Knuth-style) for the hash family.
_HASH_CONSTANTS = (
    0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F,
    0x165667B1, 0xD3A2646D, 0xFD7046C5, 0xB55A4F09,
)


class HashedIncludeJetty(SnoopFilter):
    """Counting-Bloom include filter, named ``HIJ-<entry_bits>x<k>``.

    Args:
        entry_bits: log2 of the single array's entry count.
        k: number of hash functions (1 <= k <= 8).
        counter_bits: counter width for storage accounting.
    """

    def __init__(self, entry_bits: int, k: int, counter_bits: int = 14) -> None:
        super().__init__()
        if entry_bits <= 0:
            raise ConfigurationError(f"entry_bits must be positive, got {entry_bits}")
        if not 1 <= k <= len(_HASH_CONSTANTS):
            raise ConfigurationError(
                f"k must be in 1..{len(_HASH_CONSTANTS)}, got {k}"
            )
        self.entry_bits = entry_bits
        self.k = k
        self.counter_bits = counter_bits
        self.name = f"HIJ-{entry_bits}x{k}"
        self._mask = mask(entry_bits)
        self._shift = 32 - entry_bits
        self._counters = [0] * (1 << entry_bits)

    # ------------------------------------------------------------------

    def indexes(self, block: int) -> tuple[int, ...]:
        """The ``k`` probe positions for a block number."""
        positions = []
        for constant in _HASH_CONSTANTS[: self.k]:
            mixed = (block * constant) & 0xFFFFFFFF
            positions.append((mixed >> self._shift) & self._mask)
        return tuple(positions)

    def _probe(self, block: int) -> bool:
        counters = self._counters
        for index in self.indexes(block):
            if counters[index] == 0:
                return False
        return True

    def _on_block_allocated(self, block: int) -> None:
        counters = self._counters
        for index in self.indexes(block):
            if counters[index] == 0:
                self.counts.pbit_writes += 1
            counters[index] += 1
        self.counts.cnt_updates += self.k

    def _on_block_evicted(self, block: int) -> None:
        counters = self._counters
        for index in self.indexes(block):
            if counters[index] == 0:
                raise CoherenceError(
                    f"HIJ counter underflow for block {block:#x} in {self.name}"
                )
            counters[index] -= 1
            if counters[index] == 0:
                self.counts.pbit_writes += 1
        self.counts.cnt_updates += self.k

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        return self.pbit_bits() + self.cnt_bits()

    def pbit_bits(self) -> int:
        return 1 << self.entry_bits

    def cnt_bits(self) -> int:
        return (1 << self.entry_bits) * self.counter_bits

    def tracked_blocks(self) -> int:
        """Allocations currently recorded (total count / k)."""
        return sum(self._counters) // self.k

    def _snapshot_state(self):
        return {"counters": list(self._counters)}

    def _restore_state(self, state) -> None:
        self._counters = list(state["counters"])
