"""Vector-Exclude-JETTY (VEJ): EJ with presence vectors (paper §3.1).

A VEJ entry covers a *chunk* of ``vector_bits`` consecutive L2 blocks.  The
entry stores the chunk tag plus an n-bit present-vector (PV); PV bit *i*
set means block ``chunk_base + i`` is guaranteed absent from the local L2.
This exploits spatial locality in the snoop stream (e.g. another processor
streaming through a region none of which is cached here): one entry filters
snoops to n neighbouring blocks.

The paper's Figure 3(a) example — 40-bit PA, 256-byte blocks, 4-bit PV —
stores the upper 30 tag bits and uses the low 2 block-number bits to select
the PV bit.  We generalise to any power-of-two vector length.
"""

from __future__ import annotations

from array import array

from repro.core.base import SnoopFilter
from repro.core.exclude import valid_rows, write_rows
from repro.errors import ConfigurationError, InvariantError
from repro.utils.bitops import ilog2, mask


class VectorExcludeJetty(SnoopFilter):
    """Set-associative VEJ, named ``VEJ-<sets>x<ways>-<vector_bits>``.

    Args:
        sets: number of sets (power of two).
        ways: associativity.
        vector_bits: presence-vector length; must be a power of two.
        tag_bits: block-address width for storage accounting.

    The state is kept in the layout the compiled walk reads (``walk`` in
    ``core/machine.c``): each set is a ``ways``-wide row of its valid
    chunk numbers, least recently used first, in one flat ``int64``
    array, with the chunks' presence vectors in a parallel ``uint64``
    array and the number of valid chunks per set in an ``int32`` one.
    Vectors wider than 64 bits keep a plain list in the vectors' place,
    on the same code (the compiled walk does not take them).
    """

    def __init__(
        self, sets: int, ways: int, vector_bits: int, tag_bits: int = 30
    ) -> None:
        super().__init__()
        if ways <= 0:
            raise ConfigurationError(f"VEJ associativity must be >= 1, got {ways}")
        self.sets = sets
        self.ways = ways
        self.vector_bits = vector_bits
        self.tag_bits = tag_bits
        self._vec_shift = ilog2(vector_bits)
        self._vec_mask = mask(self._vec_shift)
        self._index_bits = ilog2(sets)
        self._index_mask = mask(self._index_bits)
        self.name = f"VEJ-{sets}x{ways}-{vector_bits}"
        self._rows = array("q", bytes(8 * sets * ways))
        self._vecs = (
            array("Q", bytes(8 * sets * ways)) if vector_bits <= 64
            else [0] * (sets * ways)
        )
        self._fill = array("i", bytes(4 * sets))

    @property
    def _entries(self) -> list[list[tuple[int, int] | None]]:
        """Inspection view: ``(chunk, vector)`` per valid entry of each
        set, LRU first, padded with None to the associativity."""
        ways = self.ways
        return [
            [*zip(chunks, vectors), *[None] * (ways - len(chunks))]
            for chunks, vectors in zip(
                valid_rows(self._rows, self._fill, ways),
                valid_rows(self._vecs, self._fill, ways),
            )
        ]

    # ------------------------------------------------------------------

    def probe(self, block: int) -> bool:
        """Hot-path override: counting, split, and scan in one frame.

        A chunk hit moves to the end of its row (most recently used)
        whether or not its vector filters the block.
        """
        counts = self.counts
        counts.probes += 1
        chunk = block >> self._vec_shift
        index = chunk & self._index_mask
        base = index * self.ways
        rows = self._rows
        row = rows[base:base + self._fill[index]]
        if chunk not in row:
            return True
        at = base + row.index(chunk)
        last = base + len(row) - 1
        vecs = self._vecs
        vector = vecs[at]
        if at != last:
            rows[at:last] = rows[at + 1:last + 1]
            rows[last] = chunk
            vecs[at:last] = vecs[at + 1:last + 1]
            vecs[last] = vector
        if vector >> (block & self._vec_mask) & 1:
            counts.filtered += 1
            return False
        return True

    def _on_snoop_outcome(self, block: int, present: bool) -> None:
        if present:
            return
        chunk = block >> self._vec_shift
        bit = 1 << (block & self._vec_mask)
        index = chunk & self._index_mask
        ways = self.ways
        base = index * ways
        rows, vecs, fill = self._rows, self._vecs, self._fill
        n = fill[index]
        row = rows[base:base + n]
        if chunk in row:
            at = base + row.index(chunk)
            vector = vecs[at] | bit
        else:
            # A free slot, or else the LRU entry, makes way.
            if n < ways:
                fill[index] = n + 1
                at = base + n
            else:
                at = base
            vector = bit
        last = base + fill[index] - 1
        if at != last:
            rows[at:last] = rows[at + 1:last + 1]
            vecs[at:last] = vecs[at + 1:last + 1]
        rows[last] = chunk
        vecs[last] = vector
        self.counts.entry_writes += 1

    def _on_block_allocated(self, block: int) -> None:
        """Clear the PV bit for a block the L2 just filled (safety)."""
        chunk = block >> self._vec_shift
        index = chunk & self._index_mask
        base = index * self.ways
        rows, vecs, fill = self._rows, self._vecs, self._fill
        end = base + fill[index]
        row = rows[base:end]
        if chunk not in row:
            return
        at = base + row.index(chunk)
        vector = vecs[at] & ~(1 << (block & self._vec_mask))
        if vector:
            vecs[at] = vector
        else:  # the entry empties: close the gap
            rows[at:end - 1] = rows[at + 1:end]
            vecs[at:end - 1] = vecs[at + 1:end]
            fill[index] -= 1
        self.counts.entry_writes += 1

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        """Chunk tag plus present-vector per entry."""
        chunk_tag_bits = (self.tag_bits - self._vec_shift) - self._index_bits
        return self.sets * self.ways * (chunk_tag_bits + self.vector_bits)

    def _snapshot_state(self):
        return {
            "rows": valid_rows(self._rows, self._fill, self.ways),
            "vectors": valid_rows(self._vecs, self._fill, self.ways),
        }

    def _restore_state(self, state) -> None:
        rows, vectors = state["rows"], state["vectors"]
        if [len(row) for row in rows] != [len(row) for row in vectors]:
            raise InvariantError(f"{self.name}: malformed sets")
        write_rows(self, self._rows, rows)
        write_rows(self, self._vecs, vectors)

    def asserted_bits(self) -> int:
        """Total PV bits currently set (for tests and inspection)."""
        return sum(
            bin(vector).count("1")
            for row in valid_rows(self._vecs, self._fill, self.ways)
            for vector in row
        )
