"""Exclude-JETTY (EJ): a record of blocks known to be absent (paper §3.1).

The EJ is a small set-associative array of ``(tag, present)`` entries.  A
valid entry for block B is a *guarantee* that B is not cached in the local
L2.  Entries are:

* **allocated** when a snoop misses the whole block in the local L2 (the
  block tag was absent) — subsequent snoops to the same block are filtered
  while the entry survives;
* **invalidated** when a local miss fills the corresponding block — this is
  the safety-critical update: the moment the block becomes cached the EJ
  must stop claiming it is absent.

Block evictions need no EJ update: an absent block simply has no entry,
which is always safe (the EJ only errs by failing to filter).
"""

from __future__ import annotations

from array import array

from repro.core.base import SnoopFilter
from repro.errors import ConfigurationError, InvariantError
from repro.utils.bitops import ilog2, mask


class ExcludeJetty(SnoopFilter):
    """Set-associative exclude-JETTY, named ``EJ-<sets>x<ways>``.

    Args:
        sets: number of sets (power of two).
        ways: associativity.
        tag_bits: width of the stored tag, used only for storage accounting
            (the model stores full block numbers; hardware would store
            ``block_address_bits - log2(sets)`` bits).

    The state is kept in the layout the compiled walk reads (``walk`` in
    ``core/machine.c``), so a compiled replayer adopts these buffers as
    they are: each set is a ``ways``-wide row of its valid blocks, most
    recently used first, in one flat ``int64`` array, with the number of
    valid blocks per set in an ``int32`` one.  Way placement is never
    observable, so the recency order is the whole state of a set.
    """

    def __init__(self, sets: int, ways: int, tag_bits: int = 30) -> None:
        super().__init__()
        if ways <= 0:
            raise ConfigurationError(f"EJ associativity must be >= 1, got {ways}")
        self.sets = sets
        self.ways = ways
        self.tag_bits = tag_bits
        self._index_bits = ilog2(sets)
        self._index_mask = mask(self._index_bits)
        self.name = f"EJ-{sets}x{ways}"
        self._rows = array("q", bytes(8 * sets * ways))
        self._fill = array("i", bytes(4 * sets))

    # ------------------------------------------------------------------

    def probe(self, block: int) -> bool:
        """Hot-path override: counting and lookup in one frame.

        The tag scan runs over a copy of the set's valid slots, at C
        level (a membership test, cheaper on a miss than catching
        ``array.index``'s ``ValueError``).  A hit moves to the front of
        its row (most recently used).
        """
        counts = self.counts
        counts.probes += 1
        index = block & self._index_mask
        base = index * self.ways
        rows = self._rows
        row = rows[base:base + self._fill[index]]
        if block not in row:
            return True
        at = row.index(block)
        if at:
            rows[base + 1:base + at + 1] = row[:at]
            rows[base] = block
        counts.filtered += 1
        return False

    def _on_snoop_outcome(self, block: int, present: bool) -> None:
        """Allocate an entry when the snoop missed the whole block."""
        if present:
            return
        index = block & self._index_mask
        ways = self.ways
        base = index * ways
        rows, fill = self._rows, self._fill
        n = fill[index]
        row = rows[base:base + n]
        if block in row:
            # Refresh an existing entry rather than duplicating it.
            at = row.index(block)
        else:
            # A free slot, or else the LRU entry, makes way.
            if n < ways:
                fill[index] = n + 1
            at = min(n, ways - 1)
            self.counts.entry_writes += 1
        rows[base + 1:base + at + 1] = row[:at]
        rows[base] = block

    def _on_block_allocated(self, block: int) -> None:
        """Safety-critical: drop any entry claiming ``block`` is absent."""
        index = block & self._index_mask
        base = index * self.ways
        rows, fill = self._rows, self._fill
        n = fill[index]
        row = rows[base:base + n]
        if block not in row:
            return
        at = row.index(block)
        rows[base + at:base + n - 1] = row[at + 1:]
        fill[index] = n - 1
        self.counts.entry_writes += 1

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        """Tag plus present bit per entry (paper §3.1)."""
        per_entry = (self.tag_bits - self._index_bits) + 1
        return self.sets * self.ways * per_entry

    def valid_entries(self) -> int:
        """Number of currently valid entries (for tests and inspection)."""
        return sum(self._fill)

    def contains(self, block: int) -> bool:
        """True if the EJ currently records ``block`` as absent."""
        index = block & self._index_mask
        base = index * self.ways
        return block in self._rows[base:base + self._fill[index]]

    def _snapshot_state(self):
        return {"rows": valid_rows(self._rows, self._fill, self.ways)}

    def _restore_state(self, state) -> None:
        write_rows(self, self._rows, state["rows"])


def valid_rows(buffer, fill, ways: int) -> list[list[int]]:
    """Each set's valid slots of a flat row buffer, in row order."""
    return [
        list(buffer[base:base + n])
        for base, n in zip(range(0, len(buffer), ways), fill)
    ]


def write_rows(snoop_filter, buffer, rows) -> None:
    """Write per-set ``rows`` into ``buffer`` **in place** (a compiled
    replayer holds its address) and set ``snoop_filter``'s fill counts.

    Refuses rows the walk would overrun — not one per set, or longer
    than the associativity — with :class:`InvariantError`.
    """
    ways, fill = snoop_filter.ways, snoop_filter._fill
    if len(rows) != len(fill) or any(len(row) > ways for row in rows):
        raise InvariantError(f"{snoop_filter.name}: malformed sets")
    for index, row in enumerate(rows):
        base = index * ways
        for offset, value in enumerate(row):
            buffer[base + offset] = value
        fill[index] = len(row)
