"""Include-JETTY (IJ): a counted superset of cached blocks (paper §3.2).

The IJ consists of ``n_arrays`` sub-arrays of ``2**entry_bits`` entries
each.  Sub-array *i* is indexed by bits ``[i*skip, i*skip + entry_bits)``
of the block address, so consecutive indexes overlap when
``skip < entry_bits`` (the paper found partially overlapped indexes more
accurate — see the ablation bench).  Each entry holds a presence bit and a
counter recording how many currently cached blocks map to it.

On a snoop only the presence bits are read; if *any* sub-array's bit is
zero the block cannot be cached (each sub-array encodes a superset of the
cached blocks, and the intersection of supersets is a superset).  On every
L2 allocation/eviction one counter per sub-array is incremented or
decremented, keeping the encoding exactly coherent — this is what
distinguishes the IJ from a plain Bloom filter and what makes deletions
safe.

Hardware encoding note: the paper stores ``cnt = matches - 1`` with a
separate p-bit so a count value of 0 means one matching block.  We model
the counter as the plain match count (p-bit == ``count > 0``) and account
for the paper's encoding only in the storage arithmetic.
"""

from __future__ import annotations

from array import array

from repro.core.base import SnoopFilter
from repro.errors import CoherenceError, ConfigurationError, InvariantError
from repro.utils.bitops import mask


class IncludeJetty(SnoopFilter):
    """Counting include-JETTY, named ``IJ-<entry_bits>x<n_arrays>x<skip>``.

    Args:
        entry_bits: log2 of the entries per sub-array (``E`` in the paper).
        n_arrays: number of sub-arrays probed in parallel (``N``).
        skip: bit distance between consecutive sub-array index fields
            (``S``); ``skip < entry_bits`` gives partially overlapped
            indexes.
        counter_bits: counter width for storage accounting.  The paper's
            pessimistic choice is ``log2(number of L2 blocks)`` (14 bits at
            paper scale).  The in-memory model uses unbounded integers; the
            width only matters for Table 4 and the energy model.
        addr_bits: block-address width; index fields beyond this width read
            as zero, exactly as unconnected address lines would in hardware.
    """

    def __init__(
        self,
        entry_bits: int,
        n_arrays: int,
        skip: int,
        counter_bits: int = 14,
        addr_bits: int = 30,
    ) -> None:
        super().__init__()
        if entry_bits <= 0 or n_arrays <= 0 or skip <= 0:
            raise ConfigurationError(
                "IJ parameters must be positive: "
                f"entry_bits={entry_bits}, n_arrays={n_arrays}, skip={skip}"
            )
        self.entry_bits = entry_bits
        self.n_arrays = n_arrays
        self.skip = skip
        self.counter_bits = counter_bits
        self.addr_bits = addr_bits
        self.name = f"IJ-{entry_bits}x{n_arrays}x{skip}"
        self._index_mask = mask(entry_bits)
        self._shifts = tuple(i * skip for i in range(n_arrays))
        #: Every sub-array's counters in one flat ``int32`` buffer, the
        #: layout the compiled walk reads (``walk`` in ``core/machine.c``):
        #: sub-array *i* is ``[i << entry_bits, (i + 1) << entry_bits)``.
        self._lanes = array("i", bytes(4 * n_arrays << entry_bits))
        #: (first counter, shift) per sub-array, paired once so the
        #: per-snoop probe loop does not rebuild a zip object.
        self._fields = tuple(
            (i << entry_bits, shift) for i, shift in enumerate(self._shifts)
        )

    # ------------------------------------------------------------------

    def indexes(self, block: int) -> tuple[int, ...]:
        """Return the ``n_arrays`` sub-array indexes for a block number."""
        m = self._index_mask
        return tuple((block >> s) & m for s in self._shifts)

    def probe(self, block: int) -> bool:
        """Hot-path override: counting and the lane scan in one frame."""
        counts = self.counts
        counts.probes += 1
        m = self._index_mask
        lanes = self._lanes
        for base, shift in self._fields:
            if not lanes[base | (block >> shift) & m]:
                counts.filtered += 1
                return False
        return True

    def _on_block_allocated(self, block: int) -> None:
        m = self._index_mask
        lanes = self._lanes
        for base, shift in self._fields:
            index = base | (block >> shift) & m
            if lanes[index] == 0:
                self.counts.pbit_writes += 1
            lanes[index] += 1
        self.counts.cnt_updates += self.n_arrays

    def _on_block_evicted(self, block: int) -> None:
        m = self._index_mask
        lanes = self._lanes
        for base, shift in self._fields:
            index = base | (block >> shift) & m
            if lanes[index] == 0:
                raise CoherenceError(
                    f"IJ counter underflow for block {block:#x} in {self.name}: "
                    "eviction without a matching allocation"
                )
            lanes[index] -= 1
            if lanes[index] == 0:
                self.counts.pbit_writes += 1
        self.counts.cnt_updates += self.n_arrays

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        """Presence-bit arrays plus counter arrays (paper Table 4)."""
        return self.pbit_bits() + self.cnt_bits()

    def pbit_bits(self) -> int:
        """Bits in the presence-bit arrays (read on every snoop)."""
        return self.n_arrays * (1 << self.entry_bits)

    def cnt_bits(self) -> int:
        """Bits in the counter arrays (touched only on allocate/evict)."""
        return self.n_arrays * (1 << self.entry_bits) * self.counter_bits

    def counters(self, index: int) -> list[int]:
        """Sub-array ``index``'s counters, by entry."""
        base = index << self.entry_bits
        return self._lanes[base:base + (1 << self.entry_bits)].tolist()

    def tracked_blocks(self) -> int:
        """Number of allocations currently recorded (sub-array 0 total)."""
        return sum(self._lanes[:1 << self.entry_bits])

    def max_counter(self) -> int:
        """Largest live counter value (tests use this to bound widths)."""
        return max(self._lanes)

    def _snapshot_state(self):
        return {"lanes": self._lanes.tolist()}

    def _restore_state(self, state) -> None:
        """Write the lanes **in place** (a compiled replayer holds their
        address); refuse a count the walk would overrun."""
        lanes = state["lanes"]
        if len(lanes) != len(self._lanes):
            raise InvariantError(f"{self.name}: malformed lanes")
        self._lanes[:] = array("i", lanes)
