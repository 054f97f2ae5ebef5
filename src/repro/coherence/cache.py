"""Direct-mapped cache models with subblocking.

Both levels are direct-mapped, as in the paper's system (§4.1: a 64 KB
direct-mapped L1 and a 1 MB direct-mapped L2):

* :class:`L2Cache` — the L2 model: per set one tag, a MOESI state per
  subblock and a bitmask of ``in_l1`` inclusion hints, in flat buffers.
* :class:`L1Cache` — the L1 model: one packed line word per set, sized
  to the L2 coherence unit, with dirty and writable bits, kept in one
  flat ``array('q')``.  Coherence state proper lives in the L2; the L1
  ``writable`` bit mirrors whether the L2 granted write permission (M/E).

Addresses handed to these classes are **block numbers** (byte address
shifted right by the level's block offset).  Block ``b`` can only live in
set ``b & mask``, so every lookup is one buffer index plus a tag
compare — :class:`~repro.coherence.node.CacheNode` inlines that compare
on its miss and snoop paths, and the native core does the same on the
same buffers (:meth:`repro.coherence.smp.SMPSystem._run_batch`).
"""

from __future__ import annotations

from array import array

from repro.coherence.config import CacheConfig
from repro.coherence.states import MOESI
from repro.errors import TraceError


#: An L1 line word: ``block << LINE_SHIFT | writable << 1 | dirty``.
LINE_SHIFT = 2
DIRTY = 1
WRITABLE = 2
#: The line word or tag of an empty slot (no block is negative).
EMPTY = -1


class L2Cache:
    """The direct-mapped, subblocked second-level cache, as flat buffers.

    Three buffers hold the whole state, indexed by set:

    * :attr:`tags` -- an ``array('q')``, the resident block or
      :data:`EMPTY`;
    * :attr:`states` -- a ``bytearray``, ``n_subblocks`` MOESI codes per
      set (:class:`~repro.coherence.states.MOESI` values);
    * :attr:`in_l1` -- an ``array('Q')``, per set a bitmask of the
      subblocks the L1 may hold (the inclusion hints).

    :class:`~repro.coherence.node.CacheNode` and the native core
    (``repro/core/machine.c``) both work on these buffers in place.  They
    are never resized -- :meth:`restore` rewrites them in place -- so
    their addresses stay valid.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.n_subblocks = config.subblocks_per_block
        self.tags = array("q", [EMPTY]) * config.n_sets
        self.states = bytearray(config.n_sets * self.n_subblocks)
        self.in_l1 = array("Q", [0]) * config.n_sets
        self.mask = config.n_sets - 1

    def find(self, block: int) -> int:
        """The set holding ``block``, or -1 on a tag miss."""
        slot = block & self.mask
        return slot if self.tags[slot] == block else -1

    def subblock_states(self, block: int) -> list[MOESI] | None:
        """The MOESI state of each subblock of ``block``, or None when
        it is not resident (tests and inspection)."""
        slot = self.find(block)
        if slot < 0:
            return None
        n = self.n_subblocks
        return [MOESI(code) for code in self.states[slot * n:(slot + 1) * n]]

    def resident_blocks(self) -> list[int]:
        """All currently allocated block numbers (tests and inspection)."""
        return [block for block in self.tags if block != EMPTY]

    def snapshot(self) -> dict:
        """Serialisable logical state: the resident frames, in set order.

        Each frame is ``[block, states, in_l1]`` with the MOESI states
        joined into a string of one-letter names and the L1 inclusion
        hints as their bitmask -- compact enough that checkpointing a
        paper-scale run stays cheap.
        """
        n = self.n_subblocks
        states = self.states
        return {"frames": [
            [
                block,
                "".join(_NAMES[code] for code in states[slot * n:(slot + 1) * n]),
                self.in_l1[slot],
            ]
            for slot, block in enumerate(self.tags)
            if block != EMPTY
        ]}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot, rewriting the buffers in place.

        Raises :class:`~repro.errors.TraceError` for a frame this cache
        cannot hold: a negative block, the wrong number of subblocks, or
        a second frame in an occupied set.
        """
        n = self.n_subblocks
        tags = array("q", [EMPTY]) * len(self.tags)
        states = bytearray(len(self.states))
        in_l1 = array("Q", [0]) * len(self.in_l1)
        for block, names, hints in state["frames"]:
            slot = block & self.mask
            if block < 0 or len(names) != n:
                raise TraceError(
                    f"L2 snapshot frame {block:#x} with {len(names)} "
                    f"subblock(s) does not fit this cache"
                )
            if tags[slot] != EMPTY:
                raise TraceError(
                    f"L2 snapshot holds blocks {tags[slot]:#x} and "
                    f"{block:#x} in set {slot}"
                )
            tags[slot] = block
            states[slot * n:(slot + 1) * n] = bytes(MOESI[name] for name in names)
            in_l1[slot] = hints
        self.tags[:] = tags
        self.states[:] = states
        self.in_l1[:] = in_l1


#: One-letter MOESI names by code, as snapshots spell states.
_NAMES = "".join(state.name for state in MOESI)


class L1Cache:
    """The direct-mapped first-level cache: one packed line word per set.

    :attr:`lines` holds ``n_sets`` words, each the resident block with
    its dirty and writable bits (:data:`DIRTY`, :data:`WRITABLE`) or
    :data:`EMPTY`.  That buffer is the whole state: the native core
    (``repro/core/machine.c``) and :class:`CacheNode` both work on it in
    place.  It is never resized, so its address stays valid.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.lines = array("q", [EMPTY]) * config.n_sets
        self.mask = config.n_sets - 1

    def find(self, block: int) -> int:
        """The slot holding ``block``, or -1 on a miss."""
        slot = block & self.mask
        return slot if self.lines[slot] >> LINE_SHIFT == block else -1

    def fill(
        self, block: int, writable: bool, dirty: bool = False
    ) -> tuple[int, bool] | None:
        """Install ``block``; return the displaced ``(block, dirty)``.

        Re-filling a resident block (e.g. after a write-permission upgrade)
        refreshes its permission in place instead of installing a
        duplicate, and never cleans it.
        """
        lines = self.lines
        slot = block & self.mask
        bits = (WRITABLE if writable else 0) | (DIRTY if dirty else 0)
        victim = lines[slot]
        if victim >> LINE_SHIFT == block:
            lines[slot] = victim & ~WRITABLE | bits
            return None
        lines[slot] = block << LINE_SHIFT | bits
        if victim == EMPTY:
            return None
        return victim >> LINE_SHIFT, bool(victim & DIRTY)

    def invalidate(self, block: int) -> int | None:
        """Remove ``block`` if present; return its dropped line word."""
        slot = block & self.mask
        line = self.lines[slot]
        if line >> LINE_SHIFT != block:
            return None
        self.lines[slot] = EMPTY
        return line

    def resident_blocks(self) -> list[int]:
        return [line >> LINE_SHIFT for line in self.lines if line != EMPTY]

    def snapshot(self) -> dict:
        """Serialisable logical state: the line words."""
        return {"lines": self.lines.tolist()}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot, writing :attr:`lines` in place (the native
        core holds its address).

        Raises :class:`~repro.errors.TraceError` for a snapshot of
        another size or a line whose block does not index its slot.
        """
        lines = state["lines"]
        if len(lines) != len(self.lines):
            raise TraceError(
                f"L1 snapshot has {len(lines)} slots, the cache "
                f"{len(self.lines)}"
            )
        for slot, line in enumerate(lines):
            if line != EMPTY and (
                line < 0 or line >> LINE_SHIFT & self.mask != slot
            ):
                raise TraceError(
                    f"L1 snapshot holds block {line >> LINE_SHIFT:#x} "
                    f"in slot {slot}"
                )
            self.lines[slot] = line
