"""Direct-mapped cache models with subblocking.

Both levels are direct-mapped, as in the paper's system (§4.1: a 64 KB
direct-mapped L1 and a 1 MB direct-mapped L2):

* :class:`L2Cache` — the L2 model: one frame per set, each with one tag
  per block, a MOESI state per subblock and an ``in_l1`` inclusion hint
  per subblock.
* :class:`L1Cache` — the L1 model: one packed line word per set, sized
  to the L2 coherence unit, with dirty and writable bits, kept in one
  flat ``array('q')``.  Coherence state proper lives in the L2; the L1
  ``writable`` bit mirrors whether the L2 granted write permission (M/E).

Addresses handed to these classes are **block numbers** (byte address
shifted right by the level's block offset).  Block ``b`` can only live in
set ``b & mask``, so every lookup is one list index plus a tag compare —
:class:`~repro.coherence.node.CacheNode` inlines that compare on its
miss and snoop paths, and the run loop resolves L1 hits against the line
words (:meth:`repro.coherence.smp.SMPSystem._run_batch`).
"""

from __future__ import annotations

from array import array

from repro.coherence.config import CacheConfig
from repro.coherence.states import MOESI
from repro.errors import TraceError


class Frame:
    """One allocated L2 block frame."""

    __slots__ = ("block", "states", "in_l1")

    def __init__(self, block: int, n_subblocks: int) -> None:
        self.block = block
        self.states: list[MOESI] = [MOESI.I] * n_subblocks
        self.in_l1: list[bool] = [False] * n_subblocks

    def dirty_subblocks(self) -> tuple[tuple[int, MOESI], ...]:
        """``(index, state)`` of subblocks whose copy differs from memory.

        The state travels with the data into the write buffer so a
        reclaimed Owned copy is restored as Owned, never promoted to
        Modified (which would manufacture exclusivity).
        """
        return tuple((i, s) for i, s in enumerate(self.states) if s.dirty)


class L2Cache:
    """The direct-mapped, subblocked second-level cache.

    :attr:`frames` holds one :class:`Frame` (or None) per set.  The list
    is never rebound — :meth:`restore` rewrites it in place — so the
    node's hot paths can alias it.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.frames: list[Frame | None] = [None] * config.n_sets
        self.mask = config.n_sets - 1

    def find(self, block: int) -> Frame | None:
        """Return the frame holding ``block``, or None on a tag miss."""
        frame = self.frames[block & self.mask]
        return frame if frame is not None and frame.block == block else None

    def allocate(self, block: int) -> tuple[Frame, Frame | None]:
        """Install a fresh frame for ``block`` in its set.

        Returns the frame (all subblocks Invalid) and the frame it
        displaced, or None if the set was empty.  The caller owns writing
        back the displaced frame's dirty subblocks and maintaining L1
        inclusion.
        """
        slot = block & self.mask
        displaced = self.frames[slot]
        frame = self.frames[slot] = Frame(block, self.config.subblocks_per_block)
        return frame, displaced

    def resident_blocks(self) -> list[int]:
        """All currently allocated block numbers (tests/inspection)."""
        return [frame.block for frame in self.frames if frame is not None]

    def snapshot(self) -> dict:
        """Serialisable logical state: the resident frames.

        Each frame is ``[block, states, in_l1]`` with the MOESI states
        joined into a string of one-letter names and the L1 inclusion
        hints packed into a bitmask — compact enough that checkpointing a
        paper-scale run stays cheap.
        """
        return {"frames": [
            [
                frame.block,
                "".join(s.name for s in frame.states),
                sum(1 << i for i, bit in enumerate(frame.in_l1) if bit),
            ]
            for frame in self.frames
            if frame is not None
        ]}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot, rewriting :attr:`frames` in place.

        Raises :class:`~repro.errors.TraceError` for a frame this cache
        cannot hold: a negative block, the wrong number of subblocks, or
        a second frame in an occupied set.
        """
        n_subblocks = self.config.subblocks_per_block
        frames: list[Frame | None] = [None] * len(self.frames)
        for block, states, in_l1 in state["frames"]:
            slot = block & self.mask
            if block < 0 or len(states) != n_subblocks:
                raise TraceError(
                    f"L2 snapshot frame {block:#x} with {len(states)} "
                    f"subblock(s) does not fit this cache"
                )
            if frames[slot] is not None:
                raise TraceError(
                    f"L2 snapshot holds blocks {frames[slot].block:#x} and "
                    f"{block:#x} in set {slot}"
                )
            frame = frames[slot] = Frame(block, n_subblocks)
            frame.states = [MOESI[name] for name in states]
            frame.in_l1 = [bool(in_l1 >> i & 1) for i in range(n_subblocks)]
        self.frames[:] = frames


#: An L1 line word: ``block << LINE_SHIFT | writable << 1 | dirty``.
LINE_SHIFT = 2
DIRTY = 1
WRITABLE = 2
#: The line word of an empty slot (no block shifts to a negative tag).
EMPTY = -1


class L1Cache:
    """The direct-mapped first-level cache: one packed line word per set.

    :attr:`lines` holds ``n_sets`` words, each the resident block with
    its dirty and writable bits (:data:`DIRTY`, :data:`WRITABLE`) or
    :data:`EMPTY`.  That buffer is the whole state: the native L1-hit
    loop (``l1_run`` in ``repro/core/machine.c``) reads it in place, and
    :class:`CacheNode` updates it on the miss path.  It is never
    resized, so its address stays valid.
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
        L1-hit loop holds its address).

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
