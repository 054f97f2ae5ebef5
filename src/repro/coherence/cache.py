"""Set-associative cache models with subblocking.

Two structures live here:

* :class:`SetAssocCache` — the L2 model: one tag per block, a MOESI state
  per subblock, an ``in_l1`` inclusion hint per subblock, LRU replacement.
* :class:`L1Cache` — the L1 model: direct-mapped (or set-associative)
  array of blocks sized to the L2 coherence unit, with dirty and writable
  bits, kept as one flat ``array('q')`` of line words.  Coherence state
  proper lives in the L2; the L1 ``writable`` bit mirrors whether the L2
  granted write permission (M/E).

Addresses handed to these classes are **block numbers** (byte address
shifted right by the block offset), produced by :class:`CacheGeometry`.

**Tag-probe fast path.**  The L2 keeps a flat ``{block: frame}`` index
beside its per-set way arrays, so :meth:`SetAssocCache.find` is one dict
lookup instead of an O(ways) scan — it runs on every L1 miss and every
snoop.  The index is maintained on every structural change (allocate,
deallocate); the way arrays remain the ground truth for victim
selection and the invariant checker.  The L1 needs no index: its hits
resolve in the run loop's scan of its line words
(:meth:`repro.coherence.smp.SMPSystem._run_batch`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.coherence.config import CacheConfig
from repro.coherence.states import MOESI
from repro.errors import TraceError
from repro.utils.bitops import mask
from repro.utils.lru import LRUTracker


@dataclass(frozen=True)
class CacheGeometry:
    """Address decomposition helper for one cache level."""

    config: CacheConfig

    def block_number(self, address: int) -> int:
        """Byte address -> block number."""
        return address >> self.config.block_offset_bits

    def subblock_index(self, address: int) -> int:
        """Byte address -> subblock index within its block."""
        if not self.config.subblocked:
            return 0
        sub_bits = self.config.block_offset_bits - self.config.subblock_offset_bits
        return (address >> self.config.subblock_offset_bits) & mask(sub_bits)

    def set_index(self, block_number: int) -> int:
        return block_number & mask(self.config.index_bits)


class Frame:
    """One allocated L2 block frame."""

    __slots__ = ("block", "way", "states", "in_l1")

    def __init__(self, block: int, n_subblocks: int, way: int = 0) -> None:
        self.block = block
        self.way = way
        self.states: list[MOESI] = [MOESI.I] * n_subblocks
        self.in_l1: list[bool] = [False] * n_subblocks

    def dirty_subblocks(self) -> list[tuple[int, MOESI]]:
        """``(index, state)`` of subblocks whose copy differs from memory.

        The state travels with the data into the write buffer so a
        reclaimed Owned copy is restored as Owned, never promoted to
        Modified (which would manufacture exclusivity).
        """
        return [(i, s) for i, s in enumerate(self.states) if s.dirty]


@dataclass
class EvictedBlock:
    """Description of a block displaced by :meth:`SetAssocCache.allocate`."""

    block: int
    dirty_subblocks: tuple[tuple[int, MOESI], ...]
    l1_subblocks: tuple[int, ...]

    @property
    def dirty(self) -> bool:
        return bool(self.dirty_subblocks)


class SetAssocCache:
    """Set-associative, subblocked cache with LRU replacement (the L2)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.geometry = CacheGeometry(config)
        self._sets: list[list[Frame | None]] = [
            [None] * config.ways for _ in range(config.n_sets)
        ]
        self._lru: list[LRUTracker] = [
            LRUTracker(config.ways) for _ in range(config.n_sets)
        ]
        #: O(1) tag probe: every resident block, whatever its set.
        self._by_block: dict[int, Frame] = {}
        self._set_mask = (1 << config.index_bits) - 1
        self._multiway = config.ways > 1

    # ------------------------------------------------------------------

    def find(self, block: int, touch: bool = False) -> Frame | None:
        """Return the frame holding ``block``, or None on a tag miss.

        ``touch=True`` refreshes LRU state (local accesses do; snoops in
        this model do not perturb replacement order).  Direct-mapped
        caches skip the LRU bookkeeping entirely — a one-way recency
        order cannot change.
        """
        frame = self._by_block.get(block)
        if frame is not None and touch and self._multiway:
            self._lru[block & self._set_mask].touch(frame.way)
        return frame

    def allocate(self, block: int) -> tuple[Frame, EvictedBlock | None]:
        """Allocate a frame for ``block``, evicting the LRU victim if needed.

        Returns the fresh frame (all subblocks Invalid) and a description
        of the displaced block, or None if a way was free.  The caller owns
        writing back dirty victim subblocks and maintaining L1 inclusion.
        """
        set_index = block & self._set_mask
        ways = self._sets[set_index]
        lru = self._lru[set_index]

        victim_way = None
        for way, frame in enumerate(ways):
            if frame is None:
                victim_way = way
                break
        evicted = None
        if victim_way is None:
            victim_way = lru.victim()
            victim = ways[victim_way]
            assert victim is not None
            del self._by_block[victim.block]
            evicted = EvictedBlock(
                block=victim.block,
                dirty_subblocks=tuple(victim.dirty_subblocks()),
                l1_subblocks=tuple(
                    i for i, present in enumerate(victim.in_l1) if present
                ),
            )

        frame = Frame(block, self.config.subblocks_per_block, victim_way)
        ways[victim_way] = frame
        self._by_block[block] = frame
        lru.touch(victim_way)
        return frame, evicted

    def deallocate(self, block: int) -> None:
        """Drop the frame holding ``block`` (used when reclaiming via WB).

        The freed way is retired to the LRU end so it is the preferred
        victim for the next allocate — leaving it wherever it sat in the
        recency order would let a stale position shield a *valid* block
        from eviction.
        """
        frame = self._by_block.pop(block, None)
        if frame is None:
            return
        set_index = block & self._set_mask
        self._sets[set_index][frame.way] = None
        self._lru[set_index].retire(frame.way)

    # ------------------------------------------------------------------

    def resident_blocks(self) -> list[int]:
        """All currently allocated block numbers (tests/inspection)."""
        return [
            frame.block
            for ways in self._sets
            for frame in ways
            if frame is not None
        ]

    def snapshot(self) -> dict:
        """Serialisable logical state: resident frames plus LRU orders.

        Each frame is ``[block, way, states, in_l1]`` with the MOESI
        states joined into a string of one-letter names and the L1
        inclusion hints packed into a bitmask — compact enough that
        checkpointing a paper-scale run stays cheap.  Direct-mapped
        caches omit the (trivial) LRU orders.  The flat ``_by_block``
        tag index is *derived* state and deliberately absent:
        :meth:`restore` rebuilds it.
        """
        frames = []
        for ways in self._sets:
            for frame in ways:
                if frame is None:
                    continue
                frames.append([
                    frame.block,
                    frame.way,
                    "".join(s.name for s in frame.states),
                    sum(1 << i for i, bit in enumerate(frame.in_l1) if bit),
                ])
        return {
            "frames": frames,
            "lru": (
                [tracker.snapshot() for tracker in self._lru]
                if self._multiway else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot, rebuilding all derived state.

        The way arrays are repopulated from the frame list and the flat
        ``_by_block`` index is rebuilt **in place** — hot-path consumers
        hold bound references to the dict itself
        (:class:`~repro.coherence.node.CacheNode` caches its ``.get``),
        so the object identity must survive a restore.
        """
        n_subblocks = self.config.subblocks_per_block
        for ways in self._sets:
            for way in range(len(ways)):
                ways[way] = None
        self._by_block.clear()
        for block, way, states, in_l1 in state["frames"]:
            frame = Frame(block, n_subblocks, way)
            frame.states = [MOESI[name] for name in states]
            frame.in_l1 = [bool(in_l1 >> i & 1) for i in range(n_subblocks)]
            self._sets[block & self._set_mask][way] = frame
            self._by_block[block] = frame
        if self._multiway:
            for tracker, order in zip(self._lru, state["lru"]):
                tracker.restore(order)

    def valid_subblock_count(self) -> int:
        """Total subblocks in a valid state across the cache."""
        return sum(
            1
            for ways in self._sets
            for frame in ways
            if frame is not None
            for s in frame.states
            if s is not MOESI.I
        )


#: An L1 line word: ``block << LINE_SHIFT | writable << 1 | dirty``.
LINE_SHIFT = 2
DIRTY = 1
WRITABLE = 2
#: The line word of an empty slot (no block shifts to a negative tag).
EMPTY = -1


class L1Cache:
    """The first-level cache: one packed line word per slot, LRU.

    :attr:`lines` holds ``n_sets * ways`` words, slot ``set * ways +
    way``, each the resident block with its dirty and writable bits
    (:data:`DIRTY`, :data:`WRITABLE`) or :data:`EMPTY`.  That buffer,
    plus the LRU orders of a set-associative L1, is the whole state: the
    native L1-hit loop (``l1_run`` in ``repro/core/machine.c``) reads it
    in place for direct-mapped L1s, and :class:`CacheNode` updates it on
    the miss path.  It is never resized, so its address stays valid.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.geometry = CacheGeometry(config)
        self.ways = config.ways
        self.lines = array("q", [EMPTY]) * (config.n_sets * config.ways)
        self._lru: list[LRUTracker] = [
            LRUTracker(config.ways) for _ in range(config.n_sets)
        ]
        self._set_mask = (1 << config.index_bits) - 1
        self._multiway = config.ways > 1

    def find(self, block: int, touch: bool = True) -> int:
        """The slot holding ``block``, or -1 on a miss.

        Direct-mapped caches probe one slot and skip the LRU
        bookkeeping entirely — a one-way recency order cannot change.
        """
        set_index = block & self._set_mask
        if not self._multiway:
            return set_index if self.lines[set_index] >> LINE_SHIFT == block else -1
        first = set_index * self.ways
        for slot in range(first, first + self.ways):
            if self.lines[slot] >> LINE_SHIFT == block:
                if touch:
                    self._lru[set_index].touch(slot - first)
                return slot
        return -1

    def fill(
        self, block: int, writable: bool, dirty: bool = False
    ) -> tuple[int, bool] | None:
        """Install ``block``; return the displaced ``(block, dirty)``.

        Re-filling a resident block (e.g. after a write-permission upgrade)
        refreshes its permission in place instead of installing a
        duplicate, and never cleans it.
        """
        lines = self.lines
        set_index = block & self._set_mask
        bits = (WRITABLE if writable else 0) | (DIRTY if dirty else 0)
        slot = self.find(block, touch=self._multiway)
        if slot >= 0:
            lines[slot] = lines[slot] & ~WRITABLE | bits
            return None
        if self._multiway:
            first = set_index * self.ways
            lru = self._lru[set_index]
            for way in range(self.ways):
                if lines[first + way] == EMPTY:
                    break
            else:
                way = lru.victim()
            lru.touch(way)
            slot = first + way
        else:
            slot = set_index
        victim = lines[slot]
        lines[slot] = block << LINE_SHIFT | bits
        if victim == EMPTY:
            return None
        return victim >> LINE_SHIFT, bool(victim & DIRTY)

    def invalidate(self, block: int) -> int | None:
        """Remove ``block`` if present; return its dropped line word.

        Like :meth:`SetAssocCache.deallocate`, the freed way is retired
        to the LRU end so the next fill prefers it over evicting a live
        block.
        """
        slot = self.find(block, touch=False)
        if slot < 0:
            return None
        line = self.lines[slot]
        self.lines[slot] = EMPTY
        self._lru[block & self._set_mask].retire(slot % self.ways)
        return line

    def resident_blocks(self) -> list[int]:
        return [line >> LINE_SHIFT for line in self.lines if line != EMPTY]

    def snapshot(self) -> dict:
        """Serialisable logical state: the line words plus LRU orders."""
        return {
            "lines": self.lines.tolist(),
            "lru": (
                [tracker.snapshot() for tracker in self._lru]
                if self._multiway else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot, writing :attr:`lines` in place (the native
        L1-hit loop holds its address)."""
        lines = state["lines"]
        if len(lines) != len(self.lines):
            raise TraceError(
                f"L1 snapshot has {len(lines)} slots, the cache "
                f"{len(self.lines)}"
            )
        for slot, line in enumerate(lines):
            self.lines[slot] = line
        if self._multiway:
            for tracker, order in zip(self._lru, state["lru"]):
                tracker.restore(order)
