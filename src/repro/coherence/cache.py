"""Set-associative cache models with subblocking.

Two structures live here:

* :class:`SetAssocCache` — the L2 model: one tag per block, a MOESI state
  per subblock, an ``in_l1`` inclusion hint per subblock, LRU replacement.
* :class:`L1Cache` — the L1 model: direct-mapped (or set-associative)
  array of blocks sized to the L2 coherence unit, with dirty and writable
  bits.  Coherence state proper lives in the L2; the L1 ``writable`` bit
  mirrors whether the L2 granted write permission (M/E).

Addresses handed to these classes are **block numbers** (byte address
shifted right by the block offset), produced by :class:`CacheGeometry`.

**Tag-probe fast path.**  Both caches keep a flat ``{block: frame}``
index beside the per-set way arrays, so :meth:`SetAssocCache.find` /
:meth:`L1Cache.find` are one dict lookup instead of an O(ways) scan —
``find`` is called on every processor access and every snoop, making it
the hottest function in the simulator.  The index is maintained on every
structural change (allocate, fill, invalidate, deallocate); the way
arrays remain the ground truth for victim selection and the invariant
checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coherence.config import CacheConfig
from repro.coherence.states import MOESI
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


class L1Frame:
    """One L1 block (equal to the L2 coherence unit)."""

    __slots__ = ("block", "way", "dirty", "writable")

    def __init__(self, block: int, writable: bool, way: int = 0) -> None:
        self.block = block
        self.way = way
        self.dirty = False
        self.writable = writable


class L1Cache:
    """The first-level cache: valid/dirty/writable per block, LRU."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.geometry = CacheGeometry(config)
        self._sets: list[list[L1Frame | None]] = [
            [None] * config.ways for _ in range(config.n_sets)
        ]
        self._lru: list[LRUTracker] = [
            LRUTracker(config.ways) for _ in range(config.n_sets)
        ]
        self._by_block: dict[int, L1Frame] = {}
        self._set_mask = (1 << config.index_bits) - 1
        self._multiway = config.ways > 1

    def find(self, block: int, touch: bool = True) -> L1Frame | None:
        frame = self._by_block.get(block)
        if frame is not None and touch and self._multiway:
            self._lru[block & self._set_mask].touch(frame.way)
        return frame

    def fill(self, block: int, writable: bool) -> L1Frame | None:
        """Install ``block``; return the displaced frame (for writeback).

        Re-filling a resident block (e.g. after a write-permission upgrade)
        refreshes its permission in place instead of installing a duplicate.
        """
        set_index = block & self._set_mask
        lru = self._lru[set_index]
        frame = self._by_block.get(block)
        if frame is not None:
            frame.writable = writable
            if self._multiway:
                lru.touch(frame.way)
            return None
        ways = self._sets[set_index]
        victim_way = None
        for way, frame in enumerate(ways):
            if frame is None:
                victim_way = way
                break
        displaced = None
        if victim_way is None:
            victim_way = lru.victim()
            displaced = ways[victim_way]
            assert displaced is not None
            del self._by_block[displaced.block]
        installed = L1Frame(block, writable, victim_way)
        ways[victim_way] = installed
        self._by_block[block] = installed
        lru.touch(victim_way)
        return displaced

    def invalidate(self, block: int) -> L1Frame | None:
        """Remove ``block`` if present; return the dropped frame.

        Like :meth:`SetAssocCache.deallocate`, the freed way is retired
        to the LRU end so the next fill prefers it over evicting a live
        block.
        """
        frame = self._by_block.pop(block, None)
        if frame is None:
            return None
        set_index = block & self._set_mask
        self._sets[set_index][frame.way] = None
        self._lru[set_index].retire(frame.way)
        return frame

    def resident_blocks(self) -> list[int]:
        return [
            frame.block
            for ways in self._sets
            for frame in ways
            if frame is not None
        ]

    def snapshot(self) -> dict:
        """Serialisable logical state (see :meth:`SetAssocCache.snapshot`).

        Frames are ``[block, way, dirty, writable]`` with the two flag
        bits as 0/1 ints.
        """
        frames = []
        for ways in self._sets:
            for frame in ways:
                if frame is None:
                    continue
                frames.append([
                    frame.block,
                    frame.way,
                    int(frame.dirty),
                    int(frame.writable),
                ])
        return {
            "frames": frames,
            "lru": (
                [tracker.snapshot() for tracker in self._lru]
                if self._multiway else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot; ``_by_block`` is rebuilt in place (the
        :class:`~repro.coherence.smp.SMPSystem` fast path aliases it)."""
        for ways in self._sets:
            for way in range(len(ways)):
                ways[way] = None
        self._by_block.clear()
        for block, way, dirty, writable in state["frames"]:
            frame = L1Frame(block, bool(writable), way)
            frame.dirty = bool(dirty)
            self._sets[block & self._set_mask][way] = frame
            self._by_block[block] = frame
        if self._multiway:
            for tracker, order in zip(self._lru, state["lru"]):
                tracker.restore(order)
