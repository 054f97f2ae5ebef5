"""The write-back buffer between the L2 and the bus.

Dirty blocks displaced from the L2 wait here until the bus writes them to
memory.  Two properties matter for the paper's evaluation:

* every bus snoop probes the WB *in addition to* any filtered/unfiltered
  L2 tag probe — a JETTY never filters WB lookups (paper §2, Figure 1b),
  so WB probe energy is charged on every snoop;
* a block sitting in the WB can still service snoops (it is the only
  up-to-date copy), and a local re-reference can reclaim it before the
  writeback drains.
"""

from __future__ import annotations

from array import array

from repro.coherence.cache import EMPTY
from repro.coherence.states import MOESI
from repro.errors import ConfigurationError, TraceError


class WriteBuffer:
    """FIFO write-back buffer with CAM-style lookup, as flat buffers.

    :attr:`tags` (an ``array('q')``) holds the buffered blocks oldest
    first, padded with :data:`~repro.coherence.cache.EMPTY`;
    :attr:`states` (a ``bytearray``) holds ``n_subblocks`` MOESI codes
    per entry: the state each dirty subblock held at eviction (M or O),
    so a local reclaim restores an Owned copy as Owned and never
    manufactures exclusivity, or 0 (I) for a subblock that is not
    buffered.  :class:`~repro.coherence.node.CacheNode` and the native
    core (``repro/core/machine.c``) both work on these buffers in place;
    they are never resized.
    """

    def __init__(self, entries: int, n_subblocks: int = 1) -> None:
        if entries < 1:
            raise ConfigurationError(f"write buffer needs >= 1 entry, got {entries}")
        self.capacity = entries
        self.n_subblocks = n_subblocks
        self.tags = array("q", [EMPTY]) * entries
        self.states = bytearray(entries * n_subblocks)

    def __len__(self) -> int:
        return self.capacity - self.tags.count(EMPTY)

    @property
    def full(self) -> bool:
        return self.tags[-1] != EMPTY

    def find(self, block: int) -> int:
        """The FIFO position of ``block``, or -1 (the CAM lookup)."""
        tags = self.tags
        return tags.index(block) if block in tags else -1

    def probe(self, block: int) -> bytes | None:
        """The buffered MOESI codes of ``block``'s subblocks, or None."""
        at = self.find(block)
        if at < 0:
            return None
        n = self.n_subblocks
        return bytes(self.states[at * n:(at + 1) * n])

    def push(self, block: int, states) -> None:
        """Queue a displaced block with the MOESI codes of its subblocks;
        the dirty ones (M, O) are buffered.  The caller drains first if
        full.
        """
        if self.full:
            raise ConfigurationError("write buffer overflow; drain before push")
        dirty = bytes(code if code >= MOESI.O else 0 for code in states)
        at = self.find(block)
        if at >= 0:
            # Re-eviction of a block pushed earlier: the newer states win.
            previous = self._take(at)
            dirty = bytes(new or old for new, old in zip(dirty, previous))
        at = len(self)
        n = self.n_subblocks
        self.tags[at] = block
        self.states[at * n:(at + 1) * n] = dirty

    def remove(self, block: int) -> bytes | None:
        """Take a block out (local reclaim or invalidating snoop); its
        buffered codes, or None."""
        at = self.find(block)
        return None if at < 0 else self._take(at)

    def drain_oldest(self) -> int:
        """Pop the oldest entry for its memory writeback; its block."""
        block = self.tags[0]
        if block == EMPTY:
            raise ConfigurationError("drain on empty write buffer")
        self._take(0)
        return block

    def drain_all(self) -> list[int]:
        """Flush everything (end of simulation); the drained blocks."""
        drained = list(self.blocks())
        self.tags[:] = array("q", [EMPTY]) * self.capacity
        self.states[:] = bytes(len(self.states))
        return drained

    def blocks(self) -> tuple[int, ...]:
        """Currently buffered block numbers, oldest first."""
        return tuple(block for block in self.tags if block != EMPTY)

    def _take(self, at: int) -> bytes:
        """Remove entry ``at``, closing the gap in place; its codes."""
        n = self.n_subblocks
        tags, states = self.tags, self.states
        taken = bytes(states[at * n:(at + 1) * n])
        tags[at:-1] = tags[at + 1:]
        tags[-1] = EMPTY
        states[at * n:len(states) - n] = states[(at + 1) * n:]
        states[len(states) - n:] = bytes(n)
        return taken

    def snapshot(self) -> dict:
        """Serialisable logical state: entries in FIFO order.

        Each entry is ``[block, [[sub, state_name], ...]]`` — the FIFO
        position is the list position, so drain order survives a
        round trip exactly.
        """
        n = self.n_subblocks
        return {"entries": [
            [block, [
                [sub, MOESI(code).name]
                for sub, code in enumerate(self.states[at * n:(at + 1) * n])
                if code
            ]]
            for at, block in enumerate(self.blocks())
        ]}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot, rewriting the buffers in place."""
        entries = state["entries"]
        if len(entries) > self.capacity:
            raise ConfigurationError(
                f"write-buffer snapshot holds {len(entries)} "
                f"entries, capacity is {self.capacity}"
            )
        n = self.n_subblocks
        tags = array("q", [EMPTY]) * self.capacity
        states = bytearray(len(self.states))
        for at, (block, dirty) in enumerate(entries):
            tags[at] = block
            for sub, name in dirty:
                if not 0 <= sub < n:
                    raise TraceError(
                        f"write-buffer snapshot entry {block:#x} holds "
                        f"subblock {sub} of {n}"
                    )
                states[at * n + sub] = MOESI[name]
        self.tags[:] = tags
        self.states[:] = states
