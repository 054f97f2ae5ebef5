"""One SMP processor node: L1 + L2 + write buffer, and its JETTY viewpoint.

The node implements both sides of the protocol:

* :meth:`CacheNode.local_access` — the processor-side path: L1 lookup,
  L2 lookup, bus transaction on a miss or on a write to a shared subblock,
  fills, replacements, write-buffer reclaim, and L1 inclusion maintenance.
* :meth:`CacheNode.snoop` — the bus-side path: the write-buffer CAM probe,
  the L2 tag probe with MOESI response, L1 invalidation/downgrade when the
  inclusion hints say the L1 may hold a copy.

While snooping, the node records the event stream a JETTY at its bus
interface would observe (snoops with ground-truth outcome, block
allocations and evictions) as packed integers (see
:mod:`repro.core.stats` for the bit layout).  The simulation itself
always performs the tag probe — a JETTY changes energy, never behaviour —
and filters consume the stream live or replay it from a recorded trace
(:class:`repro.core.stats.EventReplayer`).

Hot-path notes: clean L1 hits never reach the node (the run loop
counts them against the L1's line words), so :meth:`local_access` runs
once per L1 miss, permission miss or silent E->M store, and
:meth:`snoop` once per bus transaction per remote node.  Both inline
their address arithmetic and the direct-mapped L2's slot-and-tag
compare against shift/mask integers precomputed in ``__init__`` (no
per-access geometry method calls), the L1-hit path returns before any
L2 bookkeeping is touched, and events append one precomputed packed
integer through a cached ``array.append`` bound method (``_emit``).

Modelling notes (kept deliberately explicit):

* L1 coherence permission is a ``writable`` bit granted by the L2 (M/E).
  A store that hits a writable L1 line dirties it; the model mirrors the
  M-state into the L2 immediately (hardware defers this until the L1
  writeback, but mirrors it logically via the inclusion bits) so snoop
  responses are always computed against up-to-date state.  The mirror is
  free: no L2 access is counted for it.
* The write buffer stores evicted dirty subblocks with their states, so a
  local reclaim restores O as O (not M) and cannot manufacture exclusivity.
"""

from __future__ import annotations

from repro.coherence.bus import BusOp, BusResult, SnoopReply
from repro.coherence.cache import (
    DIRTY,
    WRITABLE,
    Frame,
    L1Cache,
    L2Cache,
)
from repro.coherence.config import SystemConfig
from repro.coherence.metrics import NodeStats
from repro.coherence.states import MOESI
from repro.coherence.writebuffer import WriteBuffer
from repro.core.stats import ALLOC, EVICT, BLOCK_SHIFT, FLAG_SHIFT, NodeEventStream
from repro.errors import CoherenceError
from typing import Callable

Broadcast = Callable[[BusOp, int], BusResult]

#: Hot-path aliases: identity checks against these beat the MOESI
#: property descriptors (a Python call per ``state.valid``/``.writable``).
_I = MOESI.I
_M = MOESI.M
_E = MOESI.E

#: BusRd downgrade table (M supplies and becomes Owned, E demotes to S).
_READ_DOWNGRADE = {
    MOESI.M: MOESI.O,
    MOESI.O: MOESI.O,
    MOESI.E: MOESI.S,
    MOESI.S: MOESI.S,
}


class CacheNode:
    """A processor node on the snoopy bus."""

    def __init__(self, node_id: int, config: SystemConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.l1 = L1Cache(config.l1)
        self.l2 = L2Cache(config.l2)
        self.wb = WriteBuffer(config.wb_entries)
        self.stats = NodeStats()
        self.events = NodeEventStream(node_id)
        #: Cached ``events.events.append`` (refreshed when the stream is
        #: detached as a shard) — the one-instruction event emit path.
        self._emit = self.events.events.append
        #: Set by the SMPSystem: callable that broadcasts a transaction to
        #: all other nodes and returns the aggregated bus result.
        self.broadcast: Broadcast | None = None
        #: Called on each memory writeback (bus statistics).
        self.on_writeback: Callable[[], None] | None = None

        # Precomputed address arithmetic (the configs stay the source of
        # truth; these mirror them as plain ints for the two
        # per-access/per-snoop hot paths).
        self._l1_shift = config.l1.block_offset_bits
        self._l2_shift = config.l2.block_offset_bits
        if config.l2.subblocked:
            self._l2_sub_shift = config.l2.subblock_offset_bits
            self._l2_sub_mask = (
                1 << (config.l2.block_offset_bits - config.l2.subblock_offset_bits)
            ) - 1
        else:
            self._l2_sub_shift = 0
            self._l2_sub_mask = 0
        self._l1_find = self.l1.find
        self._l1_lines = self.l1.lines
        #: The L2's frame list (restored in place, so the alias holds):
        #: a lookup is ``frames[block & mask]`` plus a tag compare.
        self._l2_frames = self.l2.frames
        self._l2_mask = self.l2.mask
        self._wb_get = self.wb._entries.get
        #: Reused per-node snoop reply: a node contributes at most one
        #: reply per transaction and the bus folds the buffer before the
        #: next one starts, so no allocation per snoop is needed.
        self._reply = SnoopReply()

    def snapshot(self) -> dict:
        """Serialisable logical state of the whole node.

        Covers the statistics counters, both cache levels, the write
        buffer, and any *pending* (not yet sharded) events.  Derived
        state — the precomputed shift/mask ints, the cached bound
        methods, the reusable snoop reply — is reconstruction-only and
        never serialised.
        """
        return {
            "stats": vars(self.stats).copy(),
            "l1": self.l1.snapshot(),
            "l2": self.l2.snapshot(),
            "wb": self.wb.snapshot(),
            "events": list(self.events.events),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot and rebuild every piece of derived state.

        The caches and write buffer restore their structures in place
        (``_l1_lines``, ``_l2_frames`` and the bound ``_wb_get`` alias
        them); the pending event stream is rebuilt fresh, so the cached
        ``_emit`` append must be re-bound afterwards.
        """
        self.stats = NodeStats(**state["stats"])
        self.l1.restore(state["l1"])
        self.l2.restore(state["l2"])
        self.wb.restore(state["wb"])
        self.events = NodeEventStream(self.node_id, state["events"])
        self._emit = self.events.events.append

    def reset_event_stream(self) -> NodeEventStream:
        """Detach the current event stream; record into a fresh one.

        Returns the detached stream (one shard).  Refreshes the cached
        append used by the hot paths.
        """
        detached = self.events
        self.events = NodeEventStream(self.node_id)
        self._emit = self.events.events.append
        return detached

    # ==================================================================
    # Processor side
    # ==================================================================

    def local_access(self, address: int, is_write: bool) -> None:
        """Perform one load or store issued by the local processor.

        The run loop resolves clean L1 hits itself
        (:meth:`repro.coherence.smp.SMPSystem._run_batch`); every other
        access lands here.
        """
        stats = self.stats
        slot = self._l1_find(address >> self._l1_shift)
        if slot >= 0:
            line = self._l1_lines[slot]
            if not is_write or line & WRITABLE:
                # L1 hit: no geometry beyond the block shift, no events,
                # no L2 interaction (except the one-off silent E->M
                # mirror on the first store to a clean line).
                stats.l1_hits += 1
                if is_write:
                    stats.local_writes += 1
                    if not line & DIRTY:
                        self._l1_lines[slot] = line | DIRTY
                        self._mirror_l1_write(address)
                else:
                    stats.local_reads += 1
                return

        if is_write:
            stats.local_writes += 1
        else:
            stats.local_reads += 1
        stats.l1_misses += 1
        self._access_l2(address, is_write)

    def _access_l2(self, address: int, is_write: bool) -> None:
        """Service an L1 miss (or write-permission miss) at the L2."""
        stats = self.stats
        l2_block = address >> self._l2_shift
        sub = (address >> self._l2_sub_shift) & self._l2_sub_mask

        stats.l2_local_accesses += 1
        stats.l2_local_tag_probes += 1

        frame = self._l2_frames[l2_block & self._l2_mask]
        if frame is None or frame.block != l2_block:
            frame = self._handle_tag_miss(l2_block)
        self._service_subblock(frame, address, sub, is_write)

    def _handle_tag_miss(self, l2_block: int) -> Frame:
        """Allocate an L2 frame, reclaiming from the WB when possible."""
        stats = self.stats
        wb_entry = self.wb.remove(l2_block)

        frame, displaced = self.l2.allocate(l2_block)
        stats.l2_block_allocs += 1
        if displaced is not None:
            self._retire_victim(displaced)
        self._emit((l2_block << BLOCK_SHIFT) | ALLOC)

        if wb_entry is not None:
            # Reclaim the dirty subblocks with their original states so an
            # Owned copy is not silently promoted to Modified.
            stats.wb_reclaims += 1
            for sub_index, state in wb_entry.dirty_subblocks:
                frame.states[sub_index] = state
        return frame

    def _retire_victim(self, victim: Frame) -> None:
        """Push a displaced frame towards memory and keep L1 inclusion."""
        stats = self.stats
        stats.l2_block_evictions += 1
        self._emit((victim.block << BLOCK_SHIFT) | EVICT)

        # Inclusion: drop every L1 copy of the victim's subblocks.  Dirty
        # L1 data is newer than the L2 copy; pulling it back is an L1
        # writeback that merges into the outgoing block.
        for sub_index, in_l1 in enumerate(victim.in_l1):
            if in_l1:
                l1_block = self._l1_block_of(victim.block, sub_index)
                dropped = self.l1.invalidate(l1_block)
                if dropped is not None and dropped & DIRTY:
                    stats.l1_writebacks += 1

        dirty = victim.dirty_subblocks()
        if dirty:
            stats.l2_dirty_evictions += 1
            if self.wb.full:
                self._drain_one()
            self.wb.push(victim.block, dirty)
            stats.wb_pushes += 1

    def _service_subblock(
        self, frame: Frame, address: int, sub: int, is_write: bool
    ) -> None:
        """Complete the access now that a frame for the block exists."""
        stats = self.stats
        state = frame.states[sub]

        if state is not _I and (
            not is_write or state is _M or state is _E
        ):
            stats.l2_local_hits += 1
            stats.l2_local_data_reads += 1
            if is_write:
                frame.states[sub] = MOESI.M
            self._fill_l1(frame, address, sub, is_write)
            return

        if state is not _I and is_write:
            # Write hit on a shared subblock (S or O): bus upgrade.
            stats.l2_local_hits += 1
            stats.upgrades_issued += 1
            self._broadcast(BusOp.UPGRADE, address)
            frame.states[sub] = MOESI.M
            stats.l2_local_tag_updates += 1
            stats.l2_local_data_reads += 1
            self._fill_l1(frame, address, sub, is_write)
            return

        # Subblock miss (tag may or may not have just been allocated).
        stats.l2_local_misses += 1
        op = BusOp.READ_X if is_write else BusOp.READ
        result = self._broadcast(op, address)
        if is_write:
            frame.states[sub] = MOESI.M
        elif result.remote_hits > 0:
            frame.states[sub] = MOESI.S
        else:
            frame.states[sub] = MOESI.E
        stats.l2_local_tag_updates += 1
        stats.l2_local_data_writes += 1
        self._fill_l1(frame, address, sub, is_write)

    def _fill_l1(self, frame: Frame, address: int, sub: int, is_write: bool) -> None:
        """Install the serviced subblock into the L1 and track inclusion."""
        l1_block = address >> self._l1_shift
        state = frame.states[sub]
        displaced = self.l1.fill(l1_block, state is _M or state is _E, is_write)
        frame.in_l1[sub] = True

        if displaced is not None:
            self._handle_l1_displacement(*displaced)

    def _handle_l1_displacement(self, block: int, dirty: bool) -> None:
        """An L1 fill displaced another block: write back and un-hint."""
        stats = self.stats
        address = block << self._l1_shift
        l2_block = address >> self._l2_shift
        sub = (address >> self._l2_sub_shift) & self._l2_sub_mask
        frame = self._l2_frames[l2_block & self._l2_mask]
        if frame is None or frame.block != l2_block:
            raise CoherenceError(
                f"L1 inclusion violated on node {self.node_id}: displaced L1 "
                f"block {block:#x} has no L2 frame"
            )
        frame.in_l1[sub] = False
        if dirty:
            stats.l1_writebacks += 1
            stats.l2_local_data_writes += 1
            # The mirror already holds M for dirty L1 lines.
            if frame.states[sub] is not MOESI.M:
                raise CoherenceError(
                    f"dirty L1 block {block:#x} on node "
                    f"{self.node_id} backed by L2 state {frame.states[sub].name}"
                )

    def _mirror_l1_write(self, address: int) -> None:
        """Reflect a silent E->M upgrade of a writable L1 line into the L2."""
        l2_block = address >> self._l2_shift
        sub = (address >> self._l2_sub_shift) & self._l2_sub_mask
        frame = self._l2_frames[l2_block & self._l2_mask]
        if (frame is None or frame.block != l2_block
                or frame.states[sub] is _I):
            raise CoherenceError(
                f"L1 writable line {address:#x} on node {self.node_id} "
                "not backed by a valid L2 subblock"
            )
        frame.states[sub] = MOESI.M

    def _broadcast(self, op: BusOp, address: int) -> BusResult:
        if self.broadcast is None:
            raise CoherenceError("node is not attached to a bus")
        return self.broadcast(op, address)

    def _drain_one(self) -> None:
        """Retire the oldest write-buffer entry to memory."""
        self.wb.drain_oldest()
        self.stats.wb_drains += 1
        if self.on_writeback is not None:
            self.on_writeback()

    def drain_write_buffer(self) -> None:
        """Flush all pending writebacks (end of simulation)."""
        for _entry in self.wb.drain_all():
            self.stats.wb_drains += 1
            if self.on_writeback is not None:
                self.on_writeback()

    def _l1_block_of(self, l2_block: int, sub: int) -> int:
        """Global L1 block number of subblock ``sub`` of an L2 block."""
        ratio_bits = self._l2_shift - self._l1_shift
        return (l2_block << ratio_bits) | sub

    # ==================================================================
    # Bus side
    # ==================================================================

    def snoop(self, op: BusOp, address: int) -> SnoopReply:
        """React to another node's bus transaction.

        The returned reply is a per-node reusable object, valid until
        this node's next snoop — the bus folds it into the transaction
        result immediately (callers must not retain it).
        """
        stats = self.stats
        l2_block = address >> self._l2_shift
        sub = (address >> self._l2_sub_shift) & self._l2_sub_mask
        reply = self._reply
        reply.hit = False
        reply.supplied = False

        # --- Write buffer: probed on every snoop, never filtered -------
        stats.wb_probes += 1
        wb_entry = self._wb_get(l2_block)
        if wb_entry is not None:
            for sub_index, _state in wb_entry.dirty_subblocks:
                if sub_index == sub:
                    stats.wb_hits += 1
                    reply.hit = True
                    reply.supplied = True
                    if op is not BusOp.READ:  # READ_X or UPGRADE
                        self._cancel_wb_subblock(l2_block, sub)
                    break

        # --- L2 tag probe (ground truth; filtering is modelled at replay)
        frame = self._l2_frames[l2_block & self._l2_mask]
        stats.snoops_observed += 1
        stats.snoop_tag_probes += 1
        if frame is None or frame.block != l2_block:
            # flag bits: subblock invalid, tag absent.
            self._emit(l2_block << BLOCK_SHIFT)
            stats.snoop_misses += 1
            return reply

        state = frame.states[sub]
        sub_hit = state is not _I
        flag = 3 if sub_hit else 2  # bit 0: subblock valid; bit 1: tag present
        self._emit((l2_block << BLOCK_SHIFT) | (flag << FLAG_SHIFT))

        stats.snoop_block_present += 1
        if sub_hit:
            stats.snoop_hits += 1
        else:
            stats.snoop_misses += 1
            return reply

        reply.hit = True
        if op is BusOp.READ:
            self._snoop_read(frame, sub, state, reply)
        else:
            self._snoop_invalidate(frame, l2_block, sub, state, op, reply)
        return reply

    def _snoop_read(
        self, frame: Frame, sub: int, state: MOESI, reply: SnoopReply
    ) -> None:
        """BusRd: supply data if owner, downgrade exclusivity."""
        stats = self.stats
        if state.owner:
            reply.supplied = True
            stats.snoop_data_supplies += 1
        if frame.in_l1[sub]:
            # The L1 may hold write permission; revoke it.  If the L1 line
            # is dirty its data is pulled into the L2 as part of the
            # supply, leaving the L1 copy clean.
            stats.l1_snoop_probes += 1
            slot = self._l1_find(self._l1_block_of(frame.block, sub))
            if slot >= 0:
                line = self._l1_lines[slot]
                self._l1_lines[slot] = line & ~(WRITABLE | DIRTY)
                if line & DIRTY:
                    stats.l1_writebacks += 1
        new_state = _READ_DOWNGRADE[state]
        if new_state is not state:
            frame.states[sub] = new_state
            stats.snoop_state_updates += 1

    def _snoop_invalidate(
        self,
        frame: Frame,
        l2_block: int,
        sub: int,
        state: MOESI,
        op: BusOp,
        reply: SnoopReply,
    ) -> None:
        """BusRdX / BusUpgr: invalidate our copy, supplying data for RdX."""
        stats = self.stats
        if op is BusOp.READ_X and state.owner:
            reply.supplied = True
            stats.snoop_data_supplies += 1
        if frame.in_l1[sub]:
            stats.l1_snoop_probes += 1
            self.l1.invalidate(self._l1_block_of(l2_block, sub))
            frame.in_l1[sub] = False
        frame.states[sub] = MOESI.I
        stats.snoop_state_updates += 1

    def _cancel_wb_subblock(self, l2_block: int, sub: int) -> None:
        """Drop a write-buffered subblock whose ownership a snoop took."""
        entry = self.wb.remove(l2_block)
        if entry is None:
            return
        remaining = tuple(
            (sub_index, state)
            for sub_index, state in entry.dirty_subblocks
            if sub_index != sub
        )
        if remaining:
            if self.wb.full:
                self._drain_one()
            self.wb.push(l2_block, remaining)
