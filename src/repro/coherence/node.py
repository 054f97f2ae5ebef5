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

**Two tiers, one state.**  The node's whole state is flat buffers: the
L1's line words, the L2's tags, subblock MOESI codes and in-L1 masks
(:class:`~repro.coherence.cache.L2Cache`), and the write buffer's FIFO
(:class:`~repro.coherence.writebuffer.WriteBuffer`).  With the native
core loaded, ``smp_run`` in ``repro/core/machine.c`` runs this whole
protocol -- both sides, for every node, and the bus -- on those same
buffers in place (:meth:`repro.coherence.smp.SMPSystem._run_batch`);
this class is then only its reference and the no-compiler tier.  The
two are step-for-step twins: they count the same statistics and emit
the same events in the same order, and report the same
:data:`VIOLATIONS`, so a run can switch tiers between any two batches.

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
from repro.coherence.cache import DIRTY, WRITABLE, L1Cache, L2Cache
from repro.coherence.config import SystemConfig
from repro.coherence.metrics import NodeStats
from repro.coherence.states import MOESI
from repro.coherence.writebuffer import WriteBuffer
from repro.core.stats import ALLOC, EVICT, BLOCK_SHIFT, FLAG_SHIFT, NodeEventStream
from repro.errors import CoherenceError
from typing import Callable

Broadcast = Callable[[BusOp, int], BusResult]

#: Hot-path aliases: MOESI codes as the flat L2 and write buffer store
#: them (a dirty state, M or O, is a code >= ``_O``).
_I = int(MOESI.I)
_S = int(MOESI.S)
_E = int(MOESI.E)
_O = int(MOESI.O)
_M = int(MOESI.M)

#: BusRd downgrade by code (M supplies and becomes Owned, E demotes to S).
_READ_DOWNGRADE = (_I, _S, _S, _O, _O)

#: The protocol violations both tiers detect, by the code the native
#: core reports them with; formatted with ``node``, ``block`` and
#: ``state`` (a MOESI name).
VIOLATIONS = {
    2: "L1 inclusion violated on node {node}: displaced L1 block "
       "{block:#x} has no L2 frame",
    3: "dirty L1 block {block:#x} on node {node} backed by L2 state {state}",
    4: "L1 writable line {block:#x} on node {node} not backed by a valid "
       "L2 subblock",
}


def violation(code: int, node: int, block: int, state: int = _I) -> CoherenceError:
    """The :class:`~repro.errors.CoherenceError` for violation ``code``."""
    return CoherenceError(VIOLATIONS[code].format(
        node=node, block=block, state=MOESI(state).name
    ))


class CacheNode:
    """A processor node on the snoopy bus."""

    def __init__(self, node_id: int, config: SystemConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.l1 = L1Cache(config.l1)
        self.l2 = L2Cache(config.l2)
        self.wb = WriteBuffer(config.wb_entries, config.l2.subblocks_per_block)
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
        self._n_sub = config.l2.subblocks_per_block
        self._l2_sub_mask = self._n_sub - 1
        self._l1_find = self.l1.find
        self._l1_lines = self.l1.lines
        #: The L2's and write buffer's buffers (restored in place, so
        #: the aliases hold): an L2 lookup is ``tags[block & mask]`` plus
        #: a compare.
        self._l2_tags = self.l2.tags
        self._l2_states = self.l2.states
        self._l2_in_l1 = self.l2.in_l1
        self._l2_mask = self.l2.mask
        self._wb_tags = self.wb.tags
        self._wb_states = self.wb.states
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

        The caches and write buffer restore their buffers in place
        (``_l1_lines`` and the ``_l2_*`` aliases, and the native core,
        hold them); the pending event stream is rebuilt fresh, so the
        cached ``_emit`` append must be re-bound afterwards.
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
        sub = (address >> self._l1_shift) & self._l2_sub_mask

        stats.l2_local_accesses += 1
        stats.l2_local_tag_probes += 1

        slot = l2_block & self._l2_mask
        if self._l2_tags[slot] != l2_block:
            self._handle_tag_miss(l2_block, slot)
        self._service_subblock(slot, address, sub, is_write)

    def _handle_tag_miss(self, l2_block: int, slot: int) -> None:
        """Allocate the L2 frame in ``slot``, reclaiming from the WB when
        possible."""
        stats = self.stats
        reclaimed = self.wb.remove(l2_block)

        stats.l2_block_allocs += 1
        if self._l2_tags[slot] >= 0:
            self._retire_victim(slot)
        n = self._n_sub
        self._l2_tags[slot] = l2_block
        # Reclaim the dirty subblocks with their original states so an
        # Owned copy is not silently promoted to Modified.
        self._l2_states[slot * n:(slot + 1) * n] = reclaimed or bytes(n)
        self._l2_in_l1[slot] = 0
        self._emit((l2_block << BLOCK_SHIFT) | ALLOC)
        if reclaimed is not None:
            stats.wb_reclaims += 1

    def _retire_victim(self, slot: int) -> None:
        """Push the frame in ``slot`` towards memory and keep L1
        inclusion (the caller then reuses the slot)."""
        stats = self.stats
        victim = self._l2_tags[slot]
        stats.l2_block_evictions += 1
        self._emit((victim << BLOCK_SHIFT) | EVICT)

        # Inclusion: drop every L1 copy of the victim's subblocks.  Dirty
        # L1 data is newer than the L2 copy; pulling it back is an L1
        # writeback that merges into the outgoing block.
        hints = self._l2_in_l1[slot]
        sub = 0
        while hints:
            if hints & 1:
                dropped = self.l1.invalidate(self._l1_block_of(victim, sub))
                if dropped is not None and dropped & DIRTY:
                    stats.l1_writebacks += 1
            hints >>= 1
            sub += 1

        n = self._n_sub
        states = self._l2_states[slot * n:(slot + 1) * n]
        if max(states) >= _O:
            stats.l2_dirty_evictions += 1
            if self.wb.full:
                self._drain_one()
            self.wb.push(victim, states)
            stats.wb_pushes += 1

    def _service_subblock(
        self, slot: int, address: int, sub: int, is_write: bool
    ) -> None:
        """Complete the access now that the frame in ``slot`` holds the
        block."""
        stats = self.stats
        states = self._l2_states
        index = slot * self._n_sub + sub
        state = states[index]

        if state and (not is_write or state == _M or state == _E):
            stats.l2_local_hits += 1
            stats.l2_local_data_reads += 1
            if is_write:
                states[index] = _M
            self._fill_l1(slot, address, sub, is_write)
            return

        if state and is_write:
            # Write hit on a shared subblock (S or O): bus upgrade.
            stats.l2_local_hits += 1
            stats.upgrades_issued += 1
            self._broadcast(BusOp.UPGRADE, address)
            states[index] = _M
            stats.l2_local_tag_updates += 1
            stats.l2_local_data_reads += 1
            self._fill_l1(slot, address, sub, is_write)
            return

        # Subblock miss (tag may or may not have just been allocated).
        stats.l2_local_misses += 1
        op = BusOp.READ_X if is_write else BusOp.READ
        result = self._broadcast(op, address)
        if is_write:
            states[index] = _M
        elif result.remote_hits > 0:
            states[index] = _S
        else:
            states[index] = _E
        stats.l2_local_tag_updates += 1
        stats.l2_local_data_writes += 1
        self._fill_l1(slot, address, sub, is_write)

    def _fill_l1(self, slot: int, address: int, sub: int, is_write: bool) -> None:
        """Install the serviced subblock into the L1 and track inclusion."""
        state = self._l2_states[slot * self._n_sub + sub]
        displaced = self.l1.fill(
            address >> self._l1_shift, state == _M or state == _E, is_write
        )
        self._l2_in_l1[slot] |= 1 << sub

        if displaced is not None:
            self._handle_l1_displacement(*displaced)

    def _handle_l1_displacement(self, block: int, dirty: bool) -> None:
        """An L1 fill displaced another block: write back and un-hint."""
        stats = self.stats
        ratio_bits = self._l2_shift - self._l1_shift
        l2_block = block >> ratio_bits
        sub = block & self._l2_sub_mask
        slot = l2_block & self._l2_mask
        if self._l2_tags[slot] != l2_block:
            raise violation(2, self.node_id, block)
        self._l2_in_l1[slot] &= ~(1 << sub)
        if dirty:
            stats.l1_writebacks += 1
            stats.l2_local_data_writes += 1
            # The mirror already holds M for dirty L1 lines.
            state = self._l2_states[slot * self._n_sub + sub]
            if state != _M:
                raise violation(3, self.node_id, block, state)

    def _mirror_l1_write(self, address: int) -> None:
        """Reflect a silent E->M upgrade of a writable L1 line into the L2."""
        l2_block = address >> self._l2_shift
        sub = (address >> self._l1_shift) & self._l2_sub_mask
        slot = l2_block & self._l2_mask
        index = slot * self._n_sub + sub
        if self._l2_tags[slot] != l2_block or not self._l2_states[index]:
            raise violation(4, self.node_id, address)
        self._l2_states[index] = _M

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
        for _block in self.wb.drain_all():
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
        sub = (address >> self._l1_shift) & self._l2_sub_mask
        reply = self._reply
        reply.hit = False
        reply.supplied = False

        # --- Write buffer: probed on every snoop, never filtered -------
        stats.wb_probes += 1
        wb_tags = self._wb_tags
        if l2_block in wb_tags and self._wb_states[
            wb_tags.index(l2_block) * self._n_sub + sub
        ]:
            stats.wb_hits += 1
            reply.hit = True
            reply.supplied = True
            if op is not BusOp.READ:  # READ_X or UPGRADE
                self._cancel_wb_subblock(l2_block, sub)

        # --- L2 tag probe (ground truth; filtering is modelled at replay)
        slot = l2_block & self._l2_mask
        stats.snoops_observed += 1
        stats.snoop_tag_probes += 1
        if self._l2_tags[slot] != l2_block:
            # flag bits: subblock invalid, tag absent.
            self._emit(l2_block << BLOCK_SHIFT)
            stats.snoop_misses += 1
            return reply

        index = slot * self._n_sub + sub
        state = self._l2_states[index]
        flag = 3 if state else 2  # bit 0: subblock valid; bit 1: tag present
        self._emit((l2_block << BLOCK_SHIFT) | (flag << FLAG_SHIFT))

        stats.snoop_block_present += 1
        if state:
            stats.snoop_hits += 1
        else:
            stats.snoop_misses += 1
            return reply

        reply.hit = True
        if op is BusOp.READ:
            self._snoop_read(slot, sub, state, reply)
        else:
            self._snoop_invalidate(slot, sub, state, op, reply)
        return reply

    def _snoop_read(
        self, slot: int, sub: int, state: int, reply: SnoopReply
    ) -> None:
        """BusRd: supply data if owner, downgrade exclusivity."""
        stats = self.stats
        if state >= _O:
            reply.supplied = True
            stats.snoop_data_supplies += 1
        if self._l2_in_l1[slot] >> sub & 1:
            # The L1 may hold write permission; revoke it.  If the L1 line
            # is dirty its data is pulled into the L2 as part of the
            # supply, leaving the L1 copy clean.
            stats.l1_snoop_probes += 1
            l1_slot = self._l1_find(self._l1_block_of(self._l2_tags[slot], sub))
            if l1_slot >= 0:
                line = self._l1_lines[l1_slot]
                self._l1_lines[l1_slot] = line & ~(WRITABLE | DIRTY)
                if line & DIRTY:
                    stats.l1_writebacks += 1
        new_state = _READ_DOWNGRADE[state]
        if new_state != state:
            self._l2_states[slot * self._n_sub + sub] = new_state
            stats.snoop_state_updates += 1

    def _snoop_invalidate(
        self, slot: int, sub: int, state: int, op: BusOp, reply: SnoopReply
    ) -> None:
        """BusRdX / BusUpgr: invalidate our copy, supplying data for RdX."""
        stats = self.stats
        if op is BusOp.READ_X and state >= _O:
            reply.supplied = True
            stats.snoop_data_supplies += 1
        if self._l2_in_l1[slot] >> sub & 1:
            stats.l1_snoop_probes += 1
            self.l1.invalidate(self._l1_block_of(self._l2_tags[slot], sub))
            self._l2_in_l1[slot] &= ~(1 << sub)
        self._l2_states[slot * self._n_sub + sub] = _I
        stats.snoop_state_updates += 1

    def _cancel_wb_subblock(self, l2_block: int, sub: int) -> None:
        """Drop a write-buffered subblock whose ownership a snoop took;
        the rest of the entry moves to the back of the FIFO."""
        remaining = bytearray(self.wb.remove(l2_block))
        remaining[sub] = _I
        if any(remaining):
            self.wb.push(l2_block, remaining)
