"""Shared-bus transaction types and per-transaction snoop bookkeeping.

The bus model is functional: a transaction is broadcast to every other
node, each snoops synchronously, and the aggregated response (was any copy
found? did an owner supply data?) returns to the requester.  No timing is
modelled — JETTY does not change protocol behaviour or performance
(paper §2.2), so cycle accounting would not affect any reproduced result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import TraceError


class BusOp(Enum):
    """Snoopable bus transaction kinds of the write-invalidate protocol."""

    #: Read miss: requester wants a shared copy.
    READ = "BusRd"
    #: Write miss: requester wants an exclusive copy; others invalidate.
    READ_X = "BusRdX"
    #: Write hit on a shared subblock: invalidate other copies, no data.
    UPGRADE = "BusUpgr"


@dataclass(slots=True)
class SnoopReply:
    """One node's answer to a snoop (slotted: allocated once per snoop)."""

    #: The snooped subblock was valid in this node's hierarchy (L2 or WB).
    hit: bool = False
    #: This node owned the dirty copy and supplies the data.
    supplied: bool = False


@dataclass(slots=True)
class BusResult:
    """Aggregated outcome of one bus transaction."""

    op: BusOp
    #: Number of other nodes that held a valid copy of the subblock.
    remote_hits: int = 0
    #: True when some owner cache (or WB) supplied the data.
    data_supplied: bool = False


@dataclass
class BusStatsCounter:
    """Raw transaction counts the bus accumulates."""

    transactions: dict[BusOp, int] = field(
        default_factory=lambda: {op: 0 for op in BusOp}
    )
    writebacks: int = 0
    #: Histogram of remote-hit counts per snoopable transaction, indexed by
    #: the number of other caches holding a copy (0 .. n_cpus-1).
    remote_hit_histogram: list[int] = field(default_factory=list)

    def ensure_cpus(self, n_cpus: int) -> None:
        if not self.remote_hit_histogram:
            self.remote_hit_histogram = [0] * n_cpus

    @property
    def snoopable(self) -> int:
        return sum(self.transactions.values())


class Bus:
    """The shared snoopy bus connecting all nodes and memory.

    The bus does not know about nodes directly; :class:`repro.coherence.smp.
    SMPSystem` wires broadcasting.  This class owns transaction statistics
    so they are counted in exactly one place.
    """

    def __init__(self, n_cpus: int) -> None:
        self.n_cpus = n_cpus
        self.stats = BusStatsCounter()
        self.stats.ensure_cpus(n_cpus)

    def record_transaction(self, op: BusOp, replies: list[SnoopReply]) -> BusResult:
        """Fold snoop replies into a result and update statistics.

        The replies list may be a caller-owned reusable buffer; it is
        folded immediately and never retained.  The fold is a plain loop
        (no generator expressions) — this runs once per bus transaction.
        """
        remote_hits = 0
        supplied = False
        for reply in replies:
            if reply.hit:
                remote_hits += 1
            if reply.supplied:
                supplied = True
        stats = self.stats
        stats.transactions[op] += 1
        stats.remote_hit_histogram[remote_hits] += 1
        return BusResult(op=op, remote_hits=remote_hits, data_supplied=supplied)

    def record_writeback(self) -> None:
        self.stats.writebacks += 1

    def snapshot(self) -> dict:
        """Serialisable transaction counters (the bus has no other state)."""
        stats = self.stats
        return {
            "transactions": {op.name: n for op, n in stats.transactions.items()},
            "writebacks": stats.writebacks,
            "remote_hit_histogram": list(stats.remote_hit_histogram),
        }

    def restore(self, state: dict) -> None:
        """Adopt snapshotted counters (a fresh counter object is fine:
        :meth:`record_transaction` reads ``self.stats`` dynamically).

        Raises :class:`~repro.errors.TraceError` unless the remote-hit
        histogram has one bin per CPU.
        """
        histogram = state["remote_hit_histogram"]
        if len(histogram) != self.n_cpus:
            raise TraceError(
                f"bus snapshot has {len(histogram)} remote-hit bin(s), "
                f"the bus {self.n_cpus}"
            )
        counter = BusStatsCounter(
            transactions={
                op: state["transactions"][op.name] for op in BusOp
            },
            writebacks=state["writebacks"],
            remote_hit_histogram=list(histogram),
        )
        self.stats = counter
