"""Statistics collected by the coherence simulator.

:class:`NodeStats` counts every access type the energy model prices;
:class:`SimResult` bundles per-node stats and bus stats for one
simulated workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NodeStats:
    """Per-node access counters.

    Naming convention: ``l2_local_*`` are accesses initiated by the local
    processor; ``snoop_*`` are bus-induced.  "Hits" at L2 are subblock
    hits (the requested coherence unit was valid); ``snoop_block_present``
    additionally counts snoops whose block *tag* matched regardless of
    subblock state — the quantity JETTY safety is defined against.
    """

    # Processor-side
    local_reads: int = 0
    local_writes: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l1_writebacks: int = 0

    # L2, locally initiated
    l2_local_accesses: int = 0
    l2_local_hits: int = 0
    l2_local_misses: int = 0
    l2_local_tag_probes: int = 0
    l2_local_tag_updates: int = 0
    l2_local_data_reads: int = 0
    l2_local_data_writes: int = 0
    l2_block_allocs: int = 0
    l2_block_evictions: int = 0
    l2_dirty_evictions: int = 0
    upgrades_issued: int = 0
    wb_reclaims: int = 0

    # L2, snoop-induced
    snoops_observed: int = 0
    snoop_tag_probes: int = 0
    snoop_hits: int = 0
    snoop_misses: int = 0
    snoop_block_present: int = 0
    snoop_state_updates: int = 0
    snoop_data_supplies: int = 0
    l1_snoop_probes: int = 0

    # Write buffer
    wb_probes: int = 0
    wb_hits: int = 0
    wb_pushes: int = 0
    wb_drains: int = 0

    @property
    def local_accesses(self) -> int:
        return self.local_reads + self.local_writes

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0

    @property
    def l2_local_hit_rate(self) -> float:
        total = self.l2_local_hits + self.l2_local_misses
        return self.l2_local_hits / total if total else 0.0

    @property
    def l2_total_accesses(self) -> int:
        """All L2 tag accesses: local plus snoop-induced."""
        return self.l2_local_accesses + self.snoop_tag_probes

    def merged_with(self, other: "NodeStats") -> "NodeStats":
        """Elementwise sum (aggregate over nodes)."""
        merged = NodeStats()
        for name in vars(self):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


@dataclass
class BusStats:
    """Bus-level summary extracted from the Bus counter object."""

    reads: int = 0
    read_exclusives: int = 0
    upgrades: int = 0
    writebacks: int = 0
    remote_hit_histogram: tuple[int, ...] = ()

    @property
    def snoopable(self) -> int:
        return self.reads + self.read_exclusives + self.upgrades

    def remote_hit_fractions(self) -> tuple[float, ...]:
        """Histogram normalised over snoopable transactions (Table 3)."""
        total = self.snoopable
        if total == 0:
            return tuple(0.0 for _ in self.remote_hit_histogram)
        return tuple(count / total for count in self.remote_hit_histogram)


@dataclass
class SimResult:
    """The statistics of one simulation run."""

    workload: str
    n_cpus: int
    node_stats: list[NodeStats]
    bus: BusStats
    accesses: int = 0

    @property
    def aggregate(self) -> NodeStats:
        """Node stats summed over all CPUs (the paper reports aggregates)."""
        total = NodeStats()
        for stats in self.node_stats:
            total = total.merged_with(stats)
        return total

    @property
    def snoop_miss_fraction_of_snoops(self) -> float:
        """Table 3: snoop-induced tag accesses that miss / snoop accesses."""
        agg = self.aggregate
        if agg.snoop_tag_probes == 0:
            return 0.0
        return agg.snoop_misses / agg.snoop_tag_probes

    @property
    def snoop_miss_fraction_of_all(self) -> float:
        """Table 3: snoop-induced tag misses / all L2 tag accesses."""
        agg = self.aggregate
        if agg.l2_total_accesses == 0:
            return 0.0
        return agg.snoop_misses / agg.l2_total_accesses
