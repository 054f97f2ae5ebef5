"""Hybrid-JETTY (HJ): an include- and an exclude-JETTY in parallel (§3.3).

Both components are probed concurrently on a snoop; if *either* guarantees
absence the snoop is filtered.  The exclude component serves as backup for
the include component: an EJ entry is allocated only when the IJ failed to
filter the snoop.  That condition falls out naturally from the event
protocol — :meth:`on_snoop_outcome` is only invoked for snoops the whole
HJ passed, i.e. exactly those the IJ could not filter.
"""

from __future__ import annotations

from repro.core.base import SnoopFilter
from repro.core.exclude import ExcludeJetty
from repro.core.include import IncludeJetty
from repro.core.vector_exclude import VectorExcludeJetty


class HybridJetty(SnoopFilter):
    """HJ combining an :class:`IncludeJetty` and an exclude-style filter.

    Named ``HJ(<ij-name>, <ej-name>)`` after the paper's ``(IJ, EJ)``
    scheme.  The exclude component may be an :class:`ExcludeJetty` or a
    :class:`VectorExcludeJetty` (the paper evaluated both; §4.3.4).
    """

    def __init__(
        self,
        include: IncludeJetty,
        exclude: ExcludeJetty | VectorExcludeJetty,
    ) -> None:
        super().__init__()
        self.include = include
        self.exclude = exclude
        self.name = f"HJ({include.name}, {exclude.name})"
        # Bound component hooks (the public on_* wrappers add nothing):
        # one call layer less on every replayed event.
        self._ij_alloc = include._on_block_allocated
        self._ij_evict = include._on_block_evicted
        self._ex_outcome = exclude._on_snoop_outcome
        self._ex_alloc = exclude._on_block_allocated
        self._ex_evict = (
            exclude._on_block_evicted
            if type(exclude)._on_block_evicted is not SnoopFilter._on_block_evicted
            else None
        )

    # ------------------------------------------------------------------

    def probe(self, block: int) -> bool:
        """Filtered when either component guarantees absence.

        Both components are physically probed in parallel (the paper keeps
        snoop latency down this way), so both probe counters advance even
        when the first component already filters the snoop.  Overrides
        the base counting wrapper with the counting inlined (hot path).
        """
        ij_passes = self.include.probe(block)
        ej_passes = self.exclude.probe(block)
        counts = self.counts
        counts.probes += 1
        if ij_passes and ej_passes:
            return True
        counts.filtered += 1
        return False

    def _on_snoop_outcome(self, block: int, present: bool) -> None:
        # Only the exclude component learns from snoop outcomes; reaching
        # here implies the IJ failed to filter, the paper's allocation
        # condition for the backup EJ.
        self._ex_outcome(block, present)

    def _on_block_allocated(self, block: int) -> None:
        self._ij_alloc(block)
        self._ex_alloc(block)

    def _on_block_evicted(self, block: int) -> None:
        self._ij_evict(block)
        # Stock exclude variants define no eviction hook (an absent block
        # simply has no entry) and are skipped.
        if self._ex_evict is not None:
            self._ex_evict(block)

    # ------------------------------------------------------------------

    def storage_bits(self) -> int:
        return self.include.storage_bits() + self.exclude.storage_bits()

    def _snapshot_state(self):
        # Full component snapshots (their counts included): the energy
        # model prices component counters separately, so they are
        # logical state of the hybrid.  The bound component hooks read
        # their storage through ``self`` and need no rebinding — each
        # component's restore writes its storage in place.
        return {
            "include": self.include.snapshot(),
            "exclude": self.exclude.snapshot(),
        }

    def _restore_state(self, state) -> None:
        self.include.restore(state["include"])
        self.exclude.restore(state["exclude"])

    def reset_counts(self) -> None:
        super().reset_counts()
        self.include.reset_counts()
        self.exclude.reset_counts()

    def energy_counts(self):
        """HJ probes paired with the components' storage-update counts.

        ``probes`` counts HJ lookups once each — the energy model prices a
        hybrid probe as (IJ probe + EJ probe) since both run in parallel —
        while writes/counter updates happen only inside the components.
        """
        from repro.core.base import FilterEventCounts

        return FilterEventCounts(
            probes=self.counts.probes,
            filtered=self.counts.filtered,
            entry_writes=self.exclude.counts.entry_writes,
            cnt_updates=self.include.counts.cnt_updates,
            pbit_writes=self.include.counts.pbit_writes,
        )
