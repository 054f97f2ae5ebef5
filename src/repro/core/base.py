"""Abstract interface and bookkeeping shared by all JETTY variants.

All filters operate at **L2 block granularity**: the caller converts a
snooped physical address to a block number (``address >> block_offset_bits``)
before probing.  This matches the paper — every variant records or encodes
block, not subblock, presence — and keeps the filters independent of the
cache's subblocking scheme.

The interface deliberately mirrors how a JETTY is wired in hardware:

* :meth:`SnoopFilter.probe` — the bus-side lookup on every snoop.  Returns
  ``True`` when the block *may* be cached (the L2 tag array must be probed)
  and ``False`` when the filter guarantees absence (tag probe skipped).
* :meth:`SnoopFilter.on_snoop_outcome` — called only for snoops that were
  *not* filtered, with the L2's true answer.  Exclude-style filters learn
  their contents here.
* :meth:`SnoopFilter.on_block_allocated` / :meth:`on_block_evicted` —
  driven by the L2 fill/replacement path.  Include-style filters keep their
  counters coherent here; exclude-style filters invalidate stale entries on
  allocation (the safety-critical update).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass


@dataclass
class FilterEventCounts:
    """Raw event counts a filter accumulates, consumed by the energy model.

    Attributes:
        probes: bus snoops that looked up the filter.
        filtered: probes answered "guaranteed absent" (L2 tag probe skipped).
        entry_writes: entry allocations/updates in exclude-style storage.
        cnt_updates: counter read-modify-writes in include-style sub-arrays
            (one per sub-array per L2 allocate/evict).
        pbit_writes: presence-bit writes (count transitions 0 <-> 1).
    """

    probes: int = 0
    filtered: int = 0
    entry_writes: int = 0
    cnt_updates: int = 0
    pbit_writes: int = 0

    @property
    def passed(self) -> int:
        """Probes that could not be filtered (L2 tag array was accessed)."""
        return self.probes - self.filtered

    def merged_with(self, other: "FilterEventCounts") -> "FilterEventCounts":
        """Return the elementwise sum of two event-count records."""
        return FilterEventCounts(
            probes=self.probes + other.probes,
            filtered=self.filtered + other.filtered,
            entry_writes=self.entry_writes + other.entry_writes,
            cnt_updates=self.cnt_updates + other.cnt_updates,
            pbit_writes=self.pbit_writes + other.pbit_writes,
        )


class SnoopFilter(ABC):
    """Base class for every JETTY variant.

    Subclasses implement the four event hooks; this class owns the event
    counters and the public naming/storage introspection surface.
    """

    #: Human-readable configuration name, e.g. ``"EJ-32x4"``.
    name: str = "filter"

    def __init__(self) -> None:
        self.counts = FilterEventCounts()

    # ------------------------------------------------------------------
    # Bus-side interface
    # ------------------------------------------------------------------

    def probe(self, block: int) -> bool:
        """Probe the filter for ``block``.

        Returns ``True`` if the block may be cached locally (the snoop must
        proceed to the L2 tag array) and ``False`` if the filter guarantees
        the block is not cached (the snoop is *filtered*).
        """
        self.counts.probes += 1
        may_be_cached = self._probe(block)
        if not may_be_cached:
            self.counts.filtered += 1
        return may_be_cached

    def on_snoop_outcome(self, block: int, present: bool) -> None:
        """Learn from an unfiltered snoop's true L2 outcome.

        ``present`` is True when the L2 holds the block (any subblock valid).
        Called only for snoops :meth:`probe` did not filter — a filtered
        snoop never reaches the L2, so no outcome exists for it.
        """
        self._on_snoop_outcome(block, present)

    # ------------------------------------------------------------------
    # Cache-side interface (fill / replacement path)
    # ------------------------------------------------------------------

    def on_block_allocated(self, block: int) -> None:
        """Notify the filter that the L2 allocated a frame for ``block``."""
        self._on_block_allocated(block)

    def on_block_evicted(self, block: int) -> None:
        """Notify the filter that the L2 evicted (deallocated) ``block``."""
        self._on_block_evicted(block)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @abstractmethod
    def storage_bits(self) -> int:
        """Total storage the structure requires, in bits."""

    def reset_counts(self) -> None:
        """Zero the accumulated event counters (storage state is kept)."""
        self.counts = FilterEventCounts()

    def energy_counts(self) -> FilterEventCounts:
        """Event counts priced by the energy model.

        Composite filters override this to combine their own probe counts
        with the storage-update counts of their components.
        """
        return self.counts

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serialisable logical state: event counters plus variant state.

        Part of the uniform ``snapshot()``/``restore()`` checkpoint
        protocol: the returned dict is canonical-JSON-safe, and feeding
        it to :meth:`restore` on a freshly built filter of the same
        configuration reproduces this filter exactly — subsequent probes
        and updates behave (and count) identically.
        """
        return {
            "name": self.name,
            "counts": vars(self.counts).copy(),
            "state": self._snapshot_state(),
        }

    def restore(self, state: dict) -> None:
        """Adopt a snapshot taken from an identically configured filter."""
        from repro.errors import ConfigurationError

        if state.get("name") != self.name:
            raise ConfigurationError(
                f"snapshot is for filter {state.get('name')!r}, "
                f"this filter is {self.name!r}"
            )
        self.counts = FilterEventCounts(**state["counts"])
        self._restore_state(state["state"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _probe(self, block: int) -> bool:
        """Variant-specific probe; True means "may be cached".

        A variant implements either this hook (and inherits the counting
        wrapper above) or overrides :meth:`probe` itself with counting
        inlined — the hot filters do the latter, and deliberately do
        *not* also keep a ``_probe`` copy of the same logic in sync.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _probe() or override probe()"
        )

    def _on_snoop_outcome(self, block: int, present: bool) -> None:
        """Variant-specific learning hook (default: ignore)."""

    def _on_block_allocated(self, block: int) -> None:
        """Variant-specific allocation hook (default: ignore)."""

    def _on_block_evicted(self, block: int) -> None:
        """Variant-specific eviction hook (default: ignore)."""

    def _snapshot_state(self):
        """Variant-specific storage state (default: stateless)."""
        return None

    def _restore_state(self, state) -> None:
        """Adopt variant-specific storage state (default: stateless)."""
        if state is not None:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"{type(self).__name__} is stateless but the snapshot "
                "carries state"
            )
