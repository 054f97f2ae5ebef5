"""A small least-recently-used ordering tracker for filter sets.

The tracker maintains a recency ordering over a fixed population of way
indices (0..ways-1).  It is deliberately independent of what is stored in
the ways, so the exclude-JETTY arrays share it.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class LRUTracker:
    """Track the recency order of ``ways`` slots.

    The internal list is ordered from most-recently-used (index 0) to
    least-recently-used (last index).  All operations are O(ways), which is
    fine because associativities in this package are small (<= 16).
    """

    __slots__ = ("_order",)

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ConfigurationError(f"LRUTracker needs >= 1 way, got {ways}")
        self._order: list[int] = list(range(ways))

    def touch(self, way: int) -> None:
        """Mark ``way`` as most recently used."""
        order = self._order
        if order[0] == way:  # already MRU — the common repeated-touch case
            return
        order.remove(way)
        order.insert(0, way)

    def victim(self) -> int:
        """Return the least-recently-used way (does not reorder)."""
        return self._order[-1]

    def snapshot(self) -> list[int]:
        """The recency ordering as serialisable logical state."""
        return list(self._order)

    def restore(self, state: list[int]) -> None:
        """Adopt a previously snapshotted recency ordering."""
        if sorted(state) != sorted(self._order):
            raise ConfigurationError(
                f"LRU snapshot covers ways {sorted(state)}, "
                f"tracker has {sorted(self._order)}"
            )
        self._order = list(state)

    def mru(self) -> int:
        """Return the most-recently-used way."""
        return self._order[0]

    def order(self) -> tuple[int, ...]:
        """Return the current MRU-to-LRU ordering as a tuple."""
        return tuple(self._order)
