"""Widely shared, mostly read-only data.

All processors read a common region, so copies replicate and a miss's
snoop can find copies in one, two, or all other caches — the multi-hit
tail of Table 3 and the paper's stated worst case for JETTY ("an access
to widely-shared data where all caches have a read-only copy", §2).  An
optional trickle of writes invalidates replicas and restarts the
replication, keeping the snoop stream from going fully quiet.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.traces.synth.base import WORD_BYTES
from repro.traces.synth.private import PrivateWorkingSet


class SharedReadOnly(PrivateWorkingSet):
    """Replicated read sharing over one region.

    The walk is a :class:`PrivateWorkingSet` whose CPUs all start at
    the same base: each still keeps its own cursor and runs.

    Args:
        cpus: the reading processors (each listed once).
        base: region base byte address.
        region_bytes: shared-region span.
        write_frac: small fraction of stores (invalidation trickle).
        run_mean: mean sequential-run length in words.
        alpha: temporal skew toward the hot front of the region.
    """

    def __init__(
        self,
        cpus: Sequence[int],
        base: int,
        region_bytes: int,
        write_frac: float = 0.02,
        run_mean: int = 6,
        alpha: float = 2.5,
    ) -> None:
        if region_bytes < WORD_BYTES:
            raise ConfigurationError(f"region too small: {region_bytes} B")
        super().__init__(
            cpus, [base] * len(cpus), region_bytes,
            write_frac=write_frac, run_mean=run_mean, alpha=alpha,
        )
        self.base = base
        self.region_bytes = region_bytes
