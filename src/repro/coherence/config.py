"""Memory-system configuration for the simulated SMP.

Two reference configurations are provided:

* :data:`PAPER_SYSTEM` — the paper's full-scale parameters (64 KB L1,
  1 MB L2, 36-bit physical addresses).  Used for analytical energy
  computations (Figure 2, Table 4) where no simulation is involved.
* :data:`SCALED_SYSTEM` — a geometrically scaled system (4 KB L1, 64 KB
  L2) used for trace-driven simulation, so pure-Python runs stay feasible.
  Working sets in :mod:`repro.traces.workloads` are scaled by the same
  ratio, preserving miss rates and snoop-stream locality (see DESIGN.md
  substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.traces.access import MAX_CPUS
from repro.utils.bitops import ilog2, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``subblock_bytes == block_bytes`` disables subblocking (each block is
    a single coherence unit), matching the paper's "NSB" configuration.
    ``ways`` sizes the energy model's tag and data arrays; the simulated
    machine (:class:`SystemConfig`) takes direct-mapped levels only.
    """

    capacity_bytes: int
    block_bytes: int
    subblock_bytes: int
    ways: int = 1

    def __post_init__(self) -> None:
        for label, value in (
            ("capacity", self.capacity_bytes),
            ("block size", self.block_bytes),
            ("subblock size", self.subblock_bytes),
            ("ways", self.ways),
        ):
            if not is_power_of_two(value):
                raise ConfigurationError(f"{label} must be a power of two, got {value}")
        if self.subblock_bytes > self.block_bytes:
            raise ConfigurationError(
                f"subblock ({self.subblock_bytes} B) larger than block "
                f"({self.block_bytes} B)"
            )
        if self.capacity_bytes < self.block_bytes * self.ways:
            raise ConfigurationError("capacity smaller than one set")

    @property
    def n_blocks(self) -> int:
        return self.capacity_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        return self.n_blocks // self.ways

    @property
    def subblocks_per_block(self) -> int:
        return self.block_bytes // self.subblock_bytes

    @property
    def block_offset_bits(self) -> int:
        return ilog2(self.block_bytes)

    @property
    def subblock_offset_bits(self) -> int:
        return ilog2(self.subblock_bytes)

    @property
    def index_bits(self) -> int:
        return ilog2(self.n_sets)

    @property
    def subblocked(self) -> bool:
        return self.subblock_bytes < self.block_bytes


@dataclass(frozen=True)
class SystemConfig:
    """Full SMP memory-system configuration.

    Both cache levels are direct-mapped, as in the paper's system.
    """

    n_cpus: int = 4
    l1: CacheConfig = CacheConfig(
        capacity_bytes=4 * 1024, block_bytes=32, subblock_bytes=32
    )
    l2: CacheConfig = CacheConfig(
        capacity_bytes=64 * 1024, block_bytes=64, subblock_bytes=32
    )
    wb_entries: int = 8
    address_bits: int = 32
    #: 2 bits of MOSI/MOESI state stored per tag (paper §2.1).
    state_bits: int = 2

    def __post_init__(self) -> None:
        if self.n_cpus < 2:
            raise ConfigurationError(f"an SMP needs >= 2 CPUs, got {self.n_cpus}")
        if self.n_cpus > MAX_CPUS:
            # The CPU field of a packed access is 7 bits wide.
            raise ConfigurationError(
                f"at most {MAX_CPUS} CPUs fit a packed access, got {self.n_cpus}"
            )
        for level, cache in (("L1", self.l1), ("L2", self.l2)):
            if cache.ways != 1:
                raise ConfigurationError(
                    f"the simulated {level} is direct-mapped, got "
                    f"{cache.ways} ways"
                )
        if self.l1.block_bytes != self.l2.subblock_bytes:
            raise ConfigurationError(
                "the L1 block must equal the L2 coherence unit "
                f"(L1 block {self.l1.block_bytes} B, "
                f"L2 subblock {self.l2.subblock_bytes} B)"
            )
        if self.wb_entries < 1:
            raise ConfigurationError("write buffer needs >= 1 entry")
        if self.l2.subblocks_per_block > 64:
            # The L2 keeps a block's L1-inclusion hints in one 64-bit mask.
            raise ConfigurationError(
                f"at most 64 L2 subblocks per block, got "
                f"{self.l2.subblocks_per_block}"
            )

    @property
    def block_address_bits(self) -> int:
        """Width of an L2 block number — what the JETTYs see."""
        return self.address_bits - self.l2.block_offset_bits

    @property
    def ij_counter_bits(self) -> int:
        """Pessimistic IJ counter width: log2 of the L2 block count."""
        return ilog2(self.l2.n_blocks)

    def without_subblocking(self) -> "SystemConfig":
        """Return the same system with L2 subblocking disabled (NSB).

        The coherence unit becomes the full L2 block, so the L1 block size
        is raised to match it.
        """
        l2 = replace(self.l2, subblock_bytes=self.l2.block_bytes)
        l1 = replace(self.l1, block_bytes=l2.block_bytes, subblock_bytes=l2.block_bytes)
        return replace(self, l1=l1, l2=l2)

    def with_cpus(self, n_cpus: int) -> "SystemConfig":
        """Return the same memory system with a different CPU count."""
        return replace(self, n_cpus=n_cpus)


#: The paper's simulated system (§4.1): SUN SPARC-like, 64 KB direct-mapped
#: L1 with 32 B blocks, 1 MB direct-mapped L2 with 64 B blocks of two 32 B
#: subblocks, MOESI at subblock granularity, 36-bit physical addresses.
PAPER_SYSTEM = SystemConfig(
    n_cpus=4,
    l1=CacheConfig(capacity_bytes=64 * 1024, block_bytes=32, subblock_bytes=32),
    l2=CacheConfig(capacity_bytes=1024 * 1024, block_bytes=64, subblock_bytes=32),
    wb_entries=8,
    address_bits=36,
)

#: Scaled system for simulation: both cache levels scaled by 16x, block and
#: subblock sizes kept, so index/tag behaviour and snoop locality carry over.
SCALED_SYSTEM = SystemConfig(
    n_cpus=4,
    l1=CacheConfig(capacity_bytes=4 * 1024, block_bytes=32, subblock_bytes=32),
    l2=CacheConfig(capacity_bytes=64 * 1024, block_bytes=64, subblock_bytes=32),
    wb_entries=8,
    address_bits=32,
)
