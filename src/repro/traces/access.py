"""Access records: the packed access format and a stream container.

**Packed encoding.**  The simulator consumes accesses as single
non-negative ``int64`` words in ``array('q')`` batches::

      63      ...      8   7    ...    1   0
    +--------------------+--------------+---+
    |      address       |     cpu      | W |
    +--------------------+--------------+---+

    W       (bit 0)     the access is a store
    cpu     (bits 1-7)  the issuing processor, so at most 128 CPUs
    address (bits 8+)   the byte address

:func:`pack_access` / :func:`unpack_access` round-trip one access, in
the style of :func:`repro.core.stats.pack_event`.  The generators draw
packed words directly (:meth:`repro.traces.synth.MixStream.take`), and
the native core (``repro/core/machine.c``) mirrors this layout in both
its generator and its L1-hit loop.  Accesses from anywhere else --
lists, :class:`AccessStream`, :meth:`repro.coherence.smp.SMPSystem.access`
-- are packed by :func:`pack_access`, which validates them.

:class:`AccessStream` is a light container for materialised
``(cpu, address, is_write)`` streams plus helpers to summarise them in
tests and examples.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import TraceError

#: Bit layout of a packed access (see the module docstring).
WRITE_BIT = 1
CPU_SHIFT = 1
CPU_MASK = 0x7F
ADDRESS_SHIFT = 8

#: CPUs the 7-bit CPU field can name.
MAX_CPUS = CPU_MASK + 1


def pack_access(
    cpu: int, address: int, is_write: bool, n_cpus: int = MAX_CPUS
) -> int:
    """Pack one external access, rejecting what the format cannot hold.

    A CPU outside ``0..n_cpus-1`` or a negative address raises
    :class:`~repro.errors.TraceError`.
    """
    if not 0 <= cpu < n_cpus:
        raise TraceError(f"access for CPU {cpu} on a {n_cpus}-way system")
    if address < 0:
        raise TraceError(f"negative address {address:#x}")
    return address << ADDRESS_SHIFT | cpu << CPU_SHIFT | bool(is_write)


def unpack_access(word: int) -> tuple[int, int, bool]:
    """Decode a packed access back into ``(cpu, address, is_write)``."""
    return (
        word >> CPU_SHIFT & CPU_MASK,
        word >> ADDRESS_SHIFT,
        bool(word & WRITE_BIT),
    )


def pack_accesses(
    accesses: Iterable[tuple[int, int, bool]], n_cpus: int = MAX_CPUS
) -> array:
    """Pack ``(cpu, address, is_write)`` tuples into one ``array('q')``."""
    return array("q", [
        pack_access(cpu, address, is_write, n_cpus)
        for cpu, address, is_write in accesses
    ])


@dataclass
class AccessStream:
    """A materialised interleaved access stream."""

    accesses: list[tuple[int, int, bool]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[tuple[int, int, bool]]:
        return iter(self.accesses)

    def append(self, cpu: int, address: int, is_write: bool) -> None:
        if address < 0:
            raise TraceError(f"negative address {address:#x}")
        self.accesses.append((cpu, address, is_write))

    @classmethod
    def from_iterable(
        cls, accesses: Iterable[tuple[int, int, bool]]
    ) -> "AccessStream":
        stream = cls()
        for cpu, address, is_write in accesses:
            stream.append(cpu, address, is_write)
        return stream

    # ------------------------------------------------------------------

    def write_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        if not self.accesses:
            return 0.0
        return sum(1 for _c, _a, w in self.accesses if w) / len(self.accesses)

    def cpu_histogram(self, n_cpus: int) -> list[int]:
        """Access count per CPU."""
        histogram = [0] * n_cpus
        for cpu, _address, _w in self.accesses:
            if not 0 <= cpu < n_cpus:
                raise TraceError(f"access for CPU {cpu} outside 0..{n_cpus - 1}")
            histogram[cpu] += 1
        return histogram

    def footprint_blocks(self, block_bytes: int = 64) -> int:
        """Number of distinct blocks touched (memory-allocated proxy)."""
        return len({address // block_bytes for _c, address, _w in self.accesses})
