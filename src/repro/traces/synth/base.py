"""Pattern interface and shared generator helpers.

Every pattern keeps its mutable state -- cursors, pair phases, object
holders -- in one flat ``array('q')`` (:attr:`Pattern.state`), laid out
the same way for its Python :meth:`~Pattern.draw` and for its port in
the native core (``repro/core/machine.c``), which both index it in
place.  :meth:`Pattern.native` describes the pattern to that port.
"""

from __future__ import annotations

import ctypes
import random
from abc import ABC, abstractmethod
from array import array
from collections.abc import Sequence

from repro.errors import ConfigurationError
from repro.traces.access import MAX_CPUS, unpack_access

#: Access granularity of the simulated processors (bytes per load/store).
WORD_BYTES = 8

#: Pattern kinds of the native port (``machine.c`` mirrors them).
WALK, SWEEP, PAIRS, MIGRATE = range(4)


class NativePattern(ctypes.Structure):
    """One pattern as the native generator reads it (``pattern`` in
    ``machine.c``).  What ``words``, ``bytes`` and ``count`` mean depends
    on ``kind``; each :meth:`Pattern.native` says."""

    _fields_ = [
        ("kind", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("n_cpus", ctypes.c_int64),
        ("cpus", ctypes.c_void_p),
        ("bases", ctypes.c_void_p),
        ("state", ctypes.c_void_p),
        ("words", ctypes.c_int64),
        ("bytes", ctypes.c_int64),
        ("count", ctypes.c_int64),
        ("write_frac", ctypes.c_double),
        ("alpha", ctypes.c_double),
        ("remote_frac", ctypes.c_double),
    ]


def address_of(buffer: array) -> int:
    """The address of an ``array``'s first item (stable: never resized)."""
    return buffer.buffer_info()[0]


class Pattern(ABC):
    """A stateful source of packed accesses.

    Patterns are driven one access at a time so a
    :class:`~repro.traces.synth.mix.WorkloadMix` can interleave several of
    them with arbitrary weights.  All randomness comes from the ``rng``
    passed in, keeping whole workloads reproducible from a single seed.
    """

    #: The pattern's mutable state, shared in place with the native port.
    state: array

    @abstractmethod
    def draw(self, rng: random.Random) -> int:
        """Produce the next access of this pattern, packed
        (:func:`repro.traces.access.pack_access` layout)."""

    @abstractmethod
    def native(self) -> NativePattern:
        """This pattern's description for the native generator."""

    def next_access(self, rng: random.Random) -> tuple[int, int, bool]:
        """Produce the next access as a ``(cpu, address, is_write)`` tuple."""
        return unpack_access(self.draw(rng))


def checked_cpus(cpus: Sequence[int], distinct: bool = True) -> array:
    """``cpus`` as an ``array('q')``, once each fits the packed CPU field.

    Patterns with ``distinct`` CPUs keep one cursor per slot, where a
    CPU listed twice would once have shared one: duplicates are refused.
    """
    if not cpus:
        raise ConfigurationError("a pattern needs at least one CPU")
    if not all(0 <= cpu < MAX_CPUS for cpu in cpus):
        raise ConfigurationError(f"CPUs must be in 0..{MAX_CPUS - 1}: {cpus}")
    if distinct and len(set(cpus)) != len(cpus):
        raise ConfigurationError(f"a CPU is listed twice: {list(cpus)}")
    return array("q", cpus)


def skewed_offset(rng: random.Random, span: int, alpha: float) -> int:
    """Draw an offset in ``[0, span)`` with a power-law skew toward 0.

    ``alpha == 1`` is uniform; larger values concentrate accesses near the
    region start, modelling a hot working-set front the way trace studies
    characterise temporal locality.
    """
    return min(int(span * (rng.random() ** alpha)), span - 1)


def geometric_run(rng: random.Random, mean: int) -> int:
    """Draw a sequential-run length with the given mean (>= 1)."""
    if mean <= 1:
        return 1
    # Geometric with success probability 1/mean.
    length = 1
    probability = 1.0 / mean
    while rng.random() > probability:
        length += 1
        if length >= mean * 8:  # bound the tail
            break
    return length
