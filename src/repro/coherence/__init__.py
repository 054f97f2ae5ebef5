"""Snoopy bus-based SMP coherence substrate.

This package implements the system the paper evaluates JETTY on: a 4-way
(or 8-way) symmetric multiprocessor with per-processor two-level inclusive
direct-mapped cache hierarchies, a write-back buffer, a shared snoopy bus,
and a MOESI write-invalidate protocol maintained at 32-byte subblock
granularity (paper §4.1, SUN SPARC-like memory system).

The simulator is trace-driven and functional: accesses complete atomically
in interleaved order, which is sufficient because JETTY affects energy but
not timing or protocol behaviour (paper §2.2).  While simulating, each
node emits the event stream its JETTY would observe, in bounded shards;
filters consume them live or replay them from a recorded trace (see
:mod:`repro.core.stats`).
"""

from repro.coherence.bus import Bus, BusOp
from repro.coherence.cache import L2Cache
from repro.coherence.config import (
    PAPER_SYSTEM,
    SCALED_SYSTEM,
    CacheConfig,
    SystemConfig,
)
from repro.coherence.metrics import BusStats, NodeStats, SimResult
from repro.coherence.node import CacheNode
from repro.coherence.smp import SMPSystem, simulate_streaming
from repro.coherence.states import MOESI
from repro.coherence.writebuffer import WriteBuffer

__all__ = [
    "Bus",
    "BusOp",
    "BusStats",
    "CacheConfig",
    "CacheNode",
    "L2Cache",
    "MOESI",
    "NodeStats",
    "PAPER_SYSTEM",
    "SCALED_SYSTEM",
    "SMPSystem",
    "SimResult",
    "SystemConfig",
    "WriteBuffer",
    "simulate_streaming",
]
