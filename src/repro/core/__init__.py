"""The paper's contribution: JETTY snoop filters.

A JETTY sits between the shared bus and the backside of a processor's L2.
Every bus snoop probes the local JETTY first; when the JETTY *guarantees*
the block is absent from the local cache hierarchy the L2 tag array is not
probed, saving the energy of a (much larger) tag lookup that would have
missed anyway.

This package provides the filter family of the paper:

* :class:`ExcludeJetty` (EJ) — records recently snooped blocks known to be
  absent (paper Section 3.1).
* :class:`VectorExcludeJetty` (VEJ) — EJ with per-entry presence vectors
  over consecutive blocks (Section 3.1).
* :class:`IncludeJetty` (IJ) — counting-Bloom-style superset encoding of
  the blocks currently cached (Section 3.2).
* :class:`HybridJetty` (HJ) — an IJ and an EJ probed in parallel
  (Section 3.3).
* :class:`NullFilter` / :class:`OracleFilter` — lower/upper reference
  points used by the evaluation harness.

Configurations use the paper's naming scheme (``EJ-32x4``, ``VEJ-32x4-8``,
``IJ-10x4x7``, ``HJ(IJ-10x4x7, EJ-32x4)``); see :mod:`repro.core.config`.
"""

from repro.core.base import FilterEventCounts, SnoopFilter
from repro.core.config import (
    EJConfig,
    FilterConfig,
    HIJConfig,
    HJConfig,
    IJConfig,
    NullConfig,
    OracleConfig,
    PAPER_EJ_NAMES,
    PAPER_HJ_NAMES,
    PAPER_IJ_NAMES,
    PAPER_VEJ_NAMES,
    VEJConfig,
    build_filter,
    parse_filter_name,
)
from repro.core.exclude import ExcludeJetty
from repro.core.hashed_include import HashedIncludeJetty
from repro.core.hybrid import HybridJetty
from repro.core.include import IncludeJetty
from repro.core.null import NullFilter, OracleFilter
from repro.core.stats import CoverageStats, EventReplayer, FilterEvaluation

# ``StreamingFilterBank`` imports this module inside ``__init__`` (it
# imports ``stats`` back); loading it with the package keeps that import
# a ``sys.modules`` hit, so a first bank build pays no module load.
from repro.core import vector_replay  # noqa: E402,F401
from repro.core.vector_exclude import VectorExcludeJetty

__all__ = [
    "CoverageStats",
    "EJConfig",
    "EventReplayer",
    "ExcludeJetty",
    "FilterConfig",
    "FilterEvaluation",
    "FilterEventCounts",
    "HIJConfig",
    "HJConfig",
    "HashedIncludeJetty",
    "HybridJetty",
    "IJConfig",
    "IncludeJetty",
    "NullConfig",
    "NullFilter",
    "OracleConfig",
    "OracleFilter",
    "PAPER_EJ_NAMES",
    "PAPER_HJ_NAMES",
    "PAPER_IJ_NAMES",
    "PAPER_VEJ_NAMES",
    "SnoopFilter",
    "VEJConfig",
    "VectorExcludeJetty",
    "build_filter",
    "parse_filter_name",
]
