"""Trace substrate: access streams and synthetic SPLASH-2-style workloads.

The paper drives its simulator with traces of ten shared-memory
applications collected under the Wisconsin Wind Tunnel 2.  Neither WWT2
nor the original binaries/inputs are available here, so this package
builds the closest synthetic equivalent: per-CPU access streams composed
from the sharing patterns the paper itself names as the sources of snoop
behaviour (§2, §3.1) —

* private working sets with temporal/spatial locality (conflict misses
  whose snoops miss everywhere),
* producer/consumer sharing between processor pairs,
* migratory sharing through small critical sections,
* widely shared read-only data (the JETTY worst case),
* streaming sweeps over large arrays (Em3d-like).

Each of the paper's ten applications (Table 2) is modelled as a weighted
mix of these patterns, tuned so the simulated remote-hit distribution and
hit rates land near Tables 2–3.  See DESIGN.md's substitution table.
"""

from repro.traces.access import AccessStream
from repro.traces.interleave import random_interleave, round_robin
from repro.traces.synth import (
    MigratoryPattern,
    MixStream,
    Pattern,
    PrivateWorkingSet,
    ProducerConsumer,
    SharedReadOnly,
    StreamingSweep,
    WorkloadMix,
)
from repro.traces.workloads import (
    PRESETS,
    WORKLOADS,
    PaperReference,
    WorkloadSpec,
    apply_preset,
    build_workload_stream,
    get_workload,
    override_spec,
    resume_stream,
    stream_fingerprint,
)
from repro.traces.profiles import (  # noqa: E402 — needs workloads loaded
    PROFILE_ORDER,
    PROFILES,
    SharingProfile,
    get_profile,
)
from repro.traces.suite import (  # noqa: E402 — needs profiles loaded
    SUITE_ORDER,
    SUITES,
    Phase,
    PhaseSpec,
    Suite,
    SuiteSpec,
    canonical_suite,
)

__all__ = [
    "AccessStream",
    "MigratoryPattern",
    "MixStream",
    "PRESETS",
    "PROFILES",
    "PROFILE_ORDER",
    "Pattern",
    "PaperReference",
    "Phase",
    "PhaseSpec",
    "PrivateWorkingSet",
    "ProducerConsumer",
    "SUITES",
    "SUITE_ORDER",
    "SharedReadOnly",
    "SharingProfile",
    "StreamingSweep",
    "Suite",
    "SuiteSpec",
    "WORKLOADS",
    "WorkloadMix",
    "WorkloadSpec",
    "apply_preset",
    "build_workload_stream",
    "canonical_suite",
    "get_profile",
    "get_workload",
    "override_spec",
    "random_interleave",
    "resume_stream",
    "round_robin",
    "stream_fingerprint",
]
