"""The two generator tiers draw the same packed accesses, bit for bit.

The native ``mix_take`` (``repro/core/machine.c``) must reproduce
CPython's MT19937 ``random()`` and ``_randbelow`` and the five patterns
exactly: the goldens are fixed points of the draw sequence.  These
tests pin that against the Python tier (the reference) for every
registered workload, suite and profile, against ``random.Random``
directly for the primitives, and across a checkpoint written on one
tier and resumed on the other.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core import _cmachine
from repro.traces import PROFILES, SUITES, WORKLOADS
from repro.traces.access import (
    MAX_CPUS,
    pack_access,
    pack_accesses,
    unpack_access,
)
from repro.traces.synth import (
    MigratoryPattern,
    PrivateWorkingSet,
    StreamingSweep,
    WorkloadMix,
)
from repro.traces.workloads import build_workload_stream, resume_stream
from repro.errors import ConfigurationError, TraceError

requires_native = pytest.mark.skipif(
    _cmachine.library() is None,
    reason="the native generator needs a C compiler",
)

#: Every registered stream source: plain workloads, suites, profiles.
SOURCES = [
    *WORKLOADS,
    *SUITES,
    *(f"profile:{name}" for name in PROFILES),
]

#: Accesses per stream: enough to cross every suite's phase boundaries.
ACCESSES = 3_000


def _stream(source: str, seed: int):
    if source.startswith("profile:"):
        mix = PROFILES[source.removeprefix("profile:")].build_mix(4)
        return mix.generate(ACCESSES, seed=seed)
    return build_workload_stream(source, n_accesses=ACCESSES, seed=seed)


def _drain(stream, seed: int, tiers) -> list[int]:
    """Take the whole stream in random sizes from 1 to 8192, each take on
    the next tier of ``tiers`` in turn (true: native, false: Python)."""
    sizes = random.Random(seed)
    native = _cmachine.library()
    words: list[int] = []
    for take in range(10**6):
        _cmachine._lib = native if tiers[take % len(tiers)] else None
        batch = stream.take(sizes.choice((1, 2, 7, 64, 500, 8192)))
        if not batch:
            return words
        words.extend(batch)
    raise AssertionError("stream never ended")


@pytest.fixture
def restore_library():
    saved = _cmachine.library()
    yield
    _cmachine._lib = saved


@requires_native
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("source", SOURCES)
def test_tiers_draw_identical_streams(source, seed, restore_library):
    python = _drain(_stream(source, seed), seed, [False])
    native = _drain(_stream(source, seed), seed + 10, [True])
    assert len(python) == ACCESSES
    assert native == python


@requires_native
def test_tiers_switch_mid_stream(restore_library):
    """One stream alternating tiers take by take, across phases."""
    python = _drain(_stream("flip-hot-txn-burst", 3), 3, [False])
    assert _drain(_stream("flip-hot-txn-burst", 3), 4, [True, False]) == python


@requires_native
@pytest.mark.parametrize("tier", ["native", "python"])
def test_checkpoint_resumes_on_the_other_tier(tier, restore_library):
    whole = list(_stream("em3d", 5))
    stream = _stream("em3d", 5)
    native = _cmachine.library()
    _cmachine._lib = native if tier == "native" else None
    head = [next(stream) for _ in range(1_234)]
    blob = stream.checkpoint()
    _cmachine._lib = None if tier == "native" else native
    resumed = resume_stream(blob)
    assert resumed.checkpoint() == blob  # the pickle is tier-independent
    assert head + list(resumed) == whole


def _block_end_take(source: str, seed: int) -> tuple[int, tuple[int, ...]]:
    """The shortest take from a fresh stream that ends exactly where a
    624-word MT19937 block ends (the RNG's index reads 624), found by
    drawing on the Python tier, and the RNG state it leaves."""
    stream = _stream(source, seed)
    _cmachine._lib = None
    for taken in range(1, ACCESSES):
        stream.take(1)
        state = stream._rng.getstate()[1]
        if state[624] == 624:
            return taken, state
    raise AssertionError("no access ended a block")


@requires_native
@pytest.mark.parametrize("checkpoint", [False, True])
@pytest.mark.parametrize("tail", ["native", "python"])
@pytest.mark.parametrize("head", ["native", "python"])
def test_take_ending_a_block(head, tail, checkpoint, restore_library):
    """A take that ends on the last word of a block leaves the next
    one to regenerate: continuing on either tier, switching tiers, or
    checkpointing and resuming there draws the Python tier's words."""
    native = _cmachine.library()
    tiers = {"native": native, "python": None}
    whole = _drain(_stream("em3d", 6), 6, [False])
    n, state = _block_end_take("em3d", 6)
    stream = _stream("em3d", 6)
    _cmachine._lib = tiers[head]
    words = list(stream.take(n))
    if head == "native":
        assert stream._mt[624] == 624
        assert tuple(stream._mt) == state
    if checkpoint:
        blob = stream.checkpoint()
        assert pickle.loads(blob)._mt[624] == 624
        _cmachine._lib = tiers[tail]
        stream = resume_stream(blob)
        assert stream.checkpoint() == blob
    _cmachine._lib = tiers[tail]
    words += stream.take(ACCESSES)
    assert words == whole


def _revealing_stream(pattern, count: int, seed: int):
    return WorkloadMix([(pattern, 1.0)]).generate(count, seed=seed)


@pytest.mark.parametrize("n", sorted({
    1, 2, 3, 5, *(2**k for k in (4, 17, 30)), *(2**k + 1 for k in (4, 17, 30)),
    *(2**k - 1 for k in (4, 17, 30)), 2**31 - 1,
    # two words per try (k > 32)
    2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3, 2**47 - 1,
}))
def test_randbelow_matches_random_random(n):
    """A ghost read's distance behind an idle neighbour is
    ``_randbelow(boundary_words) + 1`` words."""
    sweep = StreamingSweep([0, 1], [0, 0], partition_bytes=8 * n,
                           remote_frac=1.0, boundary_bytes=8 * n)
    stream = _revealing_stream(sweep, 300, seed=n)
    drawn = [n - 1 - unpack_access(word)[1] // 8 for word in stream.take(300)]
    rng = random.Random(n)
    expected = []
    for j in range(300):
        if j:
            rng.random()  # the repeat draw
        rng.random()  # the pattern pick
        rng._randbelow(2)  # the slot
        rng.random()  # remote?
        expected.append(rng._randbelow(n))
    assert drawn == expected
    if stream._rng is None:  # drawn natively: the shared state agrees too
        assert list(stream._mt) == list(rng.getstate()[1])


@pytest.mark.parametrize("alpha", [1.0, 2.5])
def test_random_matches_random_random(alpha):
    """With one-access runs every draw is a fresh skewed offset:
    ``min(int(span * random() ** alpha), span - 1)``, then the store
    draw."""
    span = 2**47
    walk = PrivateWorkingSet([3], [0], ws_bytes=8 * span, write_frac=0.5,
                             run_mean=1, alpha=alpha)
    stream = _revealing_stream(walk, 500, seed=7)
    drawn = [unpack_access(word) for word in stream.take(500)]
    rng = random.Random(7)
    expected = []
    for j in range(500):
        if j:
            rng.random()
        rng.random()
        rng._randbelow(1)  # one slot still consumes a word
        offset = min(int(span * rng.random() ** alpha), span - 1)
        expected.append((3, 8 * offset, rng.random() < 0.5))
    assert drawn == expected


class TestPackedFormat:
    def test_round_trip(self):
        for cpu, address, is_write in [(0, 0, False), (MAX_CPUS - 1, 2**54, True),
                                       (5, 0x1234, True)]:
            word = pack_access(cpu, address, is_write)
            assert word >= 0
            assert unpack_access(word) == (cpu, address, is_write)

    @pytest.mark.parametrize("cpu", [-1, 4])
    def test_cpu_outside_the_machine_rejected(self, cpu):
        with pytest.raises(TraceError, match=f"CPU {cpu} on a 4-way"):
            pack_accesses([(cpu, 0, False)], n_cpus=4)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError, match="negative address"):
            pack_access(0, -8, False)

    def test_patterns_reject_unpackable_cpus(self):
        with pytest.raises(ConfigurationError):
            MigratoryPattern([0, MAX_CPUS], base=0)
        with pytest.raises(ConfigurationError, match="listed twice"):
            PrivateWorkingSet([1, 1], [0, 64], ws_bytes=64)
        with pytest.raises(ConfigurationError, match="at least one CPU"):
            PrivateWorkingSet([], [], ws_bytes=64)
        with pytest.raises(ConfigurationError, match="window too small"):
            StreamingSweep([0], [0], partition_bytes=64, remote_frac=0.5,
                           boundary_bytes=4)
