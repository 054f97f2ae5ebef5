"""Cross-mode phase-determinism harness.

The phase-structured suite DSL threads PHASE markers through every
execution mode the engine has — live streaming at any chunk size, the
default and oracle replay banks over recorded traces, and checkpointed
runs killed mid-phase and resumed.  The determinism contract extends to
the per-phase splits: for the same (suite, system, seed), every mode
must store the **byte-identical** encoded :class:`FilterEvaluation`
payload, per-phase sections included.

Two deliberately different suites (a three-phase tiered mix and a
two-phase flip) cross three filter families (EJ, VEJ, HJ); every test
compares *encoded payload bytes*, so any divergence in any counter of
any phase fails.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.analysis import runner, store as store_mod
from repro.analysis.store import CHECKPOINT_KIND, ExperimentStore
from repro.coherence.config import SCALED_SYSTEM
from repro.core import _cmachine
from repro.traces.suite import Phase, Suite
from tests.conftest import oracle_replay

requires_native = pytest.mark.skipif(
    _cmachine.library() is None,
    reason="the compiled kernels need a C compiler",
)

#: One member of each vectorisable family the matrix sweeps.
FILTERS = ("EJ-16x2", "VEJ-16x2-4", "HJ(IJ-8x4x7, EJ-16x2)")

#: Awkward chunk sizes: a small power of two and a prime (nothing in the
#: phase layout aligns with either).
CHUNK_SIZES = (512, 1_777)

#: Three phases of distinct character; boundaries at 800 + (0, 1500,
#: 3500) accesses — neither is a multiple of any chunk size.
SUITE_TIERS = Suite(
    [
        Phase("ramp", "zipf-hot", 1_500),
        Phase("steady", "scan-stream", 2_000),
        Phase("cool", "read-mostly-web", 1_000),
    ],
    name="det-tiers",
    warmup_accesses=800,
)

#: A two-phase flip between opposite sharing characters.
SUITE_FLIP = Suite(
    [
        Phase("hot", "shared-hot-write", 2_000),
        Phase("burst", "producer-consumer-burst", 2_200),
    ],
    name="det-flip",
    warmup_accesses=600,
)

SUITES = {spec.name: spec for spec in (SUITE_TIERS, SUITE_FLIP)}
SUITE_NAMES = tuple(SUITES)

SEED = 1


@contextmanager
def kill_after_checkpoints(store: ExperimentStore, n: int):
    """Simulate a SIGKILL right after the ``n``-th checkpoint commits."""
    original = store.put_blob
    seen = {"checkpoints": 0}

    def wrapper(key, blob, **kwargs):
        original(key, blob, **kwargs)
        if kwargs["kind"] == CHECKPOINT_KIND:
            seen["checkpoints"] += 1
            if seen["checkpoints"] == n:
                raise KeyboardInterrupt("simulated SIGKILL")

    store.put_blob = wrapper
    try:
        yield
    finally:
        store.put_blob = original


def _streamed_payloads(spec, chunk_size, **kwargs):
    """``filter -> encoded evaluation bytes`` from one live-streamed run."""
    _metrics, evaluations = runner.compute_stream(
        spec, SCALED_SYSTEM, SEED, FILTERS, chunk_size, **kwargs
    )
    return {
        name: store_mod.encode_eval(evaluation)
        for name, evaluation in evaluations.items()
    }


def _replayed_payloads(spec, oracle=False):
    """``filter -> encoded bytes`` via record-once/replay-many.

    ``oracle`` runs every bank on the per-event oracle.
    """
    store = ExperimentStore()
    try:
        with oracle_replay(oracle):
            outcome = runner.evaluate(
                spec, SCALED_SYSTEM, FILTERS, SEED,
                experiment_store=store, backend="serial",
            )
        return {
            name: store_mod.encode_eval(evaluation)
            for name, evaluation in outcome.evaluations.items()
        }
    finally:
        store.close()


@pytest.fixture(scope="module")
def baselines():
    """Per-suite reference payloads (live stream at the small chunk)."""
    return {
        name: _streamed_payloads(spec, CHUNK_SIZES[0])
        for name, spec in SUITES.items()
    }


def _assert_phased(payloads, spec):
    """Every payload must actually carry the suite's per-phase sections."""
    for name, blob in payloads.items():
        evaluation = store_mod.decode_eval(blob)
        assert set(evaluation.phases) == set(spec.phase_names()), name
        for phase in evaluation.phases.values():
            assert phase.coverage.snoops >= 0


@pytest.mark.parametrize("suite_name", SUITE_NAMES)
class TestPhaseDeterminism:
    def test_payloads_are_phase_split(self, baselines, suite_name):
        spec = SUITES[suite_name]
        payloads = baselines[suite_name]
        _assert_phased(payloads, spec)
        # Phase sums reconcile with run totals, field by field.
        for blob in payloads.values():
            evaluation = store_mod.decode_eval(blob)
            for field in ("snoops", "snoop_would_hit", "snoop_would_miss",
                          "filtered"):
                split = sum(
                    getattr(p.coverage, field)
                    for p in evaluation.phases.values()
                )
                assert split == getattr(evaluation.coverage, field), field

    def test_chunk_size_invariance(self, baselines, suite_name):
        spec = SUITES[suite_name]
        for chunk in CHUNK_SIZES[1:]:
            assert _streamed_payloads(spec, chunk) == baselines[suite_name], (
                suite_name, chunk
            )

    def test_live_stream_matches_recorded_replay(self, baselines, suite_name):
        payloads = _replayed_payloads(SUITES[suite_name], oracle=True)
        assert payloads == baselines[suite_name]

    @requires_native
    def test_default_and_oracle_banks_agree(self, baselines, suite_name):
        payloads = _replayed_payloads(SUITES[suite_name])
        assert payloads == baselines[suite_name]

    @pytest.mark.parametrize("cadence", (1_150, 1_300, 1_500))
    def test_kill_mid_phase_resume_matches_clean_run(
        self, baselines, suite_name, cadence
    ):
        """Killed inside a phase, resumed, still byte-identical.

        The kill lands after the second checkpoint, at ``2 * cadence``
        accesses.  Across the suites the cadences cover both resume
        cases: a snapshot strictly *inside* a measured phase (the run
        must re-emit no marker it already consumed and must not skip
        the next one) and — for det-flip at cadence 1300 and det-tiers
        at cadence 1150 — a snapshot taken *exactly on* a phase mark,
        where the marker is emitted only after resuming.
        """
        spec = SUITES[suite_name]
        marks = spec.phase_marks()
        kill_position = 2 * cadence
        assert marks[0] < kill_position < spec.warmup_accesses + spec.n_accesses

        store = ExperimentStore()
        try:
            with kill_after_checkpoints(store, 2):
                with pytest.raises(KeyboardInterrupt):
                    runner.compute_stream(
                        spec, SCALED_SYSTEM, SEED, FILTERS, CHUNK_SIZES[1],
                        checkpoint_every=cadence, experiment_store=store,
                    )
            resumed = _streamed_payloads(
                spec, CHUNK_SIZES[1],
                checkpoint_every=cadence, experiment_store=store,
            )
        finally:
            store.close()
        assert resumed == baselines[suite_name]
