"""Online cost learning threaded through the engine.

What these tests pin down: a ``learn_cost=True`` session measures its
own submissions' walls into its :class:`repro.cost.OnlineCostModel`
without changing what it computes -- bucket plans price from the static
prior, so it serves a static session's bits (logits, keep decisions and
bucket plans all equal), whatever its clock reads; the executor's
bucket-plan cache is keyed by (policy, lengths) only, so however far
the learned batch law moves, repeat traffic hits the cache.  (A
pickled learning session keeps its fit:
``tests/engine/test_session_pickle.py``.)
"""

import time

import numpy as np
import pytest

from repro.core import HeatViT
from repro.cost import OnlineCostModel
from repro.engine import InferenceSession


@pytest.fixture()
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.6, 2: 0.6},
                    rng=np.random.default_rng(5))
    model.eval()
    return model


@pytest.fixture()
def ragged_model(tiny_backbone):
    """Its second selector leaves the ``images`` ragged enough that a
    static session plans two buckets there."""
    model = HeatViT(tiny_backbone, {1: 0.6, 2: 0.6},
                    rng=np.random.default_rng(1))
    model.eval()
    return model


@pytest.fixture()
def images(rng):
    return rng.normal(size=(12, 3, 16, 16))


class TestLearningSession:
    def test_learn_cost_wraps_and_binds(self, model):
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        assert session.learns_cost
        assert isinstance(session.cost_model, OnlineCostModel)
        backend, dtype, bucket = session.cost_model.bound_key
        assert backend == "tensor"
        assert dtype == "float64"
        assert bucket == (12, 12)      # 0.6 on the 0.05 grid, twice

    def test_learn_cost_accepts_ready_online_model(self, model):
        warm = OnlineCostModel(
            InferenceSession(model, batch_size=8).cost_model)
        warm.bind("elsewhere").observe_batch(8, 5.0)
        session = InferenceSession(model, batch_size=8, cost_model=warm,
                                   learn_cost=True)
        assert session.cost_model is warm        # no double wrap
        assert warm.bind("elsewhere").samples() == 1     # its fit is kept

    def test_static_session_does_not_learn(self, model, images):
        session = InferenceSession(model, batch_size=8)
        assert not session.learns_cost
        session.submit(images)
        assert not hasattr(session.cost_model, "observe_batch")

    def test_submissions_feed_the_batch_law(self, model, images):
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        for _ in range(3):
            session.submit(images)
        assert session.cost_model.samples() == 3     # one per submit

    def test_learning_preserves_results(self, ragged_model, images,
                                        monkeypatch):
        """A confident learning session serves a static session's bits.

        Every timer in the process reads a clock that only a block run
        advances, so each wall is a fixed price per block launch and
        nothing per token -- the regime where bucket plans priced from
        a learned law would merge buckets the static prior keeps apart.
        """
        clock = _TickClock(step_s=0.0)
        monkeypatch.setattr(time, "perf_counter", clock.perf_counter)
        for dtype in ("float32", "float64"):
            static = InferenceSession(ragged_model, batch_size=12,
                                      backend="fastpath", dtype=dtype)
            reference = static.submit(images)
            assert [len(s.bucket_sizes)
                    for s in reference.stage_stats] == [1, 2]
            learning = InferenceSession(ragged_model, batch_size=12,
                                        backend="fastpath", dtype=dtype,
                                        learn_cost=True)
            compiled = learning.executor.compiled

            def timed_block(*args, run_block=compiled.run_block):
                clock.now += 1e-3
                return run_block(*args)

            compiled.run_block = timed_block
            for _ in range(12):
                result = learning.submit(images)
            assert learning.cost_model.confident()
            assert np.array_equal(result.logits, reference.logits)
            for got, want in zip(result.tokens_per_stage,
                                 reference.tokens_per_stage):
                assert np.array_equal(got, want)       # keep decisions
            assert ([s.bucket_sizes for s in result.stage_stats]
                    == [s.bucket_sizes for s in reference.stage_stats])
            assert np.array_equal(result.latency_ms, reference.latency_ms)

    def test_learned_pricing_departs_from_prior(self, model, images):
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        prior = session.cost_model.prior
        static_ms = InferenceSession(
            model, batch_size=8, cost_model=prior
        ).estimated_batch_cost(12).total_ms
        for _ in range(12):
            session.submit(images)
        learned_ms = session.estimated_batch_cost(12).total_ms
        assert session.cost_model.confident()
        assert learned_ms != static_ms
        assert learned_ms > 0

    def test_learned_pricing_beats_static_prior(self, model, images,
                                                monkeypatch):
        """Once warm, the learned model prices a submission closer to
        its measured wall than the static prior does, and within 5 % --
        on a clock where identical submissions measure identical walls."""
        clock = _TickClock()
        monkeypatch.setattr("repro.engine.session.time", clock)
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        static_ms = InferenceSession(
            model, batch_size=8, cost_model=session.cost_model.prior
        ).estimated_batch_cost(12).total_ms
        for _ in range(40):                      # warm-up + settle
            session.submit(images)
        learned_ms = session.estimated_batch_cost(12).total_ms
        wall_ms = session.submit(images).wall_time_s * 1e3
        assert abs(learned_ms - wall_ms) <= abs(static_ms - wall_ms)
        assert learned_ms == pytest.approx(wall_ms, rel=0.05)

    def test_retune_rebinds_key(self, model, images):
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        session.submit(images)
        first_key = session.cost_model.bound_key
        model.set_keep_ratios([0.45, 0.45])
        session.submit(images)
        second_key = session.cost_model.bound_key
        assert first_key != second_key
        assert set(session.cost_model.keys) == {first_key, second_key}


class _TickClock:
    """Deterministic stand-in for the ``time`` module: every
    ``perf_counter`` call advances by a fixed step, so measured walls
    depend only on call counts -- identical submissions observe
    identical timings and the learned coefficients settle exactly.
    With ``step_s=0`` it reads only what a caller adds to ``now``."""

    def __init__(self, step_s=0.001):
        self.step_s = step_s
        self.now = 0.0

    def perf_counter(self):
        self.now += self.step_s
        return self.now


class TestPlanCache:
    def test_moved_batch_law_keeps_cached_plans(self, model, images):
        """Plans key on (policy, lengths) alone: moving the learned
        batch law far leaves every cached plan valid."""
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        session.submit(images)
        executor = session.executor
        hits0, misses0 = (executor.plan_cache_hits,
                          executor.plan_cache_misses)
        for _ in range(60):
            session.cost_model.observe_batch(12, 1e4, num_batches=2)
        assert session.cost_model.confident()
        session.submit(images)
        assert executor.plan_cache_misses == misses0
        assert executor.plan_cache_hits > hits0

    def test_static_cost_model_still_caches(self, model, images):
        session = InferenceSession(model, batch_size=8)
        session.submit(images)
        hits0 = session.executor.plan_cache_hits
        session.submit(images)
        assert session.executor.plan_cache_hits > hits0
        assert session.executor.plan_cache_misses >= 1
