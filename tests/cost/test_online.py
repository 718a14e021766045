"""Unit tests for the online cost model (repro.cost.online).

Covers the RLS estimator's fit/confidence/serialization contract and
the OnlineCostModel's behavioral spec: knobs checked at construction,
prior fallback below the sample threshold, learned batch pricing once
confident, bucket pricing that is always the prior's, per-key
isolation, and the pickle that carries a fit to a worker.
Statistical convergence under noise lives in test_property_online.py.
"""

import pickle

import numpy as np
import pytest

from repro.cost import (BatchPlan, CostModel, OnlineCostModel,
                        OnlineEstimator, keep_ratio_bucket,
                        paper_cost_model)
from repro.core.latency import LatencySparsityTable
from tests.conftest import assert_same_estimator_state, assert_same_fit


def make_prior(batch_overhead_ms=3.0, bucket_overhead_ms=0.5):
    table = LatencySparsityTable({0.25: 0.5, 0.5: 1.0, 1.0: 2.0})
    return CostModel(table, num_patches=16,
                     batch_overhead_ms=batch_overhead_ms,
                     bucket_overhead_ms=bucket_overhead_ms,
                     name="unit-prior")


def feed_linear(estimator, overhead, marginal, shapes):
    for launches, units in shapes:
        estimator.observe(units, overhead * launches + marginal * units,
                          launches=launches)


class TestOnlineEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineEstimator(forgetting=0.0)
        with pytest.raises(ValueError):
            OnlineEstimator(forgetting=1.5)
        with pytest.raises(ValueError):
            OnlineEstimator(ridge=0.0)
        with pytest.raises(ValueError):
            OnlineEstimator(min_samples=0)
        est = OnlineEstimator()
        with pytest.raises(ValueError):
            est.observe(-1, 1.0)
        with pytest.raises(ValueError):
            est.observe(1, -1.0)
        with pytest.raises(ValueError):
            est.predict(-1)

    def test_exact_fit_on_noiseless_line(self):
        est = OnlineEstimator(forgetting=1.0, ridge=1e8, min_samples=2)
        feed_linear(est, 4.0, 0.25,
                    [(1, 1), (1, 8), (2, 16), (1, 32), (3, 48)])
        assert est.overhead_ms == pytest.approx(4.0, rel=1e-3)
        assert est.marginal_ms == pytest.approx(0.25, rel=1e-3)
        assert est.predict(10, launches=2) == pytest.approx(10.5, rel=1e-3)

    def test_confidence_threshold(self):
        est = OnlineEstimator(min_samples=3)
        assert not est.confident
        est.observe(4, 2.0)
        est.observe(8, 4.0)
        assert not est.confident
        est.observe(16, 8.0)
        assert est.confident

    def test_negative_coefficients_clip_to_zero(self):
        est = OnlineEstimator(min_samples=1)
        est.theta = np.array([-5.0, -1.0])
        assert est.overhead_ms == 0.0
        assert est.marginal_ms == 0.0
        assert est.predict(100, launches=7) == 0.0

    def test_variance_tracks_residual_scale(self):
        rng = np.random.default_rng(3)
        noisy = OnlineEstimator()
        quiet = OnlineEstimator()
        for _ in range(100):
            n = int(rng.integers(1, 33))
            truth = 2.0 + 0.5 * n
            noisy.observe(n, truth + rng.normal(0, 2.0))
            quiet.observe(n, truth + rng.normal(0, 0.01))
        assert noisy.variance_ms2 > quiet.variance_ms2

    def test_covariance_trace_capped(self):
        est = OnlineEstimator(max_gain=1e4)
        # Identical shapes leave one direction unexcited; with decay
        # the covariance would grow without bound there.
        for _ in range(2000):
            est.observe(8, 6.0)
        assert float(np.trace(est.cov)) <= 1e4 + 1e-6

    def test_snapshot_round_trip_bitwise(self):
        # The pickle is the estimator's snapshot: it restores the fit
        # bitwise and future updates stay locked.
        est = OnlineEstimator()
        feed_linear(est, 3.0, 0.5, [(1, 4), (2, 9), (1, 30)])
        clone = pickle.loads(pickle.dumps(est))
        assert_same_estimator_state(clone, est)
        assert clone.predict(13, launches=2) == est.predict(13, launches=2)
        r1 = est.observe(5, 7.0)
        r2 = clone.observe(5, 7.0)
        assert r1 == r2
        assert_same_estimator_state(clone, est)

    def test_snapshot_is_a_copy(self):
        est = OnlineEstimator()
        est.observe(4, 2.0)
        snap = pickle.dumps(est)
        est.observe(9, 30.0)
        clone = pickle.loads(snap)
        assert clone.count == 1
        assert clone.count != est.count


class TestOnlineCostModelGating:
    def test_requires_cost_model_prior(self):
        with pytest.raises(TypeError):
            OnlineCostModel(object())

    def test_rejects_double_wrapping(self):
        online = OnlineCostModel(make_prior())
        with pytest.raises(TypeError):
            OnlineCostModel(online)

    @pytest.mark.parametrize("knobs", [{"min_samples": 0},
                                       {"forgetting": 0.0},
                                       {"forgetting": 2.0}])
    def test_rejects_bad_knobs_at_construction(self, knobs):
        with pytest.raises(ValueError):
            OnlineCostModel(make_prior(), **knobs)

    def test_is_a_cost_model_with_prior_terms(self):
        prior = make_prior()
        online = OnlineCostModel(prior)
        assert isinstance(online, CostModel)
        assert online.table is prior.table
        assert online.batch_overhead_ms == prior.batch_overhead_ms
        assert online.extra_tokens == prior.extra_tokens
        # Bucket pricing is the base class's, from the copied prior
        # terms: nothing learned reaches a bucket plan.
        for name in ("block_ms", "bucket_ms", "is_zero_overhead"):
            assert getattr(OnlineCostModel, name) is getattr(CostModel, name)

    def test_prior_answers_below_sample_threshold(self):
        prior = make_prior()
        online = OnlineCostModel(prior, min_samples=5).bind("key")
        plan = BatchPlan(num_images=8, per_image_ms=1.5, num_batches=2)
        for _ in range(4):
            online.observe_batch(8, 100.0, num_batches=2)
            cost = online.estimate(plan)
            assert cost.total_ms == prior.estimate(plan).total_ms
            assert not online.confident()
        online.observe_batch(8, 100.0, num_batches=2)
        assert online.confident()
        assert online.estimate(plan).total_ms != prior.estimate(plan).total_ms

    def test_learned_batch_pricing_matches_planted_law(self):
        online = OnlineCostModel(make_prior(), min_samples=4,
                                 forgetting=1.0).bind("k")
        for launches, images in [(1, 2), (1, 8), (2, 20), (1, 32),
                                 (2, 40), (1, 16)]:
            online.observe_batch(images, 5.0 * launches + 0.75 * images,
                                 num_batches=launches)
        cost = online.estimate(BatchPlan(num_images=10, per_image_ms=9.9,
                                         num_batches=2))
        assert cost.total_ms == pytest.approx(2 * 5.0 + 10 * 0.75, rel=1e-3)
        # per_image_ms (the prior's marginal) is ignored once learned.
        assert cost.overhead_ms == pytest.approx(10.0, rel=1e-3)

    def test_empty_plan_prices_zero(self):
        online = OnlineCostModel(make_prior(), min_samples=1).bind("k")
        online.observe_batch(8, 10.0)
        cost = online.estimate(BatchPlan(num_images=0, per_image_ms=1.0,
                                         num_batches=0))
        assert cost.total_ms == 0.0

    def test_degenerate_observations_ignored(self):
        online = OnlineCostModel(make_prior(), min_samples=1).bind("k")
        online.observe_batch(0, 5.0)
        assert online.samples() == 0

    def test_keys_learn_independently(self):
        online = OnlineCostModel(make_prior(), min_samples=2)
        online.bind("slow")
        for _ in range(3):
            online.observe_batch(8, 80.0)
        online.bind("fast")
        for _ in range(3):
            online.observe_batch(8, 8.0)
        plan = BatchPlan(num_images=8, per_image_ms=1.0)
        fast_ms = online.estimate(plan).total_ms
        online.bind("slow")
        slow_ms = online.estimate(plan).total_ms
        assert slow_ms > 5 * fast_ms
        assert set(online.keys) == {"slow", "fast"}
        # Rebinding resumes the old estimator rather than refitting.
        online.bind("fast")
        assert online.samples() == 3
        assert online.confident()

    def test_observations_land_on_the_bound_key(self):
        online = OnlineCostModel(make_prior(), min_samples=1).bind("b")
        online.observe_batch(4, 40.0)
        online.bind("a")
        assert online.samples() == 0
        assert not online.confident()
        online.bind("b")
        assert online.samples() == 1
        assert online.confident()

    def test_coefficients_inspection(self):
        online = OnlineCostModel(make_prior(), min_samples=2).bind("k")
        assert online.coefficients() is None
        online.observe_batch(8, 10.0)
        online.observe_batch(16, 18.0)
        coeffs = online.coefficients()
        assert coeffs["batch_samples"] == 2
        assert coeffs["batch_confident"]
        assert coeffs["overhead_ms"] >= 0.0
        assert coeffs["marginal_ms"] >= 0.0


class TestOnlineBucketPricing:
    def test_prior_bucket_pricing_until_confident(self):
        prior = make_prior()
        online = OnlineCostModel(prior, min_samples=3).bind("k")
        assert online.block_ms(9) == prior.block_ms(9)
        assert online.bucket_ms(9, 4) == prior.bucket_ms(9, 4)
        assert online.stage_cost_ms([(9, 4), (17, 2)]) == pytest.approx(
            prior.stage_cost_ms([(9, 4), (17, 2)]))


class TestSerialization:
    def build_warm(self):
        online = OnlineCostModel(make_prior(), min_samples=2,
                                 forgetting=0.99).bind(
                                     ("fastpath", "float32",
                                      keep_ratio_bucket([0.7])))
        for images in (4, 8, 16, 32):
            online.observe_batch(images, 2.0 + 0.5 * images)
        return online

    def test_pickle_preserves_learned_state(self):
        online = self.build_warm()
        clone = pickle.loads(pickle.dumps(online))
        plan = BatchPlan(num_images=12, per_image_ms=1.0, num_batches=1)
        assert clone.estimate(plan).total_ms == online.estimate(plan).total_ms
        assert clone.bound_key == online.bound_key
        assert clone.samples() == online.samples()

    def test_snapshot_restore_bitwise(self):
        # A pickle taken from a warm model restores its fit bitwise, and
        # the next update evolves identically on both.
        online = self.build_warm()
        restored = pickle.loads(pickle.dumps(online))
        assert_same_fit(restored, online)


class TestKeepRatioBucket:
    def test_discretizes_to_grid(self):
        assert keep_ratio_bucket([0.7, 0.49]) == (14, 10)
        assert keep_ratio_bucket([0.7001, 0.5001]) == (14, 10)
        assert keep_ratio_bucket([]) == ()

    def test_paper_model_wraps(self):
        online = OnlineCostModel(paper_cost_model(), min_samples=1)
        plan = BatchPlan(num_images=4, per_image_ms=2.0)
        assert online.estimate(plan).total_ms == 8.0   # zero-overhead prior
