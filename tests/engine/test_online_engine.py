"""Online cost learning threaded through the engine hot path.

What these tests pin down: a ``learn_cost=True`` session measures its
own submissions (whole-batch and per-bucket walls) into its
:class:`repro.cost.OnlineCostModel` without changing what it computes
(identical keep decisions; logits within the engine parity bound of a
static session -- re-planned buckets may legally reorder GEMM
accumulation at the 1e-16 level); the executor's bucket-plan cache is
keyed by (policy, cost-model version) so stable traffic hits the cache
while significant coefficient drift invalidates it; and a
:class:`repro.engine.SessionSpec` rebuild carries the learned state to
worker processes.
"""

import pickle

import numpy as np
import pytest

from repro.core import HeatViT
from repro.cost import OnlineCostModel
from repro.engine import BucketedExecutor, BucketingPolicy, InferenceSession

TOLERANCE = 1e-8


@pytest.fixture()
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.6, 2: 0.6},
                    rng=np.random.default_rng(5))
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
        warm.observe_batch(8, 5.0, key="elsewhere")
        session = InferenceSession(model, batch_size=8, cost_model=warm,
                                   learn_cost=True)
        assert session.cost_model is warm        # no double wrap
        assert warm.samples("elsewhere") == (1, 0)

    def test_static_session_does_not_learn(self, model, images):
        session = InferenceSession(model, batch_size=8)
        assert not session.learns_cost
        session.submit(images)
        assert not hasattr(session.cost_model, "observe_batch")

    def test_submissions_feed_both_estimators(self, model, images):
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        for _ in range(3):
            result = session.submit(images)
        batch_samples, bucket_samples = session.cost_model.samples()
        assert batch_samples == 3
        # Each submit: 2 chunks x (prefix segment + one per stage
        # bucket group) -- at least one bucket observation per chunk.
        assert bucket_samples >= 6
        # Stage telemetry carries the measured walls.
        assert all(s.wall_ms > 0 for s in result.stage_stats)

    def test_learning_preserves_results(self, model, images):
        static = InferenceSession(model, batch_size=8, backend="fastpath",
                                  dtype="float64")
        reference = static.submit(images)
        learning = InferenceSession(model, batch_size=8,
                                    backend="fastpath", dtype="float64",
                                    learn_cost=True)
        for _ in range(20):
            result = learning.submit(images)
        assert learning.cost_model.confident()
        np.testing.assert_allclose(result.logits, reference.logits,
                                   rtol=0, atol=TOLERANCE)
        for got, want in zip(result.tokens_per_stage,
                             reference.tokens_per_stage):
            np.testing.assert_array_equal(got, want)   # keep decisions
        np.testing.assert_array_equal(result.latency_ms,
                                      reference.latency_ms)

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
        monkeypatch.setattr("repro.engine.executor.time", clock)
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


class _RecordingCostModel(OnlineCostModel):
    """An online model that also lists its ``observe_bucket`` calls."""

    def __init__(self, prior):
        super().__init__(prior)
        self.buckets = []

    def observe_bucket(self, padded_length, num_images, num_blocks,
                       wall_ms, key=None):
        assert wall_ms > 0
        self.buckets.append((padded_length, num_images, num_blocks))
        super().observe_bucket(padded_length, num_images, num_blocks,
                               wall_ms, key=key)


class TestStretchObservations:
    """Blocks run in stretches between selector boundaries; the cost
    model hears one ``observe_bucket`` per bucket group per non-empty
    stretch, priced over the stretch's whole block count."""

    @pytest.mark.parametrize("selectors,stretches", [
        ({1: 0.6, 2: 0.6}, [1, 1, 2]),
        # A selector at block 0 leaves the prefix stretch empty (nothing
        # ran, nothing to observe); adjacent selectors leave one block.
        ({0: 0.8, 1: 0.6, 2: 0.5}, [0, 1, 1, 2]),
    ])
    def test_one_observation_per_group_per_stretch(
            self, tiny_backbone, images, selectors, stretches):
        model = HeatViT(tiny_backbone, selectors,
                        rng=np.random.default_rng(5))
        model.eval()
        recorder = _RecordingCostModel(InferenceSession(model).cost_model)
        session = InferenceSession(model, batch_size=len(images),
                                   cost_model=recorder, learn_cost=True)
        result = session.submit(images)
        np.testing.assert_allclose(
            result.logits, model.forward_pruned(images).data,
            rtol=0, atol=TOLERANCE)
        # The unpruned prefix is one full-length group; every later
        # stretch runs the buckets its boundary planned.
        want = [(len(images), stretches[0])] if stretches[0] else []
        for stats, blocks in zip(result.stage_stats, stretches[1:]):
            assert stats.wall_ms > 0
            want += [(size, blocks) for size in stats.bucket_sizes]
        assert [(size, blocks)
                for _, size, blocks in recorder.buckets] == want
        if stretches[0]:
            assert recorder.buckets[0][0] == model.config.num_tokens
        assert all(padded <= model.config.num_tokens
                   for padded, _, _ in recorder.buckets)


class _TickClock:
    """Deterministic stand-in for the ``time`` module: every
    ``perf_counter`` call advances by a fixed step, so measured walls
    depend only on call counts -- identical submissions observe
    identical timings and the learned coefficients settle exactly."""

    def __init__(self, step_s=0.001):
        self.step_s = step_s
        self.now = 0.0

    def perf_counter(self):
        self.now += self.step_s
        return self.now


class TestVersionedPlanCache:
    def test_stable_traffic_hits_cache(self, model, images, monkeypatch):
        """The satellite regression: once coefficients settle, repeat
        length distributions are planned once and served from cache."""
        clock = _TickClock()
        monkeypatch.setattr("repro.engine.session.time", clock)
        monkeypatch.setattr("repro.engine.executor.time", clock)
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        for _ in range(40):                      # warm-up + settle
            session.submit(images)
        executor = session.executor
        hits0, misses0 = (executor.plan_cache_hits,
                          executor.plan_cache_misses)
        version0 = session.cost_model.version
        for _ in range(25):
            session.submit(images)
        assert session.cost_model.version == version0
        assert executor.plan_cache_misses == misses0
        assert executor.plan_cache_hits > hits0

    def test_version_bump_invalidates_cached_plans(self, model, images):
        session = InferenceSession(model, batch_size=8, learn_cost=True)
        for _ in range(40):
            session.submit(images)
        misses0 = session.executor.plan_cache_misses
        # Force a coefficient jump far past the drift threshold: the
        # next submission must re-plan (cache miss), not reuse plans
        # priced by the stale coefficients.
        for _ in range(60):
            session.cost_model.observe_batch(12, 1e4, num_batches=2)
        session.submit(images)
        assert session.executor.plan_cache_misses > misses0

    def test_static_cost_model_still_caches(self, model, images):
        session = InferenceSession(model, batch_size=8)
        session.submit(images)
        hits0 = session.executor.plan_cache_hits
        session.submit(images)
        assert session.executor.plan_cache_hits > hits0
        assert session.executor.plan_cache_misses >= 1

    def test_cache_key_separates_policies(self, model):
        a = BucketedExecutor(model, BucketingPolicy())
        b = BucketedExecutor(model, BucketingPolicy(allow_padding=False))
        lengths = np.array([9, 9, 11, 11])
        key_a = (a.policy, None, lengths.tobytes())
        key_b = (b.policy, None, lengths.tobytes())
        assert key_a != key_b


class TestSpecCarriesLearnedState:
    def test_rebuild_preserves_learned_pricing(self, model, images):
        session = InferenceSession(model, batch_size=8, backend="fastpath",
                                   dtype="float64", learn_cost=True)
        reference = session.submit(images)
        for _ in range(12):
            session.submit(images)
        assert session.cost_model.confident()
        rebuilt = pickle.loads(pickle.dumps(session.spec())).build()
        assert rebuilt.learns_cost
        assert rebuilt.cost_model.samples() == session.cost_model.samples()
        assert rebuilt.cost_model.version == session.cost_model.version
        assert rebuilt.estimated_batch_cost(12).total_ms == (
            session.estimated_batch_cost(12).total_ms)
        result = rebuilt.submit(images)
        np.testing.assert_allclose(result.logits, reference.logits,
                                   rtol=0, atol=TOLERANCE)
        for got, want in zip(result.tokens_per_stage,
                             reference.tokens_per_stage):
            np.testing.assert_array_equal(got, want)
