"""Online cost learning threaded through the serving layer.

Placement: each worker's learned (overhead + marginal * n) estimator
takes over from the calibration EWMA once confident -- and only for
shaped placements, so the legacy scalar arithmetic stays exact.
Scheduler: ``register(..., learn_cost=True)`` prices flushes, backlog,
and admission from the session's online model, in-process submissions
and worker replies both feeding it.  Learned pricing changes *when*
batches flush, never what they compute.
"""

import numpy as np
import pytest

from repro.cost import BatchPlan, OnlineCostModel
from repro.engine import InferenceSession
from repro.serving import PlacementPolicy, Scheduler
from repro.serving.clock import VirtualClock

TOLERANCE = 1e-8


class TestPlacementLearning:
    def test_shaped_completions_feed_estimator(self):
        """Every shaped completion after the slot's first (cold) one."""
        policy = PlacementPolicy(1, min_samples=3)
        for n in (2, 4, 8, 16):
            ticket = policy.assign(10.0, num_images=n)
            assert ticket.num_images == n
            policy.complete(ticket, now_ms=0.0, measured_ms=20.0 + n)
        learned = policy.snapshot()["learned"][0]
        assert learned["samples"] == 3
        assert learned["confident"]

    def test_scalar_placements_keep_ewma_arithmetic(self):
        """Bare-scalar assigns never consult or feed the estimators --
        the pre-learning EWMA math stays exact."""
        policy = PlacementPolicy(1, min_samples=1, smoothing=0.5)
        ticket = policy.assign(10.0)
        policy.complete(ticket, now_ms=0.0, measured_ms=20.0)
        assert policy.calibration == (2.0,)       # first obs seeds
        assert policy.snapshot()["learned"][0]["samples"] == 0
        ticket = policy.assign(10.0)
        assert ticket.predicted_ms == 20.0        # EWMA x raw
        assert ticket.num_images is None
        policy.complete(ticket, now_ms=0.0, measured_ms=40.0)
        assert policy.calibration == (0.5 * 2.0 + 0.5 * 4.0,)

    def test_learned_law_prices_shape_not_scale(self):
        """Once confident, a worker's prediction follows its own fitted
        batch law -- a per-launch overhead the EWMA scalar cannot
        express."""
        policy = PlacementPolicy(1, min_samples=4, forgetting=1.0)
        # Planted worker behavior: 12 ms per launch + 1 ms per image,
        # against a raw cost model that says 2 ms per image flat.
        for n in (2, 4, 8, 16, 8):
            ticket = policy.assign(2.0 * n, num_images=n)
            policy.complete(ticket, now_ms=0.0, measured_ms=12.0 + n)
        small = policy.predicted_ms(0, 2.0 * 2, num_images=2)
        large = policy.predicted_ms(0, 2.0 * 32, num_images=32)
        assert small == pytest.approx(14.0, rel=0.05)
        assert large == pytest.approx(44.0, rel=0.05)
        # The EWMA would have priced the small batch ~4x too low.
        ewma_small = policy.calibration[0] * 4.0
        assert abs(small - 14.0) < abs(ewma_small - 14.0)

    def test_learned_estimators_redirect_placement(self):
        """A worker whose measured batch law is cheaper wins the shaped
        assign even when the raw cost-model estimate is
        worker-agnostic."""
        policy = PlacementPolicy(2, min_samples=3, forgetting=1.0)
        # Worker 0: high per-launch overhead. Worker 1: cheap launches.
        for n in (4, 8, 16):
            policy.estimator(0).observe(n, 30.0 + n, launches=1.0)
            policy.estimator(1).observe(n, 2.0 + n, launches=1.0)
        ticket = policy.assign(5.0, num_images=4)
        assert ticket.worker == 1
        assert ticket.predicted_ms == pytest.approx(6.0, rel=0.05)
        policy.complete(ticket, now_ms=10.0, measured_ms=6.0)
        # A bare scalar assign ignores the learned laws entirely.
        scalar = policy.assign(5.0, now_ms=10.0)
        assert scalar.worker == 0
        assert scalar.predicted_ms == 5.0


@pytest.fixture()
def images(rng):
    return rng.normal(size=(30, 2, 3, 16, 16))


def run_traffic(scheduler, images, clock):
    ids, results = [], {}
    for stack in images:
        ids.append(scheduler.submit(stack))
        clock.advance(6.0)
        for result in scheduler.step():
            results[result.request_id] = result
    for result in scheduler.drain():
        results[result.request_id] = result
    return ids, results


class TestSchedulerLearning:
    def test_register_learn_cost_builds_online_session(self, mild_model):
        scheduler = Scheduler(clock=VirtualClock())
        served = scheduler.register("m", mild_model, batch_size=8,
                                    learn_cost=True)
        assert served.session.learns_cost
        assert isinstance(served.cost_model, OnlineCostModel)

    def test_ready_static_session_rejected(self, mild_model):
        scheduler = Scheduler(clock=VirtualClock())
        session = InferenceSession(mild_model, batch_size=8)
        with pytest.raises(ValueError, match="learn_cost"):
            scheduler.register("m", session=session, learn_cost=True)

    def test_ready_learning_session_accepted(self, mild_model):
        scheduler = Scheduler(clock=VirtualClock())
        session = InferenceSession(mild_model, batch_size=8,
                                   learn_cost=True)
        served = scheduler.register("m", session=session, learn_cost=True)
        assert served.session is session

    def test_in_process_flushes_feed_and_reprice(self, mild_model,
                                                 images):
        clock = VirtualClock()
        scheduler = Scheduler(clock=clock, batch_window_ms=5.0)
        served = scheduler.register("m", mild_model, batch_size=8,
                                    learn_cost=True)
        static_ms = served.cost_model.prior.estimate(BatchPlan(
            num_images=8, per_image_ms=served.marginal_image_ms,
            num_batches=1)).total_ms
        ids, results = run_traffic(scheduler, images, clock)
        assert sorted(results) == sorted(ids)
        batch_samples, bucket_samples = served.cost_model.samples()
        assert batch_samples >= len(images)
        assert bucket_samples > 0
        assert served.cost_model.confident()
        # Backlog/flush pricing now answers from the learned law.
        learned_ms = served.batch_cost_ms(8)
        assert learned_ms != static_ms
        assert served.projected_backlog_ms(8) == pytest.approx(learned_ms)

    def test_learning_identical_results(self, mild_model, images):
        clock = VirtualClock()
        learning = Scheduler(clock=clock, batch_window_ms=5.0)
        learning.register("m", mild_model, batch_size=8, learn_cost=True)
        ids, results = run_traffic(learning, images, clock)
        reference = InferenceSession(mild_model, batch_size=8)
        for request_id, stack in zip(ids, images):
            want = reference.submit(stack)
            got = results[request_id]
            np.testing.assert_allclose(got.logits, want.logits,
                                       rtol=0, atol=TOLERANCE)
            for stage_got, stage_want in zip(got.tokens_per_stage,
                                             want.tokens_per_stage):
                np.testing.assert_array_equal(stage_got, stage_want)


class TestPooledLearning:
    @pytest.fixture(scope="class")
    def pooled(self, request):
        """A 2-worker learn_cost scheduler (fork: instant startup)."""
        import numpy as np

        from repro.core import HeatViT
        from repro.vit import VisionTransformer, ViTConfig

        config = ViTConfig(name="pool-tiny", image_size=16, patch_size=4,
                           embed_dim=24, depth=4, num_heads=3,
                           num_classes=4)
        backbone = VisionTransformer(config, rng=np.random.default_rng(7))
        model = HeatViT(backbone, {1: 0.6, 2: 0.6},
                        rng=np.random.default_rng(1))
        model.eval()
        clock = VirtualClock()
        scheduler = Scheduler(clock=clock, batch_window_ms=5.0)
        served = scheduler.register("m", model, batch_size=8,
                                    backend="fastpath", dtype="float64",
                                    workers=2, worker_ctx="fork",
                                    learn_cost=True)
        request.addfinalizer(scheduler.shutdown)
        return scheduler, served, clock, model

    def test_replies_feed_parent_model_and_placement(self, pooled, rng):
        scheduler, served, clock, model = pooled
        images = rng.normal(size=(24, 2, 3, 16, 16))
        ids, results = run_traffic(scheduler, images, clock)
        assert sorted(results) == sorted(ids)
        # Every worker reply's (shape, wall) fed the parent's model...
        # (replies, not requests: the in-flight bound may coalesce
        # deferred flushes into fewer, larger batches)
        batch_samples, _ = served.cost_model.samples()
        assert batch_samples > 0
        assert served.cost_model.confident()
        # ...and the per-worker placement estimators, one sample each
        # past every used worker slot's cold first one.
        learned = served.placement.snapshot()["learned"]
        cold = sum(1 for count in served.placement.observations if count)
        assert (sum(entry["samples"] for entry in learned)
                == batch_samples - cold)
        # Execution semantics unchanged: same keep decisions and
        # engine-tolerance logits as a static in-process session.
        reference = InferenceSession(model, batch_size=8,
                                     backend="fastpath", dtype="float64")
        for request_id, stack in zip(ids, images):
            want = reference.submit(stack)
            got = results[request_id]
            np.testing.assert_allclose(got.logits, want.logits,
                                       rtol=0, atol=TOLERANCE)
            for stage_got, stage_want in zip(got.tokens_per_stage,
                                             want.tokens_per_stage):
                np.testing.assert_array_equal(stage_got, stage_want)
