"""Online cost learning threaded through the serving layer.

Placement: each worker's learned (overhead + marginal * n) estimator
starts at the session's batch price and prices every ticket from its
own replies.
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
from tests.serving.harness import PricedSession

TOLERANCE = 1e-8


class TestPlacementLearning:
    def test_shaped_completions_feed_estimator(self):
        """Every measured completion, the slot's first (cold) one too."""
        policy = PlacementPolicy(1, PricedSession())
        for n in (2, 4, 8, 16):
            ticket = policy.assign(n)
            assert ticket.num_images == n
            policy.complete(ticket, now_ms=0.0, measured_ms=20.0 + n)
        assert policy.estimator(0).count == 4

    def test_learned_law_prices_shape_not_scale(self):
        """A worker's prediction follows its own fitted batch law -- a
        per-launch overhead no scale factor on the session's price can
        express."""
        policy = PlacementPolicy(1, PricedSession(marginal_ms=2.0))
        # Planted worker behavior: 12 ms per launch + 1 ms per image,
        # against a session price of 2 ms per image flat.
        for n in (2, 4, 8, 16, 8):
            ticket = policy.assign(n)
            policy.complete(ticket, now_ms=0.0, measured_ms=12.0 + n)
        assert policy.predicted_ms(0, 2) == pytest.approx(14.0, rel=0.05)
        assert policy.predicted_ms(0, 32) == pytest.approx(44.0, rel=0.05)

    def test_learned_estimators_redirect_placement(self):
        """A worker whose measured batch law is cheaper wins the assign
        even though both started from the same session price."""
        policy = PlacementPolicy(2, PricedSession())
        # Worker 0: high per-launch overhead. Worker 1: cheap launches.
        for n in (4, 8, 16):
            policy.estimator(0).observe(n, 30.0 + n, launches=1.0)
            policy.estimator(1).observe(n, 2.0 + n, launches=1.0)
        ticket = policy.assign(4)
        assert ticket.worker == 1
        assert ticket.predicted_ms == pytest.approx(6.0, rel=0.05)


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
        assert served.cost_model.samples() >= len(images)
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
        batch_samples = served.cost_model.samples()
        assert batch_samples > 0
        assert served.cost_model.confident()
        # ...and the per-worker placement estimators, one sample each.
        placement = served.placement
        assert sum(placement.estimator(w).count
                   for w in range(placement.num_workers)) == batch_samples
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
