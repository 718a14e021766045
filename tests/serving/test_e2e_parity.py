"""End-to-end parity: the scheduler is an execution detail.

Whatever the arrival order, batch window, routing decision, or
remainder carry-over, every request's logits must match the reference
per-image ``HeatViT.forward_pruned`` to the engine's 1e-8 parity bound
-- and carried-over remainders must match a fresh submission of the
same images *bitwise* (acceptance criterion b): batching neighbours
and padded buckets provably do not perturb a request's rows.
"""

import numpy as np
import pytest

from repro.core import HeatViT
from repro.engine import BucketingPolicy, InferenceSession
from repro.serving import Scheduler, VirtualClock

from tests.serving.harness import (Arrival, ServingSimulation,
                                   flat_rate_session)

TOLERANCE = 1e-8


@pytest.fixture()
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.6, 3: 0.4},
                    rng=np.random.default_rng(42))
    model.eval()
    return model


REQUEST_SLICES = [(0, 3), (3, 4), (4, 9), (9, 10), (10, 16), (16, 24)]


def run_trace(model, images, order, batch_window_ms, multi_model=False,
              spacing_ms=1.0):
    """Run the sliced requests through a simulated scheduler; returns
    ``{(lo, hi): RequestResult}``."""
    clock = VirtualClock()
    scheduler = Scheduler(clock=clock, batch_window_ms=batch_window_ms)
    if multi_model:
        # The SAME model at two serving configurations; skewed tables
        # steer the router, which must not affect logits.
        scheduler.register("fast", session=flat_rate_session(
            model, 1.0, batch_size=4))
        scheduler.register("slow", session=flat_rate_session(
            model, 9.0, batch_size=32,
            policy=BucketingPolicy(allow_padding=False)))
    else:
        scheduler.register("only", model)
    slices = [REQUEST_SLICES[i] for i in order]
    arrivals = []
    for position, (lo, hi) in enumerate(slices):
        model_pin = None
        if multi_model and position % 2:
            model_pin = "slow"                 # force both sessions used
        arrivals.append(Arrival(at_ms=position * spacing_ms,
                                images=images[lo:hi], model=model_pin))
    report = ServingSimulation(scheduler, clock, arrivals).run()
    assert sorted(report.results) == list(range(len(slices)))
    return {slices[rid]: report.results[rid] for rid in report.results}


class TestSchedulerParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_window_ms", [1.0, 5.0, 20.0])
    def test_any_arrival_order_and_window(self, model, tiny_dataset,
                                          seed, batch_window_ms):
        images = tiny_dataset.images[:24]
        ref = model.forward_pruned(images).data
        order = np.random.default_rng(seed).permutation(
            len(REQUEST_SLICES))
        outcome = run_trace(model, images, order, batch_window_ms)
        for (lo, hi), result in outcome.items():
            np.testing.assert_allclose(result.logits, ref[lo:hi],
                                       rtol=0, atol=TOLERANCE)

    def test_multi_model_routing_same_logits(self, model, tiny_dataset):
        images = tiny_dataset.images[:24]
        ref = model.forward_pruned(images).data
        outcome = run_trace(model, images, range(len(REQUEST_SLICES)),
                            batch_window_ms=3.0, multi_model=True)
        sessions = {result.session for result in outcome.values()}
        assert sessions == {"fast", "slow"}       # both really served
        for (lo, hi), result in outcome.items():
            np.testing.assert_allclose(result.logits, ref[lo:hi],
                                       rtol=0, atol=TOLERANCE)


class TestCarryBitwiseParity:
    """Acceptance (b): the carry machinery adds NO numerical effect.

    Executing a carried-over remainder merged with the next burst (the
    scheduler's grouped ``submit_many`` path, per-request slicing and
    all) must be bitwise-identical to a fresh flat ``submit`` of the
    same flush batch.  (Parity across *different* batch compositions is
    the engine's separate 1e-8 contract -- BLAS kernel blocking is not
    bitwise-stable across matrix shapes -- and is covered above.)
    """

    def test_carried_remainder_matches_fresh_submission(self, model,
                                                        tiny_dataset):
        images = tiny_dataset.images
        clock = VirtualClock()
        scheduler = Scheduler(clock=clock, batch_window_ms=10.0)
        scheduler.register("only", model, max_batch=4)
        first_burst = [scheduler.submit(images[i]) for i in range(9)]
        scheduler.step()                  # two capacity flushes, 1 carried
        assert scheduler.pending_requests() == 1
        carried_id = first_burst[-1]
        clock.advance(2.0)
        second_burst = [scheduler.submit(images[i]) for i in range(9, 12)]
        results = {r.request_id: r for r in scheduler.step()}
        # The carried request ran merged into the second burst's batch.
        merged_event = scheduler.events[-1]
        assert merged_event.reason == "capacity"
        assert merged_event.request_ids[0] == carried_id   # popped first
        assert set(second_burst) <= set(results)
        assert any(e.carried_requests > 0 for e in scheduler.events)
        # Bitwise: the merged carried batch == fresh flat submission of
        # the same images in flush order, on an independent session.
        fresh = InferenceSession(model, batch_size=32)
        flat = fresh.submit(np.concatenate(
            [images[rid][None] for rid in merged_event.request_ids]))
        merged = np.concatenate(
            [results[rid].logits for rid in merged_event.request_ids])
        np.testing.assert_array_equal(merged, flat.logits)
        merged_latency = np.concatenate(
            [results[rid].latency_ms for rid in merged_event.request_ids])
        np.testing.assert_array_equal(merged_latency, flat.latency_ms)

    def test_every_flush_matches_fresh_submission(self, model,
                                                  tiny_dataset):
        """Every batch the scheduler ever forms -- first-burst, carried,
        merged -- reproduces a fresh flat submission bitwise."""
        images = tiny_dataset.images[:12]
        clock = VirtualClock()
        scheduler = Scheduler(clock=clock, batch_window_ms=3.0)
        scheduler.register("only", model, max_batch=5)
        for i in range(12):
            scheduler.submit(images[i])
        collected = {}
        while len(collected) < 12:
            for result in scheduler.step():
                collected[result.request_id] = result
            clock.advance(1.0)
        assert len(scheduler.events) >= 3          # really ran split up
        fresh = InferenceSession(model, batch_size=32)
        for event in scheduler.events:
            flat = fresh.submit(np.concatenate(
                [images[rid][None] for rid in event.request_ids]))
            batch = np.concatenate(
                [collected[rid].logits for rid in event.request_ids])
            np.testing.assert_array_equal(batch, flat.logits)
