"""Scripted-trace simulations (acceptance criterion a).

Under bursty, uniform, and adversarial deadline traces, the
deadline-aware scheduler must bound lateness: no request completes more
than one batch window past its deadline, nothing is lost or duplicated,
and the whole simulation -- flush times, reasons, routing, logits -- is
bit-reproducible run to run.
"""

import numpy as np
import pytest

from repro.serving import (HighestFidelityRouter, Scheduler, VirtualClock)

from tests.serving.harness import (ServingSimulation,
                                   adversarial_deadline_trace, bursty_trace,
                                   flat_rate_session, uniform_trace)

WINDOW_MS = 5.0


def build(model, *, window_ms=WINDOW_MS, max_batch=None, **kwargs):
    clock = VirtualClock()
    scheduler = Scheduler(clock=clock, batch_window_ms=window_ms, **kwargs)
    scheduler.register("default", model, max_batch=max_batch)
    return scheduler, clock


def simulate(scheduler, clock, trace, tick_ms=1.0):
    return ServingSimulation(scheduler, clock, trace, tick_ms=tick_ms).run()


def assert_conservation(report, trace):
    """Every scripted request completed exactly once, images intact."""
    assert sorted(report.results) == sorted(report.arrivals)
    assert len(report.results) == len(trace)
    submitted = sum(a.images.shape[0] for a in report.arrivals.values())
    executed = sum(e.num_images for e in report.events)
    assert executed == submitted
    flushed_ids = [rid for e in report.events for rid in e.request_ids]
    assert sorted(flushed_ids) == sorted(report.results)   # no duplicates


class TestUniformTrace:
    def test_steady_stream_meets_loose_deadlines(self, mild_model,
                                                 tiny_dataset):
        scheduler, clock = build(mild_model)
        trace = uniform_trace(tiny_dataset.images, num_requests=15,
                              period_ms=2.0, images_per_request=2,
                              deadline_ms=3 * WINDOW_MS)
        report = simulate(scheduler, clock, trace)
        assert_conservation(report, trace)
        assert report.missed_ids == []
        assert report.max_overshoot_ms == 0.0
        # The window bounds queueing: nobody waits longer than one
        # window plus the deadline pull-forward granularity.
        assert all(res.wait_ms <= WINDOW_MS
                   for res in report.results.values())

    def test_flushes_coalesce_the_stream(self, mild_model, tiny_dataset):
        scheduler, clock = build(mild_model)
        trace = uniform_trace(tiny_dataset.images, num_requests=12,
                              period_ms=1.0)
        report = simulate(scheduler, clock, trace)
        assert_conservation(report, trace)
        # Batching must actually happen: far fewer flushes than requests.
        assert len(report.events) < len(trace)
        assert max(e.num_images for e in report.events) > 1


class TestBurstyTrace:
    def test_bursts_force_carry_over(self, mild_model, tiny_dataset):
        scheduler, clock = build(mild_model, max_batch=8)
        trace = bursty_trace(tiny_dataset.images,
                             burst_times_ms=[0.0, 7.0, 20.0],
                             burst_size=12)
        report = simulate(scheduler, clock, trace)
        assert_conservation(report, trace)
        assert any(e.reason == "capacity" for e in report.events)
        assert any(e.carried_requests > 0 for e in report.events)
        assert all(e.num_images <= 8 for e in report.events)

    def test_burst_deadlines_bounded(self, mild_model, tiny_dataset):
        scheduler, clock = build(mild_model, max_batch=8)
        trace = bursty_trace(tiny_dataset.images,
                             burst_times_ms=[0.0, 6.0, 18.0],
                             burst_size=10, deadline_ms=2 * WINDOW_MS)
        report = simulate(scheduler, clock, trace)
        assert_conservation(report, trace)
        # Acceptance (a): never more than one batch window late.
        assert report.max_overshoot_ms <= WINDOW_MS


class TestAdversarialDeadlines:
    def test_overshoot_bounded_by_one_window(self, mild_model,
                                             tiny_dataset):
        scheduler, clock = build(mild_model)
        trace = adversarial_deadline_trace(tiny_dataset.images,
                                           window_ms=WINDOW_MS)
        report = simulate(scheduler, clock, trace)
        assert_conservation(report, trace)
        # Acceptance (a): the 0.5 ms deadlines are tighter than one tick
        # and CANNOT be met -- but lateness stays under one window.
        assert report.max_overshoot_ms <= WINDOW_MS
        # Feasible deadlines (>= one tick of slack) are all met.
        for rid, arrival in report.arrivals.items():
            if arrival.deadline_ms is not None and arrival.deadline_ms >= 2.0:
                assert report.results[rid].deadline_met, (
                    f"request {rid} (deadline {arrival.deadline_ms} ms) "
                    f"overshot by {report.results[rid].overshoot_ms} ms")

    def test_edf_reorders_completion(self, mild_model, tiny_dataset):
        """Tight deadlines complete no later than earlier best-effort
        arrivals -- EDF visibly deviates from FIFO."""
        scheduler, clock = build(mild_model, max_batch=2,
                                 window_ms=20.0)
        trace = adversarial_deadline_trace(tiny_dataset.images,
                                           window_ms=20.0)
        report = simulate(scheduler, clock, trace)
        assert_conservation(report, trace)
        tight = [rid for rid, a in report.arrivals.items()
                 if a.deadline_ms is not None and a.deadline_ms <= 2.0]
        effort = [rid for rid, a in report.arrivals.items()
                  if a.deadline_ms is None]
        first_tight = min(report.results[rid].completed_ms for rid in tight)
        last_effort = max(report.results[rid].completed_ms
                          for rid in effort)
        assert first_tight <= last_effort


class TestDeterminism:
    def test_bit_reproducible_runs(self, tiny_backbone, tiny_dataset):
        """Same trace, fresh scheduler: identical events and logits."""
        from repro.core import HeatViT

        def one_run():
            model = HeatViT(tiny_backbone, {1: 0.6, 3: 0.4},
                            rng=np.random.default_rng(42))
            model.eval()
            scheduler, clock = build(model, max_batch=6)
            trace = adversarial_deadline_trace(tiny_dataset.images,
                                               window_ms=WINDOW_MS)
            return simulate(scheduler, clock, trace)

        first, second = one_run(), one_run()
        assert [(e.time_ms, e.session, e.reason, e.request_ids,
                 e.num_images, e.carried_requests)
                for e in first.events] == [
                    (e.time_ms, e.session, e.reason, e.request_ids,
                     e.num_images, e.carried_requests)
                    for e in second.events]
        assert sorted(first.results) == sorted(second.results)
        for rid in first.results:
            np.testing.assert_array_equal(first.results[rid].logits,
                                          second.results[rid].logits)
            assert (first.results[rid].completed_ms
                    == second.results[rid].completed_ms)


class TestRoutedSimulation:
    def test_fidelity_routing_under_mixed_deadlines(self, mild_model,
                                                    aggressive_model,
                                                    tiny_dataset):
        """Tight deadlines degrade to the pruned operating point, loose
        ones get the accurate model -- inside a full simulation."""
        clock = VirtualClock()
        scheduler = Scheduler(clock=clock, router=HighestFidelityRouter(),
                              batch_window_ms=WINDOW_MS)
        scheduler.register("mild", session=flat_rate_session(
            mild_model, 10.0))                            # 40 ms/image
        scheduler.register("aggressive", session=flat_rate_session(
            aggressive_model, 1.25))                      # 5 ms/image
        mixed = uniform_trace(tiny_dataset.images[:10], num_requests=5,
                              period_ms=2.0, deadline_ms=100.0)
        mixed += uniform_trace(tiny_dataset.images[10:20], num_requests=5,
                               period_ms=2.0, start_ms=1.0,
                               deadline_ms=10.0)
        report = simulate(scheduler, clock, mixed)
        assert_conservation(report, mixed)
        loose = {rid for rid, a in report.arrivals.items()
                 if a.deadline_ms == 100.0}
        tight = {rid for rid, a in report.arrivals.items()
                 if a.deadline_ms == 10.0}
        assert {report.sessions_used[rid] for rid in loose} == {"mild"}
        assert {report.sessions_used[rid]
                for rid in tight} == {"aggressive"}
        assert report.max_overshoot_ms <= WINDOW_MS
