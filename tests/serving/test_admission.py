"""SLO tiers, admission control, and flush preemption.

Everything runs under a virtual clock: tier deadlines, degrade/shed
decisions, and preemption timing are asserted exactly.  The two-tier
overload simulation at the bottom is the deterministic twin of the
HTTP benchmark's acceptance bar: premium (class-0) traffic keeps its
deadline-hit rate >= 0.95 while admission control degrades or sheds
the bulk class instead of letting it drag class 0 past its deadlines.
"""

import numpy as np
import pytest

from repro.serving import (AdmissionError, HighestFidelityRouter, Scheduler,
                           VirtualClock, two_tier_trace)
from tests.serving.harness import (ServingSimulation, hold_whole_window,
                                   two_tier_arrivals)


@pytest.fixture()
def clock():
    return VirtualClock()


class TestPriorityTiers:
    def test_tier_deadline_applies_when_none_given(self, mild_model, clock,
                                                   tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              priority_tiers={0: 5.0, 1: 50.0})
        scheduler.register("default", mild_model)
        clock.advance(3.0)
        scheduler.submit(tiny_dataset.images[0], priority=0)
        scheduler.submit(tiny_dataset.images[1], priority=1)
        scheduler.submit(tiny_dataset.images[2], priority=7)  # no tier
        by_id = {r.request_id: r for r in scheduler.flush()}
        assert by_id[0].deadline_ms == 8.0          # 3.0 + tier 0
        assert by_id[1].deadline_ms == 53.0         # 3.0 + tier 1
        assert by_id[2].deadline_ms is None         # unmapped class
        assert by_id[0].priority == 0 and by_id[2].priority == 7

    def test_explicit_deadline_beats_tier(self, mild_model, clock,
                                          tiny_dataset):
        scheduler = Scheduler(clock=clock, priority_tiers={0: 5.0})
        scheduler.register("default", mild_model)
        scheduler.submit(tiny_dataset.images[0], priority=0,
                         deadline_ms=17.0)
        result, = scheduler.flush()
        assert result.deadline_ms == 17.0

    def test_priority_outranks_deadline_in_pop_order(self, mild_model,
                                                     clock, tiny_dataset):
        """Class 0 pops before a class-1 request with an earlier
        deadline: priorities are strict tiers, EDF orders within."""
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              preempt_priority=None)
        served = scheduler.register("default", mild_model)
        scheduler.submit(tiny_dataset.images[0], priority=1,
                         deadline_ms=1.0)
        scheduler.submit(tiny_dataset.images[1], priority=0,
                         deadline_ms=500.0)
        order = [r.priority for r in served.queue.snapshot()]
        assert order == [0, 1]

    def test_validation(self, clock, mild_model, tiny_dataset):
        with pytest.raises(ValueError):
            Scheduler(clock=clock, priority_tiers={-1: 5.0})
        with pytest.raises(ValueError):
            Scheduler(clock=clock, priority_tiers={0: 0.0})
        with pytest.raises(ValueError):
            Scheduler(clock=clock, admission_capacity_ms=0.0)
        scheduler = Scheduler(clock=clock)
        scheduler.register("default", mild_model)
        with pytest.raises(ValueError):
            scheduler.submit(tiny_dataset.images[0], priority=-1)


class TestAdmissionControl:
    def test_sheds_when_priced_backlog_exceeds_capacity(
            self, mild_model, clock, tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              preempt_priority=None)
        served = scheduler.register("default", mild_model)
        # Capacity admits exactly one queued image plus the newcomer.
        scheduler.admission_capacity_ms = served.batch_cost_ms(2)
        scheduler.submit(tiny_dataset.images[0])          # fills capacity
        scheduler.submit(tiny_dataset.images[1])          # exactly at cap
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(tiny_dataset.images[2])
        assert excinfo.value.priority == 1
        assert excinfo.value.backlog_ms > excinfo.value.capacity_ms
        assert scheduler.pending_requests() == 2          # shed, not queued
        stats = scheduler.stats()
        assert stats["classes"][1]["shed"] == 1
        assert stats["classes"][1]["submitted"] == 2

    def test_class_zero_is_never_shed(self, mild_model, clock,
                                      tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              preempt_priority=None)
        served = scheduler.register("default", mild_model)
        scheduler.admission_capacity_ms = served.batch_cost_ms(1) / 2
        for i in range(4):                     # way past capacity
            scheduler.submit(tiny_dataset.images[i], priority=0)
        assert scheduler.pending_requests() == 4

    def test_degrades_to_cheaper_session_before_shedding(
            self, mild_model, aggressive_model, clock, tiny_dataset):
        """Overload on the routed (highest-fidelity) target re-routes
        sheddable traffic to the cheaper operating point -- the INFaaS
        move -- and only sheds when that is full too."""
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              router=HighestFidelityRouter(),
                              preempt_priority=None)
        mild = scheduler.register("mild", mild_model)
        aggressive = scheduler.register("aggressive", aggressive_model)
        assert (aggressive.marginal_image_ms < mild.marginal_image_ms)
        scheduler.admission_capacity_ms = mild.batch_cost_ms(2)
        ids = [scheduler.submit(tiny_dataset.images[i]) for i in range(2)]
        assert len(mild.queue) == 2                 # router's first choice
        degraded_id = scheduler.submit(tiny_dataset.images[2])
        assert len(aggressive.queue) == 1           # degraded, not shed
        assert scheduler.stats()["classes"][1]["degraded"] == 1
        # The degraded request really executes on the cheaper session.
        results = {r.request_id: r for r in scheduler.flush()}
        assert results[degraded_id].session == "aggressive"
        assert all(results[i].session == "mild" for i in ids)

    def test_sheds_when_every_candidate_is_full(
            self, mild_model, aggressive_model, clock, tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              router=HighestFidelityRouter(),
                              preempt_priority=None)
        mild = scheduler.register("mild", mild_model)
        aggressive = scheduler.register("aggressive", aggressive_model)
        scheduler.admission_capacity_ms = min(
            mild.batch_cost_ms(2), aggressive.batch_cost_ms(2))
        submitted = shed = 0
        for i in range(8):
            try:
                scheduler.submit(tiny_dataset.images[i])
                submitted += 1
            except AdmissionError:
                shed += 1
        assert shed > 0 and submitted >= 2
        assert scheduler.pending_requests() == submitted

    def test_pinned_model_is_shed_not_degraded(self, mild_model,
                                               aggressive_model, clock,
                                               tiny_dataset):
        """An explicit model= pin opts out of re-routing: over capacity
        it sheds even though a cheaper session has headroom."""
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              preempt_priority=None)
        mild = scheduler.register("mild", mild_model)
        scheduler.register("aggressive", aggressive_model)
        scheduler.admission_capacity_ms = mild.batch_cost_ms(1)
        scheduler.submit(tiny_dataset.images[0], model="mild")
        with pytest.raises(AdmissionError):
            scheduler.submit(tiny_dataset.images[1], model="mild")


class TestFlushPreemption:
    def test_premium_arrival_flushes_inline(self, mild_model, clock,
                                            tiny_dataset):
        """A class-0 request with a deadline tighter than the batch
        cost executes AT SUBMIT TIME -- no step() call in sight."""
        scheduler = Scheduler(clock=clock, batch_window_ms=50.0)
        scheduler.register("default", mild_model)
        for i in range(3):
            scheduler.submit(tiny_dataset.images[i])     # best effort
        clock.advance(10.0)                              # mid-window
        request_id = scheduler.submit(tiny_dataset.images[3],
                                      deadline_ms=0.001, priority=0)
        result = scheduler.pop_result(request_id)        # already done
        assert result is not None
        assert result.completed_ms == 10.0
        assert result.overshoot_ms <= 0.001
        assert scheduler.events[-1].reason == "deadline"
        # The due flush took the whole pending prefix with it.
        assert scheduler.pending_requests() == 0

    def test_lateness_bounded_by_margin_not_window(self, mild_model,
                                                   clock, tiny_dataset):
        """The satellite's acceptance: with preemption, a tier-0
        arrival mid-window completes within deadline + margin; without
        it, the same trace waits out the batch window (lateness ~ one
        window).  Nothing calls step() between arrival and the window
        expiry, exactly the gap preemption closes."""
        margin = 0.1
        outcomes = {}
        for preempt in (0, None):
            vclock = VirtualClock()
            scheduler = Scheduler(clock=vclock, batch_window_ms=50.0,
                                  deadline_margin_ms=margin,
                                  preempt_priority=preempt)
            scheduler.register("default", mild_model)
            for i in range(3):
                scheduler.submit(tiny_dataset.images[i])
            vclock.advance(10.0)
            request_id = scheduler.submit(tiny_dataset.images[3],
                                          deadline_ms=0.001, priority=0)
            result = scheduler.pop_result(request_id)
            if result is None:
                # No preemption: the next flush opportunity is the
                # window expiry, one full window after the backlog
                # arrived.
                vclock.advance(40.0)                     # t = 50
                scheduler.step()
                result = scheduler.pop_result(request_id)
            outcomes[preempt] = result
        preempted, lazy = outcomes[0], outcomes[None]
        assert preempted is not None and lazy is not None
        deadline = 10.0 + 0.001
        assert preempted.completed_ms - deadline <= margin
        assert lazy.completed_ms - deadline >= 39.0      # ~ the window
        assert lazy.completed_ms - deadline > scheduler.batch_window_ms / 2

    def test_default_priority_does_not_preempt(self, mild_model, clock,
                                               tiny_dataset):
        """Plain traffic keeps the step-driven cadence: nothing
        executes inside submit() for the default class even when a
        flush is due."""
        scheduler = Scheduler(clock=clock, batch_window_ms=5.0)
        scheduler.register("default", mild_model)
        scheduler.submit(tiny_dataset.images[0])
        clock.advance(20.0)                      # window long expired
        scheduler.submit(tiny_dataset.images[1])  # default class
        assert scheduler.pending_requests() == 2  # still queued
        assert scheduler.step() != []

    def test_preempt_threshold_is_configurable(self, mild_model, clock,
                                               tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=50.0,
                              preempt_priority=2)
        scheduler.register("default", mild_model)
        request_id = scheduler.submit(tiny_dataset.images[0],
                                      deadline_ms=0.001, priority=2)
        assert scheduler.pop_result(request_id) is not None


class TestTwoTierOverload:
    def test_premium_hit_rate_under_admission_controlled_overload(
            self, mild_model, aggressive_model, clock):
        """The standing acceptance bar, virtual-clock deterministic:
        bulk bursts overflow the priced capacity, admission degrades
        then sheds class 1, and class 0 still hits >= 95% of its
        deadlines (here: all of them)."""
        # The 4 ms hold is what lets bulk bursts pile up past the priced
        # capacity -- the overload under test.
        scheduler = hold_whole_window(Scheduler(
            clock=clock, batch_window_ms=4.0,
            router=HighestFidelityRouter(),
            priority_tiers={0: 2.0, 1: 20.0}))
        mild = scheduler.register("mild", mild_model)
        scheduler.register("aggressive", aggressive_model)
        scheduler.admission_capacity_ms = mild.batch_cost_ms(6)
        trace = two_tier_trace(duration_ms=60.0, premium_period_ms=3.0,
                               bulk_burst_size=16, bulk_burst_period_ms=8.0,
                               seed=5)
        arrivals = two_tier_arrivals((3, 16, 16), duration_ms=60.0,
                                     premium_period_ms=3.0,
                                     bulk_burst_size=16,
                                     bulk_burst_period_ms=8.0, seed=5)
        assert len(arrivals) == len(trace)
        sim = ServingSimulation(scheduler, clock, arrivals, tick_ms=1.0)
        report = sim.run()
        # Overload really happened and was admission-controlled.
        stats = scheduler.stats()
        assert len(report.shed) > 0
        assert stats["classes"][1]["shed"] == len(report.shed)
        assert stats["classes"][1]["degraded"] > 0
        # Premium never pays for it.
        assert report.hit_rate(priority=0) >= 0.95
        premium = [r for r in report.results.values() if r.priority == 0]
        assert len(premium) == 20                  # none shed
        assert report.hit_rate(priority=0) == 1.0
        # Degraded bulk really ran on the cheaper operating point.
        bulk_sessions = {r.session for r in report.results.values()
                         if r.priority == 1}
        assert "aggressive" in bulk_sessions