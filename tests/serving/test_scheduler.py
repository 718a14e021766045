"""Scheduler mechanics under a virtual clock: flush timing, deadline
flushes, capacity/budget caps with remainder carry-over, forced drains,
and the background-thread driver.  Every temporal assertion is exact --
the clock only moves when the test advances it."""

import threading
import time

import numpy as np
import pytest

from repro.serving import (Request, RequestQueue, Scheduler, SystemClock,
                           VirtualClock)
from tests.serving.harness import hold_whole_window


@pytest.fixture()
def clock():
    return VirtualClock()


def make_scheduler(model, clock, **kwargs):
    scheduler = Scheduler(clock=clock, **kwargs)
    scheduler.register("default", model)
    return scheduler


class TestFlushTiming:
    """Window and deadline timing against a queue that is *held*: the
    hold is pinned to the whole window (the tiny model's priced
    overhead alone would release every request within one tick;
    ``test_flush_policy.py`` covers that regime)."""

    def test_no_flush_before_window(self, mild_model, clock, tiny_dataset):
        scheduler = hold_whole_window(
            make_scheduler(mild_model, clock, batch_window_ms=10.0))
        scheduler.submit(tiny_dataset.images[0])
        for _ in range(10):                      # t = 0 .. 9
            assert scheduler.step() == []
            clock.advance(1.0)
        results = scheduler.step()               # t = 10: window expired
        assert [r.request_id for r in results] == [0]
        assert scheduler.events[-1].reason == "window"
        assert scheduler.events[-1].time_ms == 10.0

    def test_window_flush_batches_everything_pending(self, mild_model,
                                                     clock, tiny_dataset):
        scheduler = hold_whole_window(
            make_scheduler(mild_model, clock, batch_window_ms=5.0))
        scheduler.submit(tiny_dataset.images[0:2])
        clock.advance(3.0)
        scheduler.submit(tiny_dataset.images[2:5])
        assert scheduler.step() == []            # newest is only 0ms old
        clock.advance(2.0)                       # oldest now 5ms old
        results = scheduler.step()
        assert sorted(r.request_id for r in results) == [0, 1]
        assert len(scheduler.events) == 1        # ONE coalesced batch
        assert scheduler.events[0].num_images == 5

    def test_deadline_forces_early_flush(self, mild_model, clock,
                                         tiny_dataset):
        scheduler = hold_whole_window(
            make_scheduler(mild_model, clock, batch_window_ms=50.0))
        scheduler.submit(tiny_dataset.images[0], deadline_ms=3.0)
        done = []
        while not done:
            done = scheduler.step()
            if not done:
                clock.advance(1.0)
        assert scheduler.events[-1].reason == "deadline"
        assert done[0].deadline_met
        assert done[0].completed_ms <= 3.0

    def test_deadline_of_late_arrival_pulls_flush_forward(
            self, mild_model, clock, tiny_dataset):
        """A tight-deadline request joining a lazy queue flushes it."""
        scheduler = hold_whole_window(
            make_scheduler(mild_model, clock, batch_window_ms=50.0))
        scheduler.submit(tiny_dataset.images[0])           # best-effort
        clock.advance(2.0)
        scheduler.submit(tiny_dataset.images[1], deadline_ms=1.0)
        assert scheduler.step() == []                      # not due yet
        clock.advance(1.0)                                 # t=3 = deadline
        results = scheduler.step()
        assert sorted(r.request_id for r in results) == [0, 1]
        assert scheduler.events[-1].reason == "deadline"

    def test_empty_step_no_events(self, mild_model, clock):
        scheduler = make_scheduler(mild_model, clock)
        assert scheduler.step() == []
        assert scheduler.events == []


class TestCapacityAndCarry:
    def test_capacity_flush_carries_remainder(self, mild_model, clock,
                                              tiny_dataset):
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=10.0)
        scheduler.sessions[0].max_batch = 4
        for i in range(6):
            scheduler.submit(tiny_dataset.images[i])
        results = scheduler.step()                # t=0: full batch is due
        assert len(results) == 4
        event = scheduler.events[-1]
        assert event.reason == "capacity"
        assert event.num_images == 4
        assert event.carried_requests == 2        # remainder carried over
        assert scheduler.pending_requests() == 2
        clock.advance(10.0)                       # window flush for carry
        results = scheduler.step()
        assert len(results) == 2
        assert scheduler.events[-1].reason == "window"
        assert scheduler.pending_requests() == 0

    def test_carried_remainder_merges_with_next_burst(self, mild_model,
                                                      clock, tiny_dataset):
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=10.0)
        scheduler.sessions[0].max_batch = 4
        for i in range(5):
            scheduler.submit(tiny_dataset.images[i])
        scheduler.step()                          # flush 4, carry 1
        clock.advance(1.0)
        for i in range(5, 8):
            scheduler.submit(tiny_dataset.images[i])
        results = scheduler.step()                # 1 carried + 3 new = 4
        assert len(results) == 4
        assert scheduler.events[-1].reason == "capacity"
        assert scheduler.events[-1].num_images == 4
        assert 4 in scheduler.events[-1].request_ids  # the carried one ran

    def test_requests_are_atomic(self, mild_model, clock, tiny_dataset):
        """A request's images never split across flushes."""
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=10.0)
        scheduler.sessions[0].max_batch = 4
        scheduler.submit(tiny_dataset.images[0:3])
        scheduler.submit(tiny_dataset.images[3:6])
        clock.advance(10.0)
        results = scheduler.step()                # window due for both
        flushes = [e for e in scheduler.events]
        assert len(results) == 2
        assert [e.num_images for e in flushes] == [3, 3]

    def test_oversize_request_still_runs(self, mild_model, clock,
                                         tiny_dataset):
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=2.0)
        scheduler.sessions[0].max_batch = 4
        scheduler.submit(tiny_dataset.images[:7])  # bigger than max_batch
        results = scheduler.step()
        assert len(results) == 1
        assert results[0].logits.shape == (7, 4)
        assert scheduler.events[-1].reason == "capacity"

    def test_latency_budget_caps_batch(self, mild_model, clock,
                                       tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=50.0,
                              latency_budget_ms=0.5)
        served = scheduler.register("default", mild_model, max_batch=100)
        # Largest prefix whose batch-aware cost (overheads included)
        # still fits the budget.
        budget_images = max(n for n in range(1, 101)
                            if served.batch_cost_ms(n) <= 0.5)
        assert budget_images >= 2                 # tiny model, cheap images
        assert budget_images + 3 <= tiny_dataset.images.shape[0]
        for i in range(budget_images + 3):
            scheduler.submit(tiny_dataset.images[i])
        results = scheduler.step()
        event = scheduler.events[-1]
        assert event.reason == "budget"
        assert event.num_images <= budget_images
        assert event.estimated_ms <= 0.5
        assert event.carried_requests == (budget_images + 3
                                          - len(results))


class TestForcedFlushAndResults:
    def test_flush_runs_everything_now(self, mild_model, clock,
                                       tiny_dataset):
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=100.0)
        ids = [scheduler.submit(tiny_dataset.images[i]) for i in range(3)]
        assert scheduler.step() == []
        results = scheduler.flush()
        assert sorted(r.request_id for r in results) == ids
        assert all(e.reason == "forced" for e in scheduler.events)

    def test_flush_single_session(self, mild_model, aggressive_model,
                                  clock, tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0)
        scheduler.register("mild", mild_model)
        scheduler.register("aggressive", aggressive_model)
        scheduler.submit(tiny_dataset.images[0], model="mild")
        scheduler.submit(tiny_dataset.images[1], model="aggressive")
        results = scheduler.flush("mild")
        assert [r.session for r in results] == ["mild"]
        assert scheduler.pending_requests() == 1   # aggressive untouched

    def test_pop_result(self, mild_model, clock, tiny_dataset):
        scheduler = make_scheduler(mild_model, clock)
        request_id = scheduler.submit(tiny_dataset.images[0])
        assert scheduler.pop_result(request_id) is None
        scheduler.flush()
        result = scheduler.pop_result(request_id)
        assert result.request_id == request_id
        assert scheduler.pop_result(request_id) is None   # consumed

    def test_ledger_stamps_one_request(self, mild_model, clock,
                                       tiny_dataset):
        """The ledger entry's clock stamps are the request's timeline:
        queued at submit, in flight and completed at the flush instant
        (in-process, the batch runs inside the flush), delivered when
        popped; at delivery the ledger lets go of the entry and keeps
        only the id's state."""
        scheduler = hold_whole_window(
            make_scheduler(mild_model, clock, batch_window_ms=5.0))
        clock.advance(2.0)
        request_id = scheduler.submit(tiny_dataset.images[0], priority=3)
        entry = scheduler.ledger._entries[request_id]
        assert scheduler.ledger.state(request_id) == "queued"
        clock.advance(5.0)
        assert [r.request_id for r in scheduler.step()] == [request_id]
        assert scheduler.ledger.state(request_id) == "completed"
        clock.advance(3.0)
        assert scheduler.pop_result(request_id).request_id == request_id
        assert entry.stamps == [("queued", 2.0), ("in_flight", 7.0),
                                ("completed", 7.0), ("delivered", 10.0)]
        assert (entry.state, entry.priority, entry.session,
                entry.result) == ("delivered", 3, "default", None)
        assert scheduler.ledger._entries[request_id] is not entry
        assert scheduler.ledger.state(request_id) == "delivered"
        assert scheduler.stats()["pending_results"] == 0

    def test_uncollected_results_are_bounded(self, mild_model, clock,
                                             tiny_dataset, monkeypatch):
        """Results nobody collects are evicted oldest first; an evicted
        id reads as never completed."""
        window = 4
        monkeypatch.setattr("repro.serving.ledger._TERMINAL_WINDOW", window)
        scheduler = make_scheduler(mild_model, clock)
        ids = []
        for index in range(window + 3):
            ids.append(scheduler.submit(tiny_dataset.images[index]))
            scheduler.flush()
            assert scheduler.stats()["pending_results"] <= window
        assert scheduler.stats()["pending_results"] == window
        # Waiting on an evicted id fails at once instead of hanging; an
        # id still unfinished times out as ever.
        with pytest.raises(KeyError):
            scheduler.wait_result(ids[0], timeout_ms=None)
        unfinished = scheduler.submit(tiny_dataset.images[0])
        with pytest.raises(TimeoutError):
            scheduler.wait_result(unfinished, timeout_ms=0.0)
        scheduler.flush()
        ids, evicted = ids[1:] + [unfinished], 3 + 1
        assert [scheduler.pop_result(i) is None for i in ids] \
            == [True] * 3 + [False] * window
        assert scheduler.stats()["classes"][1]["completed"] \
            == window + evicted
        with pytest.raises(KeyError):                     # collected
            scheduler.wait_result(unfinished, timeout_ms=None)

    def test_wait_result_timeout(self, mild_model, clock, tiny_dataset):
        scheduler = make_scheduler(mild_model, clock)
        request_id = scheduler.submit(tiny_dataset.images[0])
        with pytest.raises(TimeoutError):
            scheduler.wait_result(request_id, timeout_ms=10.0)

    @pytest.mark.parametrize("call", ["wait_result", "drain"])
    @pytest.mark.parametrize("timeout_ms", [
        float("nan"), float("inf"), -1.0, 1e308])
    def test_wait_result_rejects_an_unusable_timeout(
            self, mild_model, clock, tiny_dataset, timeout_ms, call):
        """A NaN wait never timed out and an infinite or 1e308 ms one
        overflowed the lock's deadline; each is a ``ValueError`` before
        any wait or run -- from ``wait_result`` and ``drain`` alike --
        and the result stays deliverable."""
        scheduler = make_scheduler(mild_model, clock)
        request_id = scheduler.submit(tiny_dataset.images[0])
        with pytest.raises(ValueError, match="timeout_ms"):
            if call == "drain":
                scheduler.drain(timeout_ms=timeout_ms)
            else:
                scheduler.wait_result(request_id, timeout_ms=timeout_ms)
        assert scheduler.pending_requests() == 1
        scheduler.flush()
        assert scheduler.wait_result(request_id, timeout_ms=0.0) is not None

    def test_result_fields(self, mild_model, clock, tiny_dataset):
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=5.0)
        clock.advance(7.0)
        request_id = scheduler.submit(tiny_dataset.images[0:2],
                                      deadline_ms=20.0)
        clock.advance(5.0)
        result, = scheduler.step()
        assert result.request_id == request_id
        assert result.session == "default"
        assert result.logits.shape == (2, 4)
        assert result.latency_ms.shape == (2,)
        assert np.all(result.latency_ms > 0)
        assert result.predictions.shape == (2,)
        assert result.arrival_ms == 7.0
        assert result.completed_ms == 12.0
        assert result.wait_ms == 5.0
        assert result.deadline_ms == 27.0       # stored absolute
        assert result.deadline_met and result.overshoot_ms == 0.0
        assert len(result.tokens_per_stage) == 1
        assert result.tokens_per_stage[0].shape == (2,)

    def test_completion_stamped_after_execution(self, mild_model, clock,
                                                tiny_dataset):
        """``completed_ms`` is delivery time, not flush time: a deadline
        that falls inside the batch's own execution is a miss, on the
        in-process path exactly as on a worker pool."""
        scheduler = make_scheduler(mild_model, clock, batch_window_ms=5.0)
        session = scheduler.sessions[0].session
        run = session.submit_many

        def seven_ms(groups, record=None):
            clock.advance(7.0)                   # the batch takes 7 ms
            return run(groups, record)

        session.submit_many = seven_ms
        scheduler.submit(tiny_dataset.images[0], deadline_ms=9.0)
        clock.advance(5.0)
        result, = scheduler.step()               # flushes at t = 5
        assert scheduler.events[-1].time_ms == 5.0
        assert result.completed_ms == 5.0 + 7.0
        assert result.wait_ms == 12.0
        assert not result.deadline_met
        assert result.overshoot_ms == 3.0
        counters = scheduler.stats()["classes"][result.priority]
        assert counters["deadline_misses"] == 1
        assert counters["deadline_hit_rate"] == 0.0


class TestValidation:
    def test_submit_requires_registration(self, clock, tiny_dataset):
        scheduler = Scheduler(clock=clock)
        with pytest.raises(RuntimeError):
            scheduler.submit(tiny_dataset.images[0])

    def test_register_exactly_one_source(self, mild_model, clock):
        scheduler = Scheduler(clock=clock)
        with pytest.raises(ValueError):
            scheduler.register("x")
        with pytest.raises(ValueError):
            scheduler.register("x", mild_model,
                               session=scheduler)   # both given

    def test_register_duplicate_name(self, mild_model, clock):
        scheduler = Scheduler(clock=clock)
        scheduler.register("x", mild_model)
        with pytest.raises(ValueError):
            scheduler.register("x", mild_model)

    def test_bad_images(self, mild_model, clock):
        scheduler = make_scheduler(mild_model, clock)
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((0, 3, 16, 16)))
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((16, 16)))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_rejected_at_submit(self, mild_model, clock,
                                                  tiny_dataset, poison):
        """One NaN pixel would fail a whole int8 flush (and be served
        silently by a float one): refuse it where outside input enters,
        before anything is queued or counted."""
        scheduler = make_scheduler(mild_model, clock)
        images = tiny_dataset.images[:3].copy()
        images[1, 2, 5, 7] = poison
        with pytest.raises(ValueError, match="finite"):
            scheduler.submit(images)
        with pytest.raises(ValueError, match="finite"):
            scheduler.submit(images[1])
        assert scheduler.pending_requests() == 0
        assert scheduler.stats()["classes"] == {}
        scheduler.submit(images[0])                     # the clean one
        assert scheduler.pending_requests() == 1

    def test_single_image_is_promoted(self, mild_model, clock,
                                      tiny_dataset):
        scheduler = make_scheduler(mild_model, clock)
        scheduler.submit(tiny_dataset.images[0])        # (C, H, W)
        result, = scheduler.flush()
        assert result.logits.shape == (1, 4)

    def test_bad_deadline_and_unknown_model(self, mild_model, clock,
                                            tiny_dataset):
        scheduler = make_scheduler(mild_model, clock)
        with pytest.raises(ValueError):
            scheduler.submit(tiny_dataset.images[0], deadline_ms=0.0)
        # NaN fails every comparison, so ``<= 0`` alone would queue it
        # as a deadline no flush can meet; inf is no deadline at all.
        for deadline_ms in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                scheduler.submit(tiny_dataset.images[0],
                                 deadline_ms=deadline_ms)
        with pytest.raises(KeyError):
            scheduler.submit(tiny_dataset.images[0], model="nope")
        assert scheduler.pending_requests() == 0

    def test_bad_scheduler_params(self, clock):
        with pytest.raises(ValueError):
            Scheduler(clock=clock, batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            Scheduler(clock=clock, latency_budget_ms=0.0)
        with pytest.raises(TypeError):
            Scheduler(clock=object())

    def test_bad_max_batch(self, mild_model, clock):
        scheduler = Scheduler(clock=clock)
        with pytest.raises(ValueError):
            scheduler.register("x", mild_model, max_batch=0)

    def test_wrong_image_shape_rejected_at_submit(self, mild_model,
                                                  clock):
        """Malformed images must fail fast at submit, never poison a
        flush batch alongside well-formed requests."""
        scheduler = make_scheduler(mild_model, clock)
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((3, 8, 8)))      # wrong H, W
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((2, 1, 16, 16)))  # wrong channels
        assert scheduler.pending_requests() == 0

    def test_failed_execution_requeues_batch(self, mild_model, clock,
                                             tiny_dataset):
        """An executor failure loses no co-batched requests."""
        scheduler = make_scheduler(mild_model, clock)
        scheduler.submit(tiny_dataset.images[0])
        scheduler.submit(tiny_dataset.images[1])
        session = scheduler.sessions[0].session
        original = session.submit_many

        def boom(groups, record=None):
            raise RuntimeError("executor died")

        session.submit_many = boom
        with pytest.raises(RuntimeError):
            scheduler.flush()
        assert scheduler.pending_requests() == 2       # nothing lost
        session.submit_many = original
        assert len(scheduler.flush()) == 2

    def test_router_only_sees_shape_compatible_sessions(self, mild_model,
                                                        clock,
                                                        tiny_dataset):
        """With mixed image sizes registered, requests route among the
        sessions that actually serve their shape; a shape nobody serves
        is rejected with the registered shapes listed."""
        from repro.core import HeatViT
        from repro.vit import VisionTransformer, ViTConfig

        small_config = ViTConfig(name="small", image_size=8, patch_size=4,
                                 embed_dim=24, depth=2, num_heads=3,
                                 num_classes=4)
        small = HeatViT(VisionTransformer(small_config,
                                          rng=np.random.default_rng(3)),
                        {1: 0.6}, rng=np.random.default_rng(4))
        small.eval()
        scheduler = Scheduler(clock=clock, batch_window_ms=5.0)
        scheduler.register("small", small)          # (3, 8, 8)
        scheduler.register("large", mild_model)     # (3, 16, 16)
        large_id = scheduler.submit(tiny_dataset.images[0])
        small_id = scheduler.submit(np.zeros((3, 8, 8)))
        results = {r.request_id: r.session for r in scheduler.flush()}
        assert results == {large_id: "large", small_id: "small"}
        with pytest.raises(ValueError, match="registered shapes"):
            scheduler.submit(np.zeros((3, 32, 32)))

    def test_events_log_is_bounded(self, mild_model, clock, tiny_dataset):
        scheduler = Scheduler(clock=clock, batch_window_ms=100.0,
                              max_events=2)
        scheduler.register("default", mild_model)
        for i in range(4):
            scheduler.submit(tiny_dataset.images[i])
            scheduler.flush()
        assert len(scheduler.events) == 2
        assert scheduler.events[-1].request_ids == [3]   # newest kept
        with pytest.raises(ValueError):
            Scheduler(clock=clock, max_events=0)

    def test_estimate_tracks_operating_point(self, mild_model, clock):
        """ServedModel pricing follows set_keep_ratios retuning
        automatically -- no manual invalidation required."""
        scheduler = make_scheduler(mild_model, clock)
        served = scheduler.sessions[0]
        before = served.marginal_image_ms
        before_batch = served.batch_cost_ms(4)
        mild_model.set_keep_ratios([0.5])
        assert served.marginal_image_ms <= before
        assert served.batch_cost_ms(4) <= before_batch
        assert served.marginal_image_ms == (
            served.session.marginal_image_ms)
        mild_model.set_keep_ratios([0.8])
        assert served.marginal_image_ms == before
        assert served.batch_cost_ms(4) == before_batch

    def test_flush_cost_includes_batch_overhead(self, mild_model, clock,
                                                tiny_dataset):
        """FlushEvent.estimated_ms is the CostModel batch price: the
        per-batch overhead plus the per-image marginals, not a bare
        per-image multiple."""
        scheduler = make_scheduler(mild_model, clock)
        served = scheduler.sessions[0]
        assert served.cost_model.batch_overhead_ms > 0
        for i in range(3):
            scheduler.submit(tiny_dataset.images[i])
        scheduler.flush()
        event = scheduler.events[-1]
        assert event.num_images == 3
        assert event.estimated_ms == pytest.approx(
            served.cost_model.batch_overhead_ms
            + 3 * served.marginal_image_ms)

    def test_virtual_clock_monotonic(self):
        clock = VirtualClock(start_ms=5.0)
        assert clock.now() == 5.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestRequestQueue:
    def make_request(self, request_id, arrival, deadline=None, images=1):
        return Request(request_id=request_id,
                       images=np.zeros((images, 3, 4, 4)),
                       arrival_ms=arrival, deadline_ms=deadline)

    def test_edf_order_with_fifo_ties(self):
        queue = RequestQueue()
        queue.push(self.make_request(0, arrival=0.0))              # no ddl
        queue.push(self.make_request(1, arrival=1.0, deadline=9.0))
        queue.push(self.make_request(2, arrival=2.0, deadline=4.0))
        queue.push(self.make_request(3, arrival=3.0))              # no ddl
        order = [r.request_id for r in queue.snapshot()]
        assert order == [2, 1, 0, 3]
        assert queue.earliest_deadline_ms == 4.0
        assert queue.oldest_arrival_ms == 0.0

    def test_pop_batch_respects_caps_but_takes_first(self):
        queue = RequestQueue()
        queue.push(self.make_request(0, arrival=0.0, images=5))
        queue.push(self.make_request(1, arrival=1.0, images=5))
        taken = queue.pop_batch(max_images=3)     # first always pops
        assert [r.request_id for r in taken] == [0]
        taken = queue.pop_batch(max_images=3)
        assert [r.request_id for r in taken] == [1]
        assert len(queue) == 0

    def test_pop_batch_latency_budget(self):
        queue = RequestQueue()
        for i in range(4):
            queue.push(self.make_request(i, arrival=float(i), images=2))
        taken = queue.pop_batch(latency_budget_ms=5.0,
                                batch_cost_ms=lambda n: n * 1.0)
        assert [r.request_id for r in taken] == [0, 1]   # 2 + 2 <= 5 < 6
        assert queue.pending_images == 4

    def test_pop_batch_budget_prices_overhead_once(self):
        """The prefix is priced as ONE batch: a fixed overhead is not
        re-paid per request, so more requests fit than a per-request
        accumulation would admit."""
        queue = RequestQueue()
        for i in range(4):
            queue.push(self.make_request(i, arrival=float(i), images=2))
        taken = queue.pop_batch(latency_budget_ms=10.0,
                                batch_cost_ms=lambda n: 3.0 + n * 1.0)
        assert [r.request_id for r in taken] == [0, 1, 2]  # 3 + 6 <= 10
        assert queue.pending_images == 2

    def test_pop_batch_budget_requires_pricer(self):
        queue = RequestQueue()
        queue.push(self.make_request(0, arrival=0.0, images=2))
        with pytest.raises(ValueError):
            queue.pop_batch(latency_budget_ms=5.0)

    def test_push_rejects_empty(self):
        queue = RequestQueue()
        with pytest.raises(ValueError):
            queue.push(self.make_request(0, arrival=0.0, images=0))


class TestBackgroundThread:
    def test_threaded_serving_smoke(self, mild_model, tiny_dataset):
        """Real clock + background stepping; generous bounds, no flake."""
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=1.0)
        scheduler.register("default", mild_model)
        scheduler.start(poll_ms=1.0)
        try:
            request_id = scheduler.submit(tiny_dataset.images[:3])
            result = scheduler.wait_result(request_id, timeout_ms=10_000.0)
            assert result.logits.shape == (3, 4)
        finally:
            scheduler.stop()

    def test_stop_drains(self, mild_model, tiny_dataset):
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=10_000.0)
        scheduler.register("default", mild_model)
        scheduler.start(poll_ms=1.0)
        request_id = scheduler.submit(tiny_dataset.images[0])
        leftovers = scheduler.stop()              # window never expired
        assert request_id in [r.request_id for r in leftovers]
        assert scheduler.stop() == []             # idempotent

    def test_background_failure_wakes_waiters(self, mild_model,
                                              tiny_dataset):
        """A dying step thread surfaces its error instead of hanging
        every wait_result caller forever."""
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=1.0)
        scheduler.register("default", mild_model)
        session = scheduler.sessions[0].session

        def boom(groups, record=None):
            raise RuntimeError("executor died")

        session.submit_many = boom
        scheduler.start(poll_ms=1.0)
        try:
            request_id = scheduler.submit(tiny_dataset.images[0])
            with pytest.raises(RuntimeError, match="background thread"):
                scheduler.wait_result(request_id, timeout_ms=10_000.0)
            assert scheduler.pending_requests() == 1   # requeued, not lost
        finally:
            scheduler._thread.join(timeout=5.0)
            scheduler._thread = None
            scheduler._stop_event = None

    def test_register_after_start(self, mild_model, aggressive_model,
                                  tiny_dataset):
        """Late registration is safe against the stepping thread."""
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=1.0)
        scheduler.register("mild", mild_model)
        scheduler.start(poll_ms=1.0)
        try:
            scheduler.register("aggressive", aggressive_model)
            request_id = scheduler.submit(tiny_dataset.images[0],
                                          model="aggressive")
            result = scheduler.wait_result(request_id, timeout_ms=10_000.0)
            assert result.session == "aggressive"
        finally:
            scheduler.stop()

    def test_double_start_raises(self, mild_model):
        scheduler = Scheduler(clock=SystemClock())
        scheduler.register("default", mild_model)
        scheduler.start()
        try:
            with pytest.raises(RuntimeError):
                scheduler.start()
        finally:
            scheduler.stop()


class TestDataclassEqRegression:
    """Regression: the generated dataclass ``__eq__`` compared numpy
    fields element-wise, so ``request in some_list`` raised
    ``ValueError: the truth value of an array with more than one
    element is ambiguous`` the moment two *distinct* records were
    compared.  Both records are now ``eq=False`` (identity
    semantics)."""

    def test_request_membership_does_not_raise(self):
        first = Request(request_id=0, images=np.zeros((2, 3, 4, 4)),
                        arrival_ms=0.0)
        second = Request(request_id=1, images=np.zeros((2, 3, 4, 4)),
                         arrival_ms=1.0)
        assert first not in [second]          # raised before the fix
        assert first in [second, first]
        assert first != second and first == first

    def test_result_membership_does_not_raise(self):
        from repro.serving import RequestResult

        def make(request_id):
            return RequestResult(
                request_id=request_id, logits=np.zeros((2, 4)),
                latency_ms=np.zeros(2), session="s", arrival_ms=0.0,
                completed_ms=1.0)

        first, second = make(0), make(1)
        assert first not in [second]          # raised before the fix
        assert first in [second, first]
        assert first != second

    def test_hashable_as_dict_keys(self):
        request = Request(request_id=0, images=np.zeros((1, 3, 4, 4)),
                          arrival_ms=0.0)
        assert {request: "x"}[request] == "x"


class TestQueueScaling:
    """Regression: ``pop_batch`` re-sorted the whole backlog on every
    call and removed taken requests with ``list.remove`` (an O(n)
    identity scan each), turning a large-backlog drain into O(n^2)
    comparisons of a key that touches numpy fields.  The queue now
    keeps itself sorted on ``push`` (bisect) and deletes the popped
    prefix by index."""

    BACKLOG = 20_000

    def _fill(self, queue, rng):
        payload = np.zeros((1, 3, 4, 4))
        deadlines = rng.permutation(self.BACKLOG).astype(float)
        for i in range(self.BACKLOG):
            queue.push(Request(request_id=i, images=payload,
                               arrival_ms=float(i),
                               deadline_ms=deadlines[i]))
        return deadlines

    def test_large_backlog_drains_fast_and_in_edf_order(self):
        import time as time_module

        queue = RequestQueue()
        rng = np.random.default_rng(0)
        start = time_module.monotonic()
        self._fill(queue, rng)
        popped = []
        while len(queue):
            batch = queue.pop_batch(max_images=64)
            assert batch
            popped.extend(batch)
        elapsed = time_module.monotonic() - start
        # Generous absolute bound: the O(n^2) implementation took tens
        # of seconds at this size; the sorted queue is well under a
        # second even on a loaded CI box.
        assert elapsed < 10.0
        assert len(popped) == self.BACKLOG
        deadlines = [r.deadline_ms for r in popped]
        assert deadlines == sorted(deadlines)   # global EDF order

    def test_interleaved_push_pop_stays_sorted(self):
        queue = RequestQueue()
        payload = np.zeros((1, 3, 4, 4))
        rng = np.random.default_rng(1)
        popped = []
        next_id = 0
        for _ in range(200):
            for _ in range(rng.integers(1, 6)):
                queue.push(Request(request_id=next_id, images=payload,
                                   arrival_ms=float(next_id),
                                   deadline_ms=float(rng.integers(0, 1000))))
                next_id += 1
            popped.extend(queue.pop_batch(max_images=2))
        popped.extend(queue.pop_batch())
        assert len(popped) == next_id
        snapshot_ids = {r.request_id for r in popped}
        assert snapshot_ids == set(range(next_id))


class TestConcurrentRegistrySubmit:
    """Regression: ``submit`` (and ``flush``) read ``self._served``
    with no ``_registry_lock``, so a concurrent ``register`` mutating
    the dict could surface as a RuntimeError (dict changed size during
    iteration) or route against a half-updated registry.  Both paths
    now snapshot the registry under the lock."""

    def test_register_while_submitting(self, mild_model, tiny_dataset):
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=50.0)
        scheduler.register("default", mild_model)
        base_session = scheduler.sessions[0].session
        errors = []
        stop = threading.Event()

        def registrar():
            index = 0
            while not stop.is_set():
                try:
                    scheduler.register(f"extra-{index}",
                                       session=base_session)
                except Exception as exc:
                    errors.append(exc)
                    return
                index += 1

        def submitter():
            index = 0
            while not stop.is_set():
                try:
                    scheduler.submit(tiny_dataset.images[index % 8],
                                     model="default")
                    scheduler.flush("default")
                except Exception as exc:
                    errors.append(exc)
                    return
                index += 1

        threads = [threading.Thread(target=registrar)] + [
            threading.Thread(target=submitter) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(1.0)
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
        scheduler.drain()
        assert scheduler.pending_requests() == 0
