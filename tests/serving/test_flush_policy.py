"""The flush rules and the event-woken driver.

Virtual-clock half: exact flush timelines for the cost-priced hold (a
session whose per-batch overhead is dialled to a round number), its
three degenerate cases (overhead >= window holds the whole window; zero
overhead holds nothing; capacity / deadline / back-pressure still come
first), and that ``next_due_ms`` is the very instant ``reason`` turns
true.  Real-clock half: the driver sleeps instead of polling -- counted
in ``step`` calls, not CPU -- and still wakes for everything it must.
"""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeatViT, LatencySparsityTable
from repro.cost import CostModel
from repro.engine import InferenceSession
from repro.serving import (InlineTransport, Scheduler, SystemClock,
                           VirtualClock)
from tests.serving.harness import (Arrival, ServingSimulation,
                                   hold_whole_window)

WINDOW_MS = 10.0
IMAGE_MS = 1.0            # marginal cost of one image on priced_session


@pytest.fixture(scope="module")
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {2: 0.8}, rng=np.random.default_rng(11))
    model.eval()
    return model


def priced_session(model, overhead_ms):
    """A session whose batch law is ``overhead_ms + IMAGE_MS * n``."""
    block_ms = IMAGE_MS / model.config.depth
    table = LatencySparsityTable({0.5: block_ms, 1.0: block_ms})
    return InferenceSession(model, cost_model=CostModel(
        table, num_patches=model.config.num_patches,
        extra_tokens=model.non_patch_slots, batch_overhead_ms=overhead_ms))


def build(model, overhead_ms, whole_window=False, **register):
    clock = VirtualClock()
    scheduler = Scheduler(clock=clock, batch_window_ms=WINDOW_MS)
    if whole_window:
        hold_whole_window(scheduler)
    served = scheduler.register(
        "default", session=priced_session(model, overhead_ms), **register)
    assert served.batch_cost(3).overhead_ms == overhead_ms
    assert served.batch_cost_ms(3) == overhead_ms + 3 * IMAGE_MS
    return scheduler, clock, served


def flush_times(scheduler):
    """request id -> the clock time its flush fired."""
    return {request_id: event.time_ms for event in scheduler.events
            for request_id in event.request_ids}


class _Gate(InlineTransport):
    """An in-process transport whose capacity a test can close."""

    open = True

    def has_capacity(self):
        return self.open


class TestHoldTimeline:
    def test_hold_is_the_overhead_when_below_the_window(self, model,
                                                        tiny_dataset):
        scheduler, clock, _ = build(model, overhead_ms=2.0)
        scheduler.submit(tiny_dataset.images[0])          # t = 0
        clock.advance(1.0)
        scheduler.submit(tiny_dataset.images[1])          # t = 1
        assert scheduler.step() == []
        clock.advance(1.0)                                # oldest held 2 ms
        assert sorted(r.request_id for r in scheduler.step()) == [0, 1]
        event, = scheduler.events
        assert (event.reason, event.time_ms) == ("window", 2.0)
        # The next arrival opens its own hold.
        clock.advance(5.0)
        scheduler.submit(tiny_dataset.images[2])          # t = 7
        clock.advance(1.75)
        assert scheduler.step() == []
        clock.advance(0.25)
        assert [r.request_id for r in scheduler.step()] == [2]
        assert scheduler.events[-1].time_ms == 9.0

    @pytest.mark.parametrize("overhead_ms", [WINDOW_MS, 4 * WINDOW_MS])
    def test_overhead_at_or_above_the_window_holds_the_whole_window(
            self, model, tiny_dataset, overhead_ms):
        """The window is the upper bound of the hold (and the harness's
        ``hold_whole_window`` is that regime, whatever the overhead)."""
        timelines = []
        for whole_window in (False, True):
            scheduler, clock, _ = build(model, overhead_ms, whole_window)
            for index in range(12):
                scheduler.submit(tiny_dataset.images[index])
                scheduler.step()
                clock.advance(3.0)
            scheduler.flush()
            timelines.append([(e.time_ms, e.reason, e.request_ids)
                              for e in scheduler.events])
        assert timelines[0] == timelines[1]
        # Arrivals every 3 ms from t = 0, each opener held 10 ms (the
        # step at 12 finds the one from 0 due, the step at 27 the one
        # from 15); the closing flush() takes the rest.
        assert [(time_ms, reason) for time_ms, reason, _ in timelines[0]] \
            == [(12.0, "window"), (27.0, "window"), (36.0, "forced")]

    def test_zero_overhead_holds_nothing(self, model, tiny_dataset):
        scheduler, clock, served = build(model, overhead_ms=0.0)
        assert served.cost_model.is_zero_overhead
        clock.advance(3.0)
        scheduler.submit(tiny_dataset.images[0])
        result, = scheduler.step()                        # the first step
        assert result.wait_ms == 0.0
        assert scheduler.events[-1].reason == "window"

    def test_deadline_and_capacity_preempt_the_hold(self, model,
                                                    tiny_dataset):
        scheduler, clock, _ = build(model, overhead_ms=8.0, max_batch=4)
        # Deadline 12 ms out, batch priced 8 + 1: due at t = 3, inside
        # the 8 ms hold.
        scheduler.submit(tiny_dataset.images[0], deadline_ms=12.0)
        clock.advance(2.75)
        assert scheduler.step() == []
        clock.advance(0.25)
        assert len(scheduler.step()) == 1
        assert (scheduler.events[-1].reason,
                scheduler.events[-1].time_ms) == ("deadline", 3.0)
        # A full batch does not wait at all.
        for index in range(1, 5):
            scheduler.submit(tiny_dataset.images[index])
        assert len(scheduler.step()) == 4
        assert (scheduler.events[-1].reason,
                scheduler.events[-1].time_ms) == ("capacity", 3.0)

    def test_back_pressure_defers_an_expired_hold(self, model,
                                                  tiny_dataset):
        scheduler, clock, served = build(model, overhead_ms=2.0)
        gate = served.transport = _Gate(served.session)
        gate.open = False
        scheduler.submit(tiny_dataset.images[0])
        clock.advance(5.0)                                # hold long over
        assert scheduler.step() == []
        assert scheduler.flush_policy.next_due_ms(served) is None
        gate.open = True
        assert len(scheduler.step()) == 1
        assert scheduler.events[-1].time_ms == 5.0


class TestNextDue:
    """``next_due_ms`` is exact: one instant earlier nothing flushes."""

    EPSILON_MS = 2.0 ** -20

    def check(self, scheduler, clock, served, expected_due, reason):
        policy = scheduler.flush_policy
        due = policy.next_due_ms(served)
        assert due == expected_due
        clock.advance(due - clock.now() - self.EPSILON_MS)
        assert policy.reason(served, clock.now()) is None
        assert scheduler.step() == []
        clock.advance(self.EPSILON_MS)
        assert clock.now() == due
        assert policy.reason(served, clock.now()) == reason
        assert scheduler.step() != []
        assert scheduler.events[-1].time_ms == due
        assert policy.next_due_ms(served) is None         # drained

    def test_hold_expiry(self, model, tiny_dataset):
        scheduler, clock, served = build(model, overhead_ms=2.5)
        clock.advance(4.0)
        scheduler.submit(tiny_dataset.images[0])
        clock.advance(1.0)
        scheduler.submit(tiny_dataset.images[1])          # joins the hold
        self.check(scheduler, clock, served, 6.5, "window")

    def test_deadline_trigger(self, model, tiny_dataset):
        scheduler, clock, served = build(model, overhead_ms=8.0)
        scheduler.submit(tiny_dataset.images[0])          # hold until 8
        clock.advance(1.0)
        scheduler.submit(tiny_dataset.images[1], deadline_ms=15.0)
        # deadline 16, batch 8 + 2 -> due at 6, before the hold's 8.
        self.check(scheduler, clock, served, 6.0, "deadline")

    def test_hold_capped_at_the_window(self, model, tiny_dataset):
        scheduler, clock, served = build(model, 4 * WINDOW_MS)
        clock.advance(0.5)
        scheduler.submit(tiny_dataset.images[0])
        self.check(scheduler, clock, served, 0.5 + WINDOW_MS, "window")

    def test_nothing_queued_nothing_due(self, model):
        scheduler, clock, served = build(model, overhead_ms=2.0)
        assert scheduler.flush_policy.next_due_ms(served) is None
        assert scheduler.flush_policy.reason(served, clock.now()) is None


class TestLimits:
    def test_limits_are_validated(self):
        with pytest.raises(ValueError):
            Scheduler(clock=VirtualClock(), batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            Scheduler(clock=VirtualClock(), latency_budget_ms=0.0)

    def test_scheduler_limits_read_its_own_policy(self):
        scheduler = Scheduler(clock=VirtualClock(), batch_window_ms=7.0,
                              latency_budget_ms=3.0, deadline_margin_ms=0.5)
        assert (scheduler.batch_window_ms, scheduler.latency_budget_ms,
                scheduler.deadline_margin_ms) == (7.0, 3.0, 0.5)
        with pytest.raises(AttributeError):      # not a silent dead copy
            scheduler.batch_window_ms = 1.0
        other = Scheduler(clock=VirtualClock())
        assert other.flush_policy is not scheduler.flush_policy
        assert other.batch_window_ms == 10.0


TICK_MS = 0.25


@st.composite
def traces(draw):
    """Best-effort 2-image requests on the tick grid, plus a per-batch
    overhead."""
    gaps = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12))
    overhead_ms = draw(st.one_of(
        st.just(0.0), st.floats(0.0, 2 * WINDOW_MS, allow_nan=False)))
    return list(np.cumsum(gaps) * TICK_MS), overhead_ms


class TestHoldNeverExceedsTheWindow:
    @given(trace=traces())
    @settings(max_examples=40, deadline=None)
    def test_priced_hold_against_whole_window(self, model, tiny_dataset,
                                              trace):
        """Over random traces x overheads, with the window the only rule
        in play (best effort, no cap reached): the priced hold keeps
        no request longer than ``min(window, overhead)``; whoever opens
        a whole-window batch (and so waits the whole window there) never
        flushes later than it did; and the hold changes which
        requests share a batch, nothing else -- every flush is bitwise a
        fresh flat submission of its own images, and across the two
        batchings logits agree to the engine's 1e-8 re-batching contract
        (BLAS blocking is not bitwise stable across matrix shapes).

        Per-request ``<=`` does NOT hold for a request that joins a
        window late -- arrivals at 0 and 9 under a 10 ms window flush at
        10 and 10, under a 2 ms hold at 2 and 11 -- which is the
        coalescing the hold gives up, measured in the suite.
        """
        times, overhead_ms = trace
        images = tiny_dataset.images
        runs = {}
        for name, whole_window in (("default", False), ("fixed", True)):
            scheduler, clock, _ = build(model, overhead_ms, whole_window,
                                        max_batch=64)
            arrivals = [Arrival(at_ms=at, images=images[2 * i:2 * i + 2])
                        for i, at in enumerate(times)]
            report = ServingSimulation(scheduler, clock, arrivals,
                                       tick_ms=TICK_MS).run()
            assert {e.reason for e in report.events} == {"window"}
            runs[name] = (report, flush_times(scheduler))
        (default, flushed), (fixed, fixed_flushed) = runs["default"], \
            runs["fixed"]
        hold_ms = min(WINDOW_MS, overhead_ms)
        on_grid = math.ceil(hold_ms / TICK_MS) * TICK_MS
        for request_id, result in default.results.items():
            assert flushed[request_id] - result.arrival_ms <= on_grid
            np.testing.assert_allclose(
                result.logits, fixed.results[request_id].logits,
                rtol=0, atol=1e-8)
        fresh = priced_session(model, overhead_ms)   # same bucket pricing
        for event in default.events:
            flat = fresh.submit(np.concatenate(
                [images[2 * rid:2 * rid + 2] for rid in event.request_ids]))
            batch = np.concatenate([default.results[rid].logits
                                    for rid in event.request_ids])
            assert batch.tobytes() == flat.logits.tobytes()
        for event in fixed.events:
            opener = min(event.request_ids)
            assert flushed[opener] <= fixed_flushed[opener]


# ----------------------------------------------------------------------
# The driver, on the real clock
# ----------------------------------------------------------------------
def count_steps(scheduler):
    """Count ``step`` calls through the instance attribute the driver
    loop reads; a call counts once it has returned."""
    calls, step = [], scheduler.step

    def counted():
        completed = step()
        calls.append(None)
        return completed

    scheduler.step = counted
    return calls


class TestEventWokenDriver:
    @pytest.fixture()
    def scheduler(self, model):
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=25.0)
        scheduler.register("default", model)
        yield scheduler
        scheduler.shutdown(drain=False)

    def test_idle_driver_does_not_step(self, scheduler):
        calls = count_steps(scheduler)
        scheduler.start(poll_ms=1.0)
        time.sleep(0.05)
        settled = len(calls)                   # the loop's first pass
        assert settled >= 1
        time.sleep(0.2)
        assert len(calls) == settled           # 0 steps in 200 idle ms

    def test_submit_completes_without_a_poll_tick(self, scheduler,
                                                  tiny_dataset):
        calls = count_steps(scheduler)
        scheduler.start(poll_ms=60_000.0)      # a poll would take a minute
        time.sleep(0.05)
        start = time.monotonic()
        request_id = scheduler.submit(tiny_dataset.images[:2])
        result = scheduler.wait_result(request_id, timeout_ms=10_000.0)
        assert time.monotonic() - start < 5.0
        assert result.logits.shape == (2, 4)
        assert scheduler.events[-1].reason == "window"
        time.sleep(0.05)
        settled = len(calls)
        time.sleep(0.1)
        assert len(calls) == settled           # and back to sleep

    def test_held_request_flushes_when_its_hold_expires(self, model,
                                                        tiny_dataset):
        """The timer half of the wake: nothing arrives after the
        submit, the due instant alone must wake the driver."""
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=40.0)
        scheduler.register("default", session=priced_session(model, 40.0))
        scheduler.start(poll_ms=60_000.0)
        try:
            request_id = scheduler.submit(tiny_dataset.images[0])
            result = scheduler.wait_result(request_id, timeout_ms=10_000.0)
        finally:
            scheduler.stop()
        assert 40.0 <= result.wait_ms < 5_000.0

    def test_stop_returns_promptly_from_an_indefinite_wait(self, scheduler):
        scheduler.start(poll_ms=60_000.0)
        time.sleep(0.05)                       # asleep, no timeout
        thread = scheduler._thread
        start = time.monotonic()
        assert scheduler.stop() == []
        assert time.monotonic() - start < 2.0
        assert not thread.is_alive() and not scheduler.running

    def test_premium_arrival_wakes_the_driver_instead_of_running_inline(
            self, scheduler, tiny_dataset):
        """With a driver running, ``submit`` never executes a batch on
        the caller's thread (the front door calls it on its event
        loop); step-driven use keeps inline preemption."""
        ran_on = []
        session = scheduler.sessions[0].session
        run = session.submit_many

        def recorded(groups, record=None):
            ran_on.append(threading.current_thread().name)
            return run(groups, record)

        session.submit_many = recorded
        inline = scheduler.submit(tiny_dataset.images[0], priority=0,
                                  deadline_ms=0.001)
        assert scheduler.pop_result(inline) is not None
        scheduler.start()
        woken = scheduler.submit(tiny_dataset.images[1], priority=0,
                                 deadline_ms=0.001)
        scheduler.wait_result(woken, timeout_ms=10_000.0)
        assert ran_on == [threading.current_thread().name,
                          "repro-serving-scheduler"]

    def test_pooled_target_still_collects_replies(self, model,
                                                  tiny_dataset):
        """Replies arrive on pipes nothing announces: while shards are
        in flight the driver polls at ``poll_ms``; idle again, it stops
        polling."""
        images = tiny_dataset.images[:8]
        reference = InferenceSession(model, batch_size=16).submit(images)
        with Scheduler(clock=SystemClock(),
                       batch_window_ms=5.0) as scheduler:
            served = scheduler.register(
                "pooled", model, batch_size=16, workers=2,
                worker_ctx="fork")
            calls = count_steps(scheduler)
            scheduler.start(poll_ms=2.0)
            ids = [scheduler.submit(images[2 * i:2 * i + 2])
                   for i in range(4)]
            results = [scheduler.wait_result(request_id,
                                             timeout_ms=60_000.0)
                       for request_id in ids]
            assert scheduler.in_flight_batches() == 0
            time.sleep(0.05)
            settled = len(calls)
            time.sleep(0.1)
            assert len(calls) == settled       # idle again: no reply poll
            assert {e.worker for e in scheduler.events} <= {0, 1}
            assert not served.degraded
        for index, result in enumerate(results):
            assert not result.failed
            np.testing.assert_allclose(
                result.logits, reference.logits[2 * index:2 * index + 2],
                rtol=0, atol=1e-8)

    def test_idle_death_heals_on_the_next_step(self, model, tiny_dataset):
        """Nothing queued, nothing in flight: a worker that dies idle
        wakes nobody -- the driver does not step and nothing respawns
        -- until the next submit's step sweeps the death, respawns the
        slot and serves the request."""
        image = tiny_dataset.images[:1]
        reference = InferenceSession(model, batch_size=16).submit(image)
        with Scheduler(clock=SystemClock()) as scheduler:
            served = scheduler.register("pooled", model, batch_size=16,
                                        workers=2, worker_ctx="fork")
            calls = count_steps(scheduler)
            scheduler.start(poll_ms=2.0)
            deadline = time.monotonic() + 30.0
            while not calls:                   # the driver's first step ran
                assert time.monotonic() < deadline
                time.sleep(0.01)
            victim = served.pool._processes[0]
            victim.terminate()
            victim.join(timeout=30)
            assert not victim.is_alive()
            settled = len(calls)
            time.sleep(0.3)
            assert len(calls) == settled
            assert served.recovery["respawns"] == 0
            result = scheduler.wait_result(scheduler.submit(image),
                                           timeout_ms=60_000.0)
            assert not result.failed
            np.testing.assert_allclose(result.logits, reference.logits,
                                       rtol=0, atol=1e-8)
            assert served.recovery["respawns"] == 1
            while served.pool.alive_workers() != [0, 1]:
                assert time.monotonic() < deadline
                time.sleep(0.02)
