"""Replayable traces: deterministic payloads, generator shapes, and the
load-generator replay loop (driven by a fake clock -- no real
sleeping)."""

import numpy as np
import pytest

from repro.serving import (DEFAULT_PRIORITY, TraceRequest,
                           adversarial_trace, bursty_trace, replay,
                           synth_images, two_tier_trace, uniform_trace)


class TestSynthImages:
    def test_deterministic_by_seed(self):
        first = synth_images((2, 3, 8, 8), seed=5)
        again = synth_images((2, 3, 8, 8), seed=5)
        other = synth_images((2, 3, 8, 8), seed=6)
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)
        assert first.shape == (2, 3, 8, 8) and first.dtype == np.float64

    def test_trace_request_images(self):
        request = TraceRequest(at_ms=0.0, num_images=3, seed=11)
        images = request.images((3, 8, 8))
        np.testing.assert_array_equal(images,
                                      synth_images((3, 3, 8, 8), 11))


class TestGenerators:
    def test_uniform(self):
        trace = uniform_trace(num_requests=4, period_ms=2.5, seed=10)
        assert [r.at_ms for r in trace] == [0.0, 2.5, 5.0, 7.5]
        assert len({r.seed for r in trace}) == 4   # distinct payloads

    def test_bursty(self):
        trace = bursty_trace(burst_times_ms=[0.0, 10.0], burst_size=3)
        assert [r.at_ms for r in trace] == [0.0] * 3 + [10.0] * 3
        assert len({r.seed for r in trace}) == 6

    def test_adversarial_premium_lands_mid_window(self):
        trace = adversarial_trace(window_ms=8.0, num_windows=2,
                                  backlog_size=3)
        premium = [r for r in trace if r.priority == 0]
        backlog = [r for r in trace if r.priority == DEFAULT_PRIORITY]
        assert len(premium) == 2 and len(backlog) == 6
        for request in premium:
            assert request.deadline_ms == 1.0          # window / 8
            assert request.at_ms % 16.0 == 4.0         # mid-window
        assert all(r.deadline_ms is None for r in backlog)

    def test_two_tier_mix_and_order(self):
        trace = two_tier_trace(duration_ms=30.0, premium_period_ms=10.0,
                               bulk_burst_size=4, bulk_burst_period_ms=15.0)
        assert [r.at_ms for r in trace] == sorted(r.at_ms for r in trace)
        assert sum(r.priority == 0 for r in trace) == 3
        assert sum(r.priority == 1 for r in trace) == 8
        seeds = [r.seed for r in trace]
        assert len(set(seeds)) == len(seeds)


class TestReplay:
    def test_paces_submissions_on_the_clock(self):
        trace = uniform_trace(num_requests=3, period_ms=100.0)
        now = [0.0]
        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        submitted_at = []

        def submit(request):
            submitted_at.append(now[0])
            return request.seed

        outcomes = replay(trace, submit, sleep=fake_sleep,
                          clock=lambda: now[0])
        assert submitted_at == [0.0, 0.1, 0.2]      # seconds
        assert [value for _, value in outcomes] == [r.seed for r in trace]

    def test_speed_compresses_the_trace(self):
        trace = uniform_trace(num_requests=2, period_ms=100.0)
        now = [0.0]

        def fake_sleep(seconds):
            now[0] += seconds

        replay(trace, lambda r: None, speed=4.0, sleep=fake_sleep,
               clock=lambda: now[0])
        assert now[0] == pytest.approx(0.025)       # 100 ms / 4

    def test_exceptions_become_outcomes(self):
        trace = uniform_trace(num_requests=3, period_ms=0.0)
        boom = RuntimeError("shed")

        def submit(request):
            if request.seed == 1:
                raise boom
            return "ok"

        outcomes = replay(trace, submit, sleep=lambda s: None,
                          clock=lambda: 0.0)
        assert [value for _, value in outcomes] == ["ok", boom, "ok"]

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            replay([], lambda r: None, speed=0.0)