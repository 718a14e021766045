"""PlacementPolicy unit suite: virtual-clock, no processes.

The policy is a pure function of the times it is handed, so every
decision here is asserted exactly: which worker wins, what completion
time was predicted, and how online calibration reshapes both.
"""

import numpy as np
import pytest

from repro.core.latency import LatencySparsityTable
from repro.cost import CostModel
from repro.serving import PlacementPolicy
from repro.serving.clock import VirtualClock


def make_cost_model(batch_overhead_ms=2.0):
    table = LatencySparsityTable({1.0: 1.0, 0.5: 0.5})
    return CostModel(table, num_patches=16,
                     batch_overhead_ms=batch_overhead_ms)


class TestAssign:
    def test_idle_workers_fill_lowest_index_first(self):
        policy = PlacementPolicy(3)
        assert policy.assign(10.0).worker == 0
        assert policy.assign(10.0).worker == 1
        assert policy.assign(10.0).worker == 2

    def test_least_loaded_worker_wins(self):
        policy = PlacementPolicy(2)
        policy.assign(30.0)               # worker 0 busy until t=30
        policy.assign(10.0)               # worker 1 busy until t=10
        ticket = policy.assign(5.0)       # 1 finishes first
        assert ticket.worker == 1
        assert ticket.start_ms == 10.0
        assert ticket.completion_ms == 15.0

    def test_backlog_is_bounded_below_by_now(self):
        policy = PlacementPolicy(1)
        clock = VirtualClock()
        policy.assign(10.0, now_ms=clock.now())
        clock.advance(100.0)              # worker went idle long ago
        ticket = policy.assign(10.0, now_ms=clock.now())
        assert ticket.start_ms == 100.0
        assert ticket.completion_ms == 110.0

    def test_in_flight_counts(self):
        policy = PlacementPolicy(2)
        a = policy.assign(10.0)
        b = policy.assign(10.0)
        assert policy.in_flight == (1, 1)
        policy.complete(a)
        assert policy.in_flight == (0, 1)
        policy.complete(b)
        assert policy.in_flight == (0, 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            PlacementPolicy(1).assign(-1.0)

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            PlacementPolicy(0)
        with pytest.raises(ValueError):
            PlacementPolicy(1, smoothing=0.0)


class TestCalibration:
    def test_first_observation_seeds_the_factor(self):
        policy = PlacementPolicy(1)
        ticket = policy.assign(10.0, now_ms=0.0)
        policy.complete(ticket, now_ms=20.0, measured_ms=20.0)
        assert policy.calibration == (2.0,)
        assert policy.observations == (1,)

    def test_ewma_moves_toward_new_ratio(self):
        policy = PlacementPolicy(1, smoothing=0.5)
        first = policy.assign(10.0, now_ms=0.0)
        policy.complete(first, now_ms=10.0, measured_ms=10.0)   # ratio 1
        second = policy.assign(10.0, now_ms=10.0)
        policy.complete(second, now_ms=40.0, measured_ms=30.0)  # ratio 3
        assert policy.calibration == (2.0,)       # 0.5*1 + 0.5*3

    def test_calibration_redirects_placement(self):
        """A worker measured 3x slower stops winning ties: the policy
        routes toward measured speed, not the static model."""
        policy = PlacementPolicy(2)
        slow = policy.assign(10.0, now_ms=0.0)    # worker 0
        fast = policy.assign(10.0, now_ms=0.0)    # worker 1
        policy.complete(slow, now_ms=30.0, measured_ms=30.0)
        policy.complete(fast, now_ms=10.0, measured_ms=10.0)
        ticket = policy.assign(10.0, now_ms=50.0)
        assert ticket.worker == 1                 # calibrated 1x vs 3x
        assert ticket.predicted_ms == 10.0
        assert policy.predicted_ms(0, 10.0) == 30.0

    def test_unmeasured_completion_leaves_calibration_alone(self):
        policy = PlacementPolicy(1)
        policy.complete(policy.assign(10.0))
        assert policy.calibration == (1.0,)
        assert policy.observations == (0,)

    def test_zero_raw_cost_skips_calibration(self):
        policy = PlacementPolicy(1)
        policy.complete(policy.assign(0.0), measured_ms=5.0)
        assert policy.calibration == (1.0,)


class TestCompletionBookkeeping:
    def test_drained_worker_backlog_collapses_to_now(self):
        policy = PlacementPolicy(1)
        ticket = policy.assign(100.0, now_ms=0.0)
        policy.complete(ticket, now_ms=5.0, measured_ms=5.0)
        follow_up = policy.assign(10.0, now_ms=5.0)
        assert follow_up.start_ms == 5.0          # not the stale t=100

    def test_partial_drain_corrects_backlog_by_prediction_error(self):
        policy = PlacementPolicy(1)
        first = policy.assign(100.0, now_ms=0.0)  # free_at 100
        policy.assign(100.0, now_ms=0.0)          # free_at 200
        policy.complete(first, now_ms=10.0, measured_ms=10.0)
        # first finished 90 ms early; the second's completion shifts in.
        assert policy.snapshot()["free_at_ms"] == (110.0,)

    def test_over_completion_rejected(self):
        policy = PlacementPolicy(2)
        ticket = policy.assign(10.0)
        policy.complete(ticket)
        with pytest.raises(ValueError):
            policy.complete(ticket)


class TestCostModelIntegration:
    def test_completion_goes_through_cost_model(self):
        policy = PlacementPolicy(1, cost_model=make_cost_model())
        ticket = policy.assign(10.0, now_ms=0.0)
        policy.complete(ticket, now_ms=25.0, measured_ms=25.0)
        # calibration 2.5: backlog + 2.5 * raw through completion_ms
        assert policy.completion_ms(0, 4.0, now_ms=25.0) == 35.0

    def test_cost_model_completion_ms(self):
        cost_model = make_cost_model(batch_overhead_ms=2.0)
        cost = cost_model.batch_ms(4, 1.0)
        assert cost == 6.0
        assert cost_model.completion_ms(cost) == 6.0
        assert cost_model.completion_ms(cost, backlog_ms=10.0) == 16.0
        assert cost_model.completion_ms(cost, backlog_ms=10.0,
                                        calibration=2.0) == 22.0

    def test_completion_ms_accepts_batch_cost_objects(self):
        from repro.cost import BatchPlan
        cost_model = make_cost_model(batch_overhead_ms=2.0)
        batch_cost = cost_model.estimate(
            BatchPlan(num_images=4, per_image_ms=1.0))
        assert cost_model.completion_ms(batch_cost, backlog_ms=1.0) == 7.0

    def test_completion_ms_validates(self):
        cost_model = make_cost_model()
        with pytest.raises(ValueError):
            cost_model.completion_ms(1.0, backlog_ms=-1.0)
        with pytest.raises(ValueError):
            cost_model.completion_ms(1.0, calibration=-0.1)
        with pytest.raises(ValueError):
            cost_model.completion_ms(-1.0)


class TestColdFirstSample:
    def test_cold_first_sample_does_not_lock_a_worker_out(self):
        """A worker's first shard pays lazy compile + workspace
        allocation (~5x a warm one).  Fitted into the learned batch law
        it prices that worker at ~3.5x its real cost once the estimator
        turns confident, every later shard goes to the other worker, and
        a starved worker never reports the samples that would correct
        it.  The cold sample must stay out of the fit."""

        def warm_ms(n):
            return 2.0 + 1.75 * n

        policy = PlacementPolicy(2)
        clock = VirtualClock()
        # Warm-up past the confidence threshold, each worker pinned in
        # turn: identical shapes and timings except worker 0's very
        # first (cold) completion.
        for round_, n in enumerate([16, 4, 8, 12, 6, 10, 14, 8, 4, 12]):
            for worker in (0, 1):
                ticket = policy.assign(warm_ms(n), now_ms=clock.now(),
                                       num_images=n, candidates=[worker])
                cold = 5.0 if (round_, worker) == (0, 0) else 1.0
                clock.advance(1.0)
                policy.complete(ticket, now_ms=clock.now(),
                                measured_ms=cold * warm_ms(n))
        assert all(entry["confident"]
                   for entry in policy.snapshot()["learned"])
        for worker in (0, 1):
            assert policy.predicted_ms(worker, warm_ms(16), 16) == \
                pytest.approx(warm_ms(16), rel=1e-3)
        # Two shards per burst, both workers idle: one each, every time.
        for _ in range(4):
            shards = [policy.assign(warm_ms(16), now_ms=clock.now(),
                                    num_images=16) for _ in range(2)]
            assert [ticket.worker for ticket in shards] == [0, 1]
            clock.advance(40.0)
            for ticket in shards:
                policy.complete(ticket, now_ms=clock.now(),
                                measured_ms=warm_ms(16))


class TestDeterminism:
    def test_identical_histories_place_identically(self):
        costs = [12.0, 3.0, 7.0, 30.0, 1.0, 9.0]
        measured = [24.0, 3.0, 14.0, 30.0, 2.0, 9.0]

        def run():
            policy = PlacementPolicy(3)
            clock = VirtualClock()
            decisions = []
            tickets = []
            for cost, wall in zip(costs, measured):
                ticket = policy.assign(cost, now_ms=clock.now())
                tickets.append((ticket, wall))
                decisions.append(ticket.worker)
                clock.advance(2.0)
            for ticket, wall in tickets:
                policy.complete(ticket, now_ms=clock.now(),
                                measured_ms=wall)
            return decisions, policy.snapshot()

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_snapshot_shape(self):
        policy = PlacementPolicy(2)
        snapshot = policy.snapshot()
        assert set(snapshot) == {"free_at_ms", "calibration",
                                 "in_flight", "observations", "learned"}
        assert np.all(np.asarray(snapshot["calibration"]) == 1.0)
        assert all(not entry["confident"] and entry["samples"] == 0
                   for entry in snapshot["learned"])
