"""PlacementPolicy unit suite: virtual-clock, no processes.

The policy is a pure function of the times it is handed, so every
decision here is asserted exactly: which worker wins, what completion
time was predicted, and how each worker's learned batch law reshapes
both.
"""

import pytest

from repro.serving import PlacementPolicy
from repro.serving.clock import VirtualClock
from tests.serving.harness import PricedSession

#: One image costs 1 ms, a launch nothing: a batch of n images is
#: priced at n ms until a worker's replies teach it otherwise.
PER_IMAGE = PricedSession()


class TestAssign:
    def test_idle_workers_fill_lowest_index_first(self):
        policy = PlacementPolicy(3, PER_IMAGE)
        assert policy.assign(10).worker == 0
        assert policy.assign(10).worker == 1
        assert policy.assign(10).worker == 2

    def test_least_loaded_worker_wins(self):
        policy = PlacementPolicy(2, PER_IMAGE)
        policy.assign(30)                 # worker 0 busy until t=30
        policy.assign(10)                 # worker 1 busy until t=10
        ticket = policy.assign(5)         # 1 finishes first
        assert ticket.worker == 1
        assert ticket.start_ms == 10.0
        assert ticket.completion_ms == 15.0

    def test_backlog_is_bounded_below_by_now(self):
        policy = PlacementPolicy(1, PER_IMAGE)
        clock = VirtualClock()
        policy.assign(10, now_ms=clock.now())
        clock.advance(100.0)              # worker went idle long ago
        ticket = policy.assign(10, now_ms=clock.now())
        assert ticket.start_ms == 100.0
        assert ticket.completion_ms == 110.0

    def test_in_flight_counts(self):
        policy = PlacementPolicy(2, PER_IMAGE)
        a = policy.assign(10)
        b = policy.assign(10)
        assert policy.in_flight == (1, 1)
        policy.complete(a)
        assert policy.in_flight == (0, 1)
        policy.complete(b)
        assert policy.in_flight == (0, 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            PlacementPolicy(1, PER_IMAGE).assign(-1)

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError):
            PlacementPolicy(0, PER_IMAGE)
        with pytest.raises(ValueError):
            PlacementPolicy(1, PER_IMAGE, max_in_flight=0)


class TestCalibration:
    @pytest.mark.parametrize("num_images", [0, 1, 7, 32, 33, 100])
    def test_first_ticket_charges_the_session_price(self, num_images):
        """Every worker starts at the session's own batch law, launches
        included: a first ticket is the session's price, bit for bit."""
        session = PricedSession(overhead_ms=0.3, marginal_ms=0.7,
                                batch_size=32)
        policy = PlacementPolicy(2, session)
        want = session.estimated_batch_cost(num_images).total_ms
        for _ in range(2):
            assert policy.assign(num_images).predicted_ms == want

    def test_warm_replies_converge_to_the_planted_law(self):
        """Eight replies from a worker that runs 4 ms per launch plus
        1.5 ms per image -- against a session price of 1 ms per image
        -- and the worker's prediction is that law, at any shape."""

        def planted(n):
            return 4.0 + 1.5 * n

        policy = PlacementPolicy(1, PER_IMAGE)
        for n in (4, 8, 16, 2, 12, 6, 10, 14):
            policy.complete(policy.assign(n, now_ms=0.0), now_ms=0.0,
                            measured_ms=planted(n))
        for n in (1, 8, 32):
            assert policy.predicted_ms(0, n) == pytest.approx(planted(n),
                                                              rel=0.1)

    def test_calibration_redirects_placement(self):
        """A worker measured 3x slower stops winning ties: the policy
        routes toward measured speed, not the session's price."""
        policy = PlacementPolicy(2, PER_IMAGE)
        slow = policy.assign(10, now_ms=0.0)      # worker 0
        fast = policy.assign(10, now_ms=0.0)      # worker 1
        policy.complete(slow, now_ms=30.0, measured_ms=30.0)
        policy.complete(fast, now_ms=10.0, measured_ms=10.0)
        ticket = policy.assign(10, now_ms=50.0)
        assert ticket.worker == 1
        assert ticket.predicted_ms == pytest.approx(10.0, rel=1e-3)
        assert policy.predicted_ms(0, 10) == pytest.approx(30.0, rel=1e-3)

    def test_unmeasured_completion_leaves_calibration_alone(self):
        policy = PlacementPolicy(1, PER_IMAGE)
        policy.complete(policy.assign(10))
        assert policy.estimator(0).count == 0
        assert policy.predicted_ms(0, 10) == 10.0

    def test_zero_raw_cost_skips_calibration(self):
        policy = PlacementPolicy(1, PER_IMAGE)
        policy.complete(policy.assign(0), measured_ms=5.0)
        assert policy.estimator(0).count == 0


class TestCompletionBookkeeping:
    def test_drained_worker_backlog_collapses_to_now(self):
        policy = PlacementPolicy(1, PER_IMAGE)
        ticket = policy.assign(100, now_ms=0.0)
        policy.complete(ticket, now_ms=5.0, measured_ms=5.0)
        follow_up = policy.assign(10, now_ms=5.0)
        assert follow_up.start_ms == 5.0          # not the stale t=100

    def test_partial_drain_corrects_backlog_by_prediction_error(self):
        policy = PlacementPolicy(1, PER_IMAGE)
        first = policy.assign(100, now_ms=0.0)    # free_at 100
        policy.assign(100, now_ms=0.0)            # free_at 200
        policy.complete(first, now_ms=10.0, measured_ms=10.0)
        # first finished 90 ms early; the second's completion shifts in.
        assert policy.assign(1, now_ms=10.0).start_ms == 110.0

    def test_over_completion_rejected(self):
        policy = PlacementPolicy(2, PER_IMAGE)
        ticket = policy.assign(10)
        policy.complete(ticket)
        with pytest.raises(ValueError):
            policy.complete(ticket)


class TestColdFirstSample:
    def test_cold_first_sample_does_not_lock_a_worker_out(self):
        """A worker's first shard pays lazy compile + workspace
        allocation (~5x a warm one), and that sample is fitted like any
        other: it prices worker 0 high for a while.  Placement is
        load-first, so bursts of two shards still go one per worker --
        and the replies that correct worker 0's law keep coming."""

        def warm_ms(n):
            return 2.0 + 1.75 * n

        policy = PlacementPolicy(2, PER_IMAGE)
        clock = VirtualClock()
        cold = True
        for _ in range(12):
            shards = [policy.assign(16, now_ms=clock.now())
                      for _ in range(2)]
            assert sorted(ticket.worker for ticket in shards) == [0, 1]
            clock.advance(40.0)
            for ticket in shards:
                slowdown = 5.0 if cold and ticket.worker == 0 else 1.0
                policy.complete(ticket, now_ms=clock.now(),
                                measured_ms=slowdown * warm_ms(16))
            cold = False
        assert policy.predicted_ms(0, 16) > policy.predicted_ms(1, 16)
        assert policy.predicted_ms(1, 16) == pytest.approx(warm_ms(16),
                                                           rel=1e-3)


class TestDeterminism:
    def test_identical_histories_place_identically(self):
        sizes = [12, 3, 7, 30, 1, 9]
        measured = [24.0, 3.0, 14.0, 30.0, 2.0, 9.0]

        def run():
            policy = PlacementPolicy(3, PER_IMAGE)
            clock = VirtualClock()
            decisions = []
            tickets = []
            for size, wall in zip(sizes, measured):
                ticket = policy.assign(size, now_ms=clock.now())
                tickets.append((ticket, wall))
                decisions.append(ticket.worker)
                clock.advance(2.0)
            for ticket, wall in tickets:
                policy.complete(ticket, now_ms=clock.now(),
                                measured_ms=wall)
            laws = [(est.count, est.overhead_ms, est.marginal_ms,
                     est.variance_ms2)
                    for est in map(policy.estimator, range(3))]
            # Each worker's backlog: when a next batch there would start.
            free_at = [policy.assign(1, now_ms=0.0, candidates=[w]).start_ms
                       for w in range(3)]
            return decisions, (laws, free_at, policy.in_flight)

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_estimators_start_at_the_session_prior(self):
        policy = PlacementPolicy(2, PricedSession(overhead_ms=0.5))
        assert policy.in_flight == (0, 0)
        assert all(est.count == 0 and est.overhead_ms == 0.5
                   and est.marginal_ms == 1.0
                   for est in map(policy.estimator, range(2)))
