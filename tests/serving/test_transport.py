"""The transport seam: where a popped batch runs.

Three layers of claim:

* ``PoolTransport``'s reply validation and recovery sweep, driven
  deterministically through a fake pool handed to its constructor (the
  real ``PlacementPolicy``, the real in-flight table -- rows are made
  by real dispatches, not written in by hand);
* sharding keeps requests atomic, ordered and balanced;
* whichever transport serves a target -- in-process, a 2-worker pool,
  or a pool that collapsed to its in-process fallback -- the same burst
  comes back as the same ``RequestResult``\\ s, field by field, and the
  scheduler itself no longer knows a pool exists.
"""

import ast
import inspect

import numpy as np
import pytest

from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import InferenceSession
from repro.serving import (FaultPlan, FaultSpec, InlineTransport,
                           PoolTransport, RecoveryPolicy, Request,
                           RetryPolicy, Scheduler, VirtualClock,
                           WorkerDiedError, WorkerReply)
from repro.serving.transport import _shard_requests
from tests.serving.harness import StubPool


@pytest.fixture(scope="module")
def served_model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(21))
    model.eval()
    return model


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(22)
    config = SyntheticConfig(image_size=16, num_classes=4)
    return generate_dataset(config, 16, rng).images


def _pooled_served(scheduler, name, model, images):
    """A target whose transport is a real ``PoolTransport`` over a
    stub pool, with two single-request shards genuinely dispatched:
    task 0 on worker 0, task 1 on worker 1."""
    served = scheduler.register(name, model, batch_size=16)
    pool = StubPool()
    served.transport = PoolTransport(served.session, pool, scheduler.clock)
    ids = [scheduler.submit(images[index]) for index in range(2)]
    requests = served.queue.snapshot()
    assert [r.request_id for r in requests] == ids
    assert scheduler.flush(wait=False) == []
    assert [(task, worker) for task, _, worker in pool.dispatched] \
        == [(0, 0), (1, 1)]
    assert served.placement.in_flight == (1, 1)
    return served, pool, requests


def _result_reply(model, request, task_id, worker, **overrides):
    result = InferenceSession(model, batch_size=4).submit(request.images)
    fields = dict(kind="result", worker=worker, task_id=task_id,
                  logits=result.logits,
                  tokens_per_stage=result.tokens_per_stage,
                  latency_ms=result.latency_ms,
                  wall_time_s=result.wall_time_s, num_images=1)
    fields.update(overrides)
    return WorkerReply(**fields)


class TestCollectEdgeCases:
    def test_error_reply_absorbed_sibling_results_survive(
            self, served_model, images):
        """An error reply drained in the same poll() as a result reply
        must not lose the result -- and must not raise either: the
        failed batch's requests go back on the queue with one unit of
        retry budget spent, and the error is recorded."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        error_reply = WorkerReply(kind="error", worker=0, task_id=0,
                                  error="boom", tb="Traceback: boom")
        good_reply = _result_reply(served_model, requests[1], 1, 1)
        pool.reply_batches = [[error_reply, good_reply]]
        scheduler.step()                              # no raise
        # The sibling result survived and is retrievable...
        completed = scheduler.pop_result(requests[1].request_id)
        assert completed is not None
        np.testing.assert_array_equal(completed.logits, good_reply.logits)
        # ...and the failed batch's requests went back on the queue,
        # one retry consumed, the error absorbed into telemetry.
        assert len(served.queue) == 1
        assert requests[0].retries == 1
        assert served.pending == {}
        assert served.placement.in_flight == (0, 0)
        assert served.recovery["worker_errors"] == 1
        assert served.recovery["redispatched_requests"] == 1

    def test_corrupt_reply_rejected_and_retried(self, served_model,
                                                images):
        """A reply with the wrong number of logits rows is never
        delivered: its requests go back for another try."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        good = _result_reply(served_model, requests[0], 0, 0)
        pool.reply_batches = [[_result_reply(
            served_model, requests[0], 0, 0, logits=good.logits[:0])]]
        assert scheduler.step() == []
        assert scheduler.pop_result(requests[0].request_id) is None
        assert len(served.queue) == 1
        assert served.recovery["corrupt_replies"] == 1
        assert served.placement.in_flight == (0, 1)

    def test_duplicate_reply_dropped_at_most_once(
            self, served_model, images):
        """Two copies of one task's reply in the same drain: the first
        completes the batch, the second is dropped -- the result is
        delivered exactly once and counted once."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        replies = [_result_reply(served_model, request, task, task)
                   for task, request in enumerate(requests)]
        pool.reply_batches = [[replies[0], replies[0], replies[1]]]
        completed = scheduler.step()
        assert sorted(r.request_id for r in completed) \
            == sorted(r.request_id for r in requests)
        assert served.recovery["duplicate_replies"] == 1
        assert served.pending == {}
        stats = scheduler.stats()["classes"][requests[0].priority]
        assert stats["completed"] == 2                # not 3

    def test_stale_reply_for_retired_batch_is_dropped(
            self, served_model, images):
        """A worker that enqueues its reply and then dies: the death
        check retires + requeues the batch, and the late-drained reply
        must be dropped, not crash collection or double-complete."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        # Nothing to read while worker 0 is dead -> its batch retired,
        # the request requeued (no raise), the slot respawned.
        pool.kill(0)
        scheduler.step()
        assert 0 not in served.pending
        assert len(served.queue) == 1
        assert pool.respawned == [0]
        # The next collect drains the stale reply: dropped silently.
        pool.reply_batches = [[_result_reply(served_model, requests[0],
                                             0, 0)]]
        assert scheduler.step() == []
        assert scheduler.pop_result(requests[0].request_id) is None
        assert list(served.pending) == [1]
        assert served.recovery["duplicate_replies"] == 1

    def test_step_recovers_dead_worker(self, served_model, images):
        """Non-blocking collection (the background-thread path) must
        recover a dead worker's batch instead of stranding its requests
        -- and instead of raising into the stepping thread."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        pool.kill(0)
        scheduler.step()                             # no raise
        # The dead worker's batch was requeued for re-dispatch and the
        # slot respawned; worker 1's is still legitimately in flight.
        assert len(served.queue) == 1
        assert list(served.pending) == [1]
        assert served.recovery["lost_batches"] == 1
        assert served.recovery["redispatched_requests"] == 1
        assert served.recovery["respawns"] == 1

    def test_hung_worker_is_terminated_and_its_batch_recovered(
            self, served_model, images):
        """A live worker silent past its dispatch deadline on the
        scheduler's clock is killed -- only the incarnation the batch
        went to -- and its batch comes back like any other loss."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        pool.reply_batches = [[_result_reply(served_model, requests[0],
                                             0, 0)]]
        scheduler.step()                             # task 0 answers
        assert scheduler.pop_result(requests[0].request_id) is not None
        deadline_ms = served.pending[1].deadline_ms
        assert deadline_ms >= RecoveryPolicy().min_dispatch_timeout_s * 1e3
        scheduler.clock.advance(deadline_ms - scheduler.clock.now())
        scheduler.step()                             # due, not yet past
        assert pool.terminated == [] and list(served.pending) == [1]
        scheduler.clock.advance(1.0)
        scheduler.step()
        assert pool.terminated == [1]
        assert served.recovery["hung_workers"] == 1
        assert served.recovery["lost_batches"] == 1
        assert served.pending == {}
        assert served.placement.in_flight == (0, 0)
        assert [r.request_id for r in served.queue.snapshot()] \
            == [requests[1].request_id]

    def test_drain_bound_fires_and_leaves_the_shards_in_flight(
            self, served_model, images):
        """``drain(timeout_ms)`` is a host-time bound, so it fires on a
        frozen virtual clock: shards no worker answers stay in flight,
        owed to their callers, and a later reply still delivers them."""
        scheduler = Scheduler(clock=VirtualClock())
        served, pool, requests = _pooled_served(scheduler, "tiny",
                                                served_model, images)
        ids = [r.request_id for r in requests]
        with pytest.raises(TimeoutError, match="2 in-flight"):
            scheduler.drain(timeout_ms=50)
        assert sorted(served.pending) == [0, 1]
        assert [scheduler.ledger.state(i) for i in ids] \
            == ["in_flight", "in_flight"]
        assert pool.terminated == [] and served.recovery["hung_workers"] == 0
        pool.reply_batches = [[_result_reply(served_model, request, task,
                                             task)
                               for task, request in enumerate(requests)]]
        assert sorted(r.request_id for r in scheduler.drain()) == ids
        assert served.pending == {}
        assert served.placement.in_flight == (0, 0)


class TestPoolDispatch:
    """``PoolTransport.dispatch`` on its own: what it accepts, what it
    bounces, and that a failure hands every unsent request back."""

    def make(self, served_model, recovery=None):
        session = InferenceSession(served_model, batch_size=16)
        pool = StubPool(recovery)
        return PoolTransport(session, pool, VirtualClock()), pool

    def requests(self, images, count):
        return [Request(request_id=i, images=images[i:i + 1],
                        arrival_ms=0.0) for i in range(count)]

    def test_saturated_fleet_bounces_and_defers(self, served_model,
                                                images):
        transport, pool = self.make(
            served_model, RecoveryPolicy(max_in_flight_per_worker=1))
        first, second = self.requests(images, 4), self.requests(images, 2)
        shards, bounced, error = transport.dispatch(first, 0.0)
        assert [s.worker for s in shards] == [0, 1] and not bounced
        assert not transport.has_capacity()
        shards, bounced, error = transport.dispatch(second, 0.0)
        assert shards == [] and bounced == second and error is None
        assert transport.in_flight == 2
        assert transport.backlog_ms() == pytest.approx(
            sum(f.ticket.predicted_ms
                for f in transport.pending.values()))

    def test_poll_waits_while_no_worker_can_take_a_shard(self,
                                                         served_model):
        """Nothing in flight and every slot dead in its respawn backoff:
        ``poll`` hands the pool its timeout to wait out, so a run-down
        blocked on the backoff does not spin.  An idle fleet with a free
        worker is not waited on."""
        transport, pool = self.make(served_model)
        waits = []
        pool.poll = lambda timeout_s=0.0: waits.append(timeout_s) or []
        pool.respawn_dead = lambda: []             # backoff not yet over
        transport.poll(timeout_s=0.05)
        pool.kill(0)
        pool.kill(1)
        assert not transport.has_capacity()
        transport.poll(timeout_s=0.05)
        assert waits == [0.0, 0.05]

    def reply_to_everything(self, transport, pool, wall_ms):
        """Script one result reply per shard in flight, measured at
        ``wall_ms(worker, num_images)``, and collect them."""
        pool.reply_batches = [[
            WorkerReply(kind="result", worker=inflight.ticket.worker,
                        task_id=task_id, num_images=n,
                        logits=np.zeros((n, 4)),
                        wall_time_s=wall_ms(inflight.ticket.worker, n) / 1e3)
            for task_id, inflight in transport.pending.items()
            for n in [sum(r.num_images for r in inflight.requests)]]]
        finished, lost = transport.poll()
        assert finished and not lost and not transport.pending

    @pytest.mark.parametrize("learn_cost", [False, True])
    def test_first_ticket_is_the_session_price(self, served_model, images,
                                               learn_cost):
        """Each worker's law starts at the session's: the static price,
        or the learned fit a ``learn_cost`` session already carries."""
        session = InferenceSession(served_model, batch_size=16,
                                   learn_cost=learn_cost)
        if learn_cost:
            for n in (2, 4, 8, 16, 6, 10, 12, 14):
                session.cost_model.observe_batch(n, 3.0 + 0.5 * n)
            assert session.cost_model.confident()
        transport = PoolTransport(session, StubPool(), VirtualClock())
        shards, _, _ = transport.dispatch(self.requests(images, 6), 0.0)
        assert [(s.worker, len(s.requests)) for s in shards] \
            == [(0, 3), (1, 3)]
        want = session.estimated_batch_cost(3).total_ms
        for shard in shards:
            assert shard.estimated_ms == want
        assert [f.ticket.predicted_ms for f in transport.pending.values()] \
            == [want, want]

    def test_one_slow_first_reply_cannot_send_a_flush_to_one_worker(
            self, served_model, images):
        """The ``test_flush_splits_across_both_workers`` flake, without
        processes: worker 1's first reply is measured cold (5x the
        session's price, more than twice worker 0's), and its learned
        law takes that sample in; the next flush happens at one clock
        instant, so two shards back to back on worker 0 (2 x 1.0) would
        out-price one on worker 1 (5.0).  Load orders before price: one
        shard per idle worker, whatever was measured."""
        transport, pool = self.make(served_model)
        shards, _, _ = transport.dispatch(self.requests(images, 4), 0.0)
        assert [s.worker for s in shards] == [0, 1]
        price = shards[0].estimated_ms
        self.reply_to_everything(
            transport, pool,
            lambda worker, n: (1.0, 5.0)[worker] * price)
        assert transport.placement.predicted_ms(1, 2) == pytest.approx(
            5.0 * transport.placement.predicted_ms(0, 2), rel=1e-3)
        for _ in range(3):
            shards, bounced, _ = transport.dispatch(
                self.requests(images, 4), 0.0)
            assert [s.worker for s in shards] == [0, 1] and not bounced
            for inflight in list(transport.pending.values()):
                transport.placement.complete(inflight.ticket, now_ms=0.0)
            transport.pending.clear()

    def test_warm_replies_teach_each_worker_its_law(self, served_model,
                                                    images):
        """Eight flushes later each worker prices from what it measured
        -- here 3 ms + 1 ms/image and 6 ms + 2 ms/image, nothing like the
        session's price -- to within 10 %."""
        laws = [(3.0, 1.0), (6.0, 2.0)]

        def wall_ms(worker, n):
            overhead, marginal = laws[worker]
            return overhead + marginal * n

        transport, pool = self.make(served_model)
        for count in (4, 8, 16, 2, 12, 6, 10, 14):
            shards, bounced, _ = transport.dispatch(
                self.requests(images, count), 0.0)
            assert sorted(s.worker for s in shards) == [0, 1]
            self.reply_to_everything(transport, pool, wall_ms)
        for worker in (0, 1):
            for n in (1, 4, 8):
                assert transport.placement.predicted_ms(worker, n) \
                    == pytest.approx(wall_ms(worker, n), rel=0.1)

    def test_worker_dying_under_dispatch_redirects_the_shard(
            self, served_model, images):
        transport, pool = self.make(served_model)
        pool.dispatch_error = WorkerDiedError(0)
        requests = self.requests(images, 2)
        shards, bounced, error = transport.dispatch(requests, 0.0)
        assert error is None
        assert bounced == requests[:1]               # shard 0 redirected
        assert [s.requests for s in shards] == [requests[1:]]
        # Shard 0's ticket was released; shard 1 then took worker 0.
        assert transport.placement.in_flight == (1, 0)

    def test_unexpected_failure_hands_back_everything_unsent(
            self, served_model, images):
        transport, pool = self.make(served_model)
        pool.dispatch_error = RuntimeError("worker pool is closed")
        requests = self.requests(images, 4)
        shards, bounced, error = transport.dispatch(requests, 0.0)
        assert shards == [] and bounced == requests
        assert isinstance(error, RuntimeError)
        assert transport.placement.in_flight == (0, 0)
        assert transport.pending == {}

    def test_fleet_down_is_a_transport_swap(self, served_model, images):
        """A lost fleet dispatches through the inline transport: same
        call shape, arrays back on the shard, one degraded flush."""
        transport, pool = self.make(served_model)
        pool.fleet_down = True
        requests = self.requests(images, 3)
        shards, bounced, error = transport.dispatch(requests, 0.0)
        assert [s.worker for s in shards] == [None] and not bounced
        assert pool.dispatched == [] and transport.degraded
        assert transport.recovery["degraded_flushes"] == 1
        assert shards[0].requests == requests
        assert transport.in_flight == 0 and transport.has_capacity()
        assert transport.poll() == ([], [])
        (inline,), _, _ = InlineTransport(transport.session).dispatch(
            requests, 0.0)
        np.testing.assert_array_equal(shards[0].arrays.logits,
                                      inline.arrays.logits)


class TestShardRequests:
    def make_requests(self, sizes):
        return [Request(request_id=i,
                        images=np.zeros((size, 3, 16, 16)),
                        arrival_ms=float(i))
                for i, size in enumerate(sizes)]

    def test_balanced_split_preserves_order(self):
        requests = self.make_requests([1] * 16)
        shards = _shard_requests(requests, 2)
        assert [len(shard) for shard in shards] == [8, 8]
        flattened = [r.request_id for shard in shards for r in shard]
        assert flattened == list(range(16))

    def test_requests_stay_atomic(self):
        requests = self.make_requests([6, 1, 1])
        shards = _shard_requests(requests, 2)
        assert [[r.request_id for r in shard] for shard in shards] \
            == [[0], [1, 2]]

    def test_fewer_requests_than_workers(self):
        requests = self.make_requests([1])
        assert _shard_requests(requests, 4) == [requests]

    def test_every_shard_non_empty(self):
        for sizes in ([1, 1, 1], [9, 1, 1, 1], [1, 9], [2, 2, 2, 2, 2]):
            requests = self.make_requests(sizes)
            for workers in (2, 3, 4):
                shards = _shard_requests(requests, workers)
                assert all(shards)
                assert sum(len(s) for s in shards) == len(requests)
                assert len(shards) <= workers


class TestOnePipeline:
    """Every transport feeds the same deliver step."""

    #: (first image, priority, relative deadline) of four 2-image
    #: requests.  Two images each keeps every executed batch -- the
    #: 8-image in-process flush, the pool's two 4-image shards, the
    #: collapsed pool's re-run -- multi-image, where each image's rows
    #: are bitwise stable under re-batching (a 1-image batch takes a
    #: different BLAS path; the chaos suite documents the caveat).
    BURST = [(0, 1, None), (2, 0, 40.0), (4, 1, 90.0), (6, 0, None)]

    @pytest.mark.parametrize("kind", ["inline", "pool", "collapsed"])
    def test_same_burst_same_results(self, kind, served_model, images):
        reference = InferenceSession(served_model,
                                     batch_size=16).submit(images[:8])
        register = {}
        if kind != "inline":
            register = dict(workers=2, worker_ctx="fork")
        if kind == "collapsed":
            register.update(
                fault_plan=FaultPlan({0: FaultSpec(kill_at_batch=1),
                                      1: FaultSpec(kill_at_batch=1)}),
                recovery=RecoveryPolicy(
                    max_worker_restarts=0,
                    restart_backoff=RetryPolicy(attempts=4,
                                                backoff_base_s=0.01,
                                                backoff_max_s=0.05)))
        scheduler = Scheduler(clock=VirtualClock(), batch_window_ms=10.0)
        try:
            served = scheduler.register("tiny", served_model,
                                        batch_size=16, **register)
            ids = [scheduler.submit(images[first:first + 2],
                                    priority=priority,
                                    deadline_ms=deadline)
                   for first, priority, deadline in self.BURST]
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert served.degraded == (kind == "collapsed")
            assert (served.recovery["degraded_flushes"] > 0) \
                == (kind == "collapsed")
        finally:
            scheduler.shutdown(drain=False)
        assert sorted(results) == ids
        for request_id, (first, priority, deadline) in zip(ids,
                                                           self.BURST):
            result = results[request_id]
            rows = slice(first, first + 2)
            assert not result.failed, result.error
            assert result.logits.tobytes() \
                == reference.logits[rows].tobytes()
            assert result.latency_ms.tobytes() \
                == reference.latency_ms[rows].tobytes()
            assert len(result.tokens_per_stage) \
                == len(reference.tokens_per_stage)
            for got, want in zip(result.tokens_per_stage,
                                 reference.tokens_per_stage):
                np.testing.assert_array_equal(got, want[rows])
            assert result.priority == priority
            assert result.deadline_ms == deadline
            assert result.session == "tiny"
            assert result.arrival_ms == result.completed_ms == 0.0

    def test_in_process_flush_without_wait_is_still_synchronous(
            self, served_model, images):
        """``wait=False`` leaves shards on *workers* in flight; an
        in-process batch has already run inside the call."""
        scheduler = Scheduler(clock=VirtualClock())
        scheduler.register("tiny", served_model, batch_size=16)
        ids = [scheduler.submit(images[i]) for i in range(3)]
        completed = scheduler.flush(model="tiny", wait=False)
        assert sorted(r.request_id for r in completed) == ids
        assert scheduler.in_flight_batches() == 0
        assert scheduler.pending_requests() == 0

    def test_scheduler_does_not_know_a_pool_exists(self):
        """Layering guard: pools, placement and the in-flight table are
        ``PoolTransport``'s business.  A scheduler that imports them
        again has re-forked the flush path."""
        import repro.serving.scheduler as module

        tree = ast.parse(inspect.getsource(module))
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        forbidden = {"WorkerPool", "WorkerDiedError", "PlacementPolicy",
                     "_InFlight"}
        assert not imported & forbidden
        assert not forbidden & set(vars(module))
