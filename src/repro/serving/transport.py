"""Transports: where a batch the scheduler popped actually runs.

The :class:`repro.serving.Scheduler` decides *when* a batch flushes and
*which* requests it holds; a transport decides *where* it executes.
:class:`InlineTransport` (the parent's own session) and
:class:`PoolTransport` (a worker fleet) share one call shape, so the
scheduler has a single dispatch -> collect -> deliver pipeline:

``dispatch(requests, now_ms) -> (shards, bounced, error)``
    ``shards`` are the :class:`Shard` pieces the transport accepted
    (the scheduler logs one ``FlushEvent`` each, and delivers at once
    those that already carry their ``arrays``); ``bounced`` are
    requests it could not take right now (the scheduler requeues them
    untouched -- the queue re-sorts them into EDF position).  A
    transport never raises with requests in hand: a failure comes back
    as ``error`` beside the requests it did not run, and the scheduler
    re-raises it once they are safely back on the queue, so one
    failing execution can never lose co-batched requests.
``poll(timeout_s) -> (finished, lost)``
    ``finished``: ``(requests, arrays)`` per shard that completed since
    ``dispatch`` returned -- ``arrays`` carries ``logits`` /
    ``latency_ms`` / ``tokens_per_stage`` for the requests' images in
    order, for the scheduler to slice per request.  ``lost``:
    ``(requests, why)`` per shard whose execution failed (worker
    death, error or corrupt reply); the scheduler requeues or
    quarantines those under the transport's ``policy`` (a
    :class:`repro.serving.RecoveryPolicy`).
``has_capacity()`` / ``backlog_ms()`` / ``in_flight`` / ``close()``
    backpressure for the flush decision, the priced in-flight backlog
    admission control adds to the queue's, the count of shards still
    executing, and end of life.

``pool`` / ``placement`` / ``pending`` / ``recovery`` / ``degraded``
are what :class:`repro.serving.ServedModel` shows as read-only views.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

__all__ = ["InlineTransport", "PoolTransport", "Shard"]


@dataclass
class Shard:
    """One accepted piece of a flushed batch (one ``FlushEvent``).

    ``worker`` is the executor-process index the placement policy chose,
    ``None`` for in-process execution; ``estimated_ms`` is the cost
    estimate the piece was priced at (the worker's learned batch law
    for a worker).  ``arrays`` is set when the shard has already run (an
    in-process batch finishes inside ``dispatch``); otherwise its
    results arrive through ``poll``."""

    requests: list
    estimated_ms: float
    worker: int = None
    arrays: object = None


@dataclass
class _InFlight:
    """One shard dispatched to a worker, awaiting its reply.

    ``deadline_s`` is **host-monotonic** (``time.monotonic()``), not
    scheduler-clock: the dispatch deadline detects a *process* that
    stopped answering, which only host time can witness -- a virtual
    scheduler clock may not advance at all while a worker hangs.
    """

    requests: list
    ticket: object                  # repro.serving.Placement
    deadline_s: float               # host-monotonic hung-batch deadline
    incarnation: int                # worker incarnation dispatched to


def _recovery_counters():
    """Fresh per-target recovery telemetry (reported by ``stats()``)."""
    return {
        "respawns": 0,               # dead workers restarted
        "lost_batches": 0,           # in-flight batches stranded by deaths
        "hung_workers": 0,           # terminated for missing the deadline
        "redispatched_requests": 0,  # requeued to survivors after a loss
        "failed_requests": 0,        # poison quarantine: budget exhausted
        "shed_on_recovery": 0,       # expired sheddable requests dropped
        "worker_errors": 0,          # error replies absorbed (not raised)
        "corrupt_replies": 0,        # malformed payloads rejected
        "duplicate_replies": 0,      # stale/duplicate replies dropped
        "degraded_flushes": 0,       # in-process flushes after collapse
    }


def _shard_requests(requests, num_shards):
    """Split a popped batch into up to ``num_shards`` contiguous,
    image-count-balanced shards (requests stay atomic, EDF order is
    preserved -- shard 0 holds the earliest deadlines)."""
    k = min(num_shards, len(requests))
    if k <= 1:
        return [requests]
    total = sum(r.num_images for r in requests)
    shards, current, images_done = [], [], 0
    for index, request in enumerate(requests):
        current.append(request)
        images_done += request.num_images
        remaining = len(requests) - index - 1
        if (len(shards) + 1 < k and remaining >= 1
                and images_done * k >= total * (len(shards) + 1)):
            shards.append(current)
            current = []
    shards.append(current)
    return shards


class InlineTransport:
    """Run batches on ``session`` in the calling thread.

    ``dispatch`` executes the whole batch before it returns and hands
    the arrays back on the shard, so an in-process flush completes --
    and is delivered -- inside the ``step()`` / ``submit()`` /
    ``flush()`` call that fired it.  Nothing is ever in flight, so
    ``poll`` has nothing to report and ``recovery`` never moves; with
    nothing ever lost there is no retry ``policy`` to carry either.
    """

    pool = placement = None
    degraded = False
    in_flight = 0

    def __init__(self, session):
        self.session = session
        self.pending = {}
        self.recovery = _recovery_counters()

    def has_capacity(self):
        return True

    def backlog_ms(self):
        return 0.0

    def dispatch(self, requests, now_ms):
        try:
            result, _ = self.session.submit_many(
                [r.images for r in requests])
        except Exception as exc:
            return [], requests, exc
        num_images = sum(r.num_images for r in requests)
        estimated_ms = self.session.estimated_batch_cost(num_images).total_ms
        return [Shard(requests, estimated_ms, arrays=result)], [], None

    def poll(self, timeout_s=0.0):
        return [], []

    def close(self):
        pass


class PoolTransport:
    """Fan batches out across a self-healing pool of executor processes.

    Each flushed batch is split into up to ``num_workers`` balanced
    shards; each shard goes (non-blocking) to the live, under-capacity
    worker with the fewest shards in flight and, among those, the
    lowest predicted completion time (:class:`PlacementPolicy`), and
    ``pending`` tracks it until ``poll`` has its reply.  Results are
    bitwise identical to in-process execution (grouped execution is
    placement-invariant), which is also what makes recovery exact.

    **Self-healing** (see :class:`repro.serving.RecoveryPolicy`): every
    ``poll`` runs a recovery sweep before reading replies -- hung
    workers (no reply within the cost-model-derived dispatch deadline)
    are terminated, shards stranded on dead workers are handed back as
    ``lost`` with their placement tickets released, and dead workers
    are respawned under the pool's supervision budget.  Error and
    corrupt replies come back as ``lost`` too; duplicate and stale
    replies are dropped.  No worker failure is ever raised.  When the
    whole pool is permanently lost (``degraded``) batches run on the
    parent session through an :class:`InlineTransport` -- identical
    logits, reduced throughput -- and ``recovery`` counts every action.

    ``pool`` is a ready :class:`repro.serving.WorkerPool` (tests pass a
    fake); :meth:`spawn` builds one.  ``clock`` is the scheduler's
    clock: placement tickets are charged and retired in its time.
    """

    def __init__(self, session, pool, clock):
        # Placement and the worker processes' errors load with the
        # first pool, never in an in-process server.
        from repro.serving.placement import PlacementPolicy
        from repro.serving.worker import WorkerDiedError

        self.session = session
        self.pool = pool
        self.clock = clock
        self.policy = pool.recovery
        self._worker_died = WorkerDiedError
        self.placement = PlacementPolicy(
            pool.num_workers, session,
            max_in_flight=self.policy.max_in_flight_per_worker)
        self.pending = {}            # task id -> _InFlight
        self.recovery = _recovery_counters()
        self._inline = InlineTransport(session)
        self._task_ids = itertools.count()

    @classmethod
    def spawn(cls, session, workers, clock, *, ctx, recovery, fault_plan):
        """Start ``workers`` executor processes for ``session`` (see
        :class:`repro.serving.WorkerPool`) and wrap them."""
        from repro.serving.worker import WorkerPool

        return cls(session, WorkerPool(session, workers, ctx=ctx,
                                       recovery=recovery,
                                       fault_plan=fault_plan), clock)

    @property
    def degraded(self):
        """Whether the worker fleet is permanently lost and batches run
        in-process (the HTTP front door answers 503 + ``Retry-After``
        for sheddable classes while this holds)."""
        return self.pool.fleet_down

    def has_capacity(self):
        """Whether a flush has somewhere to go: some live worker under
        its in-flight bound, or the degraded in-process path.  While
        every live worker is saturated (or the fleet is mid-respawn)
        the scheduler defers the flush -- the queue keeps absorbing
        arrivals and the next ``poll`` frees capacity."""
        return self.pool.fleet_down or any(
            self.placement.has_capacity(worker)
            for worker in self.pool.alive_workers())

    def backlog_ms(self):
        """Placement-predicted cost of every shard in flight."""
        return sum(inflight.ticket.predicted_ms
                   for inflight in list(self.pending.values()))

    @property
    def in_flight(self):
        return len(self.pending)

    def close(self):
        self.pool.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, requests, now_ms):
        """Shard ``requests`` and place every shard that finds a worker.

        Shards that find no eligible worker (the fleet saturated or
        mid-respawn) -- or whose target dies between placement and
        enqueue -- bounce; nothing is ever stranded on a dead worker's
        queue.  Nothing completes synchronously unless the fleet is
        down, when the whole batch runs on the parent session
        (graceful degradation -- identical logits, reduced throughput).
        """
        if self.pool.fleet_down:
            shards, bounced, error = self._inline.dispatch(requests, now_ms)
            self.recovery["degraded_flushes"] += len(shards)
            return shards, bounced, error
        shards, bounced = [], []
        pieces = _shard_requests(requests, self.pool.num_workers)
        for index, piece in enumerate(pieces):
            try:
                shard = self._place(piece, now_ms)
            except Exception as exc:
                # Send nothing further: this piece and the rest go back.
                bounced.extend(r for rest in pieces[index:] for r in rest)
                return shards, bounced, exc
            if shard is None:
                bounced.extend(piece)
            else:
                shards.append(shard)
        return shards, bounced, None

    def _place(self, piece, now_ms):
        """Send one shard to the best eligible worker; ``None`` when
        there is none (the caller bounces it)."""
        try:
            ticket = self.placement.assign(
                sum(r.num_images for r in piece), now_ms=now_ms,
                candidates=self.pool.alive_workers())
        except LookupError:
            return None
        task_id = next(self._task_ids)
        try:
            incarnation = self.pool.dispatch(
                task_id, [r.images for r in piece], ticket.worker)
        except Exception as exc:
            self.placement.complete(ticket, now_ms=now_ms)
            if isinstance(exc, self._worker_died):
                # Died between the liveness snapshot and the enqueue;
                # recovery will respawn it -- just redirect the shard.
                return None
            raise
        # Hung-batch deadline: host time, scaled off the placement
        # prediction so big batches get proportionally more rope,
        # floored so estimator noise never kills healthy workers.
        predicted_s = max(ticket.completion_ms - now_ms, 0.0) / 1e3
        deadline_s = time.monotonic() + max(
            self.policy.min_dispatch_timeout_s,
            self.policy.dispatch_timeout_factor * predicted_s)
        self.pending[task_id] = _InFlight(
            requests=piece, ticket=ticket, deadline_s=deadline_s,
            incarnation=incarnation)
        return Shard(piece, ticket.predicted_ms, ticket.worker)

    # ------------------------------------------------------------------
    # Collection and recovery
    # ------------------------------------------------------------------
    def poll(self, timeout_s=0.0):
        """Sweep for lost workers, then read whatever replies have
        arrived, waiting up to ``timeout_s`` for the first while any
        shard is still on a worker.

        The sweep runs on every call, so background serving heals on
        the scheduler's non-blocking ``step`` path too, not only in
        drains.
        """
        finished, lost = [], self._sweep()
        for reply in self.pool.poll(
                timeout_s=timeout_s if self.pending else 0.0):
            self._accept(reply, finished, lost)
        return finished, lost

    def _sweep(self):
        """The recovery sweep: terminate hung workers, hand back shards
        stranded on dead ones, respawn under the supervision budget.
        Returns the ``lost`` entries -- never raises for a worker
        failure.

        A shard is *lost* when its worker is dead **or** its slot has
        moved to a newer incarnation -- supervision may respawn a dead
        worker before this sweep ever saw the death (the respawn races
        the sweep, including from a concurrent stepping thread), and
        aliveness alone would then strand the dead incarnation's
        shards until the hung deadline terminated the healthy
        replacement.  Hung first: an in-flight shard past its
        host-monotonic dispatch deadline means *the incarnation it was
        dispatched to* took the task and went silent (``is_alive()``
        cannot see it); that incarnation is terminated -- the kill is
        incarnation-guarded, so a respawn that slipped in is never
        executed for its predecessor's shard -- and it joins the dead
        set this same sweep, its shards recovering through the one
        path below.
        """
        pool, lost = self.pool, []
        if pool.closed:
            return lost
        host_now = time.monotonic()
        alive, incarnations = pool.liveness()

        def is_lost(inflight):
            worker = inflight.ticket.worker
            return (worker not in alive
                    or incarnations[worker] != inflight.incarnation)

        hung = {(inflight.ticket.worker, inflight.incarnation)
                for inflight in self.pending.values()
                if not is_lost(inflight) and host_now > inflight.deadline_s}
        for worker, incarnation in sorted(hung):
            pool.terminate_worker(worker, incarnation=incarnation)
            self.recovery["hung_workers"] += 1
        if hung:
            alive, incarnations = pool.liveness()
        stranded = sorted(task_id
                          for task_id, inflight in self.pending.items()
                          if is_lost(inflight))
        if stranded:
            now_ms = self.clock.now()
            for task_id in stranded:
                inflight = self.pending.pop(task_id)
                self.placement.complete(inflight.ticket, now_ms=now_ms)
                self.recovery["lost_batches"] += 1
                lost.append((inflight.requests,
                             f"worker {inflight.ticket.worker} lost "
                             f"batch {task_id}"))
        self.recovery["respawns"] += len(pool.respawn_dead())
        return lost

    def _accept(self, reply, finished, lost):
        """Validate one worker reply against the in-flight table and
        file its shard under ``finished`` or ``lost``."""
        inflight = self.pending.pop(reply.task_id, None)
        if inflight is None:
            # At-most-once delivery: a duplicate of a reply already
            # finished, or a stale reply for a shard recovery already
            # retired (the worker enqueued it before dying, or the
            # pipe drained late).  Either way the requests were (or
            # will be) answered elsewhere -- results are bitwise
            # reproducible, so the extra copy is simply dropped.
            self.recovery["duplicate_replies"] += 1
            return
        now_ms = self.clock.now()
        if reply.kind == "error":
            # The worker survived; the *batch* failed.  Absorb it into
            # the retry budget instead of raising -- one poisoned
            # execution must not kill the serving loop.
            self.placement.complete(inflight.ticket, now_ms=now_ms)
            self.recovery["worker_errors"] += 1
            lost.append((inflight.requests,
                         f"worker {reply.worker} failed executing batch "
                         f"{reply.task_id}: {reply.error}"))
            return
        expected = sum(r.num_images for r in inflight.requests)
        rows = None if reply.logits is None else int(reply.logits.shape[0])
        if rows != expected:
            # Malformed payload (truncated on the wire / fault
            # injection): reject and retry, never deliver wrong rows.
            self.placement.complete(inflight.ticket, now_ms=now_ms)
            self.recovery["corrupt_replies"] += 1
            lost.append((inflight.requests,
                         f"worker {reply.worker} returned a corrupt reply "
                         f"for batch {reply.task_id} ({rows} logits rows, "
                         f"expected {expected})"))
            return
        self.placement.complete(inflight.ticket, now_ms=now_ms,
                                measured_ms=reply.wall_time_s * 1e3)
        # Worker replies are measurements too: fold the shard's shape +
        # timing into the parent session's online cost model, so flush
        # and admission pricing for this target learns from the whole
        # pool, not only from in-process executions.
        if self.session.learns_cost and reply.num_images:
            chunks = -(-reply.num_images // self.session.batch_size)
            self.session.cost_model.observe_batch(
                reply.num_images, reply.wall_time_s * 1e3,
                num_batches=chunks)
        finished.append((inflight.requests, reply))
