"""The serving invariants, under any interleaving: a hypothesis state machine.

One :class:`repro.serving.Scheduler` on a :class:`VirtualClock` serves
one target through a real :class:`repro.serving.PoolTransport` -- real
placement, real in-flight table, real recovery sweep -- over
:class:`AnsweringPool`, a stub pool that answers every open task of a
live, un-hung worker incarnation by running ``session.submit_many``
on the task's image groups, as a worker does.  Hypothesis interleaves
submits, steps, clock advances, forced flushes, drains, worker kills,
hangs and error / corrupt / duplicate replies, and after every rule
checks what no scenario test can enumerate:

* every request's stamps walk the ledger's transition table;
* per class, ``submitted`` equals what was admitted, which equals the
  live requests plus the completed and failed ones; ``refused`` equals
  the submits admission turned away, which never enter ``submitted``;
  ``requeued`` equals the in_flight -> queued moves the flush log
  implies; ``delivered`` equals the results popped; ``shed <= failed``;
* no id comes out of ``pop_result`` twice;
* every dispatched shard holds its requests in queue order
  (priority, then EDF, then arrival), re-dispatches included.

Teardown drains and checks that every id was delivered exactly once,
that nothing is left in flight anywhere, and that every result that
did not fail is bitwise what an undisturbed in-process run of the
requests it was last dispatched with returns -- the shard that
delivered it.  The oracle is per shard, not per request: the engine
does not keep an image's rows bitwise stable under re-batching (a
float row rounds by its position in a GEMM operand, so 2-3 image
requests re-batched differ by an ulp now and then), and only the same
co-batched requests promise the same bits.  A reply filed under the
wrong shard, or rows sliced to the wrong request, fail it.

Hung verdicts read the scheduler's clock, so a hung worker is driven
by ``advance`` like everything else.  A poll with nothing to answer
spends its wait on the virtual clock, which is how a drain with a hung
shard reaches the verdict; a poll asked to wait while no task is open
anywhere could never be answered, and fails the run instead of
spinning.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import InferenceSession
from repro.serving import (AdmissionError, PoolTransport, RecoveryPolicy,
                           Scheduler, VirtualClock, WorkerReply)
from repro.serving.ledger import _MOVES, DELIVERED, IN_FLIGHT, QUEUED
from repro.vit import VisionTransformer
from tests.conftest import TINY_CONFIG
from tests.serving.harness import StubPool

MODEL = HeatViT(VisionTransformer(TINY_CONFIG,
                                  rng=np.random.default_rng(7)),
                {1: 0.7, 2: 0.5}, rng=np.random.default_rng(41))
MODEL.eval()
SESSION = InferenceSession(MODEL, batch_size=16)
IMAGES = generate_dataset(SyntheticConfig(image_size=16, num_classes=4),
                          12, np.random.default_rng(42)).images

#: Floor of the hung-batch deadline: a few ``advance`` rules reach it.
RECOVERY = RecoveryPolicy(min_dispatch_timeout_s=0.25,
                          max_in_flight_per_worker=2)

#: Admission capacity, in images of priced backlog.
ADMIT = 12

_references = {}


def reference(groups, index):
    """The undisturbed in-process run of one shard's requests, given as
    ``(start, count)`` slices of ``IMAGES``, and the rows of its
    ``index``-th request."""
    key = tuple(groups)
    if key not in _references:
        _references[key] = SESSION.submit_many(
            [IMAGES[start:start + count] for start, count in key])
    result, slices = _references[key]
    return result, slices[index]


class AnsweringPool(StubPool):
    """A :class:`StubPool` that works like a pool of healthy workers:
    each ``poll`` answers every open task whose incarnation is alive
    and not hung, unless a scripted fault spoils the next reply."""

    def __init__(self, session, clock):
        super().__init__(RECOVERY)
        self.session = session
        self.clock = clock
        self.open = {}               # task id -> (groups, worker, incarnation)
        self.hung = set()            # (worker, incarnation) that went silent
        self.late = []               # duplicates sent with the next poll
        self.next_fault = None       # "error" | "corrupt" | "duplicate"

    def dispatch(self, task_id, image_groups, worker):
        incarnation = super().dispatch(task_id, image_groups, worker)
        self.open[task_id] = (image_groups, worker, incarnation)
        return incarnation

    def poll(self, timeout_s=0.0):
        replies, self.late = self.late, []
        for task_id in sorted(self.open):
            groups, worker, incarnation = self.open[task_id]
            if (worker not in self._alive
                    or self._incarnations[worker] != incarnation):
                del self.open[task_id]           # died with its worker
            elif (worker, incarnation) not in self.hung:
                del self.open[task_id]
                replies.extend(self._answer(task_id, groups, worker))
        if not replies and timeout_s > 0:
            assert self.open, "a poll waits on a pool with no task open"
            self.clock.advance(timeout_s * 1e3)
        return replies

    def _answer(self, task_id, groups, worker):
        fault, self.next_fault = self.next_fault, None
        if fault == "error":
            return [WorkerReply(kind="error", worker=worker,
                                task_id=task_id, error="scripted")]
        result, _ = self.session.submit_many(groups)
        num_images = int(result.logits.shape[0])
        reply = WorkerReply(
            kind="result", worker=worker, task_id=task_id,
            logits=result.logits[:-1] if fault == "corrupt"
            else result.logits,
            tokens_per_stage=result.tokens_per_stage,
            latency_ms=result.latency_ms,
            # A priced, not measured, wall time keeps every run of one
            # example identical.
            wall_time_s=self.session.estimated_batch_cost(
                num_images).total_ms / 1e3,
            num_images=num_images)
        if fault == "duplicate":
            self.late.append(reply)
        return [reply]


class ServingMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.scheduler = Scheduler(clock=self.clock, batch_window_ms=10.0)
        self.served = self.scheduler.register("tiny", session=SESSION)
        self.pool = AnsweringPool(SESSION, self.clock)
        self.served.transport = PoolTransport(SESSION, self.pool,
                                              self.clock)
        # Sheddable classes are refused past ~ADMIT images of backlog.
        self.scheduler.admission_capacity_ms = SESSION.estimated_batch_cost(
            ADMIT).total_ms
        self.submitted = {}          # id -> ((start, count), order key)
        self.refused = Counter()     # priority -> submits turned away
        self.delivered = {}          # id -> RequestResult
        self.checked_events = 0

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(start=st.integers(0, IMAGES.shape[0] - 3),
          count=st.integers(2, 3), priority=st.integers(0, 2),
          deadline=st.none() | st.integers(5, 200))
    def submit(self, start, count, priority, deadline):
        now = self.clock.now()
        try:
            request_id = self.scheduler.submit(
                IMAGES[start:start + count], deadline_ms=deadline,
                priority=priority)
        except AdmissionError:
            self.refused[priority] += 1
            return
        due = float("inf") if deadline is None else now + deadline
        self.submitted[request_id] = ((start, count),
                                      (priority, due, now, request_id))

    @rule()
    def step(self):
        self.scheduler.step()

    @rule(ms=st.integers(0, 400))
    def advance(self, ms):
        self.clock.advance(ms)

    @rule()
    def flush(self):
        self.scheduler.flush(wait=False)

    @rule()
    def drain(self):
        self.scheduler.drain()

    @rule()
    def pop_results(self):
        for request_id in self.submitted:
            result = self.scheduler.pop_result(request_id)
            if result is not None:
                assert request_id not in self.delivered
                self.delivered[request_id] = result

    @precondition(lambda self: self.pool._alive)
    @rule(data=st.data())
    def kill(self, data):
        self.pool.kill(data.draw(st.sampled_from(self.pool._alive)))

    @precondition(lambda self: self.pool._alive)
    @rule(data=st.data())
    def hang(self, data):
        worker = data.draw(st.sampled_from(self.pool._alive))
        self.pool.hung.add((worker, self.pool._incarnations[worker]))

    @rule(fault=st.sampled_from(["error", "corrupt", "duplicate"]))
    def spoil_next_reply(self, fault):
        self.pool.next_fault = fault

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def stamps_walk_the_transition_table(self):
        for entry in list(self.scheduler.ledger._entries.values()):
            if entry.state == DELIVERED:
                continue             # delivery released the stamps
            state, last_ms = None, float("-inf")
            for moved_to, at_ms in entry.stamps:
                assert moved_to in _MOVES[state], (state, moved_to)
                assert at_ms >= last_ms
                state, last_ms = moved_to, at_ms
            assert state == entry.state

    @invariant()
    def classes_conserve_requests(self):
        ledger = self.scheduler.ledger
        live = Counter(entry.priority for entry
                       in list(ledger._entries.values())
                       if entry.state in (QUEUED, IN_FLIGHT))
        wanted = Counter(key[0] for _, key in self.submitted.values())
        # Every dispatch in the flush log is a queued -> in_flight move,
        # and each ended in a requeue but a request's last one, unless
        # the request is back on the queue.
        requeued = Counter()
        dispatches = Counter(request_id for event in self.scheduler.events
                             for request_id in event.request_ids)
        for request_id, count in dispatches.items():
            requeued[self.submitted[request_id][1][0]] += (
                count - (ledger.state(request_id) != QUEUED))
        delivered = Counter(result.priority
                            for result in self.delivered.values())
        classes = ledger.classes()
        assert sorted(classes) == sorted(set(wanted) | set(self.refused))
        for priority, tally in classes.items():
            assert tally["submitted"] == wanted[priority]
            assert tally["refused"] == self.refused[priority]
            assert tally["submitted"] == (live[priority] + tally["completed"]
                                          + tally["failed"])
            assert tally["requeued"] == requeued[priority]
            assert tally["delivered"] == delivered[priority]
            assert tally["shed"] <= tally["failed"]

    @invariant()
    def shards_keep_queue_order(self):
        events = self.scheduler.events
        for event in events[self.checked_events:]:
            keys = [self.submitted[i][1] for i in event.request_ids]
            assert keys == sorted(keys), event
        self.checked_events = len(events)

    def teardown(self):
        self.scheduler.drain()
        self.pop_results()
        self.stamps_walk_the_transition_table()
        self.classes_conserve_requests()
        self.shards_keep_queue_order()
        assert sorted(self.delivered) == sorted(self.submitted)
        transport = self.served.transport
        assert transport.placement.in_flight == (0, 0)
        assert transport.pending == {}
        assert self.scheduler.ledger.pending_results == 0
        # The shard that delivered a request is the last one it was
        # dispatched in: a loss requeues it, a stale reply is dropped.
        last_shard = {request_id: event for event in self.scheduler.events
                      for request_id in event.request_ids}
        for request_id, result in self.delivered.items():
            priority, due, arrival, _ = self.submitted[request_id][1]
            assert (result.priority, result.arrival_ms) == (priority,
                                                            arrival)
            assert result.deadline_ms == (None if due == float("inf")
                                          else due)
            if result.failed:
                assert result.logits is None
                continue
            shard = last_shard[request_id]
            want, rows = reference(
                [self.submitted[i][0] for i in shard.request_ids],
                shard.request_ids.index(request_id))
            assert result.logits.tobytes() == want.logits[rows].tobytes()
            assert result.latency_ms.tobytes() \
                == want.latency_ms[rows].tobytes()
            assert len(result.tokens_per_stage) == len(want.tokens_per_stage)
            for got, expected in zip(result.tokens_per_stage,
                                     want.tokens_per_stage):
                assert got.tobytes() == expected[rows].tobytes()


ServingMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, derandomize=True,
    database=None, deadline=None, report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.too_slow])
TestServingMachine = ServingMachine.TestCase
