"""Deterministic serving-simulation harness: virtual clock + scripted traces.

The scheduler's interesting behavior -- flush timing, deadline misses,
routing decisions, remainder carry-over -- is all *temporal*, which
normally means flaky sleep-based tests.  Here time is a
:class:`repro.serving.VirtualClock` the simulation advances in fixed
ticks, arrivals are scripted :class:`Arrival` records delivered exactly
at their timestamps, and every outcome (completion times, flush events,
per-request logits) is bit-reproducible, so tests assert scheduler
behavior *exactly*, with no real sleeps.

Trace builders cover the workload shapes the paper's serving story
cares about: steady request streams (:func:`uniform_trace`), bursts
that stress batch formation and carry-over (:func:`bursty_trace`), and
adversarial deadline mixes -- deadlines tighter than a tick, deadlines
interleaved loose/tight to shuffle the EDF order, best-effort traffic
mixed in (:func:`adversarial_deadline_trace`).

:class:`StubPool` stands in for a worker pool, so a real
:class:`repro.serving.PoolTransport` -- its recovery sweep and hung
verdicts included -- runs on the same virtual clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core import LatencySparsityTable
from repro.cost import BatchPlan, CostModel
from repro.engine import InferenceSession
from repro.serving import AdmissionError, RecoveryPolicy
from repro.serving.trace import synth_images

__all__ = ["Arrival", "SimulationReport", "ServingSimulation",
           "flat_rate_session", "PricedSession", "hold_whole_window",
           "StubPool",
           "uniform_trace", "bursty_trace", "adversarial_deadline_trace",
           "arrivals_from_trace", "two_tier_arrivals"]


def flat_rate_session(model, block_ms, **session_kwargs):
    """An :class:`InferenceSession` priced at a flat ``block_ms`` per
    block per image -- independent of keep ratios, no batch or bucket
    overhead -- so a test can dial a target's cost (and with it the
    router's and the flush policy's view of it) to a round number."""
    table = LatencySparsityTable({0.5: block_ms, 1.0: block_ms})
    return InferenceSession(
        model, cost_model=CostModel.zero_overhead(
            table, num_patches=model.config.num_patches,
            extra_tokens=model.non_patch_slots), **session_kwargs)


class PricedSession:
    """What :class:`repro.serving.PlacementPolicy` reads from an
    :class:`InferenceSession` -- ``batch_size`` and
    ``estimated_batch_cost`` -- at a round-number batch law:
    ``overhead_ms`` per ``batch_size`` launch plus ``marginal_ms`` per
    image, priced by a real :class:`CostModel` as the session prices."""

    def __init__(self, overhead_ms=0.0, marginal_ms=1.0, batch_size=32):
        self.batch_size = batch_size
        self.marginal_ms = marginal_ms
        self.cost_model = CostModel(
            LatencySparsityTable({0.5: 1.0, 1.0: 1.0}), num_patches=16,
            batch_overhead_ms=overhead_ms)

    def estimated_batch_cost(self, num_images):
        return self.cost_model.estimate(BatchPlan(
            num_images=num_images, per_image_ms=self.marginal_ms,
            num_batches=math.ceil(num_images / self.batch_size)))


def hold_whole_window(scheduler):
    """Make ``scheduler`` hold every request for all of its
    ``batch_window_ms``, whatever the cost model prices a launch at --
    what a cost model whose per-batch overhead reaches the window does
    on its own.  For tests whose subject needs requests to *stay*
    queued (a carried remainder, a backlog for admission control), not
    a serving mode.  Returns ``scheduler``."""
    scheduler.flush_policy.hold_ms = (
        lambda batch_cost: scheduler.batch_window_ms)
    return scheduler


class StubPool:
    """A fake :class:`repro.serving.WorkerPool` for driving a real
    :class:`repro.serving.PoolTransport` without processes: two
    workers that record dispatches, replay scripted reply batches
    (one list per ``poll``), and die or respawn on command -- a respawn
    is immediate and bumps the slot's incarnation."""

    def __init__(self, recovery=None):
        self.num_workers = 2
        self.recovery = recovery or RecoveryPolicy()
        self.closed = False
        self.fleet_down = False
        self.dispatched = []         # (task_id, image_groups, worker)
        self.respawned = []
        self.terminated = []
        self.dispatch_error = None   # raised by the next dispatch
        self.reply_batches = []      # one list of replies per poll()
        self._alive = [0, 1]
        self._incarnations = [0] * self.num_workers

    def kill(self, worker):
        self._alive.remove(worker)

    def dispatch(self, task_id, image_groups, worker):
        if self.dispatch_error is not None:
            error, self.dispatch_error = self.dispatch_error, None
            raise error
        self.dispatched.append((task_id, image_groups, worker))
        return self._incarnations[worker]

    def poll(self, timeout_s=0.0):
        return self.reply_batches.pop(0) if self.reply_batches else []

    def alive_workers(self):
        return list(self._alive)

    def liveness(self):
        return set(self._alive), tuple(self._incarnations)

    def terminate_worker(self, worker, incarnation=None):
        if (incarnation is not None
                and self._incarnations[worker] != incarnation):
            return
        self.terminated.append(worker)
        if worker in self._alive:
            self._alive.remove(worker)

    def respawn_dead(self):
        dead = [w for w in range(self.num_workers)
                if w not in self._alive]
        for worker in dead:
            self._incarnations[worker] += 1
        self._alive = sorted(self._alive + dead)
        self.respawned.extend(dead)
        return dead

    def supervision_snapshot(self):
        return {"alive": self.alive_workers(),
                "restarts": tuple(), "incarnations": tuple(),
                "fleet_down": self.fleet_down}

    def close(self):
        self.closed = True


@dataclass(eq=False)
class Arrival:
    """One scripted request: delivered when the clock reaches ``at_ms``.

    ``deadline_ms`` is relative to the arrival (as clients specify it);
    ``priority`` is the SLO class (``None`` = scheduler default);
    ``model`` optionally pins a session, bypassing the router.
    (``eq=False``: field-wise comparison over the numpy payload would
    raise, the same dataclass trap fixed on ``Request``.)
    """

    at_ms: float
    images: np.ndarray
    deadline_ms: float = None
    priority: int = None
    model: str = None


@dataclass
class SimulationReport:
    """Everything one simulation run produced, keyed by request id."""

    results: dict                 # request_id -> RequestResult
    arrivals: dict                # request_id -> Arrival (as submitted)
    events: list                  # scheduler FlushEvents, in order
    final_ms: float
    shed: list = field(default_factory=list)  # (Arrival, AdmissionError)

    def hit_rate(self, priority=None):
        """Deadline-hit rate over deadline-carrying completions,
        optionally restricted to one priority class."""
        judged = [res for res in self.results.values()
                  if res.deadline_ms is not None
                  and (priority is None or res.priority == priority)]
        if not judged:
            return None
        return sum(res.deadline_met for res in judged) / len(judged)

    @property
    def completed_ids(self):
        return sorted(self.results)

    @property
    def sessions_used(self):
        """Routing decisions: request_id -> session name."""
        return {rid: res.session for rid, res in self.results.items()}

    def overshoots_ms(self):
        """Per-request deadline overshoot (only deadline-carrying ones)."""
        return {rid: res.overshoot_ms for rid, res in self.results.items()
                if res.deadline_ms is not None}

    @property
    def max_overshoot_ms(self):
        overshoots = self.overshoots_ms()
        return max(overshoots.values()) if overshoots else 0.0

    @property
    def missed_ids(self):
        return sorted(rid for rid, res in self.results.items()
                      if not res.deadline_met)


class ServingSimulation:
    """Tick-driven executor for a scripted arrival trace.

    Each tick delivers the arrivals whose time has come, then calls
    ``scheduler.step()`` and collects completions; the virtual clock
    advances by ``tick_ms`` between ticks.  The run ends when every
    arrival has been delivered and every request completed (bounded by
    ``until_ms`` as a runaway guard).
    """

    def __init__(self, scheduler, clock, arrivals, tick_ms=1.0):
        if scheduler.clock is not clock:
            raise ValueError("scheduler must use the simulation's clock")
        if tick_ms <= 0:
            raise ValueError("tick_ms must be > 0")
        self.scheduler = scheduler
        self.clock = clock
        self.arrivals = sorted(arrivals, key=lambda a: a.at_ms)
        self.tick_ms = float(tick_ms)
        self.shed = []          # (Arrival, AdmissionError) rejections

    def run(self, until_ms=None):
        if until_ms is None:
            last = self.arrivals[-1].at_ms if self.arrivals else 0.0
            until_ms = last + 100.0 * max(
                self.scheduler.batch_window_ms, self.tick_ms)
        results, submitted = {}, {}
        queue = list(self.arrivals)
        while True:
            now = self.clock.now()
            while queue and queue[0].at_ms <= now:
                arrival = queue.pop(0)
                try:
                    request_id = self.scheduler.submit(
                        arrival.images, deadline_ms=arrival.deadline_ms,
                        priority=arrival.priority, model=arrival.model)
                except AdmissionError as exc:
                    self.shed.append((arrival, exc))
                    continue
                submitted[request_id] = arrival
            for result in self.scheduler.step():
                results[result.request_id] = result
            if not queue and not self.scheduler.pending_requests():
                break
            if now >= until_ms:
                raise AssertionError(
                    f"simulation did not drain by {until_ms} ms: "
                    f"{len(queue)} arrivals pending, "
                    f"{self.scheduler.pending_requests()} requests queued")
            self.clock.advance(self.tick_ms)
        return SimulationReport(results=results, arrivals=submitted,
                                events=list(self.scheduler.events),
                                final_ms=self.clock.now(),
                                shed=list(self.shed))


# ----------------------------------------------------------------------
# Trace builders
# ----------------------------------------------------------------------
def _split(images, sizes):
    """Chop an image stack into consecutive requests of the given sizes."""
    pieces, offset = [], 0
    for size in sizes:
        if offset + size > images.shape[0]:
            raise ValueError("not enough images for the requested trace")
        pieces.append(images[offset:offset + size])
        offset += size
    return pieces


def uniform_trace(images, *, num_requests, period_ms, images_per_request=1,
                  deadline_ms=None, model=None, start_ms=0.0):
    """A steady stream: one request every ``period_ms``."""
    pieces = _split(images, [images_per_request] * num_requests)
    return [Arrival(at_ms=start_ms + i * period_ms, images=piece,
                    deadline_ms=deadline_ms, model=model)
            for i, piece in enumerate(pieces)]


def bursty_trace(images, *, burst_times_ms, burst_size,
                 images_per_request=1, deadline_ms=None, model=None):
    """Bursts of ``burst_size`` simultaneous requests at scripted times."""
    sizes = [images_per_request] * (len(burst_times_ms) * burst_size)
    pieces = iter(_split(images, sizes))
    return [Arrival(at_ms=at, images=next(pieces), deadline_ms=deadline_ms,
                    model=model)
            for at in burst_times_ms for _ in range(burst_size)]


def adversarial_deadline_trace(images, *, start_ms=0.0, spacing_ms=1.0,
                               window_ms=5.0):
    """A deadline mix built to stress EDF ordering and flush timing.

    Cycles through: a deadline tighter than one tick (can only complete
    late, but must stay within one batch window), a tight-but-feasible
    deadline, best-effort traffic, and a deadline looser than the batch
    window (must NOT be flushed early on its own account) -- with later
    arrivals carrying earlier deadlines than already-queued requests,
    so completion order must deviate from arrival order.
    """
    patterns = [0.5, 2.0, None, 4.0 * window_ms, 1.5, None]
    sizes = [1 + (i % 3) for i in range(len(patterns) * 3)]
    pieces = _split(images, sizes)
    return [Arrival(at_ms=start_ms + i * spacing_ms, images=piece,
                    deadline_ms=patterns[i % len(patterns)])
            for i, piece in enumerate(pieces)]


def arrivals_from_trace(trace, image_shape):
    """Materialize :class:`repro.serving.trace.TraceRequest` records as
    simulation arrivals -- the bridge between the replayable JSONL
    trace format and the deterministic virtual-clock harness.  Payloads
    come from the trace seeds (:func:`repro.serving.synth_images`), so
    a trace file determines the simulation bit for bit."""
    return [Arrival(at_ms=r.at_ms, images=r.images(image_shape),
                    deadline_ms=r.deadline_ms, priority=r.priority,
                    model=r.model)
            for r in sorted(trace, key=lambda r: r.at_ms)]


def two_tier_arrivals(image_shape, **kwargs):
    """A :func:`repro.serving.two_tier_trace` materialized for the
    simulation harness (premium stream + bursty sheddable bulk)."""
    from repro.serving import two_tier_trace

    return arrivals_from_trace(two_tier_trace(**kwargs), image_shape)
