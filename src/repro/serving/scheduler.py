"""Async deadline-aware request scheduler with multi-model routing.

The serving front door for the bucketed engine.  Callers ``submit``
single images or small stacks without blocking; the scheduler coalesces
them into large bucketed batches and executes each batch on one of
several registered :class:`repro.engine.InferenceSession`\\ s (multiple
HeatViT variants or keep-ratio operating points in one process).

Batch formation is priced by each session's batch-aware
:class:`repro.cost.CostModel` (Eq. 18 marginals plus the calibrated
per-batch overhead, via ``InferenceSession.estimated_batch_cost``);
*when* a target flushes is :mod:`repro.serving.flush`'s call -- the
first of **capacity**, **budget**, **deadline** or **window**, the last
being a hold of the oldest request bounded by the per-batch overhead
the wait could save (``batch_window_ms`` is its upper bound).

A flush takes the earliest-deadline-first prefix of the queue that fits
the capacity/budget caps; what does not fit stays queued and is merged
with the next burst -- partially-filled buckets carry over between
submits via :meth:`repro.engine.InferenceSession.submit_many`, whose
grouped chunking is bitwise-identical to fresh submission.

Production shaping (what the HTTP front door in
:mod:`repro.serving.http` leans on): requests carry a **priority
class** mapped to an SLO deadline tier (``priority_tiers``), the
pending queue orders priority-first then EDF, **admission control**
sheds or degrades sheddable classes when a target's priced backlog
(via :mod:`repro.cost`) exceeds ``admission_capacity_ms``, and
**flush preemption** lets a premium arrival fire a due flush at
submit time instead of waiting out the step/window cadence.

Every flushed batch takes one path whatever executes it: pop ->
dispatch on the target's *transport* (:mod:`repro.serving.transport`:
in-process on the session, or sharded across a self-healing worker
pool) -> collect -> deliver, where per-request slicing and the
``completed_ms`` stamp happen once.  Where each request is -- queued,
in flight, finished, delivered -- is one entry of the scheduler's
:class:`repro.serving.ledger.Ledger`, which also keeps the per-class
counters and bounds what waits for collection.  Requests
whose execution a transport lost are requeued -- or, past their retry
budget, *quarantined*: failed cleanly to the caller (a
:class:`~repro.serving.request.RequestResult` with ``error`` set),
never retried forever.

Time comes from a :class:`repro.serving.clock.Clock` (milliseconds).
The scheduler is step-driven and thread-safe: call :meth:`step` from
your own loop (deterministically, in tests, against a
:class:`VirtualClock`), or :meth:`start` a background driver against
the real clock and collect responses with :meth:`wait_result`.  The
driver steps when an event wakes it (a submit, a re-queue, ``stop``) or
the next time rule comes due; it polls only worker pools, every
``poll_ms`` while shards are in flight or no worker can take one.  An
idle driver sleeps: a worker that dies idle is respawned by the next
step's recovery sweep.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.engine.session import InferenceSession
from repro.serving.clock import Clock, SystemClock
from repro.serving.flush import FlushPolicy
from repro.serving.ledger import IN_FLIGHT, QUEUED, Ledger
from repro.serving.queue import RequestQueue
from repro.serving.request import DEFAULT_PRIORITY, Request, RequestResult
from repro.serving.router import LeastLatencyRouter, backend_fidelity
from repro.serving.transport import InlineTransport

__all__ = ["Scheduler", "ServedModel", "FlushEvent", "AdmissionError"]


def check_timeout_ms(timeout_ms):
    """``timeout_ms`` as a float, or ``ValueError`` unless it is finite,
    >= 0 and at most ``threading.TIMEOUT_MAX`` seconds, the longest a
    lock waits: a NaN wait never times out and a longer one overflows
    the lock's deadline."""
    timeout_ms = float(timeout_ms)
    if not 0.0 <= timeout_ms <= threading.TIMEOUT_MAX * 1e3:
        raise ValueError(f"timeout_ms must be finite, >= 0 and at most "
                         f"{threading.TIMEOUT_MAX * 1e3:.0f}, "
                         f"got {timeout_ms!r}")
    return timeout_ms


class AdmissionError(RuntimeError):
    """A submission was shed by admission control.

    Raised when the priced backlog of every eligible serving target
    exceeds the scheduler's ``admission_capacity_ms`` and the request's
    priority class is sheddable (``priority > 0``).  Carries enough to
    answer an HTTP 429: the class, the backlog that tripped, and the
    capacity it exceeded.
    """

    def __init__(self, message, *, priority, backlog_ms, capacity_ms):
        super().__init__(message)
        self.priority = priority
        self.backlog_ms = backlog_ms
        self.capacity_ms = capacity_ms


@dataclass
class ServedModel:
    """One registered serving target.

    ``transport`` is where its flushed batches run
    (:mod:`repro.serving.transport`).  ``pool`` / ``placement`` /
    ``pending`` / ``recovery`` / ``degraded`` are read-only views of
    it: the :class:`repro.serving.WorkerPool` and
    :class:`repro.serving.PlacementPolicy` (``None`` in-process), the
    shards awaiting worker replies, the recovery counters, and whether
    the fleet is permanently lost and flushes run in-process.
    """

    name: str
    session: InferenceSession
    max_batch: int
    transport: object
    queue: RequestQueue = field(default_factory=RequestQueue)

    pool = property(lambda self: self.transport.pool)
    placement = property(lambda self: self.transport.placement)
    pending = property(lambda self: self.transport.pending)
    recovery = property(lambda self: self.transport.recovery)
    degraded = property(lambda self: self.transport.degraded)

    @property
    def cost_model(self):
        """The session's batch-aware pricing oracle."""
        return self.session.cost_model

    @property
    def marginal_image_ms(self):
        """Per-image marginal cost at the session's operating point.
        Delegates to the session's cached estimate so a retune through
        ``set_keep_ratios`` reaches routing and flush decisions too."""
        return self.session.marginal_image_ms

    def batch_cost(self, num_images):
        """Price an ``num_images`` flush on this target: the session's
        :class:`repro.cost.BatchCost` (per-batch overhead included).
        Routing feasibility and every flush trigger share this single
        estimate."""
        return self.session.estimated_batch_cost(num_images)

    def batch_cost_ms(self, num_images):
        """Scalar shorthand for ``batch_cost(num_images).total_ms``."""
        return self.batch_cost(num_images).total_ms

    @property
    def fidelity(self):
        """Numerics grade of the session's backend/dtype
        (:func:`repro.serving.backend_fidelity`); the
        :class:`HighestFidelityRouter` breaks cost ties toward the
        higher grade when float and quantized replicas serve the same
        operating point."""
        return backend_fidelity(self.session.backend, self.session.dtype)

    @property
    def image_shape(self):
        config = self.session.model.config
        return (config.in_channels, config.image_size, config.image_size)

    def priced_backlog_ms(self):
        """Cost-model price of everything committed to this target:
        the queued images as one batch plus the estimated cost of every
        in-flight dispatch.  The quantity admission control compares
        against capacity."""
        queued = self.queue.pending_images
        return ((self.batch_cost_ms(queued) if queued else 0.0)
                + self.transport.backlog_ms())

    def projected_backlog_ms(self, extra_images):
        """:meth:`priced_backlog_ms` if ``extra_images`` more images
        joined the queue -- priced as one merged batch with the queued
        images, so the per-batch overhead is not double-counted."""
        return (self.batch_cost_ms(self.queue.pending_images + extra_images)
                + self.transport.backlog_ms())


@dataclass
class FlushEvent:
    """Telemetry for one dispatched shard of a flushed batch (asserted
    by the simulation harness: flush timing, trigger reason, and
    remainder carry-over).  ``time_ms`` is the flush time.

    ``worker`` is the executor-process index for multi-worker targets
    (the placement decision), ``None`` for in-process execution; for
    shards sent to a worker ``estimated_ms`` is the worker's learned
    batch law's prediction."""

    time_ms: float
    session: str
    reason: str
    request_ids: list
    num_images: int
    estimated_ms: float
    carried_requests: int
    worker: int = None


class Scheduler:
    """Deadline-aware batching scheduler over registered sessions.

    Parameters
    ----------
    clock: time source in milliseconds; default real monotonic time.
    router: policy choosing a session for requests without an explicit
        ``model``; default :class:`LeastLatencyRouter` (minimum
        table-estimated latency subject to the deadline).
    batch_window_ms: upper bound on how long a request is held for
        company before its session flushes regardless of batch fill; the
        hold is the batch's priced per-batch overhead when that is less.
    latency_budget_ms: optional cap on a batch's estimated execution
        latency; reaching it triggers a flush and bounds the batch size.
    deadline_margin_ms: safety margin subtracted from deadlines when
        deciding whether a flush must fire now.
    max_events: cap on the :class:`FlushEvent` telemetry log (oldest
        entries drop first); ``None`` keeps everything (simulations).
    priority_tiers: optional mapping of priority class to a default
        *relative* deadline in ms, applied when a submission names a
        class but no explicit deadline -- the SLO-tier contract clients
        program against (e.g. ``{0: 20.0, 1: 200.0}``).
    admission_capacity_ms: optional priced-backlog capacity.  When a
        sheddable submission (``priority > 0``) would push its routed
        target's :meth:`ServedModel.priced_backlog_ms` past this, the
        scheduler first tries to *degrade* -- re-route to a cheaper
        (lower-fidelity / more aggressively pruned) same-shape session
        with headroom -- and only sheds (:class:`AdmissionError`) when
        no target fits.  Class-0 traffic is never shed.
    preempt_priority: arrivals with ``priority <= preempt_priority``
        re-evaluate the flush condition *at submit time* and fire it
        inline instead of waiting for the next :meth:`step` -- without
        it, a premium request landing just after a step waits out the
        caller's step cadence.  ``None`` disables preemption.  Default
        0: only the premium tier preempts.  While the :meth:`start`
        driver runs every arrival wakes it instead (nothing runs inline).
    """

    def __init__(self, clock=None, router=None, batch_window_ms=10.0,
                 latency_budget_ms=None, deadline_margin_ms=0.0,
                 max_events=10_000, priority_tiers=None,
                 admission_capacity_ms=None, preempt_priority=0):
        if priority_tiers is not None:
            priority_tiers = {int(cls): float(ms)
                              for cls, ms in priority_tiers.items()}
            if any(cls < 0 for cls in priority_tiers):
                raise ValueError("priority classes must be >= 0")
            if any(ms <= 0 for ms in priority_tiers.values()):
                raise ValueError("tier deadlines are relative, must be > 0")
        if admission_capacity_ms is not None and admission_capacity_ms <= 0:
            raise ValueError("admission_capacity_ms must be > 0")
        self.clock = clock if clock is not None else SystemClock()
        if not isinstance(self.clock, Clock):
            raise TypeError("clock must be a repro.serving.Clock")
        self.router = router if router is not None else LeastLatencyRouter()
        self.flush_policy = FlushPolicy(batch_window_ms, latency_budget_ms,
                                        deadline_margin_ms)
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 or None")
        self.max_events = max_events
        self.priority_tiers = priority_tiers
        self.admission_capacity_ms = admission_capacity_ms
        self.preempt_priority = preempt_priority
        self.events = []
        self._flush_reasons = {}     # reason -> events logged since start
        self._served = {}
        self.ledger = Ledger(self.clock)   # every admitted request's state
        # _registry_lock guards the _served dict and is only ever held
        # briefly, so submit/routing stays non-blocking while a batch
        # executes; _step_lock serializes flush execution (and is never
        # taken while holding _registry_lock, only the reverse).
        self._registry_lock = threading.Lock()
        self._step_lock = threading.Lock()
        self._ids = itertools.count()
        self._thread = None
        self._stop_event = None
        self._wake = threading.Event()   # an event the driver must see
        self._background_error = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    batch_window_ms = property(lambda self: self.flush_policy.batch_window_ms)
    latency_budget_ms = property(
        lambda self: self.flush_policy.latency_budget_ms)
    deadline_margin_ms = property(
        lambda self: self.flush_policy.deadline_margin_ms)

    def register(self, name, model=None, *, session=None, batch_size=32,
                 policy=None, cost_model=None, max_batch=None,
                 backend="tensor", dtype=None,
                 workers=1, worker_ctx="spawn", learn_cost=False,
                 recovery=None, fault_plan=None):
        """Register a serving target under ``name``.

        Pass either a ready :class:`InferenceSession` or a HeatViT
        ``model`` (a session is built around it; with no explicit
        ``cost_model`` the session calibrates a batch-aware cost model
        from the FPGA simulator for the model's own config).  ``max_batch`` caps images per flush; default is
        the session's ``batch_size``.  ``backend`` / ``dtype`` select
        the session's compute backend (``"fastpath"`` runs the compiled
        fused-kernel path, ``"int8"``/``"int16"`` the quantized
        deployment numerics; see :mod:`repro.engine.fastpath`).  Mixed
        registrations -- the same checkpoint as a float and an int8
        target -- route by cost with fidelity tie-breaks (see
        :mod:`repro.serving.router`).

        ``workers == 1`` runs flushes in-process
        (:class:`repro.serving.InlineTransport`); ``workers >= 2``
        serves the target from a pool of that many executor *processes*
        (:class:`repro.serving.PoolTransport`: balanced shards,
        cost-model placement, self-healing), with results bitwise
        identical to in-process execution.  ``worker_ctx`` picks the
        multiprocessing start method (``"spawn"`` default; either way
        each worker unpickles the session, so a session that does not
        pickle raises here).  Call :meth:`shutdown` (or use the
        scheduler as a context manager) to join the pools
        deterministically.

        ``learn_cost=True`` builds the session with an online cost
        model (:class:`repro.cost.OnlineCostModel` around the resolved
        static model): every flush trigger, budget pop, admission
        check, and routing decision for this target then prices from
        coefficients refit against measured host wall time -- the
        in-process path observes its own ``submit_many`` timings, and
        multi-worker targets additionally fold every worker reply's
        shape + timing into the parent's model.  Prediction only: the
        served bits are unchanged (bucket plans price from the static
        prior).  A ready ``session`` must be built with
        ``learn_cost=True`` itself.

        ``recovery`` (a :class:`repro.serving.RecoveryPolicy`) tunes
        the pool's self-healing; ``fault_plan`` (a
        :class:`repro.serving.FaultPlan`) scripts deterministic worker
        failures -- the chaos-test hook; leave it ``None`` in
        production.  Both apply to multi-worker targets only.
        """
        if (model is None) == (session is None):
            raise ValueError("pass exactly one of model= or session=")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if session is None:
            session = InferenceSession(model, batch_size=batch_size,
                                       policy=policy,
                                       cost_model=cost_model,
                                       backend=backend, dtype=dtype,
                                       learn_cost=learn_cost)
        elif learn_cost and not session.learns_cost:
            raise ValueError(
                "learn_cost=True with a ready session: build the "
                "session with InferenceSession(..., learn_cost=True)")
        max_batch = session.batch_size if max_batch is None else int(max_batch)
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if workers == 1:
            transport = InlineTransport(session)
        else:
            from repro.serving.transport import PoolTransport
            transport = PoolTransport.spawn(
                session, workers, self.clock, ctx=worker_ctx,
                recovery=recovery, fault_plan=fault_plan)
        served = ServedModel(name=name, session=session,
                             max_batch=max_batch, transport=transport)
        with self._registry_lock:
            if name in self._served:
                transport.close()
                raise ValueError(f"session {name!r} already registered")
            self._served[name] = served
        return served

    @property
    def sessions(self):
        """Registered :class:`ServedModel` entries, in registration order."""
        with self._registry_lock:
            return list(self._served.values())

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, images, deadline_ms=None, model=None, priority=None):
        """Accept a request; returns its ``request_id`` without blocking.

        ``images``: one image ``(C, H, W)`` or a stack ``(n, C, H, W)``.
        ``deadline_ms``: optional deadline *relative to now* (finite,
        > 0);
        when omitted and ``priority`` names a configured tier, the
        tier's default deadline applies.
        ``model``: explicit session name; ``None`` lets the router pick
        among the sessions serving this image shape.
        ``priority``: SLO class (lower = more urgent, 0 = premium);
        default :data:`repro.serving.DEFAULT_PRIORITY`.

        Raises ``ValueError`` for malformed input, non-finite pixels
        included, and :class:`AdmissionError` when admission control is
        configured, the request is sheddable, and no eligible target
        has priced-backlog headroom.  On a step-driven scheduler a
        premium arrival (``priority <= preempt_priority``) may execute
        a due flush inline before returning -- worst-case lateness is
        then bounded by execution time, not by the step cadence.
        """
        # Snapshot the registry ONCE under its lock: concurrent
        # register() calls mutate _served, and every later read in this
        # method must see one consistent view of it.
        with self._registry_lock:
            served_by_name = dict(self._served)
        if not served_by_name:
            raise RuntimeError("no sessions registered")
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        if images.ndim != 4 or images.shape[0] < 1:
            raise ValueError(
                "images must be (C, H, W) or (n >= 1, C, H, W); "
                f"got shape {images.shape}")
        if not np.isfinite(images).all():
            # One NaN pixel fails a whole int8 flush (no activation
            # scale can be calibrated on it), taking every co-batched
            # request and the stepping thread with it; a float target
            # would serve it silently.
            raise ValueError("images must be finite (no NaN or Inf)")
        if deadline_ms is not None and not (math.isfinite(deadline_ms)
                                            and deadline_ms > 0):
            # NaN fails every comparison: ``<= 0`` alone would let it
            # into the EDF queue as a deadline no flush can meet.
            raise ValueError("deadline_ms is relative and must be finite "
                             "and > 0")
        if model is not None and model not in served_by_name:
            raise KeyError(f"unknown session {model!r}; registered: "
                           f"{sorted(served_by_name)}")
        priority = DEFAULT_PRIORITY if priority is None else int(priority)
        if priority < 0:
            raise ValueError("priority must be >= 0 (0 = most urgent)")
        if (deadline_ms is None and self.priority_tiers is not None
                and priority in self.priority_tiers):
            deadline_ms = self.priority_tiers[priority]
        now = self.clock.now()
        request_id = next(self._ids)
        request = Request(
            request_id=request_id, images=images, arrival_ms=now,
            deadline_ms=(None if deadline_ms is None
                         else now + float(deadline_ms)),
            priority=priority, model=model)
        if model is not None:
            served = served_by_name[model]
            if images.shape[1:] != served.image_shape:
                raise ValueError(
                    f"session {served.name!r} serves images of shape "
                    f"{served.image_shape}; got {images.shape[1:]}")
            candidates = [served]
        else:
            candidates = [s for s in served_by_name.values()
                          if images.shape[1:] == s.image_shape]
            if not candidates:
                raise ValueError(
                    f"no session serves images of shape {images.shape[1:]}; "
                    f"registered shapes: "
                    f"{sorted({s.image_shape for s in served_by_name.values()})}")
            served = self.router.route(request, candidates, now)
        target = self._admit(request, served, candidates)
        self.ledger.admit(request_id, priority, target.name,
                          degraded=target is not served)
        self._enqueue(target, request)
        if (self._thread is None and self.preempt_priority is not None
                and priority <= self.preempt_priority):
            # Flush preemption: fire what this arrival made due now, under
            # the step lock (a no-op if a concurrent step() flushed first).
            with self._step_lock:
                self._fire_due(target)
        return request_id

    def _enqueue(self, served, request):
        """Queue ``request`` (sorted into EDF position), wake the driver."""
        served.queue.push(request)
        self._wake.set()

    # ------------------------------------------------------------------
    # Admission control: shed or degrade when backlog exceeds capacity
    # ------------------------------------------------------------------
    def _admit(self, request, served, candidates):
        """Admission-check ``request`` against its routed target.

        Returns the target to queue on -- usually ``served``; under
        priced-backlog overload a sheddable request is instead
        *degraded* to the cheapest same-shape session with headroom
        (lower fidelity / lower keep-ratio: the INFaaS move -- serve a
        cheaper variant rather than drop), and shed with
        :class:`AdmissionError` only when nowhere fits.  Premium
        (class-0) traffic is exempt: it always lands on its routed
        target.
        """
        capacity = self.admission_capacity_ms
        if capacity is None or request.priority <= 0:
            return served
        backlog = served.projected_backlog_ms(request.num_images)
        if backlog <= capacity:
            return served
        fitting = []
        for candidate in candidates:
            if candidate is served:
                continue
            projected = candidate.projected_backlog_ms(request.num_images)
            if projected <= capacity:
                fitting.append((candidate.marginal_image_ms,
                                -candidate.fidelity, candidate.name,
                                candidate))
        if fitting:
            return min(fitting)[-1]
        self.ledger.refuse(request.priority)
        raise AdmissionError(
            f"request {request.request_id} (class {request.priority}) "
            f"shed: priced backlog {backlog:.3f} ms exceeds capacity "
            f"{capacity:.3f} ms on every eligible session",
            priority=request.priority, backlog_ms=backlog,
            capacity_ms=capacity)

    def pending_requests(self):
        return sum(len(s.queue) for s in self.sessions)

    def in_flight_batches(self):
        """Shards dispatched to worker pools, awaiting their replies."""
        return sum(s.transport.in_flight for s in self.sessions)

    # ------------------------------------------------------------------
    # Batch formation and execution
    # ------------------------------------------------------------------
    def step(self):
        """Fire every due flush at the current clock time.

        Returns the :class:`RequestResult`\\ s completed by this call
        (also retained for :meth:`wait_result` / :meth:`pop_result`).
        Drive this from a loop -- the simulation harness advances a
        virtual clock between calls; :meth:`start` runs it on a thread.
        """
        completed = []
        with self._step_lock:
            for served in self.sessions:
                completed.extend(self._fire_due(served))
        return completed

    def _fire_due(self, served):
        """Every flush due on ``served`` right now, then a non-blocking
        collect (caller holds the step lock)."""
        completed = []
        while True:
            # Re-read per flush: with a real clock, earlier batches
            # consumed host time, and the flush decision must see it.
            now = self.clock.now()
            reason = self.flush_policy.reason(served, now)
            if reason is None:
                break
            completed.extend(self._execute(served, now, reason))
        # Multi-worker targets complete asynchronously: pick up
        # whatever replies have arrived, without blocking.
        return completed + self._collect(served)

    def flush(self, model=None, wait=True):
        """Force-run everything pending (for ``model``, or everywhere).

        With ``wait=True`` (default) every dispatched shard's results
        are collected before returning.  ``wait=False`` returns what
        finished inside the call -- everything, for an in-process
        target -- and leaves shards sent to workers in flight (pick
        them up via :meth:`step` or :meth:`drain`).
        """
        completed = []
        if model is not None:
            with self._registry_lock:
                if model not in self._served:
                    raise KeyError(f"unknown session {model!r}; "
                                   f"registered: {sorted(self._served)}")
                targets = [self._served[model]]
        with self._step_lock:
            if model is None:
                targets = self.sessions
            for served in targets:
                completed.extend(self._run_down(served, wait=wait))
        return completed

    def drain(self, timeout_ms=None):
        """Run every queued request and every in-flight batch to
        completion; returns the newly completed results.

        The deterministic end-of-stream operation: after it returns,
        no request is queued and no batch is in flight on any worker.
        Worker deaths during the drain are *recovered*, not raised --
        stranded batches re-dispatch to survivors (respawned under the
        supervision budget) and quarantined requests come back as
        failed results.  ``timeout_ms`` bounds each target's run-down
        in host time (``TimeoutError`` on expiry;
        :func:`check_timeout_ms` raises ``ValueError`` for an unusable
        one); ``None`` waits until everything completes or fails
        cleanly.
        """
        if timeout_ms is not None:
            timeout_ms = check_timeout_ms(timeout_ms)
        completed = []
        with self._step_lock:
            for served in self.sessions:
                completed.extend(self._run_down(served, wait=True,
                                                timeout_ms=timeout_ms))
        return completed

    def _run_down(self, served, wait, timeout_ms=None):
        """Dispatch everything queued on ``served``; with ``wait``,
        alternate dispatch and collect (recovery included) until
        nothing is queued or in flight.

        The alternation is what makes run-down converge under
        failures: a dispatch round may find every eligible worker
        saturated (shards bounce back to the queue) or lose a worker
        mid-burst (recovery requeues its batches), and the following
        collect frees capacity, respawns, or fails quarantined
        requests -- the per-request retry budget bounds how often any
        request can cycle, so the loop terminates.  A queue blocked on
        a respawn backoff loops no faster than the collect's poll wait:
        the transport waits while no worker can take a shard.
        """
        completed = []
        deadline = (None if timeout_ms is None
                    else time.monotonic() + timeout_ms / 1e3)
        while True:
            while len(served.queue):
                before = len(served.queue)
                completed.extend(self._execute(served, self.clock.now(),
                                               "forced"))
                if len(served.queue) >= before:
                    break           # saturated: shards bounced back
            if not wait:
                break
            transport = served.transport
            completed.extend(self._collect(served, block=True,
                                           deadline=deadline))
            if not len(served.queue) and not transport.in_flight:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"{transport.in_flight} in-flight batch(es) and "
                    f"{len(served.queue)} queued request(s) on "
                    f"{served.name!r} not completed in {timeout_ms} ms")
        return completed

    def _log_event(self, event):
        self._flush_reasons[event.reason] = (
            self._flush_reasons.get(event.reason, 0) + 1)
        self.events.append(event)
        if (self.max_events is not None
                and len(self.events) > self.max_events):
            del self.events[:len(self.events) - self.max_events]

    def stats(self):
        """Serving telemetry snapshot (what ``GET /stats`` reports).

        Per-session queue depth / priced backlog / in-flight batches,
        per-priority-class admission and deadline counters (with the
        derived ``deadline_hit_rate`` over deadline-carrying completions),
        and a histogram of flush-trigger reasons over every
        :class:`FlushEvent` logged since the scheduler started (kept up
        to date as events are logged, so it is not limited to the
        ``max_events`` tail that ``events`` retains).
        """
        sessions = {}
        for served in self.sessions:
            entry = {
                "queued_requests": len(served.queue),
                "queued_images": served.queue.pending_images,
                "priced_backlog_ms": served.priced_backlog_ms(),
                "in_flight_batches": served.transport.in_flight,
                "backend": served.session.backend,
                "fidelity": served.fidelity,
                "workers": (served.pool.num_workers
                            if served.pool is not None else 1),
                "recovery": dict(served.recovery),
            }
            if served.pool is not None:
                entry["degraded"] = served.degraded
                entry["fleet"] = served.pool.supervision_snapshot()
            sessions[served.name] = entry
        return {
            "sessions": sessions,
            "classes": self.ledger.classes(),
            "flush_reasons": dict(self._flush_reasons),
            "num_events": len(self.events),
            "pending_results": self.ledger.pending_results,
            "admission_capacity_ms": self.admission_capacity_ms,
            "priority_tiers": (dict(self.priority_tiers)
                               if self.priority_tiers else None),
            "preempt_priority": self.preempt_priority,
        }

    def _execute(self, served, now, reason):
        """Run one flush: pop the batch, hand it to the transport, log
        one :class:`FlushEvent` per shard it accepted, requeue what
        bounced.  Returns the results of shards that finished inside
        the dispatch -- an in-process batch always has; the rest arrive
        via :meth:`_collect`."""
        requests = served.queue.pop_batch(
            max_images=served.max_batch,
            latency_budget_ms=self.latency_budget_ms,
            batch_cost_ms=served.batch_cost_ms)
        shards, bounced, error = served.transport.dispatch(requests, now)
        for shard in shards:
            for request in shard.requests:
                self.ledger.move(request.request_id, IN_FLIGHT)
            self._log_event(FlushEvent(
                time_ms=now, session=served.name, reason=reason,
                request_ids=[r.request_id for r in shard.requests],
                num_images=sum(r.num_images for r in shard.requests),
                estimated_ms=shard.estimated_ms,
                carried_requests=len(served.queue),
                worker=shard.worker))
        for request in bounced:
            self._enqueue(served, request)
        if error is not None:
            raise error
        return [result for shard in shards if shard.arrays is not None
                for result in self._deliver(served, shard.requests,
                                            shard.arrays)]

    def _collect(self, served, block=False, deadline=None):
        """Poll the transport and deliver what it finished; requeue or
        quarantine what it lost.

        Non-blocking by default; ``block=True`` waits until no shard of
        this target is in flight (a transport's recovery may hand
        requests back as lost -- the caller's run-down loop
        re-dispatches them) or the caller's host-time ``deadline``
        (``time.monotonic()`` seconds) passes.
        """
        transport, completed = served.transport, []
        while True:
            finished, lost = transport.poll(
                timeout_s=0.05 if block else 0.0)
            for requests, arrays in finished:
                completed.extend(self._deliver(served, requests, arrays))
            for requests, why in lost:
                completed.extend(self._requeue_recovered(
                    served, requests, f"{why} on {served.name!r}"))
            idle = not finished and not lost
            expired = deadline is not None and time.monotonic() > deadline
            if not transport.in_flight or (idle and (expired or not block)):
                break
        return completed

    def _deliver(self, served, requests, arrays):
        """The one success path: slice a finished shard's ``arrays``
        per request (rows are contiguous, in ``requests`` order), stamp
        completion at the scheduler clock *now* -- after execution, on
        every transport -- then file them in the ledger."""
        now = self.clock.now()
        completed, offset = [], 0
        for request in requests:
            rows = slice(offset, offset + request.num_images)
            offset += request.num_images
            completed.append(RequestResult(
                request_id=request.request_id,
                logits=arrays.logits[rows],
                latency_ms=arrays.latency_ms[rows],
                session=served.name,
                arrival_ms=request.arrival_ms,
                completed_ms=now,
                deadline_ms=request.deadline_ms,
                priority=request.priority,
                tokens_per_stage=[stage[rows] for stage in
                                  arrays.tokens_per_stage]))
        self.ledger.finish(completed)
        return completed

    def _requeue_recovered(self, served, requests, why):
        """Route requests whose execution the transport lost: back onto
        the queue while their retry budget lasts, else a clean failure.
        Returns the failed results.

        Each loss costs a request one unit of its retry budget; over
        budget is the **poison quarantine** -- the request is failed
        cleanly to its caller (some batches *cause* crashes, and
        re-dispatching one forever would grind the fleet down worker
        by worker).  Expired sheddable requests fail through the shed
        accounting instead of being silently served late.
        """
        policy, counters = served.transport.policy, served.recovery
        now = self.clock.now()
        failed = []
        for request in requests:
            request.retries += 1
            if request.retries > policy.max_request_retries:
                counters["failed_requests"] += 1
                shed, error = False, (
                    f"{why}; re-dispatch budget "
                    f"({policy.max_request_retries}) exhausted -- "
                    f"poison-batch quarantine")
            elif (request.priority > 0 and request.deadline_ms is not None
                    and now > request.deadline_ms):
                counters["shed_on_recovery"] += 1
                shed, error = True, (
                    f"{why}; deadline passed during recovery, shed")
            else:
                self.ledger.move(request.request_id, QUEUED)
                self._enqueue(served, request)
                counters["redispatched_requests"] += 1
                continue
            # The terminal answer owed to a caller recovery cannot serve.
            failed.append(RequestResult(
                request_id=request.request_id, logits=None, latency_ms=None,
                session=served.name, arrival_ms=request.arrival_ms,
                completed_ms=now, deadline_ms=request.deadline_ms,
                priority=request.priority, error=error))
            self.ledger.finish(failed[-1:], shed=shed)
        return failed

    # ------------------------------------------------------------------
    # Result retrieval
    # ------------------------------------------------------------------
    def pop_result(self, request_id):
        """Deliver a finished result, or ``None`` if there is none to
        deliver (pending, already delivered, evicted, never issued)."""
        return self.ledger.take(request_id)

    def wait_result(self, request_id, timeout_ms=None):
        """Block until ``request_id`` completes (background-thread mode).

        Raises ``TimeoutError`` after ``timeout_ms`` (``None`` waits
        forever; :func:`check_timeout_ms` raises ``ValueError`` for an
        unusable one), ``RuntimeError`` if the background stepping
        thread died -- waiters are woken instead of hanging on a flush
        that can never fire -- or ``KeyError`` if no result can ever
        come (id never issued, already collected, or evicted
        uncollected).  With
        a step-driven scheduler, something must call :meth:`step` or
        :meth:`flush` concurrently, or no flush ever fires.
        """
        timeout = (None if timeout_ms is None
                   else check_timeout_ms(timeout_ms) / 1e3)
        with self.ledger.cond:
            self.ledger.cond.wait_for(
                lambda: (not self.ledger.live(request_id)
                         or self._background_error is not None),
                timeout=timeout)
            result = self.ledger.take(request_id)
            if result is not None:
                return result
            if self._background_error is not None:
                raise RuntimeError("scheduler background thread died"
                                   ) from self._background_error
            if not self.ledger.live(request_id):
                raise KeyError(f"no result held for request {request_id}")
            raise TimeoutError(
                f"request {request_id} not completed in {timeout_ms} ms")

    # ------------------------------------------------------------------
    # Background driver (real-clock serving)
    # ------------------------------------------------------------------
    @property
    def running(self):
        """Whether :meth:`start` has been called with no :meth:`stop`
        since (the background stepping thread belongs to someone)."""
        return self._thread is not None

    def start(self, poll_ms=1.0):
        """Run :meth:`step` on a daemon thread on every wake (``submit``,
        a re-queue, :meth:`stop`) and at the next due instant of a time
        rule.  ``poll_ms`` is the reply-poll cadence, used only while a
        pooled target has shards in flight or no worker to give one to;
        an idle pool is not polled (a worker that died idle is respawned
        by the sweep of the next step an event triggers)."""
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        stop = self._stop_event = threading.Event()
        self._background_error = None

        def loop():
            while not stop.is_set():
                # Clear BEFORE stepping: an event landing mid-step
                # leaves the flag set, so no wake is ever lost.
                self._wake.clear()
                try:
                    self.step()
                except Exception as exc:       # surface, don't hang waiters
                    with self.ledger.cond:
                        self._background_error = exc
                        self.ledger.notify()
                    return
                self._wake.wait(self._sleep_s(poll_ms))

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="repro-serving-scheduler")
        self._thread.start()

    def _sleep_s(self, poll_ms):
        """Seconds the driver may sleep if no event wakes it: until the
        earliest time rule is due, at most ``poll_ms`` while a pool is busy
        or has no worker free, ``None`` (no limit) otherwise."""
        now, waits = self.clock.now(), []
        for served in self.sessions:
            transport = served.transport
            if transport.in_flight or not transport.has_capacity():
                waits.append(poll_ms)
            due_ms = self.flush_policy.next_due_ms(served)
            if due_ms is not None:
                waits.append(max(due_ms - now, 0.0))
        return min(waits) / 1e3 if waits else None

    def stop(self, drain=True):
        """Stop the background thread; by default run remaining requests
        (queued *and* in flight on worker pools) to completion."""
        if self._thread is None:
            return []
        self._stop_event.set()
        self._wake.set()
        self._thread.join()
        self._thread = None
        self._stop_event = None
        return self.drain() if drain else []

    def shutdown(self, drain=True):
        """Graceful end of life, deterministic and idempotent.

        Joins the background stepping thread (if running), runs every
        queued request and in-flight batch to completion (``drain=True``
        default), then joins every worker pool's processes.  After it
        returns no scheduler thread or executor process is alive --
        what tests assert to guarantee no daemon-thread or process
        leaks.  Returns the drained results.  The scheduler remains
        usable for in-process targets afterwards, but multi-worker
        targets are closed for good.
        """
        results = self.stop(drain=False)
        if drain:
            results = results + self.drain()
        for served in self.sessions:
            served.transport.close()
        return results

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown(drain=exc_type is None)
