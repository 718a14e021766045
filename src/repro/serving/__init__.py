"""Serving layer: async deadline-aware scheduling over the engine.

Builds the request-level serving story on top of
:mod:`repro.engine`'s bucketed batch execution:

* :class:`Scheduler` -- non-blocking ``submit``, deadline-aware batch
  formation priced by each session's batch-aware
  :class:`repro.cost.CostModel` (Eq. 18 marginals + calibrated
  per-batch overhead), remainder carry-over between bursts, multi-model
  routing, and one flush path for every target: pop -> dispatch on
  the target's transport -> collect -> deliver;
* the flush rules (:mod:`repro.serving.flush`) -- *when* a target's
  pending requests become a batch: capacity / budget / deadline
  triggers plus a hold of the oldest request, at most
  ``batch_window_ms`` and no longer than the per-batch overhead the
  wait could save;
* transports -- where a popped batch runs: :class:`InlineTransport`
  (synchronously, on the parent's session) or :class:`PoolTransport`
  (sharded across executor processes; owns placement, the in-flight
  table and recovery, and swaps to an inline transport when its fleet
  is lost);
* :class:`RequestQueue` -- EDF-ordered pending requests with
  capacity/budget-capped batch popping;
* routers -- :class:`LeastLatencyRouter` (fastest session that meets
  the deadline) and :class:`HighestFidelityRouter` (most accurate
  session that meets the deadline, numerics grade included: cost ties
  between float and quantized replicas break toward the higher
  :func:`backend_fidelity`);
* clocks -- all serving time is in milliseconds;
  :class:`VirtualClock` makes scheduler behavior exactly simulable
  (``tests/serving/harness.py``);
* multi-worker fan-out -- :class:`WorkerPool` executor processes
  (spawn-safe via :class:`repro.engine.SessionSpec`) with
  :class:`PlacementPolicy` load-first placement priced by one learned
  batch law per worker (``Scheduler.register(..., workers=N)`` builds the
  :class:`PoolTransport`);
* self-healing -- supervision with bounded backoff respawns
  (:class:`RecoveryPolicy`), heartbeat liveness, hung-worker dispatch
  deadlines, stranded-batch re-dispatch with per-request retry budgets
  and poison quarantine, graceful in-process degradation, and the
  deterministic chaos harness (:class:`FaultPlan` /
  :class:`FaultSpec`) plus the shared :class:`RetryPolicy` backoff
  contract;
* SLO tiers and overload behavior -- priority classes mapped to
  deadline tiers (``Scheduler(priority_tiers=...)``), priced-backlog
  admission control that degrades to cheaper sessions or sheds
  (:class:`AdmissionError`), and flush preemption for premium
  arrivals;
* the network face -- :class:`FrontDoor` (asyncio HTTP/JSON server:
  submit / poll / await / health / stats) with
  :class:`FrontDoorClient`, and :mod:`repro.serving.trace` replayable
  workload traces plus the load-generator :func:`replay`.
"""

from repro.serving.clock import Clock, SystemClock, VirtualClock
from repro.serving.faults import FaultPlan, FaultSpec
from repro.serving.http import FrontDoor, FrontDoorClient
from repro.serving.placement import Placement, PlacementPolicy
from repro.serving.queue import RequestQueue
from repro.serving.request import DEFAULT_PRIORITY, Request, RequestResult
from repro.serving.router import (BACKEND_FIDELITY, HighestFidelityRouter,
                                  LeastLatencyRouter, Router,
                                  backend_fidelity, request_cost_ms)
from repro.serving.scheduler import (AdmissionError, FlushEvent, Scheduler,
                                     ServedModel)
from repro.serving.retry import RetryPolicy
from repro.serving.trace import (TraceRequest, adversarial_trace,
                                 bursty_trace, replay, synth_images,
                                 two_tier_trace, uniform_trace)
from repro.serving.transport import InlineTransport, PoolTransport
from repro.serving.worker import (RecoveryPolicy, WorkerDiedError,
                                  WorkerPool, WorkerReply, worker_payload)

__all__ = [
    "Clock", "SystemClock", "VirtualClock",
    "Request", "RequestResult", "RequestQueue", "DEFAULT_PRIORITY",
    "Router", "LeastLatencyRouter", "HighestFidelityRouter",
    "request_cost_ms", "backend_fidelity", "BACKEND_FIDELITY",
    "Scheduler", "ServedModel", "FlushEvent", "AdmissionError",
    "InlineTransport", "PoolTransport",
    "Placement", "PlacementPolicy",
    "WorkerPool", "WorkerReply", "worker_payload",
    "WorkerDiedError", "RecoveryPolicy", "RetryPolicy",
    "FaultPlan", "FaultSpec",
    "FrontDoor", "FrontDoorClient",
    "TraceRequest", "synth_images",
    "uniform_trace", "bursty_trace", "adversarial_trace",
    "two_tier_trace", "replay",
]
