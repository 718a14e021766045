"""Serving layer: async deadline-aware scheduling over the engine.

A request's life, all of it in the scheduler's
:class:`~repro.serving.ledger.Ledger` (one entry per id, one clock stamp
per move): :meth:`Scheduler.submit` issues an id and admits it --
*queued*, after routing (:class:`LeastLatencyRouter`,
:class:`HighestFidelityRouter`) and admission control, which may
degrade it to a cheaper session or shed it (:class:`AdmissionError`;
a shed id gets no entry).  A flush (:mod:`repro.serving.flush`:
capacity / budget / deadline, or a hold of the oldest request bounded
by the per-batch overhead it could save) pops an EDF batch from the
session's :class:`RequestQueue` and hands it to the session's
transport -- *in flight* -- in-process (:class:`InlineTransport`) or
sharded across self-healing executor processes
(:class:`PoolTransport` over a :class:`WorkerPool`, placed by
:class:`PlacementPolicy`).  The batch comes back *completed*; a request
a worker loss stranded goes back to *queued* until its retry budget
(:class:`RecoveryPolicy`) runs out and it ends *failed*.  Collecting
the result (``pop_result`` / ``wait_result``, or ``GET
/v1/result/<id>`` on the :class:`FrontDoor`) makes it *delivered*,
once.  The 65 536 most recently finished entries are kept; older ones
are evicted and their ids read as never issued.

Also here: millisecond clocks (:class:`VirtualClock` makes all of it
exactly simulable, ``tests/serving/harness.py``); SLO priority tiers
and flush preemption; the chaos harness (:class:`FaultPlan` /
:class:`FaultSpec`) and the shared :class:`RetryPolicy`; and
:mod:`repro.serving.trace` replayable workload traces with the
load-generator :func:`replay` over :class:`FrontDoorClient`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Clock", "SystemClock", "VirtualClock",
    "Request", "RequestResult", "RequestQueue", "DEFAULT_PRIORITY",
    "Router", "LeastLatencyRouter", "HighestFidelityRouter",
    "request_cost_ms", "backend_fidelity", "BACKEND_FIDELITY",
    "Scheduler", "ServedModel", "FlushEvent", "AdmissionError",
    "InlineTransport", "PoolTransport",
    "Placement", "PlacementPolicy",
    "WorkerPool", "WorkerReply",
    "WorkerDiedError", "RecoveryPolicy", "RetryPolicy",
    "FaultPlan", "FaultSpec",
    "FrontDoor", "FrontDoorClient",
    "TraceRequest", "synth_images",
    "uniform_trace", "bursty_trace", "adversarial_trace",
    "two_tier_trace", "replay",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "clock": ("Clock", "SystemClock", "VirtualClock"),
    "faults": ("FaultPlan", "FaultSpec"),
    "http": ("FrontDoor", "FrontDoorClient"),
    "placement": ("Placement", "PlacementPolicy"),
    "queue": ("RequestQueue",),
    "request": ("DEFAULT_PRIORITY", "Request", "RequestResult"),
    "router": ("BACKEND_FIDELITY", "HighestFidelityRouter",
               "LeastLatencyRouter", "Router", "backend_fidelity",
               "request_cost_ms"),
    "scheduler": ("AdmissionError", "FlushEvent", "Scheduler", "ServedModel"),
    "retry": ("RetryPolicy",),
    "trace": ("TraceRequest", "adversarial_trace", "bursty_trace", "replay",
              "synth_images", "two_tier_trace", "uniform_trace"),
    "transport": ("InlineTransport", "PoolTransport"),
    "worker": ("RecoveryPolicy", "WorkerDiedError", "WorkerPool",
               "WorkerReply"),
})
