"""Replayable serving traces: generators and load replay.

A trace is a list of :class:`TraceRequest` records -- *when* a request
arrives, how many images it carries, its SLO (deadline or priority
tier), and a seed from which its image payload is synthesized
deterministically.  A trace is fully determined by ``(generator,
arguments, seed)``, so the exact same workload replays across
processes, machines, and PRs without a file format.

Generators cover the workload shapes the serving story cares about:

* :func:`uniform_trace` -- a steady stream at a fixed period;
* :func:`bursty_trace` -- bursts of simultaneous arrivals that stress
  batch formation, carry-over, and admission control;
* :func:`adversarial_trace` -- premium (class-0) requests landing
  mid-window behind best-effort backlog: the flush-preemption stress;
* :func:`two_tier_trace` -- the admission-control shape: a steady
  premium stream riding on bursty bulk traffic heavy enough to trip
  admission control.

Image payloads come from :func:`synth_images`: a deterministic
standard-normal stack keyed by the request seed, so a trace fully
determines the pixels without carrying them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.serving.request import DEFAULT_PRIORITY

__all__ = ["TraceRequest", "synth_images", "uniform_trace", "bursty_trace",
           "adversarial_trace", "two_tier_trace", "replay"]


@dataclass(eq=False)
class TraceRequest:
    """One scripted submission.

    ``at_ms`` is the arrival time from trace start; ``deadline_ms`` is
    *relative* to arrival (``None`` defers to the scheduler's priority
    tier, if any).  ``seed`` keys the deterministic image payload.
    """

    at_ms: float
    num_images: int = 1
    seed: int = 0
    deadline_ms: float = None
    priority: int = DEFAULT_PRIORITY
    model: str = None

    def images(self, image_shape, dtype=np.float64):
        """This request's deterministic ``(n, C, H, W)`` payload."""
        return synth_images((self.num_images,) + tuple(image_shape),
                            self.seed, dtype=dtype)


def synth_images(shape, seed, dtype=np.float64):
    """Deterministic standard-normal image stack for a trace seed."""
    return np.random.default_rng(int(seed)).standard_normal(
        shape).astype(dtype, copy=False)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def uniform_trace(*, num_requests, period_ms, num_images=1,
                  deadline_ms=None, priority=DEFAULT_PRIORITY, model=None,
                  start_ms=0.0, seed=0):
    """A steady stream: one request every ``period_ms``."""
    return [TraceRequest(at_ms=start_ms + i * period_ms,
                         num_images=num_images, seed=seed + i,
                         deadline_ms=deadline_ms, priority=priority,
                         model=model)
            for i in range(num_requests)]


def bursty_trace(*, burst_times_ms, burst_size, num_images=1,
                 deadline_ms=None, priority=DEFAULT_PRIORITY, model=None,
                 seed=0):
    """Bursts of ``burst_size`` simultaneous requests at scripted times."""
    trace = []
    for at_ms in burst_times_ms:
        for _ in range(burst_size):
            trace.append(TraceRequest(
                at_ms=float(at_ms), num_images=num_images,
                seed=seed + len(trace), deadline_ms=deadline_ms,
                priority=priority, model=model))
    return trace


def adversarial_trace(*, window_ms, num_windows=8, backlog_size=4,
                      premium_deadline_ms=None, premium_offset_ms=None,
                      seed=0):
    """Premium arrivals landing mid-window behind best-effort backlog.

    Each window opens with ``backlog_size`` best-effort requests (they
    alone would coast to the window flush), then a single class-0
    request arrives mid-window with a deadline much tighter than the
    time left in the window.  Without flush preemption its lateness is
    bounded only by ``batch_window_ms``; with it, by execution time
    plus the deadline margin.
    """
    premium_offset_ms = (window_ms / 2 if premium_offset_ms is None
                         else premium_offset_ms)
    premium_deadline_ms = (window_ms / 8 if premium_deadline_ms is None
                           else premium_deadline_ms)
    trace = []
    for window in range(num_windows):
        base = window * (2.0 * window_ms)
        for _ in range(backlog_size):
            trace.append(TraceRequest(at_ms=base, seed=seed + len(trace),
                                      priority=DEFAULT_PRIORITY))
        trace.append(TraceRequest(at_ms=base + premium_offset_ms,
                                  seed=seed + len(trace),
                                  deadline_ms=premium_deadline_ms,
                                  priority=0))
    return trace


def two_tier_trace(*, duration_ms, premium_period_ms, bulk_burst_size,
                   bulk_burst_period_ms, premium_deadline_ms=None,
                   bulk_deadline_ms=None, num_images=1, seed=0):
    """The admission-control shape: premium stream + bursty bulk.

    A class-0 stream arrives every ``premium_period_ms``; class-1 bulk
    arrives in bursts of ``bulk_burst_size`` every
    ``bulk_burst_period_ms``.  Size the bursts so the priced bulk
    backlog exceeds the admission capacity and the scheduler must
    degrade or shed class 1 while class 0 keeps hitting its deadlines.
    """
    trace = uniform_trace(
        num_requests=max(1, int(duration_ms / premium_period_ms)),
        period_ms=premium_period_ms, num_images=num_images,
        deadline_ms=premium_deadline_ms, priority=0, seed=seed)
    burst_times = np.arange(0.0, duration_ms, bulk_burst_period_ms)
    trace += bursty_trace(
        burst_times_ms=burst_times.tolist(), burst_size=bulk_burst_size,
        num_images=num_images, deadline_ms=bulk_deadline_ms, priority=1,
        seed=seed + 100_000)
    return sorted(trace, key=lambda r: (r.at_ms, r.priority))


# ----------------------------------------------------------------------
# Replay (the load generator core)
# ----------------------------------------------------------------------
def replay(trace, submit, *, speed=1.0, sleep=time.sleep,
           clock=time.monotonic):
    """Drive ``submit(trace_request)`` at the trace's arrival times.

    Real-time load generation: request *i* is submitted once
    ``at_ms / speed`` milliseconds have elapsed since the replay
    started (``speed > 1`` compresses the trace).  ``submit`` is any
    callable -- an HTTP client post, a direct ``Scheduler.submit``
    wrapper -- and its return value is collected per request;
    exceptions are collected too (admission sheds surface as values,
    not aborts).  Returns ``[(trace_request, outcome), ...]`` in
    submission order, where an outcome is the submit return or the
    raised exception.
    """
    if speed <= 0:
        raise ValueError("speed must be > 0")
    ordered = sorted(trace, key=lambda r: r.at_ms)
    start = clock()
    outcomes = []
    for request in ordered:
        due = start + request.at_ms / speed / 1e3
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        try:
            outcomes.append((request, submit(request)))
        except Exception as exc:
            outcomes.append((request, exc))
    return outcomes
