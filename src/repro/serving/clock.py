"""Clock abstraction for the request scheduler, in **milliseconds**
(the unit of the paper's Table IV latencies).

**The rule.**  Every time verdict above the pool seam (what
:class:`repro.serving.PoolTransport` asks of its ``WorkerPool``) reads
the scheduler's injected clock: flush windows, request deadlines,
placement tickets, ledger stamps and the hung-batch verdict.  So tests
drive a :class:`VirtualClock` through flush timing, deadlines and hung
workers exactly, with no real sleeps (``tests/serving/harness.py``).
Host time stays in the ``WorkerPool``, which waits on OS processes (a
frozen virtual clock must not stall a real one), and in the bounds a
caller blocks on: ``wait_result``'s and ``drain``'s ``timeout_ms``.
"""

from __future__ import annotations

import time

__all__ = ["Clock", "SystemClock", "VirtualClock"]


class Clock:
    """Monotonic time source in milliseconds."""

    def now(self):
        raise NotImplementedError


class SystemClock(Clock):
    """Real monotonic time (``time.monotonic``), in milliseconds."""

    def now(self):
        return time.monotonic() * 1e3


class VirtualClock(Clock):
    """Manually-advanced time for deterministic serving simulations."""

    def __init__(self, start_ms=0.0):
        self._now = float(start_ms)

    def now(self):
        return self._now

    def advance(self, delta_ms):
        if delta_ms < 0:
            raise ValueError("time cannot go backwards")
        self._now += float(delta_ms)
        return self._now
