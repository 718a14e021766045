"""Bounded, jittered retry policy shared across the serving stack.

One :class:`RetryPolicy` describes "try again, but not forever": a
total attempt budget and an exponential backoff schedule with
deterministic jitter.  Two consumers share it so both retry loops in
the serving layer obey the same contract:

* :class:`repro.serving.FrontDoorClient` retries transport errors
  (connection resets, closed keep-alive sockets) with backoff between
  attempts;
* the :class:`repro.serving.WorkerPool` supervisor spaces worker
  respawns with it (a crash-looping worker must not be restarted in a
  hot loop).

The per-request re-dispatch allowance after worker losses is a plain
count, :attr:`repro.serving.RecoveryPolicy.max_request_retries`: no
backoff applies to it, since a lost request goes back onto the queue.

Jitter is deterministic: ``delay_s(attempt, seed)`` hashes the seed and
attempt into a stable perturbation, so tests assert exact schedules and
two clients with different seeds still de-synchronize their retries
(no thundering herd after a shared failure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget plus exponential-backoff-with-jitter schedule.

    Parameters
    ----------
    attempts: total tries, the first one included (``attempts=3`` means
        one initial try plus up to two retries).
    backoff_base_s: delay before the first retry; doubles per retry.
    backoff_max_s: cap on any single delay.
    jitter: fraction of each delay randomized (``0.25`` perturbs the
        nominal delay by up to +/-25%, deterministically from the seed).
    """

    attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.25

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_s(self, attempt, seed=0):
        """Backoff before retry number ``attempt`` (0-based): capped
        exponential, deterministically jittered by ``(seed, attempt)``.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        nominal = min(self.backoff_base_s * (2.0 ** attempt),
                      self.backoff_max_s)
        if self.jitter == 0.0 or nominal == 0.0:
            return nominal
        unit = random.Random((int(seed) << 16) ^ int(attempt)).random()
        return nominal * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def call(self, fn, *, retry_on, seed=0, sleep=None, on_retry=None):
        """Run ``fn`` under this policy.

        Retries when ``fn`` raises one of the ``retry_on`` exception
        types, sleeping ``delay_s`` between attempts (``sleep``
        overrides ``time.sleep`` for tests).  The final attempt's
        exception propagates.  ``on_retry(attempt, exc)`` observes each
        retry (the client resets its connection there).
        """
        import time as _time

        sleep = _time.sleep if sleep is None else sleep
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on as exc:
                if on_retry is not None:
                    on_retry(attempt, exc)
                if attempt + 1 >= self.attempts:
                    raise
                delay = self.delay_s(attempt, seed=seed)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable")          # pragma: no cover
