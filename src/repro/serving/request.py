"""Request and result records for the serving scheduler.

A :class:`Request` is one client submission: a small stack of images
(often a single one) with an optional **absolute** deadline, a priority
class, and an optional explicit model name.  The scheduler coalesces
many requests into one bucketed batch; each request gets back a
:class:`RequestResult` carrying its own logits rows, the per-image
Eq. 18 latency estimates, and the timing bookkeeping needed to audit
deadline behavior.

Priority classes are small non-negative integers, **lower is more
urgent**: class 0 is the premium tier (eligible for flush preemption
and exempt from admission shedding), higher classes are progressively
more sheddable.  The scheduler can map classes to default deadline
tiers (``Scheduler(priority_tiers=...)``), so clients express an SLO
by class alone.

Both records are ``eq=False`` dataclasses on purpose: the generated
field-wise ``__eq__`` would compare the numpy ``images``/``logits``
arrays and raise ``ValueError: the truth value of an array ...`` as
soon as two *distinct* requests are compared (``request in list`` hits
exactly that).  Identity semantics are the correct ones here -- every
request is a unique submission even when its payload bytes repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Request", "RequestResult", "DEFAULT_PRIORITY"]

#: Priority class assigned when a submission does not name one.  Class
#: 0 is deliberately *not* the default: the premium tier must be
#: opted into, so plain traffic never preempts or starves it.
DEFAULT_PRIORITY = 1


@dataclass(eq=False)
class Request:
    """One pending client submission.

    ``images``: ``(n, C, H, W)`` array, ``n >= 1``.
    ``arrival_ms``: scheduler-clock time the request was accepted.
    ``deadline_ms``: absolute clock time the response is due, or
        ``None`` for best-effort requests.
    ``priority``: SLO class (lower is more urgent; 0 = premium).
    ``model``: explicit session name, or ``None`` to let the router
        choose.
    ``retries``: re-dispatches consumed recovering this request from
        worker losses (mutable bookkeeping; deliberately *not* part of
        the EDF ordering key, so recovery never reorders the queue).
    """

    request_id: int
    images: np.ndarray
    arrival_ms: float
    deadline_ms: float = None
    priority: int = DEFAULT_PRIORITY
    model: str = None
    retries: int = 0

    @property
    def num_images(self):
        return int(self.images.shape[0])

    def time_to_deadline(self, now_ms):
        """Milliseconds of slack left; ``inf`` for best-effort requests."""
        if self.deadline_ms is None:
            return float("inf")
        return self.deadline_ms - now_ms


@dataclass(eq=False)
class RequestResult:
    """One completed request.

    ``logits`` / ``latency_ms`` are this request's rows of the batch
    result (``(n, num_classes)`` and ``(n,)``).  ``session`` names the
    :class:`repro.engine.InferenceSession` that executed it (the routing
    decision); ``completed_ms`` is the scheduler-clock time the result
    was delivered -- after the batch executed, wherever it ran.

    A request the recovery layer gave up on (poison quarantine: its
    batches exhausted the re-dispatch budget, or it was shed after a
    worker loss) still gets a result -- one with ``error`` set and no
    ``logits``.  Callers check :attr:`failed` before touching the
    payload; serving a clean failure beats hanging a client forever.
    """

    request_id: int
    logits: np.ndarray
    latency_ms: np.ndarray
    session: str
    arrival_ms: float
    completed_ms: float
    deadline_ms: float = None
    priority: int = DEFAULT_PRIORITY
    tokens_per_stage: list = field(default_factory=list)
    error: str = None

    @property
    def failed(self):
        """Whether the recovery layer failed this request cleanly
        instead of completing it."""
        return self.error is not None

    @property
    def predictions(self):
        if self.logits is None:
            return None
        return self.logits.argmax(axis=-1)

    @property
    def wait_ms(self):
        """Arrival to completion: queueing plus the batch's execution."""
        return self.completed_ms - self.arrival_ms

    @property
    def deadline_met(self):
        return (self.deadline_ms is None
                or self.completed_ms <= self.deadline_ms)

    @property
    def overshoot_ms(self):
        """How far past the deadline completion landed (0 when met)."""
        if self.deadline_ms is None:
            return 0.0
        return max(0.0, self.completed_ms - self.deadline_ms)
