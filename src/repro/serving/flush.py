"""Flush policy: *when* a target's pending requests become a batch.

The :class:`repro.serving.Scheduler` owns queues, transports and
results; the decision to run what is queued lives here.  A flush fires
for the first of four triggers, priced by the target's batch-aware
:class:`repro.cost.CostModel` (``ServedModel.batch_cost``):

* **capacity** -- pending images reach the target's ``max_batch``;
* **budget** -- the pending batch's estimated execution latency reaches
  ``latency_budget_ms`` (collect requests *up to* a budget, then run);
* **deadline** -- the earliest queued deadline would no longer survive
  the batch's estimated execution time plus ``deadline_margin_ms``;
* **window** -- the oldest queued request has been *held* as long as
  holding can pay (below).

None fires while the transport has nowhere to run a batch
(back-pressure): the queue keeps absorbing arrivals and the next
collect frees capacity.

**The hold.**  Waiting for company saves engine time only by sharing
one launch: two requests flushed together pay one per-batch overhead
instead of two.  So a wait of ``w`` ms can save at most one
``overhead_ms`` of engine time, and at one request-millisecond per
engine-millisecond a hold longer than the overhead never pays.  The
oldest request is therefore held for ``min(batch_window_ms,
overhead_ms)`` -- the window is an *upper bound* -- and a zero-overhead
cost model holds nothing.  In plain terms: where the cost model prices
a launch at a small fraction of a millisecond (0.085 ms on the
benchmark suite's model, the only regime the suite measures), a request
is flushed as soon as the transport can take it, and what batches
requests is the engine being busy; the hold is visible only under a
cost model that prices a launch in milliseconds.  Measured on
``http_open`` (80 req/s Poisson) while sizing this: holds of 0 / 4 /
8 ms gave p50 9.3 / 13.4 / 17.2 ms for +16 / +12 / +9 % CPU per image --
arrivals a mean 12.5 ms apart do not coalesce inside a few ms.

The two *time* rules (deadline, window) are each one instant computed
from the queue -- ``reason`` fires a rule once ``now`` reaches it and
``next_due_ms`` reports the earliest of the same instants, so a driver
that sleeps until ``next_due_ms`` wakes exactly when ``reason`` turns
true and never needs to poll.
"""

from __future__ import annotations

__all__ = ["FlushPolicy"]


class FlushPolicy:
    """The scheduler's flush rules over its three limits (one per
    scheduler, built by it)."""

    def __init__(self, batch_window_ms, latency_budget_ms,
                 deadline_margin_ms):
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if latency_budget_ms is not None and latency_budget_ms <= 0:
            raise ValueError("latency_budget_ms must be > 0")
        self.batch_window_ms = float(batch_window_ms)
        self.latency_budget_ms = latency_budget_ms
        self.deadline_margin_ms = float(deadline_margin_ms)

    def hold_ms(self, batch_cost):
        """How long the oldest queued request may wait for company,
        given the pending batch's :class:`repro.cost.BatchCost`."""
        return min(self.batch_window_ms, batch_cost.overhead_ms)

    def _time_rules(self, served, batch_cost):
        """``(due_ms, reason)`` per time rule, in trigger precedence:
        the instant from which the rule holds if nothing else changes."""
        queue = served.queue
        earliest = queue.earliest_deadline_ms
        if earliest is not None:
            yield (earliest - batch_cost.total_ms - self.deadline_margin_ms,
                   "deadline")
        oldest = queue.oldest_arrival_ms
        if oldest is not None:
            yield oldest + self.hold_ms(batch_cost), "window"

    @staticmethod
    def _pending_cost(served):
        """The pending batch's price, or ``None`` when no flush can be
        decided: nothing is queued, or back-pressure defers it."""
        pending_images = served.queue.pending_images
        if not pending_images or not served.transport.has_capacity():
            return None
        return served.batch_cost(min(pending_images, served.max_batch))

    def reason(self, served, now):
        """Why ``served`` must flush at ``now``, or ``None``."""
        batch_cost = self._pending_cost(served)
        if batch_cost is None:
            return None
        if batch_cost.num_images >= served.max_batch:
            return "capacity"
        if (self.latency_budget_ms is not None
                and batch_cost.total_ms >= self.latency_budget_ms):
            return "budget"
        for due_ms, why in self._time_rules(served, batch_cost):
            if now >= due_ms:
                return why
        return None

    def next_due_ms(self, served):
        """The earliest instant a time rule can newly fire on ``served``
        with no new event (arrival, reply, freed capacity) -- hold
        expiry or deadline trigger -- or ``None`` when only an event
        can make a flush due."""
        batch_cost = self._pending_cost(served)
        if batch_cost is None:
            return None
        return min((due_ms for due_ms, _ in
                    self._time_rules(served, batch_cost)), default=None)
