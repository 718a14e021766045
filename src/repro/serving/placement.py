"""Cost-model placement of batches onto parallel executor workers.

One scheduler fans flushed batches out to N executor processes
(:mod:`repro.serving.worker`).  The :class:`PlacementPolicy` decides
*which* worker runs each batch: among the workers with the fewest
batches in flight, the one with the lowest predicted completion time.
Load comes first so that no measurement, however wrong, can starve a
worker -- the shards of one flush go one per idle worker before any
worker takes a second, and a worker that never runs a batch never
reports the timing that would correct its price.  A worker's
prediction is

``completion = max(now, worker_free_at) + overhead * launches + marginal * n``

-- its in-flight backlog plus the worker's own learned batch law, an
:class:`repro.cost.OnlineEstimator` (decaying recursive least squares)
over the ``(shape, measured wall)`` samples its replies carried (cf.
SAWL's measured-cost policy tuning).  Every worker's law starts at the
session's current batch law -- the static price, or the
:class:`repro.cost.OnlineCostModel` fit a ``learn_cost`` session
carries -- so a worker's first ticket charges exactly
``session.estimated_batch_cost(n).total_ms``, and every reply refines
it.  Heterogeneous workers -- a loaded core, a slower NUMA node --
therefore lose the ties between equally loaded workers without any
configuration, and a worker slow *per launch* is told apart from one
slow *per image*.

The policy is a pure function of the times it is handed (no wall-clock
reads), so the unit suite drives it with a virtual clock and asserts
placement decisions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cost import OnlineEstimator

__all__ = ["PlacementPolicy", "Placement"]


@dataclass(frozen=True)
class Placement:
    """One placement decision (the ticket handed back to the caller).

    ``predicted_ms`` is the execution time charged to the worker's
    backlog; ``start_ms`` / ``completion_ms`` bound the predicted
    execution window.  ``num_images`` is the batch shape the prediction
    priced, which :meth:`PlacementPolicy.complete` feeds to the worker's
    learned law together with the measured time.  Pass the ticket back
    to :meth:`PlacementPolicy.complete` when the batch finishes.
    """

    worker: int
    predicted_ms: float
    start_ms: float
    completion_ms: float
    num_images: int


class PlacementPolicy:
    """Least-loaded, then lowest-predicted-completion-time placement,
    priced by one learned batch law per worker.

    Parameters
    ----------
    num_workers: size of the worker pool.
    session: the :class:`repro.engine.InferenceSession` the workers
        serve.  Its current batch law (``estimated_batch_cost``) is
        every worker's starting law, and its ``batch_size`` counts the
        executor launches a batch of ``n`` images takes.
    max_in_flight: bound on batches outstanding per worker (``None`` =
        unbounded).  The transport sets it from its
        :class:`repro.serving.RecoveryPolicy` so a slow or dying worker
        never accumulates an unbounded strandable backlog.
    """

    def __init__(self, num_workers, session, max_in_flight=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = (None if max_in_flight is None
                              else int(max_in_flight))
        self.num_workers = int(num_workers)
        self.batch_size = int(session.batch_size)
        law = session.estimated_batch_cost(1)
        self._free_at = [0.0] * self.num_workers
        self._in_flight = [0] * self.num_workers
        self._estimators = [OnlineEstimator()
                            for _ in range(self.num_workers)]
        for estimator in self._estimators:
            estimator.theta = np.array([law.overhead_ms, law.marginal_ms],
                                       dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def in_flight(self):
        """Per-worker count of dispatched, not-yet-completed batches."""
        return tuple(self._in_flight)

    def estimator(self, worker):
        """The worker's learned :class:`repro.cost.OnlineEstimator`."""
        return self._estimators[worker]

    def has_capacity(self, worker):
        """Whether ``worker`` may accept another batch under the
        ``max_in_flight`` bound."""
        return (self.max_in_flight is None
                or self._in_flight[worker] < self.max_in_flight)

    def _launches(self, num_images):
        return -(-num_images // self.batch_size)

    def predicted_ms(self, worker, num_images):
        """Execution-time prediction for ``num_images`` images on
        ``worker``: its learned ``overhead * launches + marginal * n``."""
        return self._estimators[worker].predict(
            num_images, launches=self._launches(num_images))

    # ------------------------------------------------------------------
    def assign(self, num_images, now_ms=0.0, candidates=None):
        """Place one batch of ``num_images`` images; returns the
        :class:`Placement` ticket.

        Picks, among the eligible workers with the fewest batches in
        flight, the one with the lowest predicted completion time (ties
        break toward the lowest worker index, so placement is
        deterministic) and charges the batch to that worker's backlog.

        ``candidates`` restricts the choice to a subset of workers (the
        transport passes the *alive and under-capacity* set during
        recovery); placement among no eligible workers raises
        ``LookupError`` -- the caller's signal to defer the batch.
        """
        if num_images < 0:
            raise ValueError("num_images must be >= 0")
        pool = (range(self.num_workers) if candidates is None
                else sorted(set(candidates)))
        eligible = [w for w in pool
                    if 0 <= w < self.num_workers and self.has_capacity(w)]
        if not eligible:
            raise LookupError("no eligible worker has capacity")

        def start(worker):
            return max(float(now_ms), self._free_at[worker])

        worker = min(eligible,
                     key=lambda w: (self._in_flight[w],
                                    start(w) + self.predicted_ms(
                                        w, num_images),
                                    w))
        begin, predicted = start(worker), self.predicted_ms(worker,
                                                            num_images)
        self._free_at[worker] = begin + predicted
        self._in_flight[worker] += 1
        return Placement(worker=worker, predicted_ms=predicted,
                         start_ms=begin, completion_ms=begin + predicted,
                         num_images=int(num_images))

    def complete(self, placement, now_ms=None, measured_ms=None):
        """Retire a ticket; fold the measured execution time into the
        worker's learned law.

        ``measured_ms`` is the worker's host-measured batch execution
        time; when given, the worker's estimator folds in the
        ``(num_images, measured)`` sample and the worker's backlog is
        corrected by the prediction error.  ``now_ms`` (when known) lets
        an emptied worker's backlog collapse to the present instead of
        carrying a stale prediction.
        """
        worker = placement.worker
        if self._in_flight[worker] < 1:
            raise ValueError(
                f"worker {worker} has no in-flight batch to complete")
        self._in_flight[worker] -= 1
        if measured_ms is not None and placement.num_images:
            self._estimators[worker].observe(
                placement.num_images, max(float(measured_ms), 0.0),
                launches=self._launches(placement.num_images))
        if now_ms is not None:
            if self._in_flight[worker] == 0:
                self._free_at[worker] = float(now_ms)
            elif measured_ms is not None:
                corrected = (self._free_at[worker]
                             - placement.predicted_ms + float(measured_ms))
                self._free_at[worker] = max(float(now_ms), corrected)

    def __repr__(self):
        laws = ", ".join(f"{est.overhead_ms:.3f}+{est.marginal_ms:.3f}n"
                         for est in self._estimators)
        return (f"PlacementPolicy(workers={self.num_workers}, "
                f"laws=[{laws}])")
