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

``completion = max(now, worker_free_at) + calibration * cost_model_ms``

-- its in-flight backlog plus the batch's :class:`repro.cost.CostModel`
estimate, corrected by **per-worker online learning** from the worker's
own measured kernel timings (cf. SAWL's measured-cost policy tuning).
Heterogeneous workers -- a loaded core, a slower NUMA node -- therefore
lose the ties between equally loaded workers without any configuration.

Each worker owns a full :class:`repro.cost.OnlineEstimator`: a decaying
recursive-least-squares fit of ``wall_ms = overhead + marginal *
num_images`` over the shapes and timings its replies carried.  Until an
estimator reaches its sample threshold (and whenever a caller places by
bare scalar cost, without a batch shape) the legacy calibration EWMA --
measured over predicted -- answers instead, so the scalar path's exact
arithmetic is preserved.  A confident estimator separates what the EWMA
conflates: a worker that is slow *per launch* stops distorting the
predictions for large batches, and vice versa.

The policy is a pure function of the times it is handed (no wall-clock
reads), so the unit suite drives it with a virtual clock and asserts
placement decisions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost import OnlineEstimator

__all__ = ["PlacementPolicy", "Placement"]


@dataclass(frozen=True)
class Placement:
    """One placement decision (the ticket handed back to the caller).

    ``raw_ms`` is the uncalibrated cost-model estimate, ``predicted_ms``
    the calibrated one actually charged to the worker's backlog;
    ``start_ms`` / ``completion_ms`` bound the predicted execution
    window.  ``num_images`` is the batch shape the prediction priced
    (``None`` for bare scalar placements), which
    :meth:`PlacementPolicy.complete` feeds to the worker's learned
    estimator together with the measured time.  Pass the ticket back to
    :meth:`PlacementPolicy.complete` when the batch finishes.
    """

    worker: int
    raw_ms: float
    predicted_ms: float
    start_ms: float
    completion_ms: float
    num_images: int = None


class PlacementPolicy:
    """Least-loaded, then lowest-predicted-completion-time placement
    with online calibration.

    Parameters
    ----------
    num_workers: size of the worker pool.
    cost_model: optional :class:`repro.cost.CostModel`; when given,
        completion predictions go through its
        :meth:`~repro.cost.CostModel.completion_ms` (same arithmetic,
        single pricing implementation).
    smoothing: EWMA weight of each new measured/predicted observation
        (the first observation seeds the factor directly).  The EWMA is
        the fallback layer under the learned per-worker estimators.
    min_samples: shaped observations a worker's learned estimator needs
        (after the cold first one, which it never sees) before it
        answers instead of the calibration EWMA.
    forgetting: the learned estimators' RLS decay factor.
    max_in_flight: bound on batches outstanding per worker (``None`` =
        unbounded, the pre-recovery behavior).  The transport sets it
        from its :class:`repro.serving.RecoveryPolicy` so a slow or
        dying worker never accumulates an unbounded strandable backlog.
    """

    def __init__(self, num_workers, cost_model=None, smoothing=0.25,
                 min_samples=8, forgetting=0.98, max_in_flight=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = (None if max_in_flight is None
                              else int(max_in_flight))
        self.num_workers = int(num_workers)
        self.cost_model = cost_model
        self.smoothing = float(smoothing)
        self._free_at = [0.0] * self.num_workers
        self._calibration = [1.0] * self.num_workers
        self._in_flight = [0] * self.num_workers
        self._observations = [0] * self.num_workers
        self._warm = [False] * self.num_workers
        self._estimators = [
            OnlineEstimator(forgetting=forgetting, min_samples=min_samples)
            for _ in range(self.num_workers)]

    # ------------------------------------------------------------------
    @property
    def calibration(self):
        """Per-worker measured/predicted scale factors (1.0 = the cost
        model is exact for that worker)."""
        return tuple(self._calibration)

    @property
    def in_flight(self):
        """Per-worker count of dispatched, not-yet-completed batches."""
        return tuple(self._in_flight)

    @property
    def observations(self):
        """Per-worker count of measured timings folded into calibration."""
        return tuple(self._observations)

    def estimator(self, worker):
        """The worker's learned :class:`repro.cost.OnlineEstimator`."""
        return self._estimators[worker]

    def has_capacity(self, worker):
        """Whether ``worker`` may accept another batch under the
        ``max_in_flight`` bound."""
        return (self.max_in_flight is None
                or self._in_flight[worker] < self.max_in_flight)

    def predicted_ms(self, worker, raw_cost_ms, num_images=None):
        """Execution-time prediction for one batch on ``worker``.

        With a batch shape (``num_images``) and a confident learned
        estimator, the worker's own fitted ``overhead + marginal * n``
        law answers; otherwise the calibration EWMA scales the raw
        cost-model estimate (the exact pre-learning arithmetic)."""
        estimator = self._estimators[worker]
        if num_images is not None and estimator.confident:
            return estimator.predict(num_images, launches=1.0)
        return self._calibration[worker] * float(raw_cost_ms)

    def completion_ms(self, worker, raw_cost_ms, now_ms=0.0,
                      num_images=None):
        """Predicted completion time of a batch dispatched to ``worker``
        now: its backlog (bounded below by ``now_ms``) plus the
        predicted batch execution time."""
        backlog = max(float(now_ms), self._free_at[worker])
        estimator = self._estimators[worker]
        if num_images is not None and estimator.confident:
            return backlog + estimator.predict(num_images, launches=1.0)
        if self.cost_model is not None:
            return self.cost_model.completion_ms(
                float(raw_cost_ms), backlog_ms=backlog,
                calibration=self._calibration[worker])
        return backlog + self.predicted_ms(worker, raw_cost_ms)

    # ------------------------------------------------------------------
    def assign(self, raw_cost_ms, now_ms=0.0, num_images=None,
               candidates=None):
        """Place one batch; returns the :class:`Placement` ticket.

        Picks, among the eligible workers with the fewest batches in
        flight, the one with the lowest predicted completion time (ties
        break toward the lowest worker index, so placement is
        deterministic) and charges the batch to that worker's backlog.  Pass the batch shape (``num_images``)
        so workers with confident learned estimators price it from
        their own fitted batch law -- and so :meth:`complete` can feed
        the shape back to the estimator with the measured time.

        ``candidates`` restricts the choice to a subset of workers (the
        transport passes the *alive and under-capacity* set during
        recovery); placement among no eligible workers raises
        ``LookupError`` -- the caller's signal to defer the batch.
        """
        if raw_cost_ms < 0:
            raise ValueError("raw_cost_ms must be >= 0")
        if num_images is not None and num_images < 0:
            raise ValueError("num_images must be >= 0")
        pool = (range(self.num_workers) if candidates is None
                else sorted(set(candidates)))
        eligible = [w for w in pool
                    if 0 <= w < self.num_workers and self.has_capacity(w)]
        if not eligible:
            raise LookupError("no eligible worker has capacity")
        worker = min(eligible,
                     key=lambda w: (self._in_flight[w],
                                    self.completion_ms(w, raw_cost_ms,
                                                       now_ms, num_images),
                                    w))
        start = max(float(now_ms), self._free_at[worker])
        completion = self.completion_ms(worker, raw_cost_ms, now_ms,
                                        num_images)
        self._free_at[worker] = completion
        self._in_flight[worker] += 1
        return Placement(worker=worker, raw_ms=float(raw_cost_ms),
                         predicted_ms=completion - start,
                         start_ms=start, completion_ms=completion,
                         num_images=(None if num_images is None
                                     else int(num_images)))

    def complete(self, placement, now_ms=None, measured_ms=None):
        """Retire a ticket; fold the measured execution time into the
        worker's calibration factor.

        ``measured_ms`` is the worker's host-measured batch execution
        time; when given, the worker's calibration EWMA moves toward
        ``measured / raw``, the worker's learned estimator folds in the
        ``(num_images, measured)`` sample (tickets that carried a batch
        shape), and the worker's backlog is corrected by the prediction
        error.  ``now_ms`` (when known) lets an emptied worker's
        backlog collapse to the present instead of carrying a stale
        prediction.

        A worker slot's first shaped sample is withheld from its
        estimator: it is the cold one (lazy compile + workspace
        allocation, ~5x a warm shard), and fitted into the first
        ``min_samples`` it can price the worker out of every later
        assign -- after which a starved worker reports no sample that
        could correct the law.  The EWMA still seeds from it and decays
        it like any other observation.
        """
        worker = placement.worker
        if self._in_flight[worker] < 1:
            raise ValueError(
                f"worker {worker} has no in-flight batch to complete")
        self._in_flight[worker] -= 1
        if measured_ms is not None and placement.raw_ms > 0:
            ratio = float(measured_ms) / placement.raw_ms
            if self._observations[worker] == 0:
                self._calibration[worker] = ratio
            else:
                a = self.smoothing
                self._calibration[worker] = (
                    (1.0 - a) * self._calibration[worker] + a * ratio)
            self._observations[worker] += 1
            if placement.num_images:
                if self._warm[worker]:
                    self._estimators[worker].observe(
                        placement.num_images, max(float(measured_ms), 0.0),
                        launches=1.0)
                self._warm[worker] = True
        if now_ms is not None:
            if self._in_flight[worker] == 0:
                self._free_at[worker] = float(now_ms)
            elif measured_ms is not None:
                corrected = (self._free_at[worker]
                             - placement.predicted_ms + float(measured_ms))
                self._free_at[worker] = max(float(now_ms), corrected)

    def snapshot(self):
        """Telemetry: per-worker backlog, calibration, and in-flight
        counts (what the benchmark records per sweep point)."""
        return {
            "free_at_ms": tuple(self._free_at),
            "calibration": self.calibration,
            "in_flight": self.in_flight,
            "observations": self.observations,
            "learned": tuple(
                {"overhead_ms": est.overhead_ms,
                 "marginal_ms": est.marginal_ms,
                 "samples": est.count,
                 "confident": est.confident,
                 "variance_ms2": est.variance_ms2}
                for est in self._estimators),
        }

    def __repr__(self):
        cal = ", ".join(f"{c:.3f}" for c in self._calibration)
        return (f"PlacementPolicy(workers={self.num_workers}, "
                f"calibration=[{cal}])")
