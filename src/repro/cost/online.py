"""Online cost-model learning: refit batch pricing from measured reality.

The static :class:`repro.cost.CostModel` is calibrated once, from the
FPGA *simulator* -- it prices accelerator cycles, not the host that
actually executes batches.  A single measured-over-predicted scale
factor cannot close that gap, because it cannot separate the two
quantities every batching decision trades off: the fixed per-batch
overhead (python dispatch, workspace setup, queue transport) and the
per-image marginal.  A batch of 1 and a batch of 64 scale those terms
completely differently.

:class:`OnlineCostModel` closes the loop.  It wraps a prior
:class:`CostModel` and refits, per ``(backend, dtype, keep-ratio
bucket)`` key, the affine batch law

``wall_ms  =  overhead_ms * num_batches  +  marginal_ms * num_images``

by exponentially-decaying recursive least squares over the measured
``(batch_shape, wall_ms)`` samples the serving stack already produces
(:meth:`repro.engine.InferenceSession.submit_many` wall time and
worker-reply timings).  Until a key has seen ``min_samples``
observations the prior answers -- confidence gating means an unwarmed
model is *exactly* the static model -- and once confident every
consumer of :meth:`CostModel.estimate` (scheduler budget/deadline
flushes, EDF ``pop_batch`` pricing, admission control's priced
backlog, both routers) prices from learned host reality instead of
simulated accelerator time.

Bucket plans never see the learned law.  Bucket-level pricing
(:meth:`CostModel.block_ms` / :meth:`CostModel.bucket_ms`, what the
cost-aware :func:`repro.engine.bucketing.plan_buckets` compares) is the
base class's, from the prior's table and overheads, which the wrapper
copies at construction.  A learning session therefore plans the same
buckets as a static one and serves the same bits: learning changes
prices and flush timing, never what a batch computes.

Everything is plain float64 state, and pickle is its one carrier: the
fit rides to worker processes inside the pickled session, and an
unpickled copy prices and updates bitwise like the original.
"""

from __future__ import annotations

import numpy as np

from repro.cost.model import BatchCost, CostModel

__all__ = ["OnlineEstimator", "OnlineCostModel", "keep_ratio_bucket"]

#: EWMA weight of each new squared residual in an estimator's noise
#: floor (:attr:`OnlineEstimator.variance_ms2`).
_VARIANCE_WEIGHT = 0.1


def _check_knobs(forgetting, min_samples):
    """Reject an RLS decay outside (0, 1] or a sample gate below 1."""
    if not 0.0 < forgetting <= 1.0:
        raise ValueError("forgetting must be in (0, 1]")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")


#: Width of a keep-ratio bucket (:func:`keep_ratio_bucket`).
_KEEP_RATIO_GRID = 0.05


def keep_ratio_bucket(keep_ratios):
    """Discretize an operating point's keep ratios into a hashable key.

    Nearby operating points (retunes within ``_KEEP_RATIO_GRID`` of each
    other) pool their samples; distinct points learn separately -- the
    knob space is kept per operating point, not global (cf. AdaViT's
    per-knob operating points).
    """
    return tuple(int(round(float(r) / _KEEP_RATIO_GRID))
                 for r in keep_ratios)


class OnlineEstimator:
    """Decaying recursive-least-squares fit of an affine cost law.

    Fits ``y = theta[0] * x0 + theta[1] * x1`` (for batch pricing:
    ``x0 = num_batches``, ``x1 = num_images``) with forgetting factor
    ``forgetting`` so stale measurements decay, plus:

    * **confidence gating** -- :attr:`confident` only after
      ``min_samples`` observations; callers fall back to their prior
      below it;
    * **variance tracking** -- an EWMA of squared residuals
      (:attr:`variance_ms2`), the noise floor of this key's
      measurements;
    * **non-negativity** -- :meth:`predict` clips both coefficients at
      zero, so predictions are always >= 0 and monotone non-decreasing
      in both batch counts and image counts;
    * **bounded gain** -- the RLS covariance trace is capped so
      thousands of identical batch shapes cannot wind the gain up and
      make the fit jumpy against noise ("covariance windup").

    State is pure float64, so a pickled copy predicts and updates
    bitwise like the original.
    """

    def __init__(self, forgetting=0.98, ridge=1e4, min_samples=8,
                 max_gain=1e6):
        _check_knobs(forgetting, min_samples)
        if ridge <= 0:
            raise ValueError("ridge must be > 0")
        self.forgetting = float(forgetting)
        self.ridge = float(ridge)
        self.min_samples = int(min_samples)
        self.max_gain = float(max_gain)
        self.theta = np.zeros(2, dtype=np.float64)
        self.cov = np.eye(2, dtype=np.float64) * self.ridge
        self.count = 0
        self.residual_var = 0.0

    # ------------------------------------------------------------------
    @property
    def confident(self):
        """Enough samples folded in to trust the fit over a prior."""
        return self.count >= self.min_samples

    @property
    def overhead_ms(self):
        """Learned fixed cost per launch (clipped >= 0)."""
        return float(max(self.theta[0], 0.0))

    @property
    def marginal_ms(self):
        """Learned marginal cost per unit (clipped >= 0)."""
        return float(max(self.theta[1], 0.0))

    @property
    def variance_ms2(self):
        """EWMA of squared prediction residuals (measurement noise)."""
        return float(self.residual_var)

    # ------------------------------------------------------------------
    def observe(self, units, wall_ms, launches=1.0):
        """Fold one measurement in: ``units`` marginal units (images)
        executed in ``launches`` launches took ``wall_ms``."""
        if units < 0 or launches < 0:
            raise ValueError("units and launches must be >= 0")
        if wall_ms < 0:
            raise ValueError("wall_ms must be >= 0")
        x = np.array([float(launches), float(units)], dtype=np.float64)
        y = float(wall_ms)
        residual = y - float(x @ self.theta)
        lam = self.forgetting
        px = self.cov @ x
        gain = px / (lam + float(x @ px))
        self.theta = self.theta + gain * residual
        self.cov = (self.cov - np.outer(gain, px)) / lam
        # Symmetrize (floating-point drift) and cap the gain: with a
        # forgetting factor < 1 an unexcited direction (every sample
        # the same shape) otherwise grows without bound.
        self.cov = 0.5 * (self.cov + self.cov.T)
        trace = float(np.trace(self.cov))
        if trace > self.max_gain:
            self.cov *= self.max_gain / trace
        a = _VARIANCE_WEIGHT
        if self.count == 0:
            self.residual_var = residual * residual
        else:
            self.residual_var = ((1.0 - a) * self.residual_var
                                 + a * residual * residual)
        self.count += 1
        return residual

    def predict(self, units, launches=1.0):
        """Predicted wall ms for a batch shape (always >= 0, monotone
        non-decreasing in both arguments)."""
        if units < 0 or launches < 0:
            raise ValueError("units and launches must be >= 0")
        return (self.overhead_ms * float(launches)
                + self.marginal_ms * float(units))

    def __repr__(self):
        return (f"OnlineEstimator(overhead={self.overhead_ms:.4f}, "
                f"marginal={self.marginal_ms:.4f}, n={self.count}, "
                f"confident={self.confident})")


class OnlineCostModel(CostModel):
    """A :class:`CostModel` that refits batch pricing from measured
    wall time.

    Drop-in everywhere a ``CostModel`` goes (it *is* one): sessions,
    executors, schedulers and routers all price through the same
    interface.  Behavior:

    * below ``min_samples`` observations for the bound key,
      :meth:`estimate` delegates to ``prior`` -- byte-for-byte the
      static answer;
    * at or above it, :meth:`estimate` prices from the learned
      ``(overhead, marginal)`` of the bound key;
    * bucket pricing (``block_ms`` / ``bucket_ms`` /
      ``is_zero_overhead``) is always the prior's, so bucket plans --
      and with them the served bits -- are those of a static session.

    One instance serves one session: the session binds its context key
    (backend, dtype name, keep-ratio bucket) via :meth:`bind`, and
    every observation and price addresses the bound key.

    Parameters
    ----------
    prior: the static calibrated :class:`CostModel` to fall back on
        (and whose Eq. 18 table and overheads keep pricing buckets).
    min_samples: observations per key before the learned fit answers
        (>= 1).
    forgetting: RLS decay factor per sample, in (0, 1] (1.0 = plain
        least squares).
    """

    learns = True

    def __init__(self, prior, min_samples=8, forgetting=0.98, name=None):
        if not isinstance(prior, CostModel):
            raise TypeError("prior must be a repro.cost.CostModel")
        if isinstance(prior, OnlineCostModel):
            raise TypeError("prior is already an OnlineCostModel; "
                            "wrap the static model, not the wrapper")
        super().__init__(prior.table, prior.num_patches,
                         extra_tokens=prior.extra_tokens,
                         batch_overhead_ms=prior.batch_overhead_ms,
                         bucket_overhead_ms=prior.bucket_overhead_ms,
                         name=name or f"online({prior.name})")
        self.prior = prior
        # Checked here, not on the first observe_batch: that runs after
        # a batch has already executed, inside the serving driver.
        _check_knobs(forgetting, min_samples)
        self.min_samples = int(min_samples)
        self.forgetting = float(forgetting)
        self._keys = {}
        self._bound = None

    def __repr__(self):
        return (f"OnlineCostModel({self.prior.name!r}, "
                f"keys={len(self._keys)}, bound={self._bound!r})")

    # ------------------------------------------------------------------
    # Context binding and key management
    # ------------------------------------------------------------------
    def bind(self, key):
        """Set the context key subsequent pricing and observations use.

        ``key`` is any hashable -- sessions use ``(backend, dtype name,
        keep-ratio bucket)``.  Binding a new key never forgets other
        keys' fits (retuning back to a previous operating point resumes
        its estimator)."""
        self._bound = key
        return self

    @property
    def bound_key(self):
        return self._bound

    @property
    def keys(self):
        """Keys with at least one observation, in first-seen order."""
        return list(self._keys)

    def _fit(self):
        """The bound key's estimator; ``None`` before its first sample."""
        return self._keys.get(self._bound)

    # ------------------------------------------------------------------
    # Measurement intake
    # ------------------------------------------------------------------
    def observe_batch(self, num_images, wall_ms, num_batches=1):
        """Fold one whole-submission measurement into the bound key's
        batch estimator: ``num_images`` images ran as ``num_batches``
        executor launches in ``wall_ms`` of host wall time."""
        if num_images < 1:
            return
        fit = self._fit()
        if fit is None:
            fit = self._keys[self._bound] = OnlineEstimator(
                forgetting=self.forgetting, min_samples=self.min_samples)
        fit.observe(num_images, wall_ms, launches=max(int(num_batches), 1))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def confident(self):
        """Is the bound key's batch estimator past its sample threshold?"""
        fit = self._fit()
        return fit is not None and fit.confident

    def samples(self):
        """Batch observations folded in for the bound key."""
        fit = self._fit()
        return 0 if fit is None else fit.count

    def coefficients(self):
        """Learned terms for the bound key (how to inspect the fit).

        Returns a dict with the batch law's ``overhead_ms`` /
        ``marginal_ms`` (per launch / per image), its sample count,
        residual variance, and the confidence flag gating its use."""
        fit = self._fit()
        if fit is None:
            return None
        return {
            "overhead_ms": fit.overhead_ms,
            "marginal_ms": fit.marginal_ms,
            "batch_samples": fit.count,
            "batch_confident": fit.confident,
            "batch_variance_ms2": fit.variance_ms2,
        }

    # ------------------------------------------------------------------
    # Whole-model batch pricing (learned when confident)
    # ------------------------------------------------------------------
    def estimate(self, plan):
        """Price a :class:`repro.cost.BatchPlan`: learned coefficients
        for the bound key once confident, the prior until then."""
        fit = self._fit()
        if fit is None or not fit.confident:
            return self.prior.estimate(plan)
        if plan.num_images == 0:
            return BatchCost(overhead_ms=0.0, marginal_ms=0.0,
                             num_images=0)
        return BatchCost(
            overhead_ms=fit.overhead_ms * plan.num_batches,
            marginal_ms=fit.marginal_ms * plan.num_images,
            num_images=plan.num_images)
