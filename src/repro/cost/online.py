"""Online cost-model learning: refit batch pricing from measured reality.

The static :class:`repro.cost.CostModel` is calibrated once, from the
FPGA *simulator* -- it prices accelerator cycles, not the host that
actually executes batches.  A single measured-over-predicted scale
factor cannot close that gap, because it cannot separate the two
quantities every batching decision trades off: the fixed per-batch
overhead (python dispatch,
workspace setup, queue transport) and the per-image marginal.  A batch
of 1 and a batch of 64 scale those terms completely differently.

:class:`OnlineCostModel` closes the loop.  It wraps a prior
:class:`CostModel` and refits, per ``(backend, dtype, keep-ratio
bucket)`` key, the affine batch law

``wall_ms  =  overhead_ms * num_batches  +  marginal_ms * num_images``

by exponentially-decaying recursive least squares over the measured
``(batch_shape, wall_ms)`` samples the serving stack already produces
(:meth:`repro.engine.InferenceSession.submit_many` wall time, the
executor's per-bucket timings, worker-reply timings).  Until a key has
seen ``min_samples`` observations the prior answers -- confidence
gating means an unwarmed model is *exactly* the static model -- and
once confident every consumer of :meth:`CostModel.estimate` (scheduler
budget/deadline flushes, EDF ``pop_batch`` pricing, admission
control's priced backlog, both routers) prices from learned host
reality instead of simulated accelerator time.

Bucket-level pricing (:meth:`block_ms` / :meth:`bucket_ms`, what the
cost-aware :func:`repro.engine.bucketing.plan_buckets` compares) is
refit by a second estimator per key against the executor's measured
per-bucket wall times: ``bucket_wall = overhead * num_blocks + scale *
prior_marginal`` -- the prior keeps its token-length *shape* (the
simulator knows how cost scales with sequence length), the measurements
set its magnitude and its true launch overhead.

Coefficient drift is tracked through a monotoni cally increasing
:attr:`version`: the model publishes its coefficients and only bumps
the version when a canonical prediction moves more than
``drift_threshold`` relative to the published one, so the engine's
bucket-plan cache (keyed by cost-model version) is invalidated on
*significant* drift instead of on every sample.

Everything is plain float64 state: the model pickles (it rides to
worker processes inside a :class:`repro.engine.SessionSpec`) and
:meth:`snapshot` / :meth:`restore` round-trip the learned state
bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.cost.model import BatchCost, CostModel

__all__ = ["OnlineEstimator", "OnlineCostModel", "keep_ratio_bucket"]

#: Canonical batch shape (images, batches) at which coefficient drift
#: is judged for version bumps: one full default batch.
_DRIFT_SHAPE = (32.0, 1.0)

#: EWMA weight of each new squared residual in an estimator's noise
#: floor (:attr:`OnlineEstimator.variance_ms2`).
_VARIANCE_WEIGHT = 0.1


def keep_ratio_bucket(keep_ratios, grid=0.05):
    """Discretize an operating point's keep ratios into a hashable key.

    Nearby operating points (retunes within ``grid`` of each other)
    pool their samples; distinct points learn separately -- the knob
    space is kept per operating point, not global (cf. AdaViT's
    per-knob operating points).
    """
    if grid <= 0:
        raise ValueError("grid must be > 0")
    return tuple(int(round(float(r) / grid)) for r in keep_ratios)


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

    State is pure float64; :meth:`snapshot` / :meth:`restore`
    round-trip it bitwise.
    """

    def __init__(self, forgetting=0.98, ridge=1e4, min_samples=8,
                 max_gain=1e6):
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        if ridge <= 0:
            raise ValueError("ridge must be > 0")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
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
        """Learned fixed cost per batch/bucket launch (clipped >= 0)."""
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
        """Fold one measurement in: ``units`` marginal units (images,
        or prior-priced marginal ms for the bucket estimator) executed
        in ``launches`` launches took ``wall_ms``."""
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

    # ------------------------------------------------------------------
    def snapshot(self):
        """Serializable state; restoring reproduces the fit bitwise."""
        return {
            "theta": self.theta.copy(),
            "cov": self.cov.copy(),
            "count": self.count,
            "residual_var": self.residual_var,
            "forgetting": self.forgetting,
            "ridge": self.ridge,
            "min_samples": self.min_samples,
            "max_gain": self.max_gain,
        }

    @classmethod
    def from_snapshot(cls, snapshot):
        estimator = cls(forgetting=snapshot["forgetting"],
                        ridge=snapshot["ridge"],
                        min_samples=snapshot["min_samples"],
                        max_gain=snapshot["max_gain"])
        estimator.theta = np.asarray(snapshot["theta"],
                                     dtype=np.float64).copy()
        estimator.cov = np.asarray(snapshot["cov"],
                                   dtype=np.float64).copy()
        estimator.count = int(snapshot["count"])
        estimator.residual_var = float(snapshot["residual_var"])
        return estimator

    def __repr__(self):
        return (f"OnlineEstimator(overhead={self.overhead_ms:.4f}, "
                f"marginal={self.marginal_ms:.4f}, n={self.count}, "
                f"confident={self.confident})")


class _KeyState:
    """Both estimators (whole-batch and bucket-level) for one key,
    plus the coefficients published at the key's last version bump."""

    __slots__ = ("batch", "bucket", "published_batch", "published_bucket")

    def __init__(self, batch, bucket):
        self.batch = batch
        self.bucket = bucket
        self.published_batch = None      # canonical prediction at bump
        self.published_bucket = None

    def snapshot(self):
        return {
            "batch": self.batch.snapshot(),
            "bucket": self.bucket.snapshot(),
            "published_batch": self.published_batch,
            "published_bucket": self.published_bucket,
        }


class OnlineCostModel(CostModel):
    """A :class:`CostModel` that refits itself from measured wall time.

    Drop-in everywhere a ``CostModel`` goes (it *is* one): sessions,
    executors, schedulers, routers, and specs all price through the
    same interface.  Behavior:

    * below ``min_samples`` observations for the current key, every
      estimate delegates to ``prior`` -- byte-for-byte the static
      answer;
    * at or above it, :meth:`estimate` prices from the learned
      ``(overhead, marginal)`` of the bound key, and :meth:`block_ms` /
      :meth:`bucket_ms` price from the learned bucket law (prior
      length-shape, learned magnitude and launch overhead), so
      cost-aware bucket planning re-plans from measured reality;
    * :attr:`version` bumps only on significant coefficient drift
      (``drift_threshold`` relative change of a canonical prediction),
      which consumers use to invalidate shape caches without
      re-planning on every sample.

    One instance serves one session: the session binds its context key
    (backend, dtype, keep-ratio bucket) via :meth:`bind` and feeds
    measurements via :meth:`observe_batch` / :meth:`observe_bucket`.

    Parameters
    ----------
    prior: the static calibrated :class:`CostModel` to fall back on
        (and whose Eq. 18 table keeps pricing token lengths).
    min_samples: observations per key before the learned fit answers.
    forgetting: RLS decay factor per sample (1.0 = plain least squares).
    drift_threshold: relative change of the canonical prediction that
        bumps :attr:`version` (plan-cache invalidation granularity).
    """

    def __init__(self, prior, min_samples=8, forgetting=0.98,
                 drift_threshold=0.1, name=None):
        if not isinstance(prior, CostModel):
            raise TypeError("prior must be a repro.cost.CostModel")
        if isinstance(prior, OnlineCostModel):
            raise TypeError("prior is already an OnlineCostModel; "
                            "wrap the static model, not the wrapper")
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be > 0")
        super().__init__(prior.table, prior.num_patches,
                         extra_tokens=prior.extra_tokens,
                         batch_overhead_ms=prior.batch_overhead_ms,
                         bucket_overhead_ms=prior.bucket_overhead_ms,
                         name=name or f"online({prior.name})")
        self.prior = prior
        self.min_samples = int(min_samples)
        self.forgetting = float(forgetting)
        self.drift_threshold = float(drift_threshold)
        self._keys = {}
        self._bound = None
        self._version = 0

    def __repr__(self):
        return (f"OnlineCostModel({self.prior.name!r}, "
                f"keys={len(self._keys)}, version={self._version}, "
                f"bound={self._bound!r})")

    # ------------------------------------------------------------------
    # Context binding and key management
    # ------------------------------------------------------------------
    def bind(self, key):
        """Set the context key subsequent pricing and observations use.

        ``key`` is any hashable -- sessions use ``(backend, dtype,
        keep-ratio bucket)`` via :func:`keep_ratio_bucket`.  Binding a
        new key never forgets other keys' fits (retuning back to a
        previous operating point resumes its estimator)."""
        self._bound = key
        return self

    @property
    def bound_key(self):
        return self._bound

    @property
    def keys(self):
        """Keys with at least one observation, in first-seen order."""
        return list(self._keys)

    def _state(self, key):
        state = self._keys.get(key)
        if state is None:
            state = _KeyState(
                OnlineEstimator(forgetting=self.forgetting,
                                min_samples=self.min_samples),
                OnlineEstimator(forgetting=self.forgetting,
                                min_samples=self.min_samples))
            self._keys[key] = state
        return state

    def _resolve(self, key):
        return self._bound if key is None else key

    # ------------------------------------------------------------------
    # Measurement intake
    # ------------------------------------------------------------------
    def observe_batch(self, num_images, wall_ms, num_batches=1, key=None):
        """Fold one whole-submission measurement into the key's batch
        estimator: ``num_images`` images ran as ``num_batches``
        executor launches in ``wall_ms`` of host wall time."""
        if num_images < 1:
            return
        state = self._state(self._resolve(key))
        state.batch.observe(num_images, wall_ms,
                            launches=max(int(num_batches), 1))
        self._maybe_bump(state)

    def observe_bucket(self, padded_length, num_images, num_blocks,
                       wall_ms, key=None):
        """Fold one measured bucket launch (``num_images`` sequences
        padded to ``padded_length`` through ``num_blocks`` encoder
        blocks) into the key's bucket estimator.

        The regressor is the *prior-priced* marginal of the launch, so
        the fit learns a magnitude correction on top of the simulator's
        token-length shape plus the true per-block launch overhead."""
        if num_images < 1 or num_blocks < 1:
            return
        prior_marginal = (num_images * num_blocks
                          * self.prior.block_ms(padded_length))
        state = self._state(self._resolve(key))
        state.bucket.observe(prior_marginal, wall_ms,
                             launches=float(num_blocks))
        self._maybe_bump(state)

    def _canonical(self, state):
        """Canonical predictions both drift checks compare against."""
        images, batches = _DRIFT_SHAPE
        batch = (state.batch.predict(images, launches=batches)
                 if state.batch.confident else None)
        bucket = (state.bucket.predict(1.0, launches=1.0)
                  if state.bucket.confident else None)
        return batch, bucket

    @staticmethod
    def _drifted(current, published, threshold):
        if current is None:
            return False
        if published is None:
            return True                      # first confident fit
        scale = max(abs(published), 1e-9)
        return abs(current - published) / scale > threshold

    def _maybe_bump(self, state):
        batch, bucket = self._canonical(state)
        if (self._drifted(batch, state.published_batch,
                          self.drift_threshold)
                or self._drifted(bucket, state.published_bucket,
                                 self.drift_threshold)):
            state.published_batch = batch
            state.published_bucket = bucket
            self._version += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self):
        """Monotonic counter, bumped on significant coefficient drift
        (what the engine's bucket-plan cache keys on)."""
        return self._version

    def confident(self, key=None):
        """Is the key's *batch* estimator past its sample threshold?"""
        state = self._keys.get(self._resolve(key))
        return state is not None and state.batch.confident

    def samples(self, key=None):
        """(batch, bucket) observation counts for a key."""
        state = self._keys.get(self._resolve(key))
        if state is None:
            return (0, 0)
        return (state.batch.count, state.bucket.count)

    def coefficients(self, key=None):
        """Learned terms for a key (how to inspect what was learned).

        Returns a dict with the batch law's ``overhead_ms`` /
        ``marginal_ms`` (per launch / per image), the bucket law's
        ``bucket_overhead_ms`` / ``bucket_scale`` (per block launch /
        vs the prior's marginal), sample counts, residual variances,
        and the confidence flags gating their use."""
        state = self._keys.get(self._resolve(key))
        if state is None:
            return None
        return {
            "overhead_ms": state.batch.overhead_ms,
            "marginal_ms": state.batch.marginal_ms,
            "batch_samples": state.batch.count,
            "batch_confident": state.batch.confident,
            "batch_variance_ms2": state.batch.variance_ms2,
            "bucket_overhead_ms": state.bucket.overhead_ms,
            "bucket_scale": state.bucket.marginal_ms,
            "bucket_samples": state.bucket.count,
            "bucket_confident": state.bucket.confident,
            "bucket_variance_ms2": state.bucket.variance_ms2,
        }

    # ------------------------------------------------------------------
    # Whole-model batch pricing (learned when confident)
    # ------------------------------------------------------------------
    def estimate(self, plan, key=None):
        """Price a :class:`repro.cost.BatchPlan`: learned coefficients
        for the bound key once confident, the prior until then."""
        state = self._keys.get(self._resolve(key))
        if state is None or not state.batch.confident:
            return self.prior.estimate(plan)
        if plan.num_images == 0:
            return BatchCost(overhead_ms=0.0, marginal_ms=0.0,
                             num_images=0)
        return BatchCost(
            overhead_ms=state.batch.overhead_ms * plan.num_batches,
            marginal_ms=state.batch.marginal_ms * plan.num_images,
            num_images=plan.num_images)

    # ------------------------------------------------------------------
    # Bucket-level pricing (learned when confident; plan_buckets path)
    # ------------------------------------------------------------------
    def _bucket_state(self, key=None):
        state = self._keys.get(self._resolve(key))
        if state is not None and state.bucket.confident:
            return state.bucket
        return None

    def block_ms(self, num_tokens):
        learned = self._bucket_state()
        if learned is None:
            return self.prior.block_ms(num_tokens)
        return learned.marginal_ms * self.prior.block_ms(num_tokens)

    def bucket_ms(self, padded_length, num_images):
        learned = self._bucket_state()
        if learned is None:
            return self.prior.bucket_ms(padded_length, num_images)
        if num_images < 0:
            raise ValueError("num_images must be >= 0")
        if num_images == 0:
            return 0.0
        return learned.predict(
            num_images * self.prior.block_ms(padded_length))

    @property
    def is_zero_overhead(self):
        """Zero-overhead only while the prior answers AND the prior is
        degenerate; a confident bucket fit prices overheads itself."""
        learned = self._bucket_state()
        if learned is None:
            return self.prior.is_zero_overhead
        return learned.overhead_ms == 0.0 and learned.marginal_ms == 0.0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def snapshot(self):
        """Full learned state, serializable and bitwise-restorable --
        what worker rebuilds carry inside a
        :class:`repro.engine.SessionSpec` (the model itself pickles;
        the snapshot is the inspectable/portable form)."""
        return {
            "version": self._version,
            "bound": self._bound,
            "min_samples": self.min_samples,
            "forgetting": self.forgetting,
            "drift_threshold": self.drift_threshold,
            "keys": {key: state.snapshot()
                     for key, state in self._keys.items()},
        }

    def restore(self, snapshot):
        """Load a :meth:`snapshot`; the restored fit is bitwise equal
        (same predictions, same future updates)."""
        self._version = int(snapshot["version"])
        self._bound = snapshot["bound"]
        self.min_samples = int(snapshot["min_samples"])
        self.forgetting = float(snapshot["forgetting"])
        self.drift_threshold = float(snapshot["drift_threshold"])
        self._keys = {}
        for key, entry in snapshot["keys"].items():
            state = _KeyState(
                OnlineEstimator.from_snapshot(entry["batch"]),
                OnlineEstimator.from_snapshot(entry["bucket"]))
            state.published_batch = entry["published_batch"]
            state.published_bucket = entry["published_bucket"]
            self._keys[key] = state
        return self

    @classmethod
    def from_snapshot(cls, prior, snapshot):
        model = cls(prior,
                    min_samples=int(snapshot["min_samples"]),
                    forgetting=float(snapshot["forgetting"]),
                    drift_threshold=float(snapshot["drift_threshold"]))
        return model.restore(snapshot)
