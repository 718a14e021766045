"""Property-based tests (hypothesis) for the online cost estimator.

The ISSUE-8 acceptance invariants, over random planted laws, noise, and
observation schedules: the RLS fit converges to a planted (overhead,
marginal) pair under bounded noise; the wrapper answers with the prior
verbatim below the sample threshold; predictions are always
non-negative and monotone non-decreasing in both batch shape terms
whatever was observed; and a pickled copy round-trips bitwise,
including identical future updates.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LatencySparsityTable
from repro.cost import (BatchPlan, CostModel, OnlineCostModel,
                        OnlineEstimator)

planted = st.tuples(
    st.floats(0.1, 20.0, allow_nan=False),       # overhead per launch
    st.floats(0.05, 5.0, allow_nan=False))       # marginal per image

observations = st.lists(
    st.tuples(st.integers(1, 4),                 # launches
              st.integers(1, 64),                # images
              st.floats(0.0, 500.0, allow_nan=False)),   # wall ms
    min_size=0, max_size=60)


def make_prior(seed):
    rng = np.random.default_rng(seed)
    grid = (0.5, 0.75, 1.0)
    latencies = np.cumsum(rng.uniform(0.1, 2.0, len(grid)))
    table = LatencySparsityTable(dict(zip(grid, latencies)))
    return CostModel(table, num_patches=196,
                     batch_overhead_ms=float(rng.uniform(0, 10)),
                     bucket_overhead_ms=float(rng.uniform(0, 2)))


@settings(max_examples=40, deadline=None)
@given(law=planted, seed=st.integers(0, 2**32 - 1))
def test_converges_to_planted_law_under_noise(law, seed):
    """Enough varied samples of ``o*b + m*n`` plus small noise recover
    (o, m) to a few percent -- the estimator actually *fits*, it does
    not merely smooth."""
    overhead, marginal = law
    rng = np.random.default_rng(seed)
    est = OnlineEstimator(forgetting=1.0, min_samples=8)
    for _ in range(600):
        launches = int(rng.integers(1, 5))
        images = int(rng.integers(1, 65))
        truth = overhead * launches + marginal * images
        noise = rng.normal(0.0, 0.02 * truth)
        est.observe(images, max(truth + noise, 0.0), launches=launches)
    assert est.confident
    # A coefficient smaller than the other term's noise floor cannot be
    # pinned to a pure relative tolerance (the marginal term dominates
    # the design matrix at 1..64 images, so a small overhead soaks up
    # most of the residual); allow 5% of the law's scale as absolute
    # slack on each.  The joint prediction below stays tight -- that is
    # the quantity serving decisions consume.
    scale = overhead + marginal
    assert est.overhead_ms == pytest.approx(overhead, rel=0.2,
                                            abs=0.05 * scale)
    assert est.marginal_ms == pytest.approx(marginal, rel=0.2,
                                            abs=0.05 * scale)
    prediction = est.predict(40, launches=2)
    truth = overhead * 2 + marginal * 40
    assert prediction == pytest.approx(truth, rel=0.05)


@settings(max_examples=50, deadline=None)
@given(samples=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       images=st.integers(1, 64))
def test_prior_fallback_below_threshold(samples, seed, images):
    """Below ``min_samples`` observations every estimate is the prior's
    answer bit-for-bit, however wild the measurements were."""
    prior = make_prior(seed)
    online = OnlineCostModel(prior, min_samples=8).bind("key")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        online.observe_batch(int(rng.integers(1, 65)),
                             float(rng.uniform(0, 1e4)))
    plan = BatchPlan(num_images=images, per_image_ms=1.25, num_batches=2)
    assert not online.confident()
    assert online.estimate(plan).total_ms == prior.estimate(plan).total_ms
    assert online.bucket_ms(100, images) == prior.bucket_ms(100, images)
    assert online.block_ms(150) == prior.block_ms(150)


@settings(max_examples=60, deadline=None)
@given(history=observations,
       probe=st.tuples(st.integers(0, 3), st.integers(0, 100)))
def test_predictions_non_negative_and_monotone(history, probe):
    """Whatever was observed -- including adversarial walls that drive
    a raw least-squares coefficient negative -- predictions are >= 0
    and monotone non-decreasing in launches and images."""
    est = OnlineEstimator(min_samples=1)
    for launches, images, wall in history:
        est.observe(images, wall, launches=launches)
    launches, images = probe
    base = est.predict(images, launches=launches)
    assert base >= 0.0
    assert est.predict(images + 1, launches=launches) >= base
    assert est.predict(images, launches=launches + 1) >= base


@settings(max_examples=50, deadline=None)
@given(history=observations,
       future=st.tuples(st.integers(1, 4), st.integers(1, 64),
                        st.floats(0.0, 500.0, allow_nan=False)))
def test_pickle_round_trip_bitwise(history, future):
    """A pickle round trip reproduces state, predictions, and future
    updates bitwise for any observation history."""
    est = OnlineEstimator()
    for launches, images, wall in history:
        est.observe(images, wall, launches=launches)
    clone = pickle.loads(pickle.dumps(est))
    np.testing.assert_array_equal(clone.theta, est.theta)
    np.testing.assert_array_equal(clone.cov, est.cov)
    assert clone.count == est.count
    assert clone.residual_var == est.residual_var
    assert clone.predict(17, launches=2) == est.predict(17, launches=2)
    launches, images, wall = future
    assert clone.observe(images, wall, launches=launches) == (
        est.observe(images, wall, launches=launches))
    np.testing.assert_array_equal(clone.theta, est.theta)
    np.testing.assert_array_equal(clone.cov, est.cov)
    assert clone.count == est.count
    assert clone.residual_var == est.residual_var
