"""Shared fixtures: tiny trainable models and datasets for fast tests."""

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_dataset
from repro.vit import VisionTransformer, ViTConfig


TINY_CONFIG = ViTConfig(name="test-tiny", image_size=16, patch_size=4,
                        embed_dim=24, depth=4, num_heads=3, num_classes=4)


@pytest.fixture(scope="session")
def tiny_config():
    return TINY_CONFIG


@pytest.fixture(scope="session")
def tiny_dataset():
    rng = np.random.default_rng(1234)
    config = SyntheticConfig(image_size=16, num_classes=4)
    return generate_dataset(config, 48, rng)


@pytest.fixture(scope="session")
def tiny_backbone(tiny_config):
    rng = np.random.default_rng(7)
    model = VisionTransformer(tiny_config, rng=rng)
    model.eval()
    return model


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def finite_difference(fn, x, eps=1e-6):
    """Central finite-difference gradient of scalar-valued fn at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fn(x)
        flat[i] = old - eps
        lo = fn(x)
        flat[i] = old
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def assert_same_estimator_state(clone, est):
    """Two :class:`repro.cost.OnlineEstimator` copies hold bitwise the
    same fit."""
    np.testing.assert_array_equal(clone.theta, est.theta)
    np.testing.assert_array_equal(clone.cov, est.cov)
    assert clone.count == est.count
    assert clone.residual_var == est.residual_var


def assert_same_fit(clone, original):
    """``clone`` (an unpickled :class:`repro.cost.OnlineCostModel`) holds
    ``original``'s fit bitwise: the same knobs, estimate and estimator
    states, before and after one more identical observation on both."""
    from repro.cost import BatchPlan

    plan = BatchPlan(num_images=12, per_image_ms=1.0, num_batches=2)

    def check():
        assert (clone.min_samples, clone.forgetting) == (
            original.min_samples, original.forgetting)
        assert clone.bound_key == original.bound_key
        assert clone.keys == original.keys
        assert clone.estimate(plan) == original.estimate(plan)
        for key in original.keys:
            assert_same_estimator_state(clone._keys[key],
                                        original._keys[key])

    check()
    clone.observe_batch(12, 7.5, num_batches=2)
    original.observe_batch(12, 7.5, num_batches=2)
    check()
