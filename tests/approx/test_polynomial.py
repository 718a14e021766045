"""Tests for the polynomial approximations (Sec. V-D)."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.approx import (DEFAULT_DELTA2, erf_approx, exp_approx,
                          gelu_approx, gelu_exact, sigmoid_exact,
                          sigmoid_plan, softmax_approx, softmax_exact)
from repro.nn.tensor import Tensor
from scipy import special


def test_equation_constants_are_written_in_one_file():
    """Eq. 11 / Eq. 14's fit constants and the PLAN breakpoints appear
    as literals in exactly one source file."""
    src = Path(repro.__file__).parent
    texts = {path: path.read_text() for path in src.rglob("*.py")}
    for literal in ("0.2888", "1.769", "0.3585", "1.353", "0.344",
                    "2.375", "0.84375"):
        pattern = re.compile(r"(?<![\d.])" + re.escape(literal) + r"(?!\d)")
        holders = [path.relative_to(src).as_posix()
                   for path, text in texts.items() if pattern.search(text)]
        assert holders == ["approx/polynomial.py"], literal


class TestErfApprox:
    def test_close_to_exact_without_regularization(self):
        # The I-BERT second-order fit has ~0.1 worst-case error near 0;
        # it is harmless because GELU multiplies by x/2 (see the GELU
        # test below, which is 5x tighter).
        x = np.linspace(-4, 4, 400)
        err = np.abs(erf_approx(x, delta1=1.0) - special.erf(x))
        assert err.max() < 0.1

    def test_odd_symmetry(self, rng):
        x = rng.normal(size=100) * 3
        assert np.allclose(erf_approx(x), -erf_approx(-x))

    def test_saturation(self):
        assert erf_approx(10.0, delta1=1.0) == pytest.approx(1.0, abs=1e-3)
        assert erf_approx(3.0, delta1=1.0) == erf_approx(100.0, delta1=1.0)

    def test_delta_scales_output(self):
        x = np.linspace(-3, 3, 50)
        assert np.allclose(erf_approx(x, delta1=0.5),
                           0.5 * erf_approx(x, delta1=1.0))


class TestGeluApprox:
    def test_close_to_exact_without_regularization(self):
        x = np.linspace(-6, 6, 500)
        err = np.abs(gelu_approx(x, delta1=1.0) - gelu_exact(x))
        assert err.max() < 0.05

    def test_regularized_is_shrunk_for_positive(self):
        x = np.linspace(0.5, 6, 100)
        assert np.all(gelu_approx(x, delta1=0.5) < gelu_exact(x))

    def test_zero_fixed_point(self):
        assert gelu_approx(0.0) == 0.0

    def test_negative_tail_vanishes(self):
        assert abs(gelu_approx(-10.0, delta1=1.0)) < 1e-6


class TestExpApprox:
    def test_accuracy_on_negative_range(self):
        x = np.linspace(-20, 0, 1000)
        rel = np.abs(exp_approx(x) - np.exp(x)) / np.exp(x)
        assert rel.max() < 0.04

    def test_rejects_positive_inputs(self):
        with pytest.raises(ValueError):
            exp_approx(np.array([0.5]))

    def test_monotone_nondecreasing(self):
        x = np.linspace(-10, 0, 500)
        out = exp_approx(x)
        assert np.all(np.diff(out) >= -1e-12)

    def test_exact_at_zero(self):
        # p = 0, z = 0: 0.3585 * 1.353^2 + 0.344 ~= 1.0003
        assert exp_approx(0.0) == pytest.approx(1.0, abs=2e-3)


class TestSoftmaxApprox:
    def test_sums_to_delta2(self, rng):
        x = rng.normal(size=(6, 12)) * 4
        out = softmax_approx(x)
        assert np.allclose(out.sum(axis=-1), DEFAULT_DELTA2)

    def test_nonnegative(self, rng):
        assert np.all(softmax_approx(rng.normal(size=(5, 9))) >= 0)

    def test_preserves_ranking(self, rng):
        x = rng.normal(size=(20,)) * 3
        approx_order = np.argsort(softmax_approx(x))
        exact_order = np.argsort(softmax_exact(x))
        assert np.array_equal(approx_order, exact_order)

    def test_matches_exact_shape_at_delta_one(self, rng):
        x = rng.normal(size=(4, 8))
        approx = softmax_approx(x, delta2=1.0)
        exact = softmax_exact(x)
        assert np.abs(approx - exact).max() < 0.02

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(8,))
        assert np.allclose(softmax_approx(x), softmax_approx(x + 123.0))


class TestSigmoidPlan:
    def test_close_to_exact(self):
        x = np.linspace(-8, 8, 1000)
        assert np.abs(sigmoid_plan(x) - sigmoid_exact(x)).max() < 0.02

    def test_symmetry(self, rng):
        x = rng.normal(size=100) * 4
        assert np.allclose(sigmoid_plan(x) + sigmoid_plan(-x), 1.0)

    def test_saturation(self):
        assert sigmoid_plan(6.0) == 1.0
        assert sigmoid_plan(-6.0) == 0.0

    @pytest.mark.parametrize("wrap", [np.asarray, Tensor],
                             ids=["ndarray", "tensor"])
    def test_saturates_from_five_through_infinity(self, wrap):
        x = np.array([5.0, 6.0, np.inf, -5.0, -6.0, -np.inf])
        out = sigmoid_plan(wrap(x))
        assert np.array_equal(getattr(out, "data", out),
                              [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])

    def test_midpoint(self):
        assert sigmoid_plan(0.0) == pytest.approx(0.5)

    def test_monotone_up_to_breakpoint_step(self):
        # The published PLAN uses the hardware-friendly breakpoint 2.375
        # (not the continuity point 7/3), leaving an authentic ~0.004
        # downward step there; elsewhere the function is non-decreasing.
        x = np.linspace(-8, 8, 500)
        assert np.all(np.diff(sigmoid_plan(x)) >= -0.004)
