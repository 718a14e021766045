"""Quantization-error regularization analysis (paper Sec. V-E, Fig. 10).

The paper argues that because the approximated GELU/Softmax have
derivative magnitude strictly below 1 (thanks to ``delta1``/``delta2``),
an input quantization error ``de`` shrinks when propagated through them
(Eqs. 15-17).  This module computes the exact and approximated
derivatives so the claim can be plotted (Fig. 10) and property-tested.
"""

from __future__ import annotations

import numpy as np

from repro.approx.polynomial import (DEFAULT_DELTA1, DEFAULT_DELTA2, ERF_A,
                                     ERF_B, _SQRT_2, erf_approx,
                                     softmax_approx, softmax_exact)

__all__ = [
    "gelu_exact_derivative", "gelu_approx_derivative",
    "softmax_error_bound", "softmax_error_empirical",
    "gelu_error_propagation", "derivative_profile",
]


def gelu_exact_derivative(x):
    """d/dx of the exact GELU: Phi(x) + x * phi(x)."""
    from scipy import special

    x = np.asarray(x, dtype=np.float64)
    cdf = 0.5 * (1.0 + special.erf(x / _SQRT_2))
    pdf = np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)
    return cdf + x * pdf


def _erf_approx_derivative(x, delta1):
    """Derivative of L_erf: 2*a*delta1*(min(|x|,-b)+b) * sign'(branch)."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    inside = ax < -ERF_B
    # For |x| < -ERF_B: d/dx sign(x)*d1*(a*(|x|+b)^2+1) = d1*2a*(|x|+b)
    # (sign * d|x|/dx = 1); outside, the output saturates -> derivative 0.
    return np.where(inside, delta1 * 2.0 * ERF_A * (ax + ERF_B), 0.0)


def gelu_approx_derivative(x, delta1=DEFAULT_DELTA1):
    """d/dx of GELU_aprx = 1/2*(1 + L_erf(x/sqrt2)) + x/2 * L_erf'(x/sqrt2)/sqrt2."""
    x = np.asarray(x, dtype=np.float64)
    l = erf_approx(x / _SQRT_2, delta1=delta1)
    dl = _erf_approx_derivative(x / _SQRT_2, delta1) / _SQRT_2
    return 0.5 * (1.0 + l) + 0.5 * x * dl


def gelu_error_propagation(x, input_error, delta1=DEFAULT_DELTA1):
    """Eq. 15: |dA/dx| * de for the approximated GELU."""
    return np.abs(gelu_approx_derivative(x, delta1=delta1)) * input_error


def softmax_error_bound(probabilities, input_error, delta2=DEFAULT_DELTA2):
    """Eq. 17: total output error 2*d2*|de|*A0*(1-A0) for a perturbed
    input coordinate with output probability ``A0``."""
    a0 = np.asarray(probabilities, dtype=np.float64)
    return 2.0 * delta2 * np.abs(input_error) * a0 * (1.0 - a0)


def softmax_error_empirical(x, index, input_error, axis=-1,
                            delta2=DEFAULT_DELTA2, approx=True):
    """Measured total |output change| when ``x[index]`` moves by ``de``.

    Supports both the approximated and the exact softmax so tests can
    compare against the analytic bound of Eq. 17.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    fn = ((lambda v: softmax_approx(v, axis=axis, delta2=delta2))
          if approx else (lambda v: softmax_exact(v, axis=axis)))
    base = fn(x)
    x[index] += input_error
    moved = fn(x)
    return np.abs(moved - base).sum()


def derivative_profile(x_grid=None, delta1=DEFAULT_DELTA1):
    """The Fig. 10 data: exact vs approximated GELU derivative.

    Returns ``(x, d_exact, d_approx)`` arrays.
    """
    if x_grid is None:
        x_grid = np.linspace(-6.0, 6.0, 241)
    x = np.asarray(x_grid, dtype=np.float64)
    return x, gelu_exact_derivative(x), gelu_approx_derivative(x, delta1)
