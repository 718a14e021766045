"""Polynomial approximations of nonlinear functions + regularization."""

from repro.approx.polynomial import (DEFAULT_DELTA1, DEFAULT_DELTA2, ERF_A,
                                     ERF_B, erf_approx, exp_approx,
                                     gelu_approx, gelu_exact, sigmoid_exact,
                                     sigmoid_plan, softmax_approx,
                                     softmax_exact)
from repro.approx.layers import ApproxGELU, ApproxSigmoid, ApproxSoftmax
from repro.approx.regularization import (derivative_profile,
                                         gelu_approx_derivative,
                                         gelu_error_propagation,
                                         gelu_exact_derivative,
                                         softmax_error_bound,
                                         softmax_error_empirical)

__all__ = [
    "ERF_A", "ERF_B", "DEFAULT_DELTA1", "DEFAULT_DELTA2",
    "erf_approx", "gelu_approx", "exp_approx", "softmax_approx",
    "sigmoid_plan", "gelu_exact", "softmax_exact", "sigmoid_exact",
    "gelu_exact_derivative", "gelu_approx_derivative",
    "gelu_error_propagation", "softmax_error_bound",
    "softmax_error_empirical", "derivative_profile",
    "ApproxGELU", "ApproxSigmoid", "ApproxSoftmax",
]
