"""Drop-in modules around the one definition of each approximated
function in :mod:`repro.approx.polynomial`, which differentiates through
a :class:`Tensor`, so models can be *fine-tuned with the approximations
in the loop*, as the paper does ("for each model, we try multiple sets
of token pruning ratios and there is no accuracy drop between the
approximate model and the original one").
"""

from __future__ import annotations

from repro import nn
from repro.nn.tensor import Tensor
from repro.approx.polynomial import (DEFAULT_DELTA1, DEFAULT_DELTA2,
                                     gelu_approx, sigmoid_plan,
                                     softmax_approx)

__all__ = ["ApproxGELU", "ApproxSigmoid", "ApproxSoftmax"]


class ApproxGELU(nn.Module):
    """Drop-in replacement for :class:`repro.nn.GELU` (Eq. 12)."""

    def __init__(self, delta1=DEFAULT_DELTA1):
        super().__init__()
        self.delta1 = delta1

    def forward(self, x):
        return gelu_approx(Tensor.ensure(x), delta1=self.delta1)


class ApproxSigmoid(nn.Module):
    """Drop-in replacement for :class:`repro.nn.Sigmoid` (PLAN)."""

    def forward(self, x):
        return sigmoid_plan(Tensor.ensure(x))


class ApproxSoftmax(nn.Module):
    """Drop-in replacement for :class:`repro.nn.Softmax` (Eq. 13)."""

    def __init__(self, axis=-1, delta2=DEFAULT_DELTA2):
        super().__init__()
        self.axis = axis
        self.delta2 = delta2

    def forward(self, x):
        return softmax_approx(Tensor.ensure(x), axis=self.axis,
                              delta2=self.delta2)
