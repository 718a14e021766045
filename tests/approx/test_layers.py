"""Tests for the differentiable (Tensor) approximation layers."""

import numpy as np
import pytest

from repro import nn
from repro.approx import (ApproxGELU, ApproxSigmoid, ApproxSoftmax,
                          erf_approx, exp_approx, gelu_approx, sigmoid_plan,
                          softmax_approx)
from repro.nn.tensor import Tensor

from tests.conftest import finite_difference


class TestOneDefinition:
    @pytest.mark.parametrize("fn, make", [
        (lambda v: erf_approx(v, delta1=0.37), lambda x: x),
        (lambda v: gelu_approx(v, delta1=0.5), lambda x: x),
        (exp_approx, lambda x: -np.abs(x)),
        (lambda v: softmax_approx(v, axis=1, delta2=0.5), lambda x: x),
        (sigmoid_plan, lambda x: x),
    ], ids=["erf", "gelu", "exp", "softmax", "sigmoid"])
    def test_ndarray_and_tensor_give_identical_bytes(self, rng, fn, make):
        x = make(rng.normal(size=(3, 9, 4)) * 4)
        out = fn(x)
        assert isinstance(out, np.ndarray)
        assert fn(Tensor(x)).data.tobytes() == out.tobytes()


class TestGradients:
    def test_gelu_grad_matches_fd(self, rng):
        x0 = rng.normal(size=(6,))
        x = Tensor(x0.copy(), requires_grad=True)
        gelu_approx(x).sum().backward()
        numeric = finite_difference(
            lambda v: float(gelu_approx(Tensor(v)).sum().data), x0)
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_softmax_grad_exists(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        (softmax_approx(x) ** 2).sum().backward()
        assert x.grad is not None
        assert np.all(np.isfinite(x.grad))

    def test_sigmoid_grad_piecewise_slopes(self):
        x = Tensor(np.array([0.5, 1.5, 3.0, 6.0]), requires_grad=True)
        sigmoid_plan(x).sum().backward()
        assert np.allclose(x.grad, [0.25, 0.125, 0.03125, 0.0])


class TestModules:
    def test_drop_in_replacements(self, rng):
        x = Tensor(rng.normal(size=(2, 6)))
        assert ApproxGELU()(x).shape == (2, 6)
        assert ApproxSigmoid()(x).shape == (2, 6)
        out = ApproxSoftmax()(x)
        assert np.allclose(out.data.sum(-1), 0.5)

    def test_finetune_through_approx_gelu(self, rng):
        """A model can be fine-tuned with the approximation in the loop."""
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), ApproxGELU(),
                              nn.Linear(8, 1, rng=rng))
        opt = nn.SGD(model.parameters(), lr=0.05)
        x = Tensor(rng.normal(size=(16, 4)))
        target = Tensor(rng.normal(size=(16, 1)))
        losses = []
        for _ in range(30):
            from repro.nn import functional as F
            loss = F.mse_loss(model(x), target)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
