"""Unit tests for the autodiff Tensor: forward semantics + exact grads."""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor

from tests.conftest import finite_difference


def gradcheck(build, x0, atol=1e-5):
    """Compare autodiff gradient with central finite differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = build(x)
    out.backward()
    numeric = finite_difference(lambda v: float(build(Tensor(v)).data),
                                x0)
    assert np.allclose(x.grad, numeric, atol=atol), (
        f"max err {np.abs(x.grad - numeric).max()}")


class TestForward:
    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4,)))
        assert np.allclose((a + b).data, a.data + b.data)

    def test_scalar_ops(self):
        t = Tensor([1.0, 2.0])
        assert np.allclose((2.0 * t + 1.0).data, [3.0, 5.0])
        assert np.allclose((1.0 - t).data, [0.0, -1.0])
        assert np.allclose((1.0 / t).data, [1.0, 0.5])

    def test_matmul_shapes(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        assert (a @ b).shape == (2, 3, 5)

    def test_matmul_vector_cases(self, rng):
        a = rng.normal(size=4)
        m = rng.normal(size=(4, 3))
        assert np.allclose((Tensor(a) @ Tensor(m)).data, a @ m)
        assert np.allclose((Tensor(m.T) @ Tensor(a)).data, m.T @ a)
        assert np.isclose(float((Tensor(a) @ Tensor(a)).data), a @ a)

    def test_reshape_transpose(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.reshape(6, 4).shape == (6, 4)
        assert x.transpose(2, 0, 1).shape == (4, 2, 3)
        assert x.swapaxes(0, 2).shape == (4, 3, 2)
        assert x.T.shape == (4, 3, 2)

    def test_getitem(self, rng):
        x = Tensor(rng.normal(size=(5, 4)))
        assert x[1:3].shape == (2, 4)
        assert x[:, 0].shape == (5,)

    def test_concat_stack(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 3)))
        assert Tensor.concatenate([a, b], axis=0).shape == (4, 3)
        assert Tensor.stack([a, b], axis=0).shape == (2, 2, 3)

    def test_reductions(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.isclose(float(x.sum().data), x.data.sum())
        assert np.allclose(x.mean(axis=0).data, x.data.mean(axis=0))
        assert np.allclose(x.var(axis=1).data, x.data.var(axis=1))
        assert np.allclose(x.max(axis=1).data, x.data.max(axis=1))

    def test_comparisons_plain_arrays(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert (x > 1.5).tolist() == [False, True, True]
        assert (x <= 2.0).tolist() == [True, True, False]

    def test_where(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        y = Tensor(np.zeros(4))
        cond = x.data > 0
        out = x.where(cond, y)
        assert np.allclose(out.data, np.where(cond, x.data, 0.0))

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        z = y * 3.0
        assert not z.requires_grad

    def test_repr_and_item(self):
        t = Tensor(3.0, requires_grad=True)
        assert "requires_grad" in repr(t)
        assert t.item() == 3.0


class TestBackward:
    def test_add(self, rng):
        gradcheck(lambda x: (x + x * 2.0).sum(), rng.normal(size=(3, 2)))

    def test_mul_broadcast(self, rng):
        w = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        (x * w).sum().backward()
        assert np.allclose(w.grad, x.data.sum(axis=0))
        assert np.allclose(x.grad, np.broadcast_to(w.data, (3, 4)))

    def test_div(self, rng):
        gradcheck(lambda x: (x / (x * x + 2.0)).sum(),
                  rng.normal(size=(4,)))

    def test_pow(self, rng):
        gradcheck(lambda x: (x ** 3).sum(), rng.normal(size=(3,)))

    def test_matmul(self, rng):
        a0 = rng.normal(size=(3, 4))
        b = Tensor(rng.normal(size=(4, 2)))
        gradcheck(lambda x: (x @ b).sum(), a0)

    def test_batched_matmul(self, rng):
        b = Tensor(rng.normal(size=(2, 4, 3)))
        gradcheck(lambda x: (x @ b).sum(), rng.normal(size=(2, 5, 4)))

    def test_matmul_broadcast_weight_grad(self, rng):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 5, 4)))
        (x @ w).sum().backward()
        expected = x.data.reshape(-1, 4).T @ np.ones((10, 3))
        assert np.allclose(w.grad, expected)

    def test_exp_log_sqrt_tanh(self, rng):
        x0 = np.abs(rng.normal(size=(4,))) + 0.5
        gradcheck(lambda x: x.exp().sum(), x0)
        gradcheck(lambda x: x.log().sum(), x0)
        gradcheck(lambda x: x.sqrt().sum(), x0)
        gradcheck(lambda x: x.tanh().sum(), x0)

    def test_clip_abs(self, rng):
        x0 = rng.normal(size=(6,)) * 2
        x0 = x0[np.abs(np.abs(x0) - 1.0) > 1e-3]  # keep off the kink
        gradcheck(lambda x: x.clip(-1.0, 1.0).sum(), x0)
        gradcheck(lambda x: x.abs().sum(), x0)

    def test_reductions_grad(self, rng):
        gradcheck(lambda x: x.mean(), rng.normal(size=(3, 4)))
        gradcheck(lambda x: x.var(axis=1).sum(), rng.normal(size=(3, 4)))
        gradcheck(lambda x: x.sum(axis=0, keepdims=True).sum(),
                  rng.normal(size=(3, 4)))

    def test_max_grad_routes_to_argmax(self):
        x = Tensor([[1.0, 5.0], [7.0, 2.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0, 1], [1, 0]])

    def test_getitem_grad(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        x[1:4].sum().backward()
        expected = np.zeros((5, 3))
        expected[1:4] = 1.0
        assert np.allclose(x.grad, expected)

    def test_concat_grad(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0 * np.ones((2, 3)))
        assert np.allclose(b.grad, 2.0 * np.ones((4, 3)))

    def test_grad_accumulates_across_backward(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert np.allclose(x.grad, [5.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = y + y * y
        z.backward()
        # dz/dx = 3 + 2*y*3 = 3 + 36 = 39
        assert np.allclose(x.grad, [39.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert nn.is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """Two threads whose ``no_grad`` blocks interleave (a enters, b
        enters, a leaves, b leaves -- two sessions submitting at once)
        leave recording on, and neither stops the main thread
        recording meanwhile."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        x = Tensor([1.0], requires_grad=True)
        recorded = []

        def a():
            with nn.no_grad():
                a_in.set()
                b_in.wait(10)
                recorded.append((x * 2.0).requires_grad)
            a_out.set()

        def b():
            a_in.wait(10)
            with nn.no_grad():
                b_in.set()
                a_out.wait(10)

        threads = [threading.Thread(target=f) for f in (a, b)]
        for thread in threads:
            thread.start()
        b_in.wait(10)
        assert (x * 2.0).requires_grad
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert recorded == [False]
        assert nn.is_grad_enabled() and (x * 2.0).requires_grad

    def test_transpose_reshape_grad(self, rng):
        gradcheck(lambda x: (x.transpose(1, 0).reshape(2, 6) * 3.0).sum(),
                  rng.normal(size=(4, 3)))


class TestErrors:
    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_load_into_tensor_from_tensor(self):
        t = Tensor(Tensor([1.0, 2.0]))
        assert t.shape == (2,)
