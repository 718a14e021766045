"""Reverse-mode automatic differentiation over numpy arrays.

This module is the training substrate for the whole reproduction.  The
paper trains token selectors with PyTorch; here we provide a compact but
complete autograd engine so that the multi-head token classifier, the
attention-based branch, and the Gumbel-Softmax decision can all be trained
end-to-end with exact gradients.

The design follows the classic tape-based approach: every ``Tensor``
records the operation that produced it and a backward closure; calling
``Tensor.backward()`` performs a topological sort of the graph and
accumulates gradients.  Broadcasting is fully supported -- gradients of
broadcast operands are reduced back to the operand's shape.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled():
    """Return True when new operations will be recorded on the tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad, shape):
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=np.float64):
    if isinstance(value, Tensor):
        raise TypeError("expected a raw array-like, got a Tensor")
    return np.asarray(value, dtype=dtype)


class Tensor:
    """An n-dimensional array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64`` for gradient-check
        friendliness (the models here are small, so precision beats speed).
    requires_grad:
        Whether gradients should be accumulated into ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad=False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad = None
        self._backward = None
        self._parents = ()
        self._op = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents, backward, op):
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
        return out

    @staticmethod
    def ensure(value):
        """Coerce ``value`` (Tensor or array-like) into a Tensor."""
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self):
        return self.transpose()

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def item(self):
        return self.data.item()

    def numpy(self):
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self):
        """Return a new Tensor sharing data but cut from the graph."""
        t = Tensor(self.data)
        return t

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "sub")

    def __rsub__(self, other):
        return Tensor.ensure(other) - self

    def __mul__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data * other.data

        def backward(grad):
            return (_unbroadcast(grad * other.data, self.shape),
                    _unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor.ensure(other)
        out_data = self.data / other.data

        def backward(grad):
            return (_unbroadcast(grad / other.data, self.shape),
                    _unbroadcast(-grad * self.data / (other.data ** 2),
                                 other.shape))

        return Tensor._make(out_data, (self, other), backward, "div")

    def __rtruediv__(self, other):
        return Tensor.ensure(other) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward, "pow")

    def __matmul__(self, other):
        other = Tensor.ensure(other)
        # Promote 1-D operands to 2-D and recurse; reshape is differentiable
        # so the gradients flow back to the original shapes automatically.
        if self.ndim == 1 and other.ndim == 1:
            return (self.reshape(1, -1) @ other.reshape(-1, 1)).reshape(())
        if self.ndim == 1:
            out = self.reshape(1, -1) @ other
            return out.reshape(out.shape[:-2] + out.shape[-1:])
        if other.ndim == 1:
            out = self @ other.reshape(-1, 1)
            return out.reshape(out.shape[:-1])

        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            ga = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
            return (ga, gb)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    # ------------------------------------------------------------------
    # Comparison (returns plain numpy; comparisons are not differentiable)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            return (grad.reshape(old_shape),)

        return Tensor._make(out_data, (self,), backward, "reshape")

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(out_data, (self,), backward, "transpose")

    def swapaxes(self, axis1, axis2):
        out_data = np.swapaxes(self.data, axis1, axis2)

        def backward(grad):
            return (np.swapaxes(grad, axis1, axis2),)

        return Tensor._make(out_data, (self,), backward, "swapaxes")

    def __getitem__(self, index):
        out_data = self.data[index]
        shape = self.shape

        def backward(grad):
            full = np.zeros(shape, dtype=grad.dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(out_data, (self,), backward, "getitem")

    @staticmethod
    def concatenate(tensors, axis=0):
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(grad):
            return tuple(np.split(grad, splits, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward, "concat")

    @staticmethod
    def stack(tensors, axis=0):
        tensors = [Tensor.ensure(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            pieces = np.split(grad, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        return Tensor._make(out_data, tuple(tensors), backward, "stack")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / count

    def var(self, axis=None, keepdims=False):
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if axis is None:
                mask = (self.data == out_data)
                g = grad * mask / mask.sum()
                return (g,)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (self.data == expanded)
            g = grad if keepdims else np.expand_dims(grad, axis)
            counts = mask.sum(axis=axis, keepdims=True)
            return (mask * g / counts,)

        return Tensor._make(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self):
        out_data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

        return Tensor._make(out_data, (self,), backward, "log")

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), backward, "sqrt")

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._make(out_data, (self,), backward, "tanh")

    def clip(self, min_value=None, max_value=None):
        out_data = np.clip(self.data, min_value, max_value)

        def backward(grad):
            mask = np.ones_like(self.data)
            if min_value is not None:
                mask = mask * (self.data >= min_value)
            if max_value is not None:
                mask = mask * (self.data <= max_value)
            return (grad * mask,)

        return Tensor._make(out_data, (self,), backward, "clip")

    def abs(self):
        out_data = np.abs(self.data)

        def backward(grad):
            return (grad * np.sign(self.data),)

        return Tensor._make(out_data, (self,), backward, "abs")

    __abs__ = abs

    def where(self, condition, other):
        """Select ``self`` where ``condition`` else ``other`` (condition is
        a plain boolean array and is treated as a constant)."""
        other = Tensor.ensure(other)
        cond = np.asarray(condition)
        out_data = np.where(cond, self.data, other.data)

        def backward(grad):
            return (_unbroadcast(grad * cond, self.shape),
                    _unbroadcast(grad * ~cond, other.shape))

        return Tensor._make(out_data, (self, other), backward, "where")

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None):
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (so scalar losses need no argument).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad
