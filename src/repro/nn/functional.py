"""Differentiable functional operations used throughout the reproduction.

Every function here accepts and returns :class:`repro.nn.Tensor` and is
exercised by gradient-check tests against finite differences.

``scipy.special`` is imported by the functions that call it, not here:
the compiled float32 serving path imports this package but never runs
a Tensor op, and a module-level import would make every server and
worker process pay SciPy's ~0.3 s import.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "erf",
    "gelu",
    "relu",
    "hardswish",
    "sigmoid",
    "softmax",
    "log_softmax",
    "layer_norm",
    "one_hot",
    "gumbel_softmax",
    "cross_entropy",
    "kl_divergence",
    "mse_loss",
]

_SQRT_2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def erf(x):
    """Gauss error function, the exact one used by GELU (paper Eq. 12)."""
    from scipy import special

    x = Tensor.ensure(x)
    out_data = special.erf(x.data)

    def backward(grad):
        return (grad * (2.0 / np.sqrt(np.pi)) * np.exp(-x.data ** 2),)

    return Tensor._make(out_data, (x,), backward, "erf")


def gelu(x):
    """Exact GELU activation: ``x/2 * (1 + erf(x / sqrt(2)))``."""
    x = Tensor.ensure(x)
    return x * 0.5 * (erf(x / _SQRT_2) + 1.0)


def relu(x):
    x = Tensor.ensure(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad):
        return (grad * (x.data > 0.0),)

    return Tensor._make(out_data, (x,), backward, "relu")


def hardswish(x):
    """Hardswish from MobileNetV3: ``x * relu6(x + 3) / 6``."""
    x = Tensor.ensure(x)
    inner = (x + 3.0).clip(0.0, 6.0)
    return x * inner / 6.0


def sigmoid(x):
    from scipy import special

    x = Tensor.ensure(x)
    out_data = special.expit(x.data)

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (x,), backward, "sigmoid")


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``."""
    x = Tensor.ensure(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    x = Tensor.ensure(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def layer_norm(x, weight, bias, eps=1e-6):
    """Layer normalization over the last dimension.

    The paper leaves LayerNorm on the ARM CPU of the ZCU102 (Section V);
    algorithmically it is the standard affine normalization.
    """
    x = Tensor.ensure(x)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) / (var + eps).sqrt()
    return normed * weight + bias


def one_hot(indices, num_classes):
    """Return a constant one-hot float array (not differentiable)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def gumbel_softmax(logits, tau=1.0, hard=True, axis=-1, rng=None):
    """Gumbel-Softmax with the straight-through estimator (paper Eq. 9).

    ``hard=True`` returns one-hot samples in the forward pass while
    gradients flow through the soft relaxation -- exactly the trick the
    paper uses to make the binary keep/prune decision trainable.
    """
    logits = Tensor.ensure(logits)
    rng = np.random.default_rng() if rng is None else rng
    uniform = rng.uniform(low=np.finfo(np.float64).tiny, high=1.0,
                          size=logits.shape)
    gumbel_noise = -np.log(-np.log(uniform))
    noisy = (logits + Tensor(gumbel_noise)) / tau
    soft = softmax(noisy, axis=axis)
    if not hard:
        return soft
    index = soft.data.argmax(axis=axis)
    hard_sample = one_hot(index, logits.shape[axis])
    if axis not in (-1, logits.ndim - 1):
        hard_sample = np.moveaxis(hard_sample, -1, axis)
    # Straight-through: forward is hard, backward is d(soft).
    return soft + Tensor(hard_sample - soft.data)


def cross_entropy(logits, targets):
    """Mean cross-entropy; ``targets`` are integer class ids or one-hot."""
    logits = Tensor.ensure(logits)
    logp = log_softmax(logits, axis=-1)
    targets = np.asarray(targets)
    if targets.ndim == logits.ndim - 1:
        targets = one_hot(targets, logits.shape[-1])
    per_sample = -(logp * Tensor(targets)).sum(axis=-1)
    return per_sample.mean()


def kl_divergence(student_logits, teacher_logits, temperature=1.0):
    """KL(teacher || student) distillation loss as used by DeiT.

    ``teacher_logits`` is treated as a constant (no gradient through the
    teacher), matching standard knowledge distillation.
    """
    from scipy import special

    student_logits = Tensor.ensure(student_logits)
    teacher = np.asarray(
        teacher_logits.data if isinstance(teacher_logits, Tensor)
        else teacher_logits)
    t = float(temperature)
    teacher_prob = special.softmax(teacher / t, axis=-1)
    student_logp = log_softmax(student_logits / t, axis=-1)
    teacher_logp = np.log(np.clip(teacher_prob, 1e-12, None))
    per_sample = (Tensor(teacher_prob)
                  * (Tensor(teacher_logp) - student_logp)).sum(axis=-1)
    return per_sample.mean() * (t * t)


def mse_loss(prediction, target):
    prediction = Tensor.ensure(prediction)
    target = Tensor.ensure(target)
    diff = prediction - target
    return (diff * diff).mean()
