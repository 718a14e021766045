"""Polynomial approximations of ViT nonlinear functions (paper Sec. V-D).

These are the hardware-friendly replacements for GELU, Softmax, and
Sigmoid that avoid the Vitis HLS math library's expensive ``exp``/``erf``
cores (Table III).  The GELU and Softmax approximations carry explicit
regularization factors ``delta1``/``delta2`` (< 1) that *shrink* the
function's derivative and therefore damp quantization-error propagation
(Sec. V-E); pass ``delta=1.0`` for a pure I-BERT-style approximation.

Each equation is written once, for a numpy array or a :class:`Tensor`
alike, so the two agree bit for bit: constants of the forward pass
(``sign``, the shift ``z``, the PLAN masks) are read from the raw data,
and the Tensor operand stays on the left of every mixed operation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "ERF_A", "ERF_B", "DEFAULT_DELTA1", "DEFAULT_DELTA2",
    "erf_approx", "gelu_approx", "exp_approx", "softmax_approx",
    "sigmoid_plan", "gelu_exact", "softmax_exact", "sigmoid_exact",
]

# Second-order erf fit constants (Eq. 11, from I-BERT).
ERF_A = -0.2888
ERF_B = -1.769
# Regularization factors used throughout the paper's experiments.
DEFAULT_DELTA1 = 0.5
DEFAULT_DELTA2 = 0.5

# exp(p) fit on p in (-ln2, 0] (Eq. 14).
_EXP_C0 = 0.3585
_EXP_C1 = 1.353
_EXP_C2 = 0.344

_LN2 = float(np.log(2.0))
_SQRT_2 = float(np.sqrt(2.0))


def _operand(x):
    """``x`` as a Tensor or a float64 array, and its raw data."""
    if isinstance(x, Tensor):
        return x, x.data
    x = np.asarray(x, dtype=np.float64)
    return x, x


def erf_approx(x, delta1=DEFAULT_DELTA1):
    """``L_erf`` (Eq. 11): sign(x) * d1 * [a*(min(|x|,-b)+b)^2 + 1].

    The clip at ``|x| = -b`` saturates the polynomial exactly where the
    true erf saturates; ``delta1 < 1`` then shrinks the whole output
    range as the quantization-error regularizer.  ``sign(x)`` is a
    constant, which matches the true (a.e.) derivative.
    """
    x, data = _operand(x)
    poly = (abs(x).clip(None, -ERF_B) + ERF_B) ** 2 * ERF_A + 1.0
    return poly * np.sign(data) * delta1


def gelu_approx(x, delta1=DEFAULT_DELTA1):
    """``GELU_aprx`` (Eq. 12): x/2 * (1 + L_erf(x / sqrt(2)))."""
    x, _ = _operand(x)
    return x * 0.5 * (erf_approx(x / _SQRT_2, delta1=delta1) + 1.0)


def exp_approx(x):
    """Shift-based exp for non-positive inputs (Eqs. 13-14 machinery).

    Decompose ``x = (-ln 2) * z + p`` with integer ``z >= 0`` and
    ``p in (-ln2, 0]``; then ``exp(x) = exp(p) >> z`` where ``exp(p)`` is
    the second-order fit of Eq. 14.  On the FPGA the ``>> z`` is a free
    barrel shift; here it is ``* 2.0 ** -z``.  The shift count is a
    constant, so the gradient flows only through the polynomial -- the
    same piecewise-smooth behaviour the hardware exhibits.
    """
    x, data = _operand(x)
    if np.any(data > 1e-9):
        raise ValueError("exp_approx expects non-positive inputs "
                         "(apply the max-subtraction first)")
    z = np.floor(-np.minimum(data, 0.0) / _LN2)
    exp_p = (x + z * _LN2 + _EXP_C1) ** 2 * _EXP_C0 + _EXP_C2
    return exp_p * np.exp2(-z)


def softmax_approx(x, axis=-1, delta2=DEFAULT_DELTA2):
    """``Softmax_aprx`` (Eq. 13): d2 * exp~(x - max) / sum exp~(x - max).

    The max subtraction guarantees non-positive inputs for
    :func:`exp_approx`; ``delta2 < 1`` scales the output distribution so
    downstream quantization error shrinks (Eq. 17).  A ``-1e9``
    key-padding bias drives ``2^-z`` to an exact ``0.0`` weight.
    """
    x, data = _operand(x)
    exps = exp_approx(x - data.max(axis=axis, keepdims=True))
    return exps / exps.sum(axis=axis, keepdims=True) * delta2


def sigmoid_plan(x):
    """PLAN piecewise-linear sigmoid (Tsmots et al., used in Sec. V-D).

    Exact on the breakpoints' plateaus, within ~2e-2 of the true sigmoid
    everywhere; only adders/shifters on hardware.  ``|x|`` is clipped at
    5, where the top segment reaches 1 exactly, so ``±inf`` map to 1/0;
    each segment is linear under a constant mask, so the gradient is
    exact almost everywhere.
    """
    x, data = _operand(x)
    ax = abs(x).clip(None, 5.0)
    mag = np.abs(data)
    top = mag >= 2.375
    mid = (mag >= 1.0) & ~top
    y = ((ax * 0.03125 + 0.84375) * top + (ax * 0.125 + 0.625) * mid
         + (ax * 0.25 + 0.5) * (mag < 1.0))
    positive = data >= 0.0
    return y * positive + (1.0 - y) * ~positive


# ----------------------------------------------------------------------
# Exact references (numpy) for error measurements.  SciPy is imported
# on first use: the int8 serving path imports this module for the
# approximations above and never calls these.
# ----------------------------------------------------------------------
def gelu_exact(x):
    from scipy import special

    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + special.erf(x / _SQRT_2))


def softmax_exact(x, axis=-1):
    from scipy import special

    return special.softmax(np.asarray(x, dtype=np.float64), axis=axis)


def sigmoid_exact(x):
    from scipy import special

    return special.expit(np.asarray(x, dtype=np.float64))
