"""Fast quantized-path kernels: the paper's polynomial nonlinearities
plus dynamic per-tensor activation quantization, float32 and in place.

The ``backend="int8"`` serving grade (:mod:`.quantized`) runs these on
:class:`.Workspace` scratch.  They are free to reassociate
(reciprocal-multiplies, a ``trunc``/``exp2`` shift-based exp, constants
folded into the polynomials) because the float32 lane is gated on
top-1/keep *agreement* with the :func:`repro.quant.quantize_model`
simulation, not bitwise parity.  The float64 parity grade needs no
kernels of its own: it calls the one definition of each equation in
:mod:`repro.approx` and :func:`repro.quant.quantize`, which is what the
simulation runs.  The one exception is :func:`layer_norm_reference`
(its LayerNorm slot), which mirrors :func:`repro.nn.functional.layer_norm`
on arrays because numpy and the Tensor ``mean``/``var`` do not reduce
alike.
"""

from __future__ import annotations

import math

import numpy as np

from repro.approx.polynomial import (ERF_A, ERF_B, _EXP_C0, _EXP_C1,
                                     _EXP_C2, _LN2, _SQRT_2)

__all__ = ["layer_norm_reference", "quantize_fast", "approx_gelu_fast",
           "approx_softmax_fast"]

# Floor of the activation scale: float32's smallest normal, 2^-126, so
# the reciprocal the kernel multiplies by (2^126 at most) stays finite
# in float32 -- float64's floor would overflow it to inf.
_TINY = float(np.finfo(np.float32).tiny)
# sqrt(c0) folded into the polynomial's linear term so the fast exp
# evaluates c0*(p + c1)^2 + c2 as (s*p + s*c1)^2 + c2 -- one pass less.
_SQRT_C0 = float(np.sqrt(_EXP_C0))
# The fast GELU clips |x| (not |x/sqrt2|), folding the 1/sqrt(2) into
# the clip bound and the square's coefficient:
#   a*(min(|u|,-b)+b)^2 + 1 == (a/2)*(min(|x|,-b*sqrt2)+b*sqrt2)^2 + 1.
_GELU_CLIP = float(-ERF_B * _SQRT_2)
_GELU_SHIFT = float(ERF_B * _SQRT_2)
_GELU_A2 = float(ERF_A / 2.0)


def layer_norm_reference(x, weight, bias, eps):
    """Bitwise mirror of :func:`repro.nn.functional.layer_norm`.

    Same reduction order (``sum / n``), same division by the epsilon'd
    standard deviation (no reciprocal-multiply), affine applied last --
    never folded into the next GEMM, because folding would change which
    weights the quantizer sees.
    """
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    centered = x - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    normed = centered / np.sqrt(var + eps)
    return normed * weight + bias


def quantize_fast(x, qmax, ws, key, out=None):
    """Dynamic per-tensor quantization into workspace scratch.

    Returns ``(q, scale)`` with ``q`` integer-valued in ``x``'s dtype.
    Two whole-buffer min/max reductions replace
    :func:`repro.quant.calibrate_minmax`'s ``abs().max()`` pass, and the
    scaling is a reciprocal-multiply; the clip is skipped entirely
    because with an abs-max-derived scale ``|rint(x / scale)| <= qmax``
    already holds (the half-ulp slack of the reciprocal cannot push
    ``rint`` past ``qmax + 0.5``).  A tensor whose abs-max is below
    ``qmax * 2^-126`` gets the floor scale ``2^-126``: its reciprocal is
    exact, so ``|q| = |x| * 2^126 < qmax`` still holds without a clip.
    """
    if x.size:
        amax = max(float(x.max()), -float(x.min()))
    else:
        amax = 0.0
    if not math.isfinite(amax):
        raise ValueError(
            f"cannot calibrate quantization on non-finite input "
            f"(abs-max is {amax}); clean NaN/inf values first")
    if amax == 0.0:
        amax = 1.0
    scale = max(amax / qmax, _TINY)
    q = ws.take(key, x.shape) if out is None else out
    np.multiply(x, x.dtype.type(1.0 / scale), out=q)
    np.rint(q, out=q)
    return q, scale


def approx_gelu_fast(x, delta1, ws, key):
    """Polynomial GELU (Eq. 12) in place on ``x``.

    ``x/2 * (1 + delta1 * sign(x) * E(|x|))`` with ``x * sign(x) = |x|``
    is ``x/2 + (delta1/2) * |x| * E``, so no pass transfers a sign.  Pure
    arithmetic -- no ``exp``/``erf``/``reciprocal``/``copysign`` -- in
    nine passes over two scratch buffers (``|x|`` and the polynomial);
    the 1/sqrt2 is folded into the clip constants and ``delta1/2`` into
    the polynomial's two coefficients.  The fast lane's answer to the
    paper's fixed-function GELU unit.
    """
    dt = x.dtype.type
    half = 0.5 * delta1
    mag = ws.take(key + "a", x.shape)
    poly = ws.take(key + "p", x.shape)
    np.abs(x, out=mag)
    np.minimum(mag, dt(_GELU_CLIP), out=poly)
    poly += dt(_GELU_SHIFT)
    np.multiply(poly, poly, out=poly)
    poly *= dt(_GELU_A2 * half)
    poly += dt(half)                      # (delta1/2) * erf-poly of |x|
    poly *= mag
    x *= dt(0.5)
    x += poly
    return x


def approx_softmax_fast(scores, bias, delta2, ws, key):
    """Shift-based-exp softmax (Eqs. 13-14) in place over the last axis.

    ``bias`` is an optional ``(B, T)`` additive key bias folded in
    before the shift.  :func:`repro.approx.exp_approx`'s ``z``/``p``
    decomposition (``floor`` + two full-tensor fixups) collapses into a
    ``trunc`` + subtract (truncation == its ``floor`` because the
    shifted scores are non-positive), and the power-of-two rescale is a
    single ``np.exp2`` on the integer-valued ``-z`` buffer -- exact for
    integers, and benchmarked barely above a multiply (unlike ``modf``
    / ``ldexp``, which cost ~10x/4x that).  Masked keys sit near
    ``-1e9``: their ``exp2`` argument (~ ``-1.4e9``) underflows to an
    exact ``0.0`` weight, preserving the engine's padding invariant.
    """
    dt = scores.dtype.type
    if bias is not None:
        scores += bias.reshape(bias.shape[0],
                               *([1] * (scores.ndim - 2)), bias.shape[1])
    t = scores.shape[-1]
    flat = scores.reshape(-1, t)
    peak = ws.take(key + "_max", (flat.shape[0], 1))
    np.maximum.reduce(flat, axis=-1, keepdims=True, out=peak)
    np.subtract(flat, peak, out=flat)                  # <= 0
    flat *= dt(1.0 / _LN2)                             # x / ln2, <= 0
    whole = ws.take(key + "_int", scores.shape).reshape(flat.shape)
    np.trunc(flat, out=whole)             # integer-valued -z
    np.subtract(flat, whole, out=flat)    # frac in (-1, 0]
    flat *= dt(_SQRT_C0 * _LN2)
    flat += dt(_SQRT_C0 * _EXP_C1)
    np.multiply(flat, flat, out=flat)
    flat += dt(_EXP_C2)                   # c0*(p + c1)^2 + c2
    np.exp2(whole, out=whole)             # 2^(-z), exact on integers
    flat *= whole                         # exp~(x - max)
    total = ws.take(key + "_sum", (flat.shape[0], 1))
    np.matmul(flat, ws.ones(key + "_ones", (t, 1)), out=total)
    np.reciprocal(total, out=total)
    flat *= total
    if delta2 != 1.0:
        flat *= dt(delta2)
    return scores
