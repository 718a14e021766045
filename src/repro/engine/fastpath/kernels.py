"""Fused pure-ndarray kernels for the serving fast path.

Each routine here replaces a chain of 4-6 small autograd ``Tensor`` ops
with one or two in-place passes over caller-provided buffers: no tape
bookkeeping, no per-op allocations, and the caller's :class:`Workspace`
scratch is reused across calls.  The float64 variants track the Tensor
reference implementations (:mod:`repro.nn.functional`) to well under the
engine's 1e-8 parity bound; float32 trades ~1e-6-level rounding for
roughly half the memory traffic.

Activation kernels share the signature ``fn(x, ws, key)``: ``x`` is
transformed in place, scratch comes from the workspace under ``key``.

Conventions
-----------
* ``out`` buffers are fully overwritten; aliasing ``out`` with an input
  is only allowed where a kernel documents it.
* Reductions go through ``np.add.reduce`` / ``np.maximum.reduce``
  directly -- the ``ndarray.mean``/``max`` wrappers cost real time at
  serving batch shapes -- and divide exactly like ``np.mean`` so parity
  with the Tensor reference is preserved.
* The masked softmax folds the key-padding bias into the single
  max/exp/sum pass; a ``-1e9`` bias underflows to an exactly-zero
  attention weight in both dtypes, preserving the engine's padding
  invariant.
* Every kernel is a whole-array kernel: it makes its passes over
  whatever it is handed and computes each row (softmax, LayerNorm) or
  element (GELU) from that row or element alone.  Keeping the operand
  small enough to stay in cache between passes is the caller's job --
  :meth:`.compiled.CompiledBlock.forward` hands them one chunk of
  images at a time.
* Scalar constants are Python floats.  A ``np.float64`` scalar is not a
  weak type: it turns a float32 pass into a float64 loop plus a cast,
  at ~4x the cost.
* Float32 compiles run GELU, the attention softmax and LayerNorm
  natively where they can: :mod:`.native` builds ``gelu.c`` (the same
  arithmetic as :func:`gelu_rational` on the same ``_ERF_C`` /
  ``_ERF_A``) and ``rows.c`` (one sweep per row for
  :func:`masked_softmax` and the affine-free :func:`fused_layer_norm`)
  at set-up.  The numpy kernels stay the definitions and the fallback
  when no compiler is found or the build fails; a change to their
  arithmetic must be made in the C source too (``gelu.c`` reads the
  constants from here at each call).  The C loops compute every
  element, or every row, through fixed-width vector code, so their bits
  do not depend on an element's offset or a row's neighbours -- keep
  it that way (``tests/engine/test_native_gelu.py``,
  ``tests/engine/test_native_rows.py``).  The numpy float32 softmax
  does not have that property: its shift-free branch is chosen from
  the whole operand.  Float64 compiles and the int8 float32 grade (held
  bitwise, its sums through BLAS) keep the numpy kernels, as does the
  selector's LayerNorm and 2-way softmax, whose rounding steers keep
  decisions.
* No SciPy at import.  The float32 kernels are numpy only
  (:func:`gelu_rational`, :func:`sigmoid`); the float64 parity-grade
  :func:`gelu_exact` imports ``scipy.special`` where it calls it, so a
  process that serves float32 or int8 never loads SciPy (~0.3 s of
  every server and worker start).  A compiled part that calls SciPy
  holds a :class:`SciPyImport`, which loads it when the part is built
  or unpickled, before its first request.
"""

from __future__ import annotations

import importlib

import numpy as np

__all__ = ["fused_layer_norm", "masked_softmax", "gelu_exact",
           "gelu_rational", "sigmoid", "mask_to_bias", "MASK_BIAS",
           "SciPyImport"]

_SQRT_2 = float(np.sqrt(2.0))

#: Additive score penalty for masked attention keys.  Matches the
#: Tensor reference (`repro.vit.attention`): exp(-1e9 - max) underflows
#: to exactly 0.0 in float32 and float64 alike.
MASK_BIAS = -1e9


def mask_to_bias(key_mask, dtype, out=None):
    """Turn a ``(B, T)`` {0,1} key mask into an additive score bias row.

    Returns ``(1 - mask) * MASK_BIAS`` in ``dtype`` -- broadcast over
    the score tensor's query axes by :func:`masked_softmax`.
    """
    mask = np.asarray(key_mask)
    if out is None:
        out = np.empty(mask.shape, dtype=dtype)
    np.subtract(1.0, mask, out=out, casting="unsafe")
    out *= MASK_BIAS
    return out


def masked_softmax(scores, bias, ws, key="sm"):
    """Single-pass masked softmax over the last axis, in place.

    ``scores``: ``(B, h, T, T)`` (or any >=2-D) attention scores,
    overwritten with probabilities.  ``bias``: ``None`` or a ``(B, T)``
    additive key bias (from :func:`mask_to_bias`) broadcast over the
    middle axes, folded in before the max/exp/sum pass so masked keys
    get exactly zero weight.  The row sums run as one BLAS matvec
    against a ones-vector cached in ``ws`` (~6x the speed of a
    last-axis ``add.reduce`` at serving shapes) and the normalization
    is a reciprocal-multiply; both deviate from the reference only in
    summation/rounding order.  Returns ``scores``.
    """
    if bias is not None:
        # (B, T) -> (B, 1, ..., 1, T) to match scores' rank.
        bias = bias.reshape(bias.shape[0],
                            *([1] * (scores.ndim - 2)), bias.shape[1])
    t = scores.shape[-1]
    flat = scores.reshape(-1, t)
    # Softmax is shift-invariant, so the per-row max subtraction is
    # purely for numerical range.  When the raw scores provably cannot
    # overflow/underflow exp (|score| < 60: exp(+-60) is finite and
    # normal in float32), skip the shift entirely -- two cheap
    # contiguous whole-buffer reductions replace the slow last-axis
    # row max plus a full-size subtract.  Out-of-range scores take the
    # reference max-shifted path.
    whole = scores.reshape(-1)
    safe = (np.minimum.reduce(whole) > -60.0
            and np.maximum.reduce(whole) < 60.0)
    if bias is not None:
        scores += bias
    if safe:
        # Masked keys sit at ~-1e9 after the bias: exp underflows to
        # an exact 0.0, same as on the shifted path.
        np.exp(flat, out=flat)
    else:
        peak = ws.take(key + "_max", (flat.shape[0], 1))
        np.maximum.reduce(flat, axis=-1, keepdims=True, out=peak)
        np.subtract(flat, peak, out=flat)
        np.exp(flat, out=flat)
    total = ws.take(key + "_sum", (flat.shape[0], 1))
    np.matmul(flat, ws.ones(key + "_ones", (t, 1)), out=total)
    np.reciprocal(total, out=total)
    flat *= total
    return scores


def fused_layer_norm(x, weight, bias, eps, out, ws, key="ln"):
    """LayerNorm over the last axis into ``out`` (``out`` may not alias
    ``x``).

    One centering pass, one variance reduction, then the affine applied
    in place -- versus the reference's seven tape ops.  Matches
    :func:`repro.nn.functional.layer_norm` (biased variance, additive
    ``eps`` under the square root) up to summation/rounding order: the
    mean and variance run as BLAS matvecs against a ``1/n`` vector
    cached in ``ws``.

    ``weight``/``bias`` may be ``None`` when the affine has been folded
    into the next GEMM's weights at compile time (see
    :class:`repro.engine.fastpath.CompiledBlock`) -- the kernel then
    stops at the normalized (zero-mean, unit-variance) activations.
    """
    n = x.shape[-1]
    mean_vec = ws.full(key + "_mv", (n, 1), 1.0 / n)
    lead = x.shape[:-1]
    mu = ws.take(key + "_mu", lead + (1,))
    np.matmul(x, mean_vec, out=mu)
    np.subtract(x, mu, out=out)
    scratch = ws.take(key + "_sq", x.shape)
    np.square(out, out=scratch)
    var = ws.take(key + "_var", lead + (1,))
    np.matmul(scratch, mean_vec, out=var)
    var += eps
    np.sqrt(var, out=var)
    np.reciprocal(var, out=var)
    out *= var
    if weight is not None:
        out *= weight
        out += bias
    return out


def gelu_exact(x, ws, key):
    """Exact (erf) GELU in place on ``x``.  Matches the Tensor
    reference ``x/2 * (1 + erf(x/sqrt 2))`` -- the parity-grade float64
    choice."""
    from scipy import special

    scratch = ws.take(key + "0", x.shape)
    np.multiply(x, 1.0 / _SQRT_2, out=scratch)
    special.erf(scratch, out=scratch)
    scratch += 1.0
    scratch *= 0.5
    x *= scratch
    return x


class SciPyImport:
    """Imports ``scipy.special`` when built and again when unpickled.

    SciPy is imported where it is called, so that a process serving
    float32 or int8 never loads it.  A compiled part whose numerics
    call it -- a float64 kernel, a Tensor module run in place of a
    kernel, the tensor backend's executor -- holds one, so the ~0.3 s
    import happens when the part is built, or when a worker unpickles
    it, and never inside its first request.
    """

    __slots__ = ()

    def __init__(self):
        importlib.import_module("scipy.special")

    def __reduce__(self):
        return SciPyImport, ()


def sigmoid(x, ws, key):
    """Logistic sigmoid ``1 / (1 + exp(-x))`` in place on ``x``.

    The formula ``scipy.special.expit`` evaluates in float32 too; with
    numpy's ``exp`` it stays within 4 ulp of it over every finite
    float32 (pinned by ``tests/engine/test_property_fastpath.py``).
    ``exp(-x)`` overflows to ``inf`` for ``x`` below ~-88.7 (float32)
    and the result is then an exact 0, like expit's; the overflow and
    the underflow of tiny results are expected, so they raise and warn
    nothing whatever the caller's ``np.errstate``.  ``ws`` and ``key``
    are unused: the kernel needs no scratch.  The float32 fast path's
    sigmoid; float64 compiles keep expit, bit for bit.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        np.divide(1.0, x, out=x)
    return x


# A&S 7.1.26, erf(u) ~ 1 - P(t) exp(-u^2) with t = 1/(1 + p u), recast
# for u = |x|/sqrt(2): t' = 1/(|x| + _ERF_C) is p/sqrt(2) times t, so
# one add replaces a multiply-add; the rescale and GELU's 1/2 are
# folded into the coefficients (highest power first).
_ERF_C = _SQRT_2 / 0.3275911
_ERF_A = tuple(0.5 * a * _ERF_C ** power for power, a in (
    (5, 1.061405429), (4, -1.453152027), (3, 1.421413741),
    (2, -0.284496736), (1, 0.254829592)))


def gelu_rational(x, ws, key):
    """GELU via the Abramowitz-Stegun 7.1.26 rational erf, in place.

    ``scipy.special.erf`` has no fast float32 path (its single-precision
    loop is as slow as the double one), so the float32 fast path uses
    the classic 5-term rational approximation: max absolute erf error
    1.5e-7, which leaves the GELU within ``2e-7 max(|x|, 1)`` of the
    exact one in float64 and ``6e-7 max(|x|, 1)`` in float32 (both
    pinned by ``tests/engine/test_property_fastpath.py``) -- below the
    noise the float32 matmul chain already carries, and ~5x faster.
    Not used for float64 compiles (parity-grade stays
    :func:`gelu_exact`).

    With ``erf(u) = sign(u) (1 - P(t) exp(-u^2))`` the sign cancels out
    of ``x/2 (1 + erf(x/sqrt 2))``, leaving
    ``max(x, 0) - |x|/2 P(t) exp(-x^2/2)``: nineteen whole-array passes
    over three scratch buffers, none of them a ``copysign``.  Inputs
    must be finite: at ``+-inf`` the correction is ``0 * inf`` and the
    result NaN.  A full-array kernel -- keeping its operand cache-resident is the
    caller's job (see :meth:`.compiled.CompiledBlock.forward`).
    """
    mag = ws.take(key + "0", x.shape)
    t = ws.take(key + "1", x.shape)
    poly = ws.take(key + "2", x.shape)
    np.abs(x, out=mag)
    np.add(mag, _ERF_C, out=t)
    np.divide(1.0, t, out=t)              # beats np.reciprocal by ~15 %
    np.multiply(t, _ERF_A[0], out=poly)
    for coeff in _ERF_A[1:]:
        poly += coeff
        poly *= t                                         # P(t)/2
    np.square(x, out=t)
    t *= -0.5
    np.exp(t, out=t)                                      # exp(-x^2/2)
    poly *= t
    poly *= mag
    np.maximum(x, 0.0, out=x)
    x -= poly
    return x
