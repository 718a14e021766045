"""Quantized (int8 / int16) compiled backend for the serving engine.

:func:`compile_quantized` lowers a HeatViT/ViT model the same way
:func:`repro.quant.quantize_model` surgeries it -- per-layer integer
weights (per-channel scales for the qkv/fc1/fc2 GEMMs, per-tensor
elsewhere), dynamic per-tensor activation quantization between stages,
and the paper's polynomial GELU/softmax and PLAN sigmoid in place of
the exact modules -- into the one compiled hierarchy of :mod:`.compiled`,
so :class:`repro.engine.BucketedExecutor` drives it with the existing
bucketing/pruning control flow.

Two numerics grades, selected by dtype, one dataflow: both return a
plain :class:`.compiled.CompiledModel` of :class:`.compiled.CompiledBlock`
objects whose linear slots hold :class:`QuantizedLinearKernel` objects
(quantize once per call, then one 2-D GEMM).  The blocks run the batch
whole except fc1 -> GELU, which runs in cache-sized tiles after fc1's
input is quantized over the batch -- bitwise what one whole pass
computes, because the GEMM operands are integers.  What the dtype picks
is the kernels in the slots:

* ``float32`` -- the **serving grade**: :func:`.qkernels.quantize_fast`
  in the linears, the fused shift-based-exp softmax and polynomial GELU
  (:mod:`.qkernels`), :func:`.kernels.fused_layer_norm`, and stock
  selectors that run quantized MLP steps through the shared dense and
  ragged boundary pipelines.  Gated on top-1/keep agreement with the
  float64 grade, not bitwise parity.  A block's hidden layer runs its
  elementwise work through a :class:`FusedHiddenLayer`: where the
  native library loads (:mod:`.native`, ``qmlp.c``) that is two passes
  -- fc1's rescale, bias and the Eq. 12 GELU once per tile, keeping
  the abs-max, then fc2's input quantization once over the layer --
  instead of the numpy lane's eleven per tile and four over the layer
  (fc1's rescale and bias, nine Eq. 12 passes; two min/max reductions,
  a multiply and a ``rint``).  Both lanes serve the same bits.
* ``float64`` -- **simulation parity**.  Its slots hold the simulation's
  own definitions: :func:`repro.quant.calibrate_minmax` +
  :func:`repro.quant.quantize` in the linears,
  :func:`repro.approx.softmax_approx` after the key bias,
  :func:`repro.approx.gelu_approx`, and
  :func:`.qkernels.layer_norm_reference`; its integer GEMMs run as
  float64 BLAS on integer-valued operands (exact below 2^53).  So
  executor logits are *bitwise* equal to the ``quantize_model``
  simulation on stock configs (``tests/engine/test_quantized.py``).
  Token selectors are evaluated through actual surgered copies of the
  selector modules (the simulation approximates only their Linear and
  activation children -- its functional softmax/sigmoid stay exact --
  and bitwise-mirroring that mix is cheapest done by running it).

On either grade, a selector the compiler does not recognise
(:func:`.compiled._is_stock_selector`) is served that same way: a
:class:`.compiled.ModuleSelector` over its surgered copy.

``bits=16`` needs integer products up to ``32767^2 * K`` -- beyond
float32's 2^24 exact-integer window for any real reduction -- so int16
always compiles in the float64 parity grade.
"""

from __future__ import annotations

import copy
import math
from functools import partial

import numpy as np

from repro import nn
from repro.approx.polynomial import (DEFAULT_DELTA1, gelu_approx,
                                     sigmoid_plan, softmax_approx)
from repro.engine.fastpath.compiled import (CompileError, CompiledBlock,
                                            CompiledModel, CompiledSelector,
                                            ModuleSelector, _check_backbone,
                                            _check_dtype, _compile_activation,
                                            _compile_mlp, _contig,
                                            _is_stock_selector)
from repro.engine.fastpath import native
from repro.engine.fastpath.kernels import fused_layer_norm
from repro.engine.fastpath.qkernels import (activation_scale,
                                            approx_gelu_fast,
                                            approx_softmax_fast,
                                            gelu_fast_constants,
                                            layer_norm_reference,
                                            quantize_fast)
from repro.quant.fixed_point import (calibrate_minmax, quantize,
                                     safe_accumulator_bits)
from repro.quant.qmodel import (PER_CHANNEL_CHILDREN, _wants_per_channel,
                                quantize_model)
from repro.quant.sweep import per_channel_quantize

__all__ = ["compile_quantized", "QuantizedLinearKernel",
           "FusedHiddenLayer"]


class QuantizedLinearKernel:
    """One quantized GEMM: integer weights + float rescale + bias.

    The compile-time analogue of :class:`repro.quant.QuantizedLinear`:
    weights are quantized once (per-tensor or per-output-channel) and
    stored as integer-valued arrays of the compute dtype; activations
    are quantized per tensor at every call, exactly the simulation's
    dynamic scheme.  The quantizer follows the dtype: a float64 kernel
    runs the simulation's own :func:`repro.quant.calibrate_minmax` and
    :func:`repro.quant.quantize`, so it is bitwise
    ``QuantizedLinear.forward``; a float32 kernel runs
    :func:`.qkernels.quantize_fast` on workspace scratch.
    :meth:`apply_fast` (also the slot call) is :meth:`prepare` then
    :meth:`gemm`, split for a caller that tiles the GEMM.

    In a float32 block with the Eq. 12 GELU, fc1 and fc2 share a
    :class:`FusedHiddenLayer`: fc1's ``epilogue`` replaces its rescale
    and bias, fc2's ``quantizer`` replaces :func:`.qkernels.quantize_fast`.

    No runtime accumulator check: :func:`safe_accumulator_bits` already
    proves at compile time that ``qmax^2 * in_features`` fits the width
    the simulation would pick, so its (never-firing) runtime check can
    be elided without behavioural difference.
    """

    __slots__ = ("w_q", "scales", "bias", "in_features", "out_features",
                 "bits", "qmax", "per_channel", "accumulator_bits",
                 "epilogue", "quantizer", "_scale_buf")

    def __init__(self, w_q, scales, bias, bits, dtype):
        self.w_q = _contig(w_q, dtype)
        self.per_channel = isinstance(scales, np.ndarray)
        self.scales = (_contig(scales, dtype) if self.per_channel
                       else float(scales))
        # Scratch for the dynamic (act_scale * weight_scales) product --
        # owned by the kernel, not the workspace, so the fast rescale
        # skips a buffer-pool lookup per call.
        self._scale_buf = (np.empty_like(self.scales) if self.per_channel
                           else None)
        self.bias = None if bias is None else _contig(bias, dtype)
        self.in_features, self.out_features = self.w_q.shape
        self.bits = bits
        self.qmax = 2 ** (bits - 1) - 1
        self.accumulator_bits = safe_accumulator_bits(bits,
                                                      self.in_features)
        self.epilogue = None
        self.quantizer = quantize_fast
        # Exactness budget of the float GEMM the backend actually runs:
        # every partial sum must be an exactly-representable integer.
        window = 2 ** 24 if dtype == np.dtype(np.float32) else 2 ** 53
        if self.qmax * self.qmax * self.in_features > window:
            raise CompileError(
                f"{bits}-bit GEMM over in_features={self.in_features} "
                f"exceeds {np.dtype(dtype).name}'s exact-integer window; "
                f"compile with dtype=float64")

    @classmethod
    def from_linear(cls, linear, bits, dtype, per_channel):
        weight = linear.weight.data
        bias = None if linear.bias is None else linear.bias.data
        if per_channel:
            w_q, scales = per_channel_quantize(weight, bits=bits)
        else:
            params = calibrate_minmax(weight, bits=bits)
            w_q, scales = quantize(weight, params), params.scale
        return cls(w_q, scales, bias, bits, np.dtype(dtype))

    def prepare(self, x, ws, key, inplace=False):
        """Calibrate and quantize the whole input: ``(q, rescale)``, the
        integer-valued rows and the factor that takes their GEMM back
        to real units (per channel, the kernel's own buffer).
        ``inplace=True`` lets a float32 kernel reuse ``x`` itself as the
        quantization buffer (valid when ``x`` is dead scratch); a
        float64 kernel's rows are the simulation's fresh array."""
        dt = self.w_q.dtype.type
        if dt is np.float64:
            params = calibrate_minmax(x, bits=self.bits)
            q, act_scale = quantize(x, params).astype(dt), params.scale
        else:
            q, act_scale = self.quantizer(x, self.qmax, ws, key + "q",
                                          out=x if inplace else None)
            if self.epilogue is not None:
                self.epilogue.begin()
        if self.per_channel:
            np.multiply(self.scales, dt(act_scale), out=self._scale_buf)
            return q, self._scale_buf
        return q, dt(self.scales * act_scale)

    def gemm(self, q, rescale, out):
        """GEMM -> rescale -> bias of prepared rows (all or a slice).

        A C-contiguous ``out`` gets one ``(rows, K) @ (K, N)`` GEMM:
        numpy runs a ``(B, T, K)`` operand as ``B`` GEMMs of ``T`` rows.
        The operands are integers whose partial sums stay exact (checked
        in ``__init__``), so no BLAS blocking changes a bit.  A strided
        ``out`` (an embedding buffer's token rows) keeps the batched
        call: reshaping it would return a copy for the GEMM to fill.
        """
        if out.flags.c_contiguous:
            np.matmul(q.reshape(-1, self.in_features), self.w_q,
                      out=out.reshape(-1, self.out_features))
        else:
            np.matmul(q, self.w_q, out=out)
        if self.epilogue is not None:
            return self.epilogue.tile(out, rescale, self.bias)
        out *= rescale
        if self.bias is not None:
            out += self.bias
        return out

    def apply_fast(self, x, ws, key, out=None, inplace=False):
        """Quantize -> GEMM -> rescale -> bias: :meth:`prepare` then
        :meth:`gemm` over the whole input, into workspace scratch
        unless ``out`` (which may be a strided view) is given."""
        q, rescale = self.prepare(x, ws, key, inplace)
        if out is None:
            out = ws.take(key + "o", x.shape[:-1] + (self.out_features,))
        return self.gemm(q, rescale, out)

    # A linear slot holds the kernel itself and calls it as
    # ``kernel(x, ws, key, out=, inplace=)``.
    __call__ = apply_fast


class _QuantGELUKernel:
    """Picklable ``fn(x, ws, key)`` running Eq. 12 in place, picked by
    the input's dtype: the simulation's :func:`repro.approx.gelu_approx`
    on float64, :func:`.qkernels.approx_gelu_fast` on float32."""

    __slots__ = ("delta1",)

    def __init__(self, delta1):
        self.delta1 = delta1

    def __call__(self, x, ws, key):
        if x.dtype.type is np.float64:
            x[...] = gelu_approx(x, self.delta1)
            return x
        return approx_gelu_fast(x, self.delta1, ws, key)


class FusedHiddenLayer:
    """The elementwise work between a float32 int8 block's fc1 and fc2
    GEMMs: fc1's rescale and bias, the Eq. 12 GELU, and fc2's input
    quantization -- the paper's fixed-function GELU + requantization
    datapath.

    One object per block, in three places: fc1's ``epilogue``
    (:meth:`begin` when fc1's input is quantized, :meth:`tile` after
    each tile's GEMM), the block's activation slot (``fn(x, ws, key)``)
    and fc2's ``quantizer`` (:meth:`quantize`).  Where the native
    library loads (:func:`.native.load`), :meth:`tile` runs
    ``qmlp.c``'s tile pass -- rescale, bias and Eq. 12 in one pass,
    keeping the tile's abs-max -- the slot has nothing left to do, and
    :meth:`quantize` scales by that abs-max in one more pass instead of
    two min/max reductions.  Elsewhere each step runs the numpy kernels
    (:func:`.qkernels.approx_gelu_fast`, :func:`.qkernels.quantize_fast`),
    which stay the definition; both lanes serve the same bits.  The
    library is loaded when the object is built and when it is
    unpickled.
    """

    __slots__ = ("delta1", "_library", "_constants", "_stats", "_scale")

    def __init__(self, delta1):
        self.delta1 = delta1
        self._library = native.load()
        self._constants = np.array(gelu_fast_constants(delta1),
                                   dtype=np.float32)
        # Running abs-max of the tiles written so far, and 1 if any was
        # NaN; a per-tensor fc1 rescale as an array the C pass reads.
        self._stats = np.zeros(2, dtype=np.float32)
        self._scale = np.zeros(1, dtype=np.float32)

    def __reduce__(self):
        return FusedHiddenLayer, (self.delta1,)

    def begin(self):
        """Forget the abs-max: fc1's tiles are about to be written."""
        self._stats[:] = 0.0

    def tile(self, out, rescale, bias):
        """fc1's epilogue on one GEMM tile in place: ``out * rescale +
        bias``, then (native lane) Eq. 12."""
        if self._library is None:
            out *= rescale
            if bias is not None:
                out += bias
            return out
        _require_contiguous(out)
        per_channel = isinstance(rescale, np.ndarray)
        if not per_channel:
            self._scale[0] = rescale
            rescale = self._scale
        cols = out.shape[-1]
        self._library.tile(out.ctypes.data, out.size // cols, cols,
                           rescale.ctypes.data, per_channel,
                           None if bias is None else bias.ctypes.data,
                           self._constants.ctypes.data,
                           self._stats.ctypes.data)
        return out

    def __call__(self, x, ws, key):
        """The activation slot: Eq. 12, unless :meth:`tile` ran it."""
        if self._library is None:
            approx_gelu_fast(x, self.delta1, ws, key)
        return x

    def quantize(self, x, qmax, ws, key, out=None):
        """fc2's input quantization, :func:`.qkernels.quantize_fast`'s
        call and result, from the abs-max kept while ``x`` was written
        (native lane)."""
        if self._library is None:
            return quantize_fast(x, qmax, ws, key, out)
        amax, nan = self._stats
        self.begin()
        scale = activation_scale(math.nan if nan else float(amax), qmax)
        q = ws.take(key, x.shape) if out is None else out
        _require_contiguous(x, q)
        self._library.quantize(x.ctypes.data, q.ctypes.data, x.size,
                               float(np.float32(1.0 / scale)))
        return q, scale


def _require_contiguous(*arrays):
    if not all(array.flags.c_contiguous for array in arrays):
        raise ValueError("the native hidden-layer passes take contiguous "
                         "arrays")


def _plan_sigmoid_kernel(x, ws, key):
    """The PLAN sigmoid :func:`repro.quant.quantize_model` swaps in for
    ``nn.Sigmoid``, written back in place (either grade)."""
    x[...] = sigmoid_plan(x)
    return x


def _softmax_reference(scores, bias, delta2, ws, key):
    """The simulation's attention softmax in place: the key bias added
    first, as the surgered block adds it, then
    :func:`repro.approx.softmax_approx` (the float64 grade's slot)."""
    if bias is not None:
        scores += bias[:, None, None, :]
    scores[...] = softmax_approx(scores, delta2=delta2)
    return scores


def _layer_norm_reference(x, weight, bias, eps, out, ws, key):
    """:func:`.qkernels.layer_norm_reference` written into ``out``: the
    float64 grade's LayerNorm slot, in the blocks' call shape."""
    out[...] = layer_norm_reference(x, weight, bias, eps)
    return out


# ----------------------------------------------------------------------
def _fold_query_scale(qkv, scale):
    """Pre-multiply the attention ``1/sqrt(d)`` onto a per-channel qkv
    kernel's Q-channel rescales/bias (a pure constant fold, and the
    only compile-time fold the quantized backend keeps: LayerNorm
    affines are NOT folded into the consuming GEMM -- that would hand
    the quantizer different weights than the simulation's)."""
    dim = qkv.out_features // 3
    scale = qkv.w_q.dtype.type(scale)
    qkv.scales = qkv.scales.copy()
    qkv.scales[:dim] *= scale
    if qkv.bias is not None:
        qkv.bias = qkv.bias.copy()
        qkv.bias[:dim] *= scale


def compile_quantized(model, bits=8, dtype=None,
                      per_channel=PER_CHANNEL_CHILDREN,
                      delta1=DEFAULT_DELTA1, delta2=1.0):
    """Compile a model into simulation-faithful quantized kernels.

    Parameters
    ----------
    model: a ``VisionTransformer`` or ``HeatViT``; weights are copied
        (and quantized) at compile time.
    bits: operand precision -- 8 (the paper's deployment) or 16.
    dtype: ``float32`` (default for 8-bit: the serving grade's fast
        kernels) or ``float64`` (the bitwise simulation-parity grade;
        the only choice for 16-bit, whose integer products exceed
        float32's exact window).  Either way a
        :class:`.compiled.CompiledModel` whose linear slots hold the
        :class:`QuantizedLinearKernel` objects themselves, so a block
        can quantize fc1's input once and run its GEMM per tile.
    per_channel / delta1 / delta2: forwarded with
        :func:`repro.quant.quantize_model` semantics -- run the
        simulation with the same values to reproduce this backend
        bitwise.
    """
    if bits < 2 or bits > 16:
        raise CompileError(f"bits out of range for the quantized "
                           f"backend: {bits}")
    if dtype is None:
        dtype = np.float32 if bits <= 8 else np.float64
    dtype = _check_dtype(dtype)
    parity = dtype == np.dtype(np.float64)
    backbone = _check_backbone(model)

    def kernel(linear, name):
        return QuantizedLinearKernel.from_linear(
            linear, bits, dtype, _wants_per_channel(per_channel, name))

    def affine(norm):
        return (_contig(norm.weight.data, dtype),
                _contig(norm.bias.data, dtype))

    if parity:
        softmax = partial(_softmax_reference, delta2=delta2)
        layer_norm = _layer_norm_reference
    else:
        softmax = partial(approx_softmax_fast, delta2=delta2)
        layer_norm = fused_layer_norm
    # The activations quantize_model swaps; every other one runs exact.
    swaps = {nn.GELU: _QuantGELUKernel(delta1),
             nn.Sigmoid: _plan_sigmoid_kernel}
    blocks = []
    for block in backbone.blocks:
        attn = block.attn
        qkv = kernel(attn.qkv, "qkv")
        # The parity grade keeps the simulation's explicit score
        # multiply; so does a per-tensor qkv, which has no per-channel
        # rescale to fold the constant into.
        score_scale = attn.scale
        if not parity and qkv.per_channel:
            _fold_query_scale(qkv, attn.scale)
            score_scale = None
        # ``image_separable`` stays unset: every linear kernel here
        # calibrates one activation scale over the whole batch, so a
        # chunk of images would not compute what the batch does.  Only
        # fc1 -> GELU runs in tiles, after fc1's input is quantized
        # whole (``CompiledBlock._run``).
        fc1, fc2 = kernel(block.mlp.fc1, "fc1"), kernel(block.mlp.fc2, "fc2")
        act = _compile_activation(block.mlp.act, dtype, swaps)
        if act is swaps[nn.GELU] and not parity:
            act = FusedHiddenLayer(delta1)
            fc1.epilogue, fc2.quantizer = act, act.quantize
        blocks.append(CompiledBlock(
            block, affine(block.norm1), affine(block.norm2), qkv,
            kernel(attn.proj, "proj"), fc1, fc2, softmax, act, score_scale,
            layer_norm=layer_norm))

    def lower_mlp(sequential):
        return _compile_mlp(sequential, dtype, kernel, swaps)

    selectors = []
    for selector in getattr(model, "selectors", []):
        if parity or not _is_stock_selector(selector):
            # The simulation surgeries only a selector's module children:
            # its Linears (per-tensor -- Sequential child names never
            # match the per-channel list) and GELU / Sigmoid modules.
            # Its functional softmax and sigmoid stay exact.
            module = copy.deepcopy(selector)
            quantize_model(module, bits=bits, approx_nonlinear=True,
                           delta1=delta1, delta2=delta2,
                           per_channel=per_channel)
            selectors.append(ModuleSelector(module.eval(), dtype))
        else:
            # The shared selector pipeline with quantized MLP steps,
            # the Eq. 12 GELU kernel, the exact softmax, and the float32
            # numpy sigmoid (within 4 ulp of the simulation's expit;
            # only the float64 parity grade keeps expit itself).
            selectors.append(CompiledSelector(
                selector, dtype,
                lower_mlp(selector.attention_branch.mlp),
                lower_mlp(selector.classifier.feature_mlp),
                lower_mlp(selector.classifier.classifier_mlp)))

    embed_weights = (kernel(backbone.patch_embed.projection, "projection"),
                     _contig(backbone.cls_token.data[0, 0], dtype),
                     _contig(backbone.pos_embed.data, dtype))
    head_weights = (*affine(backbone.norm), backbone.norm.eps,
                    kernel(backbone.head, "head"))
    return CompiledModel(backbone.config, dtype, blocks, selectors,
                         embed_weights, head_weights, layer_norm=layer_norm)
