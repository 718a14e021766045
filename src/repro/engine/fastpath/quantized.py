"""Quantized (int8 / int16) compiled backend for the serving engine.

:func:`compile_quantized` lowers a HeatViT/ViT model the same way
:func:`repro.quant.quantize_model` surgeries it -- per-layer integer
weights (per-channel scales for the qkv/fc1/fc2 GEMMs, per-tensor
elsewhere), dynamic per-tensor activation quantization between stages,
and the paper's polynomial GELU/softmax and PLAN sigmoid in place of
the exact modules -- into the one compiled hierarchy of :mod:`.compiled`,
so :class:`repro.engine.BucketedExecutor` drives it with the existing
bucketing/pruning control flow.

Two numerics grades, selected by dtype:

* ``float32`` -- the **serving grade**: a plain
  :class:`.compiled.CompiledModel` whose linear slots hold
  :class:`QuantizedLinearKernel` objects, called as
  :meth:`~QuantizedLinearKernel.apply_fast` (in-place workspace kernels,
  one 2-D GEMM per call),
  whose softmax/GELU slots hold the fused shift-based-exp and polynomial
  kernels, and whose stock selectors run quantized MLP steps through the
  shared dense and ragged boundary pipelines.  Its blocks run the batch
  whole except fc1 -> GELU, which runs in cache-sized tiles after fc1's
  input is quantized over the batch -- bitwise what one whole pass
  computes.  Gated on top-1/keep agreement with the float64 engine, not
  bitwise parity.
* ``float64`` -- **simulation parity**, the reference grade this module
  owns (:class:`QuantizedModel` and its blocks).  It calls
  the same :mod:`repro.approx` definitions and :func:`repro.quant.quantize`
  the surgered Tensor model runs, and its integer GEMMs run as float64
  BLAS on integer-valued operands (exact below 2^53), so executor logits
  are *bitwise* equal to the ``quantize_model`` simulation on stock
  configs (``tests/engine/test_quantized.py``).  Token selectors are
  evaluated through actual surgered copies of the selector modules (the
  simulation approximates only their Linear and activation children --
  its functional softmax/sigmoid stay exact -- and bitwise-mirroring
  that mix is cheapest done by running it).

On either grade, a selector the compiler does not recognise
(:func:`.compiled._is_stock_selector`) is served that same way: a
:class:`.compiled.ModuleSelector` over its surgered copy.

``bits=16`` needs integer products up to ``32767^2 * K`` -- beyond
float32's 2^24 exact-integer window for any real reduction -- so int16
always compiles in the float64 parity grade.
"""

from __future__ import annotations

import copy
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
from repro.engine.fastpath.qkernels import (approx_gelu_fast,
                                            approx_softmax_fast,
                                            layer_norm_reference,
                                            quantize_fast)
from repro.quant.fixed_point import (calibrate_minmax, quantize,
                                     safe_accumulator_bits)
from repro.quant.qmodel import (PER_CHANNEL_CHILDREN, _wants_per_channel,
                                quantize_model)
from repro.quant.sweep import per_channel_quantize

__all__ = ["compile_quantized", "QuantizedModel", "QuantizedLinearKernel"]


class QuantizedLinearKernel:
    """One quantized GEMM: integer weights + float rescale + bias.

    The compile-time analogue of :class:`repro.quant.QuantizedLinear`:
    weights are quantized once (per-tensor or per-output-channel) and
    stored as integer-valued arrays of the compute dtype; activations
    are quantized per tensor at every call, exactly the simulation's
    dynamic scheme.  :meth:`apply_reference` mirrors the simulation
    bitwise; :meth:`apply_fast` is the in-place float32 form, split into
    :meth:`prepare` and :meth:`gemm` for a caller that tiles the GEMM.

    No runtime accumulator check: :func:`safe_accumulator_bits` already
    proves at compile time that ``qmax^2 * in_features`` fits the width
    the simulation would pick, so its (never-firing) runtime check can
    be elided without behavioural difference.
    """

    __slots__ = ("w_q", "scales", "bias", "in_features", "out_features",
                 "bits", "qmax", "per_channel", "accumulator_bits",
                 "_scale_buf")

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

    def apply_reference(self, x):
        """Bitwise mirror of ``QuantizedLinear.forward`` (float64)."""
        params = calibrate_minmax(x, bits=self.bits)
        q = quantize(x, params).astype(np.float64)
        out = np.matmul(q.reshape(-1, self.in_features), self.w_q)
        out = out * (params.scale * self.scales)
        out = out.reshape(x.shape[:-1] + (self.out_features,))
        if self.bias is not None:
            out = out + self.bias
        return out

    def prepare(self, x, ws, key, inplace=False):
        """Calibrate and quantize the whole input: ``(q, rescale)``, the
        integer-valued rows and the factor that takes their GEMM back
        to real units (per channel, the kernel's own buffer).
        ``inplace=True`` reuses ``x`` itself as the quantization buffer
        (valid when ``x`` is dead scratch)."""
        q, act_scale = quantize_fast(x, self.qmax, ws, key + "q",
                                     out=x if inplace else None)
        dt = self.w_q.dtype.type
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
        out *= rescale
        if self.bias is not None:
            out += self.bias
        return out

    def apply_fast(self, x, ws, key, out=None, inplace=False):
        """Quantize -> GEMM -> rescale -> bias, on workspace scratch:
        :meth:`prepare` then :meth:`gemm` over the whole input.  ``out``
        may be a strided view."""
        q, rescale = self.prepare(x, ws, key, inplace)
        if out is None:
            out = ws.take(key + "o", x.shape[:-1] + (self.out_features,))
        return self.gemm(q, rescale, out)

    # The serving grade puts the kernel itself in a linear slot, which
    # calls it as ``kernel(x, ws, key, out=, inplace=)``.
    __call__ = apply_fast


class _QuantGELUKernel:
    """Picklable ``fn(x, ws, key)`` running Eq. 12 in either grade
    (``reference``: :func:`repro.approx.gelu_approx`, a fresh array)."""

    __slots__ = ("delta1", "reference")

    def __init__(self, delta1, reference):
        self.delta1 = delta1
        self.reference = reference

    def __call__(self, x, ws, key):
        if self.reference:
            return gelu_approx(x, self.delta1)
        return approx_gelu_fast(x, self.delta1, ws, key)


def _plan_sigmoid_kernel(x, ws, key):
    """The PLAN sigmoid :func:`repro.quant.quantize_model` swaps in for
    ``nn.Sigmoid``, written back in place (either grade)."""
    x[...] = sigmoid_plan(x)
    return x


# ----------------------------------------------------------------------
# The float64 parity grade: the reference the bitwise tests compare to
# ----------------------------------------------------------------------
class _ReferenceBlock(CompiledBlock):
    """One encoder block in simulation numerics: a bitwise mirror of
    the surgered Tensor block (pre-norm MSA + FFN with QuantizedLinear
    / ApproxSoftmax / ApproxGELU), including the simulation's explicit
    score multiply.  Same slots as the served block, holding float64
    forms that return fresh arrays (``apply_reference``,
    :func:`repro.approx.softmax_approx`); the activation keeps the
    shared ``act(x, ws, key)`` shape."""

    __slots__ = ()

    def forward(self, x, bias, ws):
        batch, tokens, dim = x.shape
        h, d = self.num_heads, self.head_dim
        normed = layer_norm_reference(x, self.n1_w, self.n1_b, self.eps1)
        qkv = self.qkv(normed)
        qkv = qkv.reshape(batch, tokens, 3, h, d).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = np.matmul(q, k.swapaxes(-1, -2)) * self.score_scale
        if bias is not None:
            scores = scores + bias[:, None, None, :]
        attn = self.softmax(scores)
        out = np.matmul(attn, v)
        out = out.transpose(0, 2, 1, 3).reshape(batch, tokens, dim)
        x += self.proj(out)                                # residual 1
        normed = layer_norm_reference(x, self.n2_w, self.n2_b, self.eps2)
        hidden = self.act(self.fc1(normed), ws, "blk_act")
        x += self.fc2(hidden)                              # residual 2
        return x


class QuantizedModel(CompiledModel):
    """The float64 simulation-parity grade of the quantized backend.

    Blocks are :class:`_ReferenceBlock`, selectors
    :class:`.compiled.ModuleSelector` over surgered copies (which the
    executor scores per exact group), and ``patch`` / ``head`` hold
    :meth:`QuantizedLinearKernel.apply_reference`.
    """

    def embed(self, images, ws):
        """Patch-embed + CLS + position embeddings: ``(B, 1+N, D)``."""
        tokens = self.patch(self._patch_columns(images))
        cls = self.cls_token + np.zeros((tokens.shape[0], 1,
                                         tokens.shape[-1]))
        x = np.concatenate([cls, tokens], axis=1)
        return x + self.pos_embed

    def classify(self, x, ws):
        """Final LayerNorm + quantized head on the CLS row (the head's
        activation scale is calibrated on the CLS rows alone, exactly
        as the simulation's head sees them)."""
        return self.head(layer_norm_reference(
            x[:, 0, :], self.final_norm_w, self.final_norm_b,
            self.final_norm_eps))


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
    dtype: ``float32`` (default for 8-bit: the serving grade, a
        :class:`.compiled.CompiledModel` whose linear slots hold the
        :class:`QuantizedLinearKernel` objects themselves, so a block can
        quantize fc1's input once and run its GEMM per tile) or
        ``float64`` (the bitwise
        simulation-parity grade, a :class:`QuantizedModel`; the only
        choice for 16-bit, whose integer products exceed float32's
        exact window).
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

    def grade(lowered):
        return lowered.apply_reference if parity else lowered

    def affine(norm):
        return (_contig(norm.weight.data, dtype),
                _contig(norm.bias.data, dtype))

    if parity:
        block_class = _ReferenceBlock
        softmax = partial(softmax_approx, delta2=delta2)
    else:
        block_class = CompiledBlock
        softmax = partial(approx_softmax_fast, delta2=delta2)
    # The activations quantize_model swaps; every other one runs exact.
    swaps = {nn.GELU: _QuantGELUKernel(delta1, reference=parity),
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
        blocks.append(block_class(
            block, affine(block.norm1), affine(block.norm2), grade(qkv),
            grade(kernel(attn.proj, "proj")),
            grade(kernel(block.mlp.fc1, "fc1")),
            grade(kernel(block.mlp.fc2, "fc2")),
            softmax, _compile_activation(block.mlp.act, dtype, swaps),
            score_scale))

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
            selectors.append(ModuleSelector(module, dtype))
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

    embed_weights = (
        grade(kernel(backbone.patch_embed.projection, "projection")),
        _contig(backbone.cls_token.data[0, 0], dtype),
        _contig(backbone.pos_embed.data, dtype))
    head_weights = (*affine(backbone.norm), backbone.norm.eps,
                    grade(kernel(backbone.head, "head")))
    return (QuantizedModel if parity else CompiledModel)(
        backbone.config, dtype, blocks, selectors, embed_weights,
        head_weights)
