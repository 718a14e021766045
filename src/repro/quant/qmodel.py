"""Model-level 8-bit quantization: quantized Linear layers and module
surgery that converts a trained float model for deployment.

Two flavours:

* :class:`QuantizedLinear` -- weights stored as int8 (per-tensor or
  per-output-channel scales), activations dynamically quantized per
  tensor, integer GEMM with an accumulator wide enough for the operand
  precision and reduction length.  Inference-only (deployment
  semantics).
* :func:`fake_quantize_tensor` -- straight-through fake quantization for
  quantization-aware fine-tuning.

:func:`quantize_model` walks any :class:`repro.nn.Module` tree and swaps
``Linear -> QuantizedLinear`` plus, when ``approx_nonlinear`` is set,
``GELU/Sigmoid/Softmax`` to their polynomial approximations, mirroring
the paper's deployment flow: token pruning first, then 8-bit
quantization + approximated nonlinear functions.  This simulation is the
numeric reference the engine's ``backend="int8"`` fast path is held
bitwise-equal to (``tests/engine/test_quantized.py``).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.approx.layers import ApproxGELU, ApproxSigmoid, ApproxSoftmax
from repro.approx.polynomial import DEFAULT_DELTA1
from repro.quant.fixed_point import (calibrate_minmax, dequantize,
                                     integer_matmul, quantize,
                                     safe_accumulator_bits)
from repro.quant.sweep import per_channel_quantize

__all__ = ["QuantizedLinear", "fake_quantize_tensor", "quantize_model",
           "count_quantized_modules"]


def fake_quantize_tensor(x, bits=8):
    """Straight-through fake quantization of a Tensor (for QAT)."""
    x = Tensor.ensure(x)
    params = calibrate_minmax(x.data, bits=bits)
    rounded = dequantize(quantize(x.data, params), params)
    return x + Tensor(rounded - x.data)


class QuantizedLinear(nn.Module):
    """Integer-weight Linear with dynamic per-tensor activation quantization.

    Forward computes ``dequant(int_gemm(quant(x), W_q))`` -- numerically
    identical to what the FPGA GEMM engine produces.  Bias is added in
    float after dequantization (the accelerator keeps bias at higher
    precision).  Weights carry either one scale per tensor or one per
    output channel (``per_channel=True`` in :meth:`from_linear`); the
    accumulator width is derived from the operand precision and the
    reduction length via :func:`safe_accumulator_bits` rather than a
    hard-coded 32/48 branch, so 16-bit operands over wide reductions get
    the 64-bit accumulator they need.
    """

    def __init__(self, weight_q, weight_scales, bias, in_features,
                 out_features, bits, weight_params=None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_q = weight_q
        # Scalar float (per-tensor) or (out_features,) array (per-channel).
        self.weight_scales = weight_scales
        self.weight_params = weight_params
        self.bias_data = bias
        self.per_channel = isinstance(weight_scales, np.ndarray)
        self.bits = bits
        self.accumulator_bits = safe_accumulator_bits(bits, in_features)

    @classmethod
    def from_linear(cls, linear, bits=8, per_channel=False):
        weight = linear.weight.data
        bias = None if linear.bias is None else linear.bias.data.copy()
        if per_channel:
            weight_q, scales = per_channel_quantize(weight, bits=bits)
            return cls(weight_q, scales, bias, linear.in_features,
                       linear.out_features, bits)
        params = calibrate_minmax(weight, bits=bits)
        weight_q = quantize(weight, params)
        return cls(weight_q, params.scale, bias, linear.in_features,
                   linear.out_features, bits, weight_params=params)

    def forward(self, x):
        x = Tensor.ensure(x)
        data = x.data
        act_params = calibrate_minmax(data, bits=self.bits)
        x_q = quantize(data, act_params)
        flat = x_q.reshape(-1, self.in_features)
        out_q = integer_matmul(flat, self.weight_q,
                               accumulator_bits=self.accumulator_bits)
        out = out_q.astype(np.float64) * (act_params.scale
                                          * self.weight_scales)
        out = out.reshape(data.shape[:-1] + (self.out_features,))
        if self.bias_data is not None:
            out = out + self.bias_data
        return Tensor(out)

    def __repr__(self):
        scheme = "per_channel" if self.per_channel else "per_tensor"
        return (f"QuantizedLinear(in={self.in_features}, "
                f"out={self.out_features}, bits={self.bits}, {scheme})")


#: Child names quantized per output channel by default -- the qkv and
#: MLP GEMMs the paper calls out as magnitude-skewed across channels.
PER_CHANNEL_CHILDREN = ("qkv", "fc1", "fc2")


def _wants_per_channel(per_channel, name):
    if per_channel is True or per_channel is False:
        return per_channel
    return name in per_channel


def quantize_model(model, bits=8, approx_nonlinear=True,
                   delta1=DEFAULT_DELTA1, delta2=1.0, per_channel=False,
                   skip=()):
    """In-place module surgery: float model -> deployment model.

    Swaps every ``Linear`` (including subclasses) for a
    :class:`QuantizedLinear` and, when ``approx_nonlinear`` is set,
    every ``GELU``/``Sigmoid``/``Softmax`` module for its polynomial
    approximation.  Returns the number of swapped modules.  The
    resulting model is inference-only (no gradients).

    ``per_channel`` selects weight scaling: ``False`` (per-tensor
    everywhere), ``True`` (per output channel everywhere), or a
    collection of child names (e.g. ``("qkv", "fc1", "fc2")``) that get
    per-channel scales while everything else stays per-tensor.

    ``skip`` is an explicit opt-out: children that are instances of any
    listed type are left untouched (the ``isinstance`` checks otherwise
    deliberately catch subclasses).

    ``delta2`` defaults to 1.0: the paper's ``delta2 < 1`` softmax
    regularizer assumes fine-tuning with the approximation in the loop;
    halving every attention row on an unmodified checkpoint is not a
    faithful deployment.  (``delta1`` keeps the paper's
    ``DEFAULT_DELTA1`` for the GELU swap.)
    """
    skip = tuple(skip)
    swapped = 0
    for module in list(model.modules()):
        for name, child in list(module._modules.items()):
            if skip and isinstance(child, skip):
                continue
            replacement = None
            if isinstance(child, nn.Linear):
                replacement = QuantizedLinear.from_linear(
                    child, bits=bits,
                    per_channel=_wants_per_channel(per_channel, name))
            elif approx_nonlinear and isinstance(child, nn.GELU):
                replacement = ApproxGELU(delta1=delta1)
            elif approx_nonlinear and isinstance(child, nn.Sigmoid):
                replacement = ApproxSigmoid()
            elif approx_nonlinear and isinstance(child, nn.Softmax):
                replacement = ApproxSoftmax(axis=child.axis, delta2=delta2)
            if replacement is not None:
                module.register_module(name, replacement)
                swapped += 1
    return swapped


def count_quantized_modules(model):
    return sum(1 for m in model.modules() if isinstance(m, QuantizedLinear))
