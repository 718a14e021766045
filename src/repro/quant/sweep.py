"""Quantization studies: bit-width sweeps and per-channel quantization.

Supports the "more ambitious quantization" analysis of Sec. V: sweep
weight/activation precision, measure accuracy and logit drift, and
compare per-tensor vs per-channel weight scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.quant.fixed_point import calibrate_minmax, dequantize, quantize

__all__ = ["per_channel_quantize", "per_channel_error",
           "BitWidthResult", "bitwidth_sweep"]


def per_channel_quantize(weight, bits=8):
    """Symmetric per-output-channel quantization of a 2-D weight.

    Returns ``(q, scales)`` with ``scales`` of shape ``(out_features,)``.
    Per-channel scaling shrinks quantization error for weights whose
    magnitude varies across output channels (the usual case for the
    qkv projections).
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError("expected a 2-D (in, out) weight")
    qmax = 2 ** (bits - 1) - 1
    amax = np.abs(weight).max(axis=0)
    amax = np.where(amax == 0.0, 1.0, amax)
    scales = np.maximum(amax / qmax, np.finfo(np.float64).tiny)
    q = np.clip(np.rint(weight / scales), -qmax, qmax).astype(np.int64)
    return q, scales


def per_channel_error(weight, bits=8):
    """Mean |error| for per-tensor vs per-channel schemes: ``(pt, pc)``."""
    weight = np.asarray(weight, dtype=np.float64)
    params = calibrate_minmax(weight, bits=bits)
    per_tensor = np.abs(
        dequantize(quantize(weight, params), params) - weight).mean()
    q, scales = per_channel_quantize(weight, bits=bits)
    per_channel = np.abs(q * scales - weight).mean()
    return per_tensor, per_channel


@dataclass
class BitWidthResult:
    bits: int
    accuracy: float
    logit_drift: float


def bitwidth_sweep(make_model, images, labels, bit_widths=(16, 8, 6, 4),
                   approx_nonlinear=True):
    """Accuracy / drift across quantization bit widths.

    ``make_model`` must return a *fresh* float model each call (module
    surgery is destructive).  Drift is the max |logit delta| relative to
    the float model, normalized by the float logit range.
    """
    from repro.quant.qmodel import quantize_model

    float_model = make_model()
    float_model.eval()
    with nn.no_grad():
        reference = float_model(images).data
    ref_scale = max(np.abs(reference).max(), 1e-12)
    labels = np.asarray(labels)

    results = []
    for bits in bit_widths:
        model = make_model()
        model.eval()
        quantize_model(model, bits=bits,
                       approx_nonlinear=approx_nonlinear)
        with nn.no_grad():
            logits = model(images).data
        accuracy = float((logits.argmax(-1) == labels).mean())
        drift = float(np.abs(logits - reference).max() / ref_scale)
        results.append(BitWidthResult(bits=bits, accuracy=accuracy,
                                      logit_drift=drift))
    return results
