"""Compiled graph-free inference fast path for the serving engine.

The deployed token-pruned path used to execute through the float64
autograd ``Tensor`` tape even under ``no_grad``; this subsystem lowers a
model once into contiguous weight arrays plus fused ndarray kernels
(:func:`compile_model` -> :class:`CompiledModel`) and reuses scratch
memory across buckets and bursts (:class:`Workspace`).  The Tensor path
remains the reference implementation; parity is enforced by
``tests/engine/test_fastpath.py``.

:func:`compile_quantized` fills the same :class:`CompiledModel`
hierarchy with the paper's deployment numerics instead -- integer GEMMs
with float rescale, dynamic activation quantization, polynomial
GELU/softmax; its float64 grade holds the simulation's own definitions
in those slots and is the reference, bitwise equal to the
:func:`repro.quant.quantize_model` simulation
(``tests/engine/test_quantized.py``).

Select a backend per session::

    session = InferenceSession(model, backend="fastpath")            # float32
    session = InferenceSession(model, backend="fastpath",
                               dtype=np.float64)                     # parity-grade
    session = InferenceSession(model, backend="int8")                # quantized
    session = InferenceSession(model, backend="int8",
                               dtype=np.float64)                     # sim-bitwise
"""

from repro._lazy import lazy_exports

__all__ = [
    "compile_model", "CompiledModel", "CompiledBlock", "CompiledSelector",
    "CompileError", "Workspace",
    "compile_quantized", "QuantizedLinearKernel",
    "fused_layer_norm", "masked_softmax", "gelu_exact", "gelu_rational",
    "sigmoid", "mask_to_bias", "MASK_BIAS",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "compiled": ("CompileError", "CompiledBlock", "CompiledModel",
                 "CompiledSelector", "compile_model"),
    "kernels": ("MASK_BIAS", "fused_layer_norm", "gelu_exact",
                "gelu_rational", "mask_to_bias", "masked_softmax", "sigmoid"),
    "quantized": ("QuantizedLinearKernel", "compile_quantized"),
    "workspace": ("Workspace",),
})
