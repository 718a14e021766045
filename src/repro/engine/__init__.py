"""Batched bucketed inference engine for the deployed (pruned) path.

Serves HeatViT's image-adaptive token pruning with numpy-level
vectorization: the shared prefix runs fully batched, then images are
length-bucketed at every selector boundary (see
:mod:`repro.engine.bucketing`) so each bucket executes as one vectorized
forward instead of B single-image forwards.  Logits match the reference
:meth:`repro.core.HeatViT.forward_pruned` loop to within 1e-8.

Per-batch compute runs on one of several backends selected via
``InferenceSession(model, backend=...)``: the float64 autograd
``"tensor"`` reference, or the one compiled graph-free hierarchy of
:mod:`repro.engine.fastpath` (:class:`CompiledModel`, workspace buffer
reuse) filled either with fused float32/float64 kernels
(``"fastpath"``) or with the quantized ``"int8"``/``"int16"``
deployment numerics (integer GEMMs with float rescale, polynomial
GELU/softmax; bitwise equal to the :func:`repro.quant.quantize_model`
simulation on the float64 reference grade).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BucketingPolicy", "BucketPlan", "plan_buckets", "plan_cost_ms",
    "group_exact",
    "BACKENDS", "BucketedExecutor", "EngineResult", "StageStats",
    "InferenceSession", "SessionResult",
    "compile_model", "CompiledModel", "CompileError", "Workspace",
    "compile_quantized",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "bucketing": ("BucketingPolicy", "BucketPlan", "group_exact",
                  "plan_buckets", "plan_cost_ms"),
    "executor": ("BACKENDS", "BucketedExecutor", "EngineResult", "StageStats"),
    "fastpath.compiled": ("CompiledModel", "CompileError", "compile_model"),
    "fastpath.quantized": ("compile_quantized",),
    "fastpath.workspace": ("Workspace",),
    "session": ("InferenceSession", "SessionResult"),
})
