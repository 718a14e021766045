"""Neural-network substrate: autodiff tensors, layers, and optimizers.

The paper builds on PyTorch; this package is the from-scratch equivalent
used by every other subsystem in the reproduction.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "functional",
    "Module", "ModuleList", "Parameter", "Sequential",
    "Linear", "LayerNorm", "Dropout", "Identity", "Conv2d",
    "GELU", "ReLU", "Hardswish", "Sigmoid", "Softmax",
    "Optimizer", "SGD", "Adam", "AdamW", "CosineSchedule", "clip_grad_norm",
    "default_rng", "trunc_normal", "xavier_uniform", "kaiming_uniform",
    "save_checkpoint", "load_checkpoint", "load_into",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "init": ("default_rng", "kaiming_uniform", "trunc_normal",
             "xavier_uniform"),
    "layers": ("GELU", "Conv2d", "Dropout", "Hardswish", "Identity",
               "LayerNorm", "Linear", "ReLU", "Sigmoid", "Softmax"),
    "module": ("Module", "ModuleList", "Parameter", "Sequential"),
    "serialization": ("load_checkpoint", "load_into", "save_checkpoint"),
    "optim": ("SGD", "Adam", "AdamW", "CosineSchedule", "Optimizer",
              "clip_grad_norm"),
    "tensor": ("Tensor", "is_grad_enabled", "no_grad"),
}, submodules=("functional",))
