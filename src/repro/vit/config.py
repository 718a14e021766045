"""ViT architecture configurations.

Full-size configurations match the paper's Table V exactly (heads,
embedding dimension, depth) and drive the analytical complexity and
hardware models.  The ``tiny_*`` configurations are scaled-down trainable
variants used for end-to-end accuracy experiments on the synthetic
dataset (the paper's ImageNet runs are out of reach without GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ViTConfig",
    "DEIT_TINY", "DEIT_SMALL", "DEIT_BASE",
    "LVVIT_SMALL", "LVVIT_MEDIUM",
    "DEIT_T_160", "DEIT_S_288",
    "PAPER_BACKBONES", "small_config",
]


@dataclass(frozen=True)
class ViTConfig:
    """Static description of a ViT backbone.

    Attributes mirror the symbols of the paper's Table II:
    ``embed_dim`` is ``Dch``, ``num_heads`` is ``h``, the per-head
    dimension ``Dattn`` is ``embed_dim // num_heads``, and the FFN hidden
    dimension is ``mlp_ratio * embed_dim`` (``4 * Dfc`` with the paper's
    notation when ``mlp_ratio == 4``).
    """

    name: str
    image_size: int = 224
    patch_size: int = 16
    in_channels: int = 3
    embed_dim: int = 192
    depth: int = 12
    num_heads: int = 3
    mlp_ratio: float = 4.0
    num_classes: int = 1000
    drop_rate: float = 0.0
    baseline_epochs: int = 300
    heatvit_epochs: int = 270

    def __post_init__(self):
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by "
                f"patch_size {self.patch_size}")

    @property
    def head_dim(self):
        """Per-head sub-channel size (``Dattn`` in Table II)."""
        return self.embed_dim // self.num_heads

    @property
    def num_patches(self):
        side = self.image_size // self.patch_size
        return side * side

    @property
    def num_tokens(self):
        """Patches plus the class token (``N`` in Table II includes CLS)."""
        return self.num_patches + 1

    @property
    def mlp_hidden_dim(self):
        return int(self.embed_dim * self.mlp_ratio)

    def scaled(self, **overrides):
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


DEIT_TINY = ViTConfig(name="DeiT-T", embed_dim=192, depth=12, num_heads=3)
DEIT_SMALL = ViTConfig(name="DeiT-S", embed_dim=384, depth=12, num_heads=6)
DEIT_BASE = ViTConfig(name="DeiT-B", embed_dim=768, depth=12, num_heads=12)
LVVIT_SMALL = ViTConfig(name="LV-ViT-S", embed_dim=384, depth=16,
                        num_heads=6, baseline_epochs=400, heatvit_epochs=390)
LVVIT_MEDIUM = ViTConfig(name="LV-ViT-M", embed_dim=512, depth=20,
                         num_heads=8, baseline_epochs=400, heatvit_epochs=390)

# Scaled DeiT baselines trained by the authors for Fig. 2's model-scaling
# comparison ("we train more DeiT models with the embedding dimension of
# 160/256/288/320").
DEIT_T_160 = ViTConfig(name="DeiT-T-160", embed_dim=160, depth=12,
                       num_heads=4)
DEIT_S_288 = ViTConfig(name="DeiT-S-288", embed_dim=288, depth=12,
                       num_heads=6)

PAPER_BACKBONES = {
    cfg.name: cfg
    for cfg in (DEIT_TINY, DEIT_SMALL, DEIT_BASE, LVVIT_SMALL, LVVIT_MEDIUM)
}


def small_config(name="tiny", image_size=32, patch_size=8, embed_dim=48,
                 depth=6, num_heads=3, num_classes=8, **overrides):
    """A laptop-scale trainable configuration for accuracy experiments."""
    return ViTConfig(name=f"small-{name}", image_size=image_size,
                     patch_size=patch_size, embed_dim=embed_dim, depth=depth,
                     num_heads=num_heads, num_classes=num_classes,
                     **overrides)
