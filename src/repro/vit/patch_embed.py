"""Patch embedding: flatten image patches and project to the token space."""

from __future__ import annotations

from repro import nn
from repro.nn.tensor import Tensor

__all__ = ["PatchEmbedding"]


class PatchEmbedding(nn.Module):
    """Reshape ``(B, C, H, W)`` into ``N = HW/P^2`` tokens of dim ``D``.

    Implemented as flatten + Linear (a GEMM) rather than a strided
    convolution, matching how the accelerator executes it.
    """

    def __init__(self, config, rng=None):
        super().__init__()
        self.config = config
        self.patch_size = config.patch_size
        patch_dim = config.in_channels * config.patch_size ** 2
        self.projection = nn.Linear(patch_dim, config.embed_dim, rng=rng)

    def forward(self, images):
        images = Tensor.ensure(images)
        batch, channels, height, width = images.shape
        p = self.patch_size
        if height % p or width % p:
            raise ValueError(
                f"image size ({height}, {width}) not divisible by patch "
                f"size {p}")
        grid_h, grid_w = height // p, width // p
        # (B, C, gh, p, gw, p) -> (B, gh, gw, C, p, p) -> (B, N, C*p*p)
        x = images.reshape(batch, channels, grid_h, p, grid_w, p)
        x = x.transpose(0, 2, 4, 1, 3, 5)
        x = x.reshape(batch, grid_h * grid_w, channels * p * p)
        return self.projection(x)
