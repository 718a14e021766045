"""Token-pruning baselines: static top-k and EViT-style fusion.

These represent the two families the paper compares against (Table I):

* **Static token pruning** (DynamicViT / PS-ViT / ATS-like evaluation
  setting): a *fixed* fraction of tokens is kept at each stage for every
  image, ranked by the class token's mean attention.
* **EViT-style token reorganization**: same static ranking, but the
  pruned tokens are fused into one extra token weighted by their
  attention (the `fuse_pruned=True` mode).

Both reuse the backbone's recorded CLS attention, so they need no extra
parameters or training -- matching how these methods are typically
applied to a pretrained ViT before fine-tuning.
"""

from __future__ import annotations

import math

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.vit.complexity import pruned_model_gmacs

__all__ = ["StaticTokenPruningViT", "EViTStyleModel"]


class StaticTokenPruningViT(nn.Module):
    """Backbone + fixed-ratio top-k token pruning at stage boundaries.

    Parameters
    ----------
    backbone: a trained :class:`repro.vit.VisionTransformer`.
    stage_plan: :class:`repro.vit.StagePlan` -- boundaries and *fixed*
        cumulative keep ratios (identical for every image).
    fuse_pruned: EViT-style fusion of pruned tokens into one token
        (weighted by CLS attention) instead of discarding them.
    """

    def __init__(self, backbone, stage_plan, fuse_pruned=False):
        super().__init__()
        self.backbone = backbone
        self.config = backbone.config
        self.stage_plan = stage_plan
        self.fuse_pruned = fuse_pruned

    # ------------------------------------------------------------------
    def forward(self, images):
        """Batched inference with physical token removal.

        All images keep the same token count (static pruning), so the
        whole batch can be gathered at once.
        """
        config = self.config
        boundaries = {b: r for b, r in zip(self.stage_plan.boundaries,
                                           self.stage_plan.keep_ratios)}
        with nn.no_grad():
            x = self.backbone.embed(images)
            has_fused = False
            prev_keep = 1.0
            for block_index, block in enumerate(self.backbone.blocks):
                if block_index in boundaries:
                    cumulative = boundaries[block_index]
                    stage_ratio = min(1.0, cumulative / prev_keep)
                    prev_keep = cumulative
                    x, has_fused = self._prune(x, stage_ratio, block_index,
                                               has_fused)
                x = block(x)
            x = self.backbone.norm(x)
            return self.backbone.head(x[:, 0, :])

    def _prune(self, x, stage_ratio, block_index, has_fused):
        """Keep the top ``stage_ratio`` patch tokens by CLS attention."""
        config = self.config
        previous = self.backbone.blocks[block_index - 1]
        cls_attn = previous.attn.cls_attention()       # (B, h, N_total)
        scores = cls_attn.mean(axis=1)[:, 1:]          # patch+fused scores
        if has_fused:
            scores = scores[:, :-1]                    # never rank the fused
        patch_count = scores.shape[1]
        keep_count = max(1, math.ceil(stage_ratio * patch_count))
        order = np.argsort(-scores, axis=1)
        keep_idx = np.sort(order[:, :keep_count], axis=1)
        drop_idx = np.sort(order[:, keep_count:], axis=1)

        batch = x.shape[0]
        rows = np.arange(batch)[:, None]
        patches = x[:, 1:1 + patch_count, :]
        kept = patches[rows, keep_idx]                 # (B, K, D)
        pieces = [x[:, :1, :], kept]
        if self.fuse_pruned and drop_idx.shape[1]:
            dropped = patches[rows, drop_idx].data
            weights = np.take_along_axis(scores, drop_idx, axis=1)
            weights = weights / np.maximum(
                weights.sum(axis=1, keepdims=True), 1e-8)
            fused = (dropped * weights[..., None]).sum(axis=1,
                                                       keepdims=True)
            pieces.append(Tensor(fused))
            has_fused = True
        elif has_fused:
            pieces.append(x[:, -1:, :])                # carry old fused
        return Tensor.concatenate(pieces, axis=1), has_fused

    # ------------------------------------------------------------------
    def gmacs(self):
        """Analytical GMACs (no selector overhead: ranking is free-ish)."""
        return pruned_model_gmacs(self.config, self.stage_plan,
                                  include_selectors=False)

    def accuracy(self, images, labels, batch_size=64):
        labels = np.asarray(labels)
        correct = 0
        for start in range(0, len(labels), batch_size):
            logits = self.forward(images[start:start + batch_size])
            preds = logits.data.argmax(axis=-1)
            correct += int((preds == labels[start:start + batch_size]).sum())
        return correct / len(labels)


class EViTStyleModel(StaticTokenPruningViT):
    """EViT: static top-k by CLS attention with fused pruned token."""

    def __init__(self, backbone, stage_plan):
        super().__init__(backbone, stage_plan, fuse_pruned=True)
