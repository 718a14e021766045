"""HeatViT: a ViT backbone with token selectors inserted between blocks.

The model has two execution paths:

* ``forward`` (training / batched evaluation): token count stays static;
  pruned tokens are neutralized through masked attention while the
  Gumbel-Softmax straight-through estimator keeps decisions trainable.
* ``forward_pruned`` (deployment semantics): tokens are physically
  gathered into a dense, smaller matrix after every selector -- exactly
  what the FPGA accelerator executes -- yielding per-image adaptive
  token counts (Fig. 4) and the real GMAC savings.

Sequence layout in masked mode: ``[cls, patch_0..patch_{N-1}, package]``
where the package slot exists from the start but is masked off until the
first selector fires.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.core.gather import prune_image_sequence
from repro.core.selector import TokenSelector
from repro.vit.attention import suppress_attention_recording
from repro.vit.complexity import block_macs, token_selector_macs

__all__ = ["HeatViT", "PruningRecord"]


class PruningRecord:
    """Bookkeeping for one forward pass through a HeatViT model.

    Attributes
    ----------
    decisions: list of ``(B, N)`` Tensors, one per selector, cumulative.
    keep_fractions: list of per-selector mean keep fractions (relative to
        tokens alive before that selector).
    cumulative_keep: list of per-selector mean keep ratios relative to
        the original patch count (what Table VI's "Keep Ratio" reports).
    tokens_per_stage: in gathered mode, list of arrays of per-image token
        counts after each selector.
    """

    def __init__(self):
        self.decisions = []
        self.scores = []
        self.alive_before = []
        self.attention_signals = []
        self.keep_fractions = []
        self.cumulative_keep = []
        self.tokens_per_stage = []

    def summary(self):
        return {
            "keep_fractions": list(self.keep_fractions),
            "cumulative_keep": list(self.cumulative_keep),
        }


class HeatViT(nn.Module):
    """A backbone ViT with :class:`TokenSelector` modules inserted.

    Parameters
    ----------
    backbone: a :class:`repro.vit.VisionTransformer` (its config is
        reused; weights may be pretrained).
    selector_blocks: mapping ``{block_index: keep_ratio}`` -- a selector
        is inserted *before* each listed block with the given target
        (average) keep ratio, *cumulative*: the share of all patches
        alive after that selector (see :attr:`keep_ratios`).
    tau: Gumbel-Softmax temperature shared by all selectors.
    use_packager: when False, non-informative tokens are discarded
        outright instead of consolidated (the IA-RED2/Evo-ViT style
        "adaptive discard" baseline and the packager ablation).
    """

    def __init__(self, backbone, selector_blocks, tau=1.0, rng=None,
                 use_packager=True, activation=None,
                 classifier_factory=None):
        super().__init__()
        rng = np.random.default_rng() if rng is None else rng
        self.use_packager = use_packager
        self.backbone = backbone
        self.config = backbone.config
        boundaries = sorted(selector_blocks)
        if any(b < 0 or b >= self.config.depth for b in boundaries):
            raise ValueError(
                f"selector block index out of range 0..{self.config.depth - 1}")
        self.selector_blocks = tuple(boundaries)
        self.keep_ratios_version = 0
        self.selectors = nn.ModuleList([
            TokenSelector(self.config.embed_dim, self.config.num_heads,
                          keep_ratio=selector_blocks[b], tau=tau, rng=rng,
                          activation=activation,
                          classifier=(classifier_factory(rng)
                                      if classifier_factory else None))
            for b in boundaries
        ])

    # ------------------------------------------------------------------
    @property
    def non_patch_slots(self):
        """Sequence slots that are not patch tokens: CLS (+ package).

        The shared convention for turning gathered token counts into
        patch keep ratios -- used by :meth:`finalize_pruned_record` and
        the engine's latency estimate.
        """
        return 2 if self.use_packager else 1

    @property
    def keep_ratios(self):
        """Per-selector target keep ratios, in block order.  Each is
        cumulative -- the share of *all* patches alive after that
        selector, not of the tokens entering it -- which is what Eq. 20
        (:func:`repro.core.latency_sparsity_loss`), the confidence loss
        and a priori pricing
        (:func:`repro.core.latency.latency_for_keep_ratios`) read."""
        return tuple(s.keep_ratio for s in self.selectors)

    def set_keep_ratios(self, ratios):
        """Retune the selectors' cumulative target keep ratios (one per
        selector, in block order; see :attr:`keep_ratios`)."""
        if len(ratios) != len(self.selectors):
            raise ValueError("ratio count mismatch")
        for selector, ratio in zip(self.selectors, ratios):
            selector.keep_ratio = ratio
        # Serving sessions cache a latency estimate keyed on this
        # counter; bumping it here makes retuning self-invalidating.
        self.keep_ratios_version += 1

    def selector_for_block(self, block_index):
        position = self.selector_blocks.index(block_index)
        return self.selectors[position]

    # ------------------------------------------------------------------
    # Masked (training) path
    # ------------------------------------------------------------------
    def forward(self, images, record=None):
        """Masked forward pass; returns logits ``(B, num_classes)``.

        Pass a :class:`PruningRecord` to collect selector decisions for
        the latency-sparsity loss.
        """
        config = self.config
        num_patches = config.num_patches
        x = self.backbone.embed(images)                   # (B, 1+N, D)
        batch = x.shape[0]
        # Append the (initially masked) package slot.
        package_slot = Tensor(np.zeros((batch, 1, config.embed_dim)))
        x = Tensor.concatenate([x, package_slot], axis=1)  # (B, 2+N, D)

        patch_mask = Tensor(np.ones((batch, num_patches)))
        package_alive = np.zeros((batch, 1))
        selector_pos = {b: i for i, b in enumerate(self.selector_blocks)}

        for block_index, block in enumerate(self.backbone.blocks):
            if block_index in selector_pos:
                selector = self.selectors[selector_pos[block_index]]
                patches = x[:, 1:1 + num_patches, :]
                out = selector(patches, incoming_mask=patch_mask)
                if record is not None:
                    record.decisions.append(out.decision)
                    record.scores.append(out.keep_probs)
                    record.alive_before.append(patch_mask.data.copy())
                    record.attention_signals.append(
                        self._cls_attention_signal(block_index,
                                                   num_patches))
                    record.keep_fractions.append(
                        out.keep_fraction(patch_mask))
                    record.cumulative_keep.append(
                        float(out.decision.data.mean()))
                newly_pruned = (patch_mask.data - out.decision.data)
                patch_mask = out.decision
                if self.use_packager:
                    # Per image: replace the package with the newly
                    # pruned tokens' consolidation, or carry the old
                    # (evolving) package when nothing was pruned at this
                    # stage -- matching the gathered deployment path.
                    replace = (newly_pruned.sum(axis=1, keepdims=True)
                               > 0.5)                    # (B, 1)
                    old_slot = x[:, 1 + num_patches:, :]
                    package = out.package.where(replace[:, :, None],
                                                old_slot)
                    x = Tensor.concatenate(
                        [x[:, :1 + num_patches, :], package], axis=1)
                    package_alive = np.maximum(package_alive,
                                               replace.astype(np.float64))
            full_mask = Tensor.concatenate(
                [Tensor(np.ones((batch, 1))), patch_mask,
                 Tensor(package_alive)], axis=1)
            x = block(x, key_mask=full_mask)

        return self.backbone.classify(x)

    def _cls_attention_signal(self, block_index, num_patches):
        """Mean-over-heads CLS attention to patch tokens ``(B, N)``.

        Taken from the block preceding the selector; used as the
        ranking signal for the confidence (sharpening) loss.  Returns
        ``None`` for a selector before block 0 (no attention yet).
        """
        if block_index == 0:
            return None
        attn = self.backbone.blocks[block_index - 1].attn.last_attention
        if attn is None:
            return None
        return attn[:, :, 0, 1:1 + num_patches].mean(axis=1)

    # ------------------------------------------------------------------
    # Gathered (deployment) path
    # ------------------------------------------------------------------
    def forward_pruned(self, images, record=None):
        """Physically-pruned forward pass (deployment semantics).

        Processes images one at a time because each image keeps a
        different number of tokens (the whole point of image-adaptive
        pruning).  Returns logits ``(B, num_classes)``.
        """
        images = np.asarray(images.data if isinstance(images, Tensor)
                            else images)
        logits = []
        all_tokens_per_stage = None
        for index in range(images.shape[0]):
            single_logits, stage_tokens = self._forward_pruned_single(
                images[index:index + 1])
            logits.append(single_logits.data[0])
            if all_tokens_per_stage is None:
                all_tokens_per_stage = [[] for _ in stage_tokens]
            for stage, count in enumerate(stage_tokens):
                all_tokens_per_stage[stage].append(count)
        if record is not None and all_tokens_per_stage is not None:
            self.finalize_pruned_record(record, all_tokens_per_stage)
        return Tensor(np.stack(logits, axis=0))

    def finalize_pruned_record(self, record, tokens_per_stage):
        """Fill a :class:`PruningRecord` from per-stage token counts.

        ``tokens_per_stage`` is one sequence of per-image token counts
        (CLS and package included) per selector stage.  Shared by the
        reference loop above and the batched engine
        (:mod:`repro.engine`), so both report identical bookkeeping.
        """
        record.tokens_per_stage = [np.asarray(counts)
                                   for counts in tokens_per_stage]
        num_patches = self.config.num_patches
        extra = self.non_patch_slots
        record.cumulative_keep = [
            float(np.mean([max(c - extra, 0) / num_patches
                           for c in counts]))
            for counts in record.tokens_per_stage]
        return record

    def _forward_pruned_single(self, image):
        # Deployment semantics never read the recorded attention maps
        # (they only feed the masked path's ranking signal and Fig. 5
        # analysis), so skip the per-block (1, h, T, T) copies.
        with suppress_attention_recording(
                block.attn for block in self.backbone.blocks), nn.no_grad():
            x = self.backbone.embed(image)                # (1, 1+N, D)
            selector_pos = {b: i for i, b in enumerate(self.selector_blocks)}
            stage_tokens = []
            has_package = False
            for block_index, block in enumerate(self.backbone.blocks):
                if block_index in selector_pos:
                    selector = self.selectors[selector_pos[block_index]]
                    # Patch tokens = everything but CLS and the package.
                    stop = x.shape[1] - (1 if has_package else 0)
                    patches = x[:, 1:stop, :]
                    out = selector(patches, hard=False)
                    # The selector's internal guard ensures >= 1 keep.
                    keep = out.decision.data[0] > 0.5
                    sequence, has_package = prune_image_sequence(
                        x.data[0], keep, use_packager=self.use_packager,
                        has_package=has_package,
                        package=out.package.data[0, 0])
                    x = Tensor(sequence[None])
                    stage_tokens.append(x.shape[1])
                x = block(x)
            logits = self.backbone.classify(x)
        return logits, stage_tokens

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def measured_gmacs(self, images):
        """Average per-image GMACs under physical pruning.

        Uses the Table II per-block cost with the *actual* token counts
        each image retained -- the adaptive analogue of
        :func:`repro.vit.pruned_model_gmacs`.
        """
        record = PruningRecord()
        self.eval()
        self.forward_pruned(images, record=record)
        config = self.config
        base_tokens = config.num_tokens
        batch = record.tokens_per_stage[0].shape[0]
        per_image = np.zeros(batch)
        boundaries = list(self.selector_blocks)
        counts_by_stage = [np.full(batch, base_tokens)]
        counts_by_stage += list(record.tokens_per_stage)
        for block_index in range(config.depth):
            stage = sum(1 for b in boundaries if b <= block_index)
            tokens = counts_by_stage[stage]
            for image_index in range(batch):
                per_image[image_index] += block_macs(
                    int(tokens[image_index]), config.embed_dim,
                    config.num_heads, config.mlp_hidden_dim)
        for position, boundary in enumerate(boundaries):
            tokens = counts_by_stage[position]
            for image_index in range(batch):
                per_image[image_index] += token_selector_macs(
                    int(tokens[image_index]), config.embed_dim,
                    config.num_heads)
        patch_dim = config.in_channels * config.patch_size ** 2
        per_image += config.num_patches * patch_dim * config.embed_dim
        per_image += config.embed_dim * config.num_classes
        return per_image / 1e9

    def accuracy(self, images, labels, batch_size=64, pruned=False):
        """Top-1 accuracy; ``pruned=True`` uses deployment semantics."""
        labels = np.asarray(labels)
        self.eval()
        correct = 0
        for start in range(0, len(labels), batch_size):
            batch = images[start:start + batch_size]
            if pruned:
                logits = self.forward_pruned(batch)
            else:
                with nn.no_grad():
                    logits = self.forward(batch)
            preds = logits.data.argmax(axis=-1)
            correct += int((preds == labels[start:start + batch_size]).sum())
        return correct / len(labels)
