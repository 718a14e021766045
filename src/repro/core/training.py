"""Training loops and the latency-aware multi-stage strategy (Section VI).

Three layers:

* :func:`train_backbone` -- plain supervised training of a ViT backbone
  (the "train-from-scratch" baseline of Table V).
* :func:`train_heatvit` -- fine-tuning a HeatViT model with the combined
  objective of Eq. 21: cross-entropy + distillation + latency-sparsity.
* :class:`BlockToStageTrainer` -- Algorithm 1: progressively insert token
  selectors from the last block backward, lower each block's keep ratio
  until the accuracy-drop budget is hit, then consolidate consecutive
  selectors with similar ratios into stages and retrain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.core.heatvit import HeatViT, PruningRecord
from repro.core.latency import latency_sparsity_loss

__all__ = ["TrainConfig", "EpochStats", "iterate_minibatches",
           "train_backbone", "train_heatvit",
           "BlockToStageTrainer", "InsertionTrace", "TrainingReport"]


@dataclass
class TrainConfig:
    """Hyper-parameters for the fine-tuning loops.

    ``lambda_distill`` and ``lambda_ratio`` default to the paper's values
    (0.5 and 2, Eq. 21).
    """

    epochs: int = 3
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 0.05
    warmup_fraction: float = 0.1
    lambda_distill: float = 0.5
    lambda_ratio: float = 2.0
    # Weight of the score-bimodality regularizer (see
    # repro.core.latency.confidence_loss): aligns the Gumbel-sampled
    # training decisions with the thresholded deployment rule (Fig. 9).
    lambda_confidence: float = 1.0
    grad_clip: float = 5.0
    seed: int = 0
    # Gumbel-Softmax temperature annealing for the token selectors;
    # lower tau sharpens straight-through gradients late in training.
    tau_start: float = 1.0
    tau_end: float = 0.5


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    keep_ratios: tuple = ()


def iterate_minibatches(images, labels, batch_size, rng, shuffle=True):
    """Yield ``(images, labels)`` minibatches."""
    count = len(labels)
    order = np.arange(count)
    if shuffle:
        rng.shuffle(order)
    for start in range(0, count, batch_size):
        index = order[start:start + batch_size]
        yield images[index], labels[index]


def _make_optimizer(model, config, steps_per_epoch):
    optimizer = nn.AdamW(model.parameters(), lr=config.lr,
                         weight_decay=config.weight_decay)
    total = max(1, config.epochs * steps_per_epoch)
    schedule = nn.CosineSchedule(
        optimizer, base_lr=config.lr, total_steps=total,
        warmup_steps=int(config.warmup_fraction * total))
    return optimizer, schedule


def train_backbone(model, train_images, train_labels, config,
                   val_images=None, val_labels=None, verbose=False):
    """Supervised training of a plain ViT; returns per-epoch stats."""
    rng = np.random.default_rng(config.seed)
    steps = max(1, len(train_labels) // config.batch_size)
    optimizer, schedule = _make_optimizer(model, config, steps)
    history = []
    for epoch in range(config.epochs):
        model.train()
        losses = []
        for batch_images, batch_labels in iterate_minibatches(
                train_images, train_labels, config.batch_size, rng):
            logits = model(batch_images)
            loss = F.cross_entropy(logits, batch_labels)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), config.grad_clip)
            schedule.step()
            optimizer.step()
            losses.append(loss.item())
        accuracy = float("nan")
        if val_images is not None:
            model.eval()
            accuracy = model.accuracy(val_images, val_labels)
        stats = EpochStats(epoch, float(np.mean(losses)), accuracy)
        history.append(stats)
        if verbose:
            print(f"[backbone] epoch {epoch}: loss={stats.loss:.4f} "
                  f"acc={stats.accuracy:.4f}")
    return history


def heatvit_loss(model, batch_images, batch_labels, config, teacher=None):
    """The Eq. 21 objective for one minibatch; returns (loss, record)."""
    record = PruningRecord()
    logits = model(batch_images, record=record)
    loss = F.cross_entropy(logits, batch_labels)
    if teacher is not None and config.lambda_distill:
        with nn.no_grad():
            teacher_logits = teacher(batch_images)
        loss = loss + config.lambda_distill * F.kl_divergence(
            logits, teacher_logits)
    if record.decisions and config.lambda_ratio:
        targets = model.keep_ratios
        loss = loss + config.lambda_ratio * latency_sparsity_loss(
            record.decisions, targets)
    if record.scores and config.lambda_confidence:
        from repro.core.latency import confidence_loss
        loss = loss + config.lambda_confidence * confidence_loss(
            record.scores, record.alive_before, model.keep_ratios,
            signal_records=record.attention_signals)
    return loss, record


def train_heatvit(model, train_images, train_labels, config, teacher=None,
                  val_images=None, val_labels=None, verbose=False,
                  freeze_backbone=False):
    """Fine-tune a HeatViT model with the combined objective (Eq. 21)."""
    rng = np.random.default_rng(config.seed)
    if freeze_backbone:
        model.backbone.freeze()
    steps = max(1, len(train_labels) // config.batch_size)
    optimizer, schedule = _make_optimizer(model, config, steps)
    history = []
    for epoch in range(config.epochs):
        # Anneal the Gumbel temperature toward the deployment threshold.
        progress = epoch / max(1, config.epochs - 1)
        tau = (config.tau_start
               + (config.tau_end - config.tau_start) * progress)
        for selector in model.selectors:
            selector.tau = tau
        model.train()
        losses = []
        realized = []
        for batch_images, batch_labels in iterate_minibatches(
                train_images, train_labels, config.batch_size, rng):
            loss, record = heatvit_loss(model, batch_images, batch_labels,
                                        config, teacher=teacher)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), config.grad_clip)
            schedule.step()
            optimizer.step()
            losses.append(loss.item())
            realized.append(tuple(record.cumulative_keep))
        accuracy = float("nan")
        if val_images is not None:
            accuracy = model.accuracy(val_images, val_labels)
        mean_keep = (tuple(np.mean(realized, axis=0)) if realized else ())
        stats = EpochStats(epoch, float(np.mean(losses)), accuracy,
                           keep_ratios=mean_keep)
        history.append(stats)
        if verbose:
            print(f"[heatvit] epoch {epoch}: loss={stats.loss:.4f} "
                  f"acc={stats.accuracy:.4f} keep={mean_keep}")
    if freeze_backbone:
        model.backbone.unfreeze()
    return history


# ----------------------------------------------------------------------
# Algorithm 1: latency-aware block-to-stage training
# ----------------------------------------------------------------------
@dataclass
class InsertionTrace:
    """One Step-1 insertion: which block, final ratio, accuracy after."""

    block: int
    keep_ratio: float
    accuracy: float
    latency_ms: float


@dataclass
class TrainingReport:
    """Outcome of the block-to-stage pipeline."""

    traces: list = field(default_factory=list)
    stage_boundaries: tuple = ()
    stage_keep_ratios: tuple = ()
    final_accuracy: float = float("nan")
    final_latency_ms: float = float("nan")
    baseline_accuracy: float = float("nan")
    epochs_spent: int = 0


class BlockToStageTrainer:
    """Latency-aware multi-stage training (paper Algorithm 1).

    Step 1 walks blocks from the last toward ``min_block`` (the paper
    stops at the 4th block: pruning the front 3 blocks hurts too much).
    For each block it inserts a selector, fine-tunes briefly, and lowers
    that block's keep ratio along ``ratio_grid`` until either the model
    meets ``latency_limit`` or accuracy drops more than ``accuracy_drop``
    below the baseline.  Step 2 merges consecutive selectors whose
    ratios differ by less than ``merge_threshold`` (8.5% in the paper)
    into stages, keeps the first selector of each stage, and retrains.
    """

    def __init__(self, backbone, train_data, val_data, latency_table,
                 train_config=None, teacher=None, min_block=3,
                 ratio_grid=(0.9, 0.8, 0.7, 0.6, 0.5),
                 merge_threshold=0.085, rng=None):
        self.backbone = backbone
        self.train_images, self.train_labels = train_data
        self.val_images, self.val_labels = val_data
        self.table = latency_table
        self.config = train_config or TrainConfig(epochs=1)
        self.teacher = teacher
        self.min_block = min_block
        self.ratio_grid = tuple(sorted(ratio_grid, reverse=True))
        self.merge_threshold = merge_threshold
        self.rng = np.random.default_rng() if rng is None else rng
        self.epochs_spent = 0

    # ------------------------------------------------------------------
    def _build_model(self, block_ratios):
        model = HeatViT(self.backbone, dict(block_ratios), rng=self.rng)
        return model

    def _fit(self, model, epochs=None):
        config = self.config
        if epochs is not None:
            config = TrainConfig(**{**config.__dict__, "epochs": epochs})
        history = train_heatvit(
            model, self.train_images, self.train_labels, config,
            teacher=self.teacher, val_images=self.val_images,
            val_labels=self.val_labels)
        self.epochs_spent += config.epochs
        return history[-1].accuracy

    def _model_latency(self, block_ratios):
        """Eq. 19 LHS with per-block cumulative keep ratios."""
        depth = self.backbone.config.depth
        per_block = []
        current = 1.0
        for block in range(depth):
            if block in block_ratios:
                current = block_ratios[block]
            per_block.append(current)
        return self.table.model_latency(per_block)

    # ------------------------------------------------------------------
    def run(self, latency_limit, accuracy_drop=0.005,
            initial_keep_ratio=0.9):
        """Execute Algorithm 1; returns ``(model, TrainingReport)``."""
        report = TrainingReport()
        self.backbone.eval()
        report.baseline_accuracy = self.backbone.accuracy(
            self.val_images, self.val_labels)
        depth = self.backbone.config.depth
        block_ratios = {}

        # ---- Step 1: insert selectors back-to-front ----
        for block in range(depth - 1, self.min_block - 1, -1):
            upper = min([block_ratios[b] for b in block_ratios
                         if b > block] or [1.0])
            grid = [r for r in self.ratio_grid
                    if r <= min(initial_keep_ratio, 1.0)]
            accepted_ratio = None
            accepted_accuracy = report.baseline_accuracy
            for ratio in grid:
                # Cumulative ratios must be non-increasing front-to-back.
                trial = dict(block_ratios)
                trial[block] = ratio
                trial = _enforce_monotone(trial)
                model = self._build_model(trial)
                accuracy = self._fit(model)
                drop = report.baseline_accuracy - accuracy
                if drop > accuracy_drop:
                    break
                accepted_ratio = ratio
                accepted_accuracy = accuracy
                block_ratios = trial
                if self._model_latency(block_ratios) <= latency_limit:
                    break
            latency = self._model_latency(block_ratios)
            report.traces.append(InsertionTrace(
                block=block,
                keep_ratio=(accepted_ratio if accepted_ratio is not None
                            else 1.0),
                accuracy=accepted_accuracy,
                latency_ms=latency))
            if block_ratios and latency <= latency_limit:
                break

        # ---- Step 2: merge similar adjacent selectors into stages ----
        boundaries, ratios = consolidate_stages(
            block_ratios, self.merge_threshold)
        report.stage_boundaries = tuple(boundaries)
        report.stage_keep_ratios = tuple(ratios)
        final = self._build_model(dict(zip(boundaries, ratios)))
        report.final_accuracy = self._fit(final)
        report.final_latency_ms = self._model_latency(
            dict(zip(boundaries, ratios)))
        report.epochs_spent = self.epochs_spent
        return final, report


def _enforce_monotone(block_ratios):
    """Cumulative keep ratios must not increase with depth."""
    result = {}
    current = 1.0
    for block in sorted(block_ratios):
        current = min(current, block_ratios[block])
        result[block] = current
    return result


def consolidate_stages(block_ratios, merge_threshold=0.085):
    """Step 2 of Algorithm 1: merge similar consecutive selectors.

    Consecutive selectors whose keep ratios differ by less than
    ``merge_threshold`` collapse into one stage; only the first selector
    of each stage is kept (with that stage's ratio).
    Returns ``(boundaries, ratios)``.
    """
    if not block_ratios:
        return [], []
    blocks = sorted(block_ratios)
    boundaries = [blocks[0]]
    ratios = [block_ratios[blocks[0]]]
    for block in blocks[1:]:
        ratio = block_ratios[block]
        if abs(ratio - ratios[-1]) < merge_threshold:
            continue
        boundaries.append(block)
        ratios.append(ratio)
    return boundaries, ratios
