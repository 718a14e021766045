"""Latency-sparsity table and loss (paper Section VI, Eqs. 18-20).

The paper measures per-block latency on the ZCU102 for a grid of token
keep ratios (Table IV) and uses the resulting lookup table both to pick
per-block keep ratios under a whole-model latency budget (Eq. 19) and to
regularize the mean selector decision toward those ratios (Eq. 20).

Here the table can be populated either with the paper's measured values
(:func:`paper_latency_table`) or from our FPGA simulator
(:func:`repro.hardware.latency_table.build_latency_table`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["LatencySparsityTable", "paper_latency_table",
           "latency_sparsity_loss", "confidence_loss",
           "ratios_for_latency_budget", "latency_from_stage_counts",
           "latency_for_keep_ratios"]

# Table IV of the paper: one-block latency (ms) on ZCU102 vs keep ratio.
_PAPER_TABLE = {
    "DeiT-T": {1.0: 1.034, 0.9: 0.945, 0.8: 0.881, 0.7: 0.764,
               0.6: 0.702, 0.5: 0.636},
    "DeiT-S": {1.0: 3.161, 0.9: 2.837, 0.8: 2.565, 0.7: 2.255,
               0.6: 1.973, 0.5: 1.682},
}


class LatencySparsityTable:
    """Lookup table ``keep_ratio -> one-block latency`` with interpolation.

    Implements Eq. 18 (``Block(rho) = latency_sparsity_table(rho)``) plus
    the inverse lookup needed by Algorithm 1's "decrease t_i; rho_i =
    table(t_i)" step.
    """

    def __init__(self, entries):
        if not entries:
            raise ValueError("empty latency table")
        pairs = sorted(entries.items())
        self._ratios = np.array([ratio for ratio, _ in pairs])
        self._latencies = np.array([lat for _, lat in pairs])
        if np.any(np.diff(self._latencies) < 0):
            raise ValueError(
                "latency must be non-decreasing in keep ratio")

    def latency(self, keep_ratio):
        """Eq. 18: interpolated one-block latency at ``keep_ratio``."""
        ratio = float(np.clip(keep_ratio, self._ratios[0], self._ratios[-1]))
        return float(np.interp(ratio, self._ratios, self._latencies))

    def latency_batch(self, keep_ratios):
        """Vectorized :meth:`latency` over an array of keep ratios."""
        ratios = np.clip(np.asarray(keep_ratios, dtype=np.float64),
                         self._ratios[0], self._ratios[-1])
        return np.interp(ratios, self._ratios, self._latencies)

    def ratio_for_latency(self, latency):
        """Inverse lookup: the largest keep ratio meeting ``latency``."""
        lat = float(np.clip(latency, self._latencies[0],
                            self._latencies[-1]))
        return float(np.interp(lat, self._latencies, self._ratios))

    def model_latency(self, keep_ratios_per_block):
        """Whole-model latency: sum of per-block latencies (Eq. 19 LHS)."""
        return sum(self.latency(r) for r in keep_ratios_per_block)

    def items(self):
        return list(zip(self._ratios.tolist(), self._latencies.tolist()))


def paper_latency_table(model_name):
    """The measured Table IV entries for ``DeiT-T`` / ``DeiT-S``."""
    if model_name not in _PAPER_TABLE:
        raise KeyError(
            f"paper reports Table IV only for {sorted(_PAPER_TABLE)}; "
            f"got {model_name!r} (use the hardware simulator instead)")
    return LatencySparsityTable(_PAPER_TABLE[model_name])


def latency_sparsity_loss(records, target_keep_ratios):
    """Eq. 20: squared gap between target and realized mean keep ratio.

    ``records`` is the list of cumulative decision Tensors collected by
    :class:`repro.core.heatvit.PruningRecord` (one per selector);
    ``target_keep_ratios`` are the cumulative keep ratios ``1 - rho_i``
    implied by the latency budget.  The mean over the batch makes the
    constraint *average*, allowing per-image adaptivity around it.
    """
    if len(records) != len(target_keep_ratios):
        raise ValueError("one target per selector required")
    loss = Tensor(np.zeros(()))
    for decision, target in zip(records, target_keep_ratios):
        realized = decision.mean()
        gap = realized - float(target)
        loss = loss + gap * gap
    return loss


def confidence_loss(score_records, alive_records, target_keep_ratios,
                    signal_records=None):
    """Quantile-sharpening regularizer for thresholded deployment.

    The ratio loss (Eq. 20) constrains only the *mean* keep decision; a
    selector can satisfy it with a uniform score of ``rho`` for every
    token, which the deployed threshold rule (Fig. 9, threshold 0.5)
    would then keep entirely.  This term assigns binary targets by
    ranking tokens against a *batch-global* quantile -- the top
    ``rho`` fraction of all alive tokens in the batch get target 1, the
    rest 0 -- and applies binary cross-entropy, driving the score
    distribution bimodal around the threshold while letting per-image
    keep counts vary (complex images place more tokens above the global
    bar).  This mirrors the paper's convergence goal: "we set the
    average pruning rate of all images in one batch as the convergence
    target".

    ``signal_records`` supplies the ranking signal; by default the
    class token's attention from the preceding transformer block is
    used (persistent and informative from the first step -- exactly the
    redundancy evidence of the paper's Fig. 5).  Without a signal the
    selector's own keep scores are ranked, which self-reinforces once
    training has separated them.

    The paper does not spell this detail out; *some* sharpening is
    required for any Gumbel-trained selector deployed with a fixed
    threshold, and it is documented as a reproduction note in
    EXPERIMENTS.md.

    Parameters
    ----------
    score_records: list of ``(B, N, 2)`` keep/prune score Tensors.
    alive_records: list of ``(B, N)`` {0,1} arrays -- tokens alive
        *before* each selector (treated as constants).
    target_keep_ratios: cumulative keep targets, one per selector.
    signal_records: optional list of ``(B, N)`` ranking signals.
    """
    if not (len(score_records) == len(alive_records)
            == len(target_keep_ratios)):
        raise ValueError("one record of each kind per selector required")
    if signal_records is None:
        signal_records = [None] * len(score_records)
    if len(signal_records) != len(score_records):
        raise ValueError("one signal per selector required")
    loss = Tensor(np.zeros(()))
    for scores, alive, ratio, signal in zip(
            score_records, alive_records, target_keep_ratios,
            signal_records):
        keep = scores[..., 0]                       # (B, N) Tensor
        alive_data = (alive.data if isinstance(alive, Tensor)
                      else np.asarray(alive))
        ranking = keep.data if signal is None else np.asarray(signal)
        batch, count = ranking.shape
        # Batch-global quantile over alive tokens.
        flat = np.where(alive_data > 0.5, ranking, -np.inf).ravel()
        k = max(1, int(np.ceil(float(ratio) * batch * count)))
        k = min(k, int((alive_data > 0.5).sum()) or 1)
        threshold = np.sort(flat)[-k]
        targets = ((ranking >= threshold) & (alive_data > 0.5))
        targets = targets.astype(np.float64)
        weights = alive_data
        bce = -(Tensor(targets) * (keep + 1e-8).log()
                + Tensor(1.0 - targets) * (1.0 - keep + 1e-8).log())
        total = (bce * Tensor(weights)).sum() / max(weights.sum(), 1.0)
        loss = loss + total
    return loss / max(len(score_records), 1)


def latency_from_stage_counts(table, depth, selector_blocks,
                              tokens_per_stage, num_patches, extra=1):
    """Per-image whole-model latency estimate from realized token counts.

    The deployment analogue of :meth:`LatencySparsityTable.model_latency`:
    instead of target keep ratios, uses the *actual* per-image token
    counts recorded after each selector (CLS and package included, as in
    :class:`repro.core.heatvit.PruningRecord.tokens_per_stage`).  Each
    block's latency is the Eq. 18 table lookup at that block's realized
    *patch* keep ratio ``(count - extra) / num_patches`` -- the same
    convention ``PruningRecord.cumulative_keep`` and
    :func:`ratios_for_latency_budget` use, with ``extra`` the
    non-patch slots (CLS, plus the package when the model packages).

    ``selector_blocks``: block indices with a selector in front, sorted.
    ``tokens_per_stage``: one array of per-image counts per selector.
    Returns a ``(B,)`` array of latency estimates in the table's unit
    (milliseconds for the paper's Table IV).
    """
    tokens_per_stage = [np.asarray(c, dtype=np.float64)
                        for c in tokens_per_stage]
    if len(tokens_per_stage) != len(selector_blocks):
        raise ValueError("one token-count array per selector required")
    if not tokens_per_stage:
        raise ValueError(
            "no selector stages: the batch size cannot be inferred; use "
            "table.model_latency([1.0] * depth) for dense models")
    batch = tokens_per_stage[0].shape[0]
    stage_ratios = [np.ones(batch)] + [
        np.clip(counts - extra, 0.0, None) / float(num_patches)
        for counts in tokens_per_stage]
    # Stage s runs the blocks between selector s-1 and selector s: one
    # difference over the sorted boundaries, clipped into [0, depth].
    edges = np.clip([0, *sorted(selector_blocks), depth], 0, depth)
    per_image = np.zeros(batch)
    for blocks_in_stage, ratios in zip(np.diff(edges).tolist(),
                                       stage_ratios):
        if blocks_in_stage:
            per_image += blocks_in_stage * table.latency_batch(ratios)
    return per_image


def latency_for_keep_ratios(table, depth, selector_blocks, keep_ratios):
    """Whole-model latency at a *configured* operating point (Eq. 19 LHS).

    The a-priori counterpart of :func:`latency_from_stage_counts`: instead
    of realized per-image token counts, uses the model's configured
    per-selector target keep ratios (``HeatViT.keep_ratios``).  Each
    ratio is *cumulative* -- the share of all patches alive after that
    selector, the reading Eq. 20 and the confidence loss train towards
    (Table VI's "Keep Ratio").  Blocks before the first selector run
    dense; every later block runs at the ratio of the last selector in
    front of it.  This is what a request router can evaluate *before*
    execution to compare serving sessions (scheduler cost policy).

    ``selector_blocks``: block indices with a selector in front, sorted.
    ``keep_ratios``: one cumulative target keep ratio per selector.
    Returns a scalar in the table's unit (ms for the paper's Table IV).
    """
    if len(selector_blocks) != len(keep_ratios):
        raise ValueError("one keep ratio per selector required")
    stage_ratios = [1.0, *(float(ratio) for ratio in keep_ratios)]
    # Stage s runs the blocks between selector s-1 and selector s.
    edges = np.clip([0, *sorted(selector_blocks), depth], 0, depth)
    total = 0.0
    for blocks_in_stage, ratio in zip(np.diff(edges).tolist(),
                                      stage_ratios):
        total += blocks_in_stage * table.latency(ratio)
    return total


def ratios_for_latency_budget(table, depth, latency_limit,
                              candidate_ratios=None, front_blocks=3):
    """Greedy per-block keep-ratio assignment meeting Eq. 19.

    Mirrors Algorithm 1's outer loop shape: blocks are considered from
    the last to the front, each lowered through ``candidate_ratios``
    until the whole-model latency fits ``latency_limit``; the first
    ``front_blocks`` blocks are never pruned (the paper observes severe
    accuracy drops when pruning the front 3 blocks).

    Returns a list of per-block keep ratios, or raises ``ValueError`` if
    the budget is infeasible even at the minimum table ratio.
    """
    if candidate_ratios is None:
        candidate_ratios = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
    candidate_ratios = sorted(candidate_ratios, reverse=True)
    ratios = [1.0] * depth
    if table.model_latency(ratios) <= latency_limit:
        return ratios
    for block in range(depth - 1, front_blocks - 1, -1):
        for ratio in candidate_ratios:
            ratios[block] = ratio
            if table.model_latency(ratios) <= latency_limit:
                return ratios
    raise ValueError(
        f"latency budget {latency_limit} ms infeasible: best achievable is "
        f"{table.model_latency(ratios):.3f} ms")
