"""The HeatViT adaptive token selector (paper Section IV, Fig. 7).

Components:

* :class:`MultiHeadTokenClassifier` -- per-head token scoring from local
  and global receptive-field features (Eqs. 3-5).
* :class:`AttentionBranch` -- squeeze-and-excitation style head-importance
  weighting (Eqs. 6-7).
* :class:`TokenSelector` -- combines the two into the overall token score
  (Eq. 8), draws the keep/prune decision with Gumbel-Softmax (Eq. 9), and
  packages non-informative tokens into one token (Eq. 10).

Everything is built from Linear layers + GELU/Softmax/Sigmoid on purpose:
these operators already exist in the backbone ViT, so the FPGA GEMM
engine can execute the selector with only control-logic overhead
(Section V-C).

Training vs inference semantics
-------------------------------
During training tokens are never physically removed (batch shapes must
stay static); the {0,1} decision mask neutralizes pruned tokens through
masked attention, and gradients flow through the Gumbel-Softmax
straight-through estimator.  At inference tokens are physically gathered
into a dense, smaller matrix -- the behaviour the FPGA implements.  Both
paths share this module; the ``incoming_mask`` argument makes masked-mode
selector evaluations identical to gathered-mode ones (global pooling and
packaging only consider currently-alive tokens).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

__all__ = ["MultiHeadTokenClassifier", "AttentionBranch", "TokenSelector",
           "SelectorOutput"]

_EPS = 1e-8


class MultiHeadTokenClassifier(nn.Module):
    """Scores every token independently for each attention head.

    The input ``(B, N, D)`` is split into ``h`` head subvectors of size
    ``d = D/h``.  A feature MLP produces the local representation
    ``E_local = MLP(x_i)`` (Eq. 3) and its token-average gives the global
    representation (Eq. 4).  Their concatenation is classified into
    keep/prune probabilities via a second MLP + Softmax (Eq. 5).

    The MLPs are shared across heads (each head has the same subvector
    dimension), so on hardware the per-head evaluations are ``h``
    identical GEMMs -- ideal for the multi-head-tiled GEMM engine.
    """

    def __init__(self, embed_dim, num_heads, activation=None, rng=None):
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError("embed_dim must divide num_heads")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        d = self.head_dim
        act = nn.GELU if activation is None else activation
        feat = max(d // 2, 2)
        self.feature_mlp = nn.Sequential(nn.Linear(d, feat, rng=rng, weight_init="kaiming"), act())
        self.classifier_mlp = nn.Sequential(
            nn.Linear(2 * feat, feat, rng=rng, weight_init="kaiming"), act(),
            nn.Linear(feat, max(feat // 2, 2), rng=rng,
                      weight_init="kaiming"), act(),
            nn.Linear(max(feat // 2, 2), 2, rng=rng,
                      weight_init="kaiming"))

    def forward(self, x, mask=None):
        """Return per-head token scores of shape ``(B, h, N, 2)``.

        ``mask`` (``(B, N)`` of {0,1}) restricts the global average
        pooling (Eq. 4) to currently-alive tokens, keeping masked-mode
        training consistent with gathered-mode inference.
        """
        x = Tensor.ensure(x)
        batch, tokens, dim = x.shape
        h, d = self.num_heads, self.head_dim
        # (B, N, h, d) -> (B, h, N, d)
        heads = x.reshape(batch, tokens, h, d).transpose(0, 2, 1, 3)
        local = self.feature_mlp(heads)                    # (B, h, N, f)
        if mask is None:
            global_feat = local.mean(axis=2, keepdims=True)
        else:
            m = Tensor.ensure(mask)                        # (B, N)
            m = m.reshape(batch, 1, tokens, 1)
            global_feat = ((local * m).sum(axis=2, keepdims=True)
                           / (m.sum(axis=2, keepdims=True) + _EPS))
        global_feat = global_feat + Tensor(
            np.zeros((batch, h, tokens, local.shape[-1])))
        combined = Tensor.concatenate([local, global_feat], axis=-1)
        logits = self.classifier_mlp(combined)             # (B, h, N, 2)
        return F.softmax(logits, axis=-1)


class ConvTokenClassifier(nn.Module):
    """Convolution-based token classifier for the Fig. 12 ablation.

    Reshapes tokens back onto their 2-D grid and scores them with two
    3x3 convolutions.  The paper shows MLP-based selectors beat this
    design *and* reuse the GEMM engine, whereas convolutions would need
    new hardware ("the kernel size of the convolution operation is
    fixed so that the irregular input features cannot be directly
    concatenated", Sec. III-B).

    Produces the same ``(B, h, N, 2)`` interface as the MLP classifier
    by broadcasting one shared score map across heads.
    """

    def __init__(self, embed_dim, num_heads, grid_size, activation=None,
                 rng=None):
        super().__init__()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.grid_size = grid_size
        act = nn.GELU if activation is None else activation
        hidden = max(embed_dim // 2, 4)
        self.conv1 = nn.Conv2d(embed_dim, hidden, kernel_size=3,
                               padding=1, rng=rng)
        self.act = act()
        self.conv2 = nn.Conv2d(hidden, 2, kernel_size=3, padding=1,
                               rng=rng)

    def forward(self, x, mask=None):
        x = Tensor.ensure(x)
        batch, tokens, dim = x.shape
        side = self.grid_size
        if tokens != side * side:
            raise ValueError(
                f"conv classifier needs a full {side}x{side} grid, got "
                f"{tokens} tokens -- pruned (irregular) inputs are not "
                f"supported, which is exactly the hardware objection")
        grid = x.transpose(0, 2, 1).reshape(batch, dim, side, side)
        scores = self.conv2(self.act(self.conv1(grid)))    # (B, 2, s, s)
        scores = scores.reshape(batch, 2, tokens).transpose(0, 2, 1)
        probs = F.softmax(scores, axis=-1)                 # (B, N, 2)
        probs = probs.reshape(batch, 1, tokens, 2)
        return probs + Tensor(np.zeros((batch, self.num_heads, tokens, 2)))


class AttentionBranch(nn.Module):
    """Head-importance scores via channel statistics (Eqs. 6-7).

    ``X_bar`` is the per-head channel mean, shape ``(B, N, h)``; a small
    MLP with a Sigmoid yields head importances ``A`` in ``(0, 1)``.
    """

    def __init__(self, embed_dim, num_heads, rng=None):
        super().__init__()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.mlp = nn.Sequential(
            nn.Linear(num_heads, num_heads, rng=rng,
                      weight_init="kaiming"), nn.GELU(),
            nn.Linear(num_heads, num_heads, rng=rng,
                      weight_init="kaiming"))

    def forward(self, x):
        x = Tensor.ensure(x)
        batch, tokens, dim = x.shape
        heads = x.reshape(batch, tokens, self.num_heads, self.head_dim)
        head_stat = heads.mean(axis=-1)                    # (B, N, h)
        # Exact on purpose: a functional call, so quantize_model leaves
        # it alone, and every compiled selector (float and int8) runs it
        # exact too -- keep decisions agree across all backends.
        return F.sigmoid(self.mlp(head_stat))              # (B, N, h)


class SelectorOutput:
    """Result of one selector application.

    Attributes
    ----------
    keep_probs: Tensor ``(B, N, 2)`` -- overall token scores (Eq. 8),
        columns are (keep, prune) probabilities.
    decision: Tensor ``(B, N)`` -- hard {0,1} keep decisions with
        straight-through gradients (Eq. 9), already ANDed with the
        incoming mask (``M <- M (*) M'``).
    head_importance: Tensor ``(B, N, h)`` -- attention-branch weights.
    package: Tensor ``(B, 1, D)`` -- the packaged non-informative token
        (Eq. 10), built from the tokens pruned *at this stage*.
    """

    __slots__ = ("keep_probs", "decision", "head_importance", "package")

    def __init__(self, keep_probs, decision, head_importance, package):
        self.keep_probs = keep_probs
        self.decision = decision
        self.head_importance = head_importance
        self.package = package

    def keep_fraction(self, incoming_mask=None):
        """Mean fraction of alive tokens kept (per batch, scalar)."""
        kept = self.decision.data.sum()
        if incoming_mask is None:
            alive = self.decision.data.size
        else:
            mask = (incoming_mask.data if isinstance(incoming_mask, Tensor)
                    else np.asarray(incoming_mask))
            alive = mask.sum()
        return float(kept / max(alive, 1.0))


class TokenSelector(nn.Module):
    """Full token selector: classifier + attention branch + packager.

    Parameters
    ----------
    embed_dim, num_heads: backbone dimensions at the insertion point.
    keep_ratio: the desired (average) keep ratio for this selector; the
        latency-sparsity loss (Eq. 20) drives the mean decision toward it.
    tau: Gumbel-Softmax temperature.
    """

    def __init__(self, embed_dim, num_heads, keep_ratio=1.0, tau=1.0,
                 activation=None, classifier=None, rng=None):
        super().__init__()
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.keep_ratio = keep_ratio
        self.tau = tau
        # Normalize the residual-stream features before scoring: the
        # classifier MLPs are tiny, and un-normalized block outputs
        # (whose scale grows with depth) condition them terribly.
        self.norm = nn.LayerNorm(embed_dim)
        self.classifier = (classifier if classifier is not None
                           else MultiHeadTokenClassifier(
                               embed_dim, num_heads, activation=activation,
                               rng=rng))
        self.attention_branch = AttentionBranch(embed_dim, num_heads,
                                                rng=rng)
        self._rng = np.random.default_rng() if rng is None else rng

    # ------------------------------------------------------------------
    def token_scores(self, patch_tokens, mask=None):
        """Overall keep/prune probabilities (Eq. 8): ``(B, N, 2)``."""
        patch_tokens = self.norm(Tensor.ensure(patch_tokens))
        per_head = self.classifier(patch_tokens, mask=mask)  # (B, h, N, 2)
        importance = self.attention_branch(patch_tokens)     # (B, N, h)
        weights = importance.transpose(0, 2, 1)               # (B, h, N)
        weights = weights.reshape(*weights.shape, 1)          # (B, h, N, 1)
        weighted = (per_head * weights).sum(axis=1)           # (B, N, 2)
        total = weights.sum(axis=1) + _EPS                    # (B, N, 1)
        return weighted / total, importance

    def forward(self, patch_tokens, incoming_mask=None, hard=True):
        """Apply the selector to patch tokens ``(B, N, D)``.

        ``incoming_mask`` is the cumulative keep mask from earlier stages
        (``(B, N)`` of {0,1}); pruned tokens stay pruned.  When the module
        is in eval mode (or ``hard`` is False) the decision is the
        deterministic argmax of the scores instead of a Gumbel sample.
        """
        patch_tokens = Tensor.ensure(patch_tokens)
        scores, importance = self.token_scores(patch_tokens,
                                               mask=incoming_mask)
        logits = (scores + _EPS).log()
        if self.training and hard:
            sample = F.gumbel_softmax(logits, tau=self.tau, hard=True,
                                      rng=self._rng)
        else:
            keep = (scores.data[..., 0] >= scores.data[..., 1])
            one_hot = np.stack([keep, ~keep], axis=-1).astype(np.float64)
            # Forward is hard, backward flows through the scores.
            sample = scores + Tensor(one_hot - scores.data)
        decision = sample[..., 0]                          # (B, N)
        if incoming_mask is not None:
            alive_before = Tensor.ensure(incoming_mask)
            decision = decision * alive_before
        else:
            alive_before = Tensor(np.ones_like(decision.data))
        # Degenerate guard: never prune *every* alive token of an image
        # -- force-keep the highest-scoring one (applies identically in
        # masked training and gathered deployment).
        empty = (decision.data.sum(axis=1) < 0.5)
        if empty.any():
            correction = np.zeros_like(decision.data)
            keep_scores = scores.data[..., 0]
            for row in np.flatnonzero(empty):
                alive = alive_before.data[row] > 0.5
                if not alive.any():
                    continue
                best = np.argmax(np.where(alive, keep_scores[row],
                                          -np.inf))
                correction[row, best] = 1.0
            decision = decision + Tensor(correction)
        newly_pruned = alive_before - decision
        package = self.package_tokens(patch_tokens, newly_pruned, scores)
        return SelectorOutput(scores, decision, importance, package)

    @staticmethod
    def package_tokens(patch_tokens, pruned_mask, scores):
        """Token packager (Eq. 10): weighted-average the pruned tokens.

        Weights are the *keep* scores of the pruned tokens, so the tokens
        the classifier was least sure about dominate the package --
        giving later blocks a chance to correct scoring mistakes.
        """
        patch_tokens = Tensor.ensure(patch_tokens)
        pruned = Tensor.ensure(pruned_mask)                # (B, N)
        keep_score = scores[..., 0]                        # (B, N)
        weights = pruned * keep_score                      # (B, N)
        weights = weights.reshape(*weights.shape, 1)       # (B, N, 1)
        numerator = (patch_tokens * weights).sum(axis=1, keepdims=True)
        denominator = weights.sum(axis=1, keepdims=True) + _EPS
        return numerator / denominator                     # (B, 1, D)
