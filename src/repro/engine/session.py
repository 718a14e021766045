"""High-level serving API over the bucketed executor.

An :class:`InferenceSession` owns a model in eval mode plus a bucketing
policy, chops submitted image sets into ``batch_size`` chunks, runs each
chunk through :class:`repro.engine.BucketedExecutor`, and reports
logits, per-stage token counts, a per-image latency estimate from the
paper's latency-sparsity table (Eq. 18), and measured throughput.

Typical use::

    session = InferenceSession(model, batch_size=32)
    result = session.submit(images)
    result.logits            # (B, num_classes)
    result.latency_ms        # (B,) estimated accelerator latency
    result.images_per_second # measured host throughput

Batch pricing flows through the session's
:class:`repro.cost.CostModel`: :meth:`estimated_batch_cost` prices an
n-image submission including the per-batch overhead (the scheduler's
flush and routing decisions consume it), and the same model drives the
executor's cost-aware bucket merging.  By default a calibrated model is
built from the FPGA simulator for the served config.

``submit_many`` is the grouped variant the request scheduler
(:mod:`repro.serving`) uses: it takes a list of per-request image
arrays -- including remainders carried over from a previous partially
filled batch -- and returns one merged result plus per-request slices.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cost.model import BatchPlan, CostModel
from repro.engine.bucketing import BucketingPolicy
from repro.engine.executor import BucketedExecutor
from repro.hardware.latency_table import build_cost_model
from repro.nn.tensor import Tensor

__all__ = ["InferenceSession", "SessionResult"]


def _empty_latency():
    return np.zeros(0, dtype=np.float64)


@dataclass
class SessionResult:
    """Everything one ``submit`` call produced.

    ``tokens_per_stage`` holds one ``(B,)`` array of per-image token
    counts per selector stage (CLS and package included), concatenated
    across chunks in submission order.  ``latency_ms`` is always a
    well-formed ``(B,)`` float array -- the Eq. 18 table estimate of
    per-image accelerator latency (empty for an empty submission, never
    ``None``); ``wall_time_s`` and ``images_per_second`` measure the
    host-side batched execution.
    """

    logits: np.ndarray
    tokens_per_stage: list = field(default_factory=list)
    latency_ms: np.ndarray = field(default_factory=_empty_latency)
    wall_time_s: float = 0.0
    images_per_second: float = 0.0
    stage_stats: list = field(default_factory=list)

    @property
    def predictions(self):
        return self.logits.argmax(axis=-1)


class InferenceSession:
    """Batched serving front-end for a HeatViT model.

    Parameters
    ----------
    model: a :class:`repro.core.HeatViT`.  Each ``submit`` runs it in
        ``eval()`` mode (deterministic decisions, no dropout) and
        restores the previous mode afterwards, so a session can safely
        share a model with a training loop.
    batch_size: maximum images per executor invocation.
    policy: bucketing policy (see :class:`BucketingPolicy`); ``None``
        uses the defaults, ``BucketingPolicy(allow_padding=False)``
        disables padding merges.
    cost_model: a :class:`repro.cost.CostModel` pricing this session's
        batches.  ``None`` calibrates one from the FPGA simulator for
        *this model's config* via
        :func:`repro.hardware.latency_table.build_cost_model`; pass
        :func:`repro.cost.paper_cost_model` output for the paper's
        measured Table IV as a zero-overhead instance, or wrap a bare
        :class:`repro.core.LatencySparsityTable` with
        :meth:`repro.cost.CostModel.zero_overhead`.
    backend: ``"tensor"`` (default; the float64 autograd reference
        modules under ``no_grad``), ``"fastpath"`` (compiled fused
        ndarray kernels with workspace buffer reuse -- see
        :mod:`repro.engine.fastpath`), or ``"int8"`` / ``"int16"`` (the
        paper's quantized deployment numerics in the same compiled
        hierarchy -- see :func:`repro.engine.fastpath.compile_quantized`).
        Fast-path float64 matches the tensor backend within the
        engine's 1e-8 parity bound; float32 (the fast-path default)
        trades ~1e-6-level logits for speed while keeping identical
        token-keep decisions.
    dtype: compute dtype of a compiled backend.  ``"fastpath"`` and
        ``"int8"`` default to ``float32``, the serving grade;
        ``float64`` is the parity grade (on a quantized backend:
        bitwise equal to the :func:`repro.quant.quantize_model`
        simulation, and the only choice for ``"int16"``).  The tensor
        backend is float64-only.
    learn_cost: wrap the resolved cost model in a
        :class:`repro.cost.OnlineCostModel` so the session refits batch
        pricing from its own measured wall times.  Passing an
        ``OnlineCostModel`` as ``cost_model`` enables learning the same
        way (and preserves any state it already carries);
        ``learn_cost=True`` is then a no-op.
    """

    def __init__(self, model, batch_size=32, policy=None,
                 cost_model=None, backend="tensor", dtype=None,
                 learn_cost=False):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.model = model
        self.batch_size = int(batch_size)
        self.policy = BucketingPolicy() if policy is None else policy
        if cost_model is None:
            cost_model = build_cost_model(
                model.config, extra_tokens=model.non_patch_slots)
        if not isinstance(cost_model, CostModel):
            raise TypeError("cost_model must be a repro.cost.CostModel")
        if learn_cost and not cost_model.learns:
            from repro.cost.online import OnlineCostModel
            cost_model = OnlineCostModel(cost_model)
        self.cost_model = cost_model
        self.learns_cost = cost_model.learns
        self.executor = BucketedExecutor(model, self.policy,
                                         cost_model=cost_model,
                                         backend=backend, dtype=dtype)
        self.backend = self.executor.backend
        self.dtype = self.executor.dtype
        self._estimated_latency = None
        self._estimate_version = None
        if self.learns_cost:
            self._bind_cost_key()

    def _bind_cost_key(self):
        """Point the online cost model at this session's operating
        point: one (backend, dtype, keep-ratio bucket) key learns one
        batch law.  Re-bound whenever the keep ratios retune."""
        from repro.cost.online import keep_ratio_bucket
        self.cost_model.bind((self.backend, np.dtype(self.dtype).name,
                              keep_ratio_bucket(self.model.keep_ratios)))

    @property
    def latency_table(self):
        """The cost model's marginal Eq. 18 table."""
        return self.cost_model.table

    # ------------------------------------------------------------------
    @property
    def marginal_image_ms(self):
        """Marginal (per-image) whole-model cost at the configured
        operating point (the model's target keep ratios) -- the
        ``per_image_ms`` term of every batch priced for this session.
        Cached against the model's ``keep_ratios_version``, so retune
        through ``set_keep_ratios``, which bumps it: a direct
        ``selector.keep_ratio`` assignment goes unseen.
        """
        version = getattr(self.model, "keep_ratios_version", None)
        if (self._estimated_latency is None
                or self._estimate_version != version):
            config = self.model.config
            self._estimated_latency = self.cost_model.image_ms(
                config.depth, self.model.selector_blocks,
                self.model.keep_ratios)
            self._estimate_version = version
            if self.learns_cost:
                self._bind_cost_key()
        return self._estimated_latency

    def estimated_batch_cost(self, num_images):
        """Price an ``num_images``-image submission on this session.

        Returns the :class:`repro.cost.BatchCost` for executing the
        images at the configured operating point, including one
        per-batch overhead for every ``batch_size`` executor chunk the
        submission is chopped into.  This is what the scheduler's
        budget/deadline flushes and the routers' feasibility math
        consume.
        """
        if num_images < 0:
            raise ValueError("num_images must be >= 0")
        num_batches = math.ceil(num_images / self.batch_size)
        return self.cost_model.estimate(BatchPlan(
            num_images=int(num_images),
            per_image_ms=self.marginal_image_ms,
            num_batches=num_batches))

    # ------------------------------------------------------------------
    def submit(self, images, record=None):
        """Run a set of images; returns a :class:`SessionResult`.

        ``images`` is ``(B, C, H, W)``; the call blocks until all
        ``ceil(B / batch_size)`` executor chunks complete.  Pass a
        :class:`repro.core.PruningRecord` to additionally collect the
        reference-path bookkeeping (counts across the *whole* submission).
        """
        result, _ = self.submit_many([images], record=record)
        return result

    def submit_many(self, image_groups, record=None):
        """Run several pre-grouped image sets as one submission.

        ``image_groups`` is a list of ``(n_i, C, H, W)`` arrays -- one
        per request, in submission order.  They are concatenated once
        and run ``batch_size`` rows at a time, which is all
        :meth:`submit` does with its one group, so grouped and flat
        submission are bitwise-equivalent.  Returns
        ``(SessionResult, slices)`` where ``slices[i]`` selects group
        ``i``'s rows in the merged result.
        """
        groups = [np.asarray(g.data if isinstance(g, Tensor) else g)
                  for g in image_groups]
        slices, offset = [], 0
        for group in groups:
            slices.append(slice(offset, offset + group.shape[0]))
            offset += group.shape[0]
        batch = offset
        was_training = self.model.training
        if was_training:
            self.model.eval()
        start = time.perf_counter()
        try:
            if batch:
                images = (groups[0] if len(groups) == 1
                          else np.concatenate(groups))
                chunk_results = [
                    self.executor.run_grouped(
                        [images[lo:lo + self.batch_size]])[0]
                    for lo in range(0, batch, self.batch_size)]
            else:                        # empty submission: typed result
                chunk_results = [self.executor.run_grouped(groups)[0]]
        finally:
            if was_training:
                self.model.train()
        elapsed = time.perf_counter() - start
        if self.learns_cost and batch:
            # The whole-submission measurement the online model refits
            # batch pricing from: `batch` images through
            # len(chunk_results) executor launches in `elapsed` wall.
            self._bind_cost_key()             # track keep-ratio retunes
            self.cost_model.observe_batch(
                batch, elapsed * 1e3, num_batches=len(chunk_results))
        result = self._merge(chunk_results, batch, elapsed)
        if record is not None and result.tokens_per_stage:
            self.model.finalize_pruned_record(record,
                                              result.tokens_per_stage)
        return result, slices

    def _merge(self, chunk_results, batch, elapsed):
        logits = np.concatenate([r.logits for r in chunk_results], axis=0)
        num_stages = (len(chunk_results[0].tokens_per_stage)
                      if chunk_results else 0)
        tokens_per_stage = [
            np.concatenate([r.tokens_per_stage[stage]
                            for r in chunk_results])
            for stage in range(num_stages)]
        stage_stats = [stats for r in chunk_results for stats in
                       r.stage_stats]
        config = self.model.config
        latency = self.cost_model.image_ms_from_counts(
            config.depth, self.model.selector_blocks, tokens_per_stage,
            extra=self.model.non_patch_slots) if num_stages else (
                np.full(batch, self.latency_table.model_latency(
                    [1.0] * config.depth)))
        return SessionResult(
            logits=logits, tokens_per_stage=tokens_per_stage,
            latency_ms=np.asarray(latency, dtype=np.float64),
            wall_time_s=elapsed,
            images_per_second=(batch / elapsed if elapsed > 0 else
                               float("inf")),
            stage_stats=stage_stats)
