"""Unified batch-aware cost model: THE batch pricing implementation.

The paper's latency-sparsity table (Eq. 18, Table IV) prices a *single
image* per block.  Serving decisions, however, price *batches*: a flush
pays a fixed per-batch overhead (weight loading, pipeline fill -- the
terms the FPGA simulator amortizes across a batch), each padded bucket
pays a launch overhead, and every image pays its marginal Eq. 18 cost.
Before this module those terms were re-derived inline as
``n * per_image`` in the engine, scheduler, and routers; now every
consumer prices through one :class:`CostModel`:

* :meth:`CostModel.estimate` prices a whole-model batch
  (:class:`BatchPlan` in, :class:`BatchCost` out) -- used by
  ``InferenceSession.estimated_batch_cost`` and through it by the
  scheduler's budget/deadline flushes and both routers;
* :meth:`CostModel.bucket_ms` prices one padded bucket launch at block
  granularity -- used by the cost-aware
  :func:`repro.engine.bucketing.plan_buckets` to merge buckets whenever
  the padding cost is smaller than the saved bucket overhead.

Calibrated instances come from
:func:`repro.hardware.latency_table.build_cost_model`, which sweeps the
simulator over batch sizes and fits ``latency(B) = overhead + B *
marginal`` per keep ratio.  :func:`paper_cost_model` wraps the paper's
measured Table IV values as a degenerate zero-overhead instance, under
which every consumer provably reproduces the legacy ``n * per_image``
numbers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.latency import (LatencySparsityTable,
                                latency_for_keep_ratios,
                                latency_from_stage_counts,
                                paper_latency_table)

__all__ = ["BatchPlan", "BatchCost", "CostModel", "paper_cost_model"]


@dataclass(frozen=True)
class BatchPlan:
    """A priceable description of one whole-model batch execution.

    ``num_images`` images, each with marginal whole-model cost
    ``per_image_ms`` (the Eq. 19 sum of per-block table lookups at the
    session's operating point), executed in ``num_batches`` separate
    accelerator launches (a submission larger than the engine's
    ``batch_size`` is chopped into several chunks, each paying the
    per-batch overhead once).
    """

    num_images: int
    per_image_ms: float
    num_batches: int = 1

    def __post_init__(self):
        if self.num_images < 0:
            raise ValueError("num_images must be >= 0")
        if self.per_image_ms < 0:
            raise ValueError("per_image_ms must be >= 0")
        if self.num_batches < 0:
            raise ValueError("num_batches must be >= 0")
        if self.num_images > 0 and self.num_batches < 1:
            raise ValueError("a non-empty plan needs >= 1 batch")


@dataclass(frozen=True)
class BatchCost:
    """An estimated batch execution cost, broken into its terms.

    ``overhead_ms`` is the fixed per-batch share (weight loading /
    pipeline fill, paid once per accelerator launch), ``marginal_ms``
    the summed per-image marginal cost.  ``total_ms`` is what flush and
    feasibility decisions compare against budgets and deadlines;
    ``amortized_image_ms`` shows how batching dilutes the overhead.
    """

    overhead_ms: float
    marginal_ms: float
    num_images: int

    @property
    def total_ms(self):
        return self.overhead_ms + self.marginal_ms

    @property
    def amortized_image_ms(self):
        if self.num_images == 0:
            return 0.0
        return self.total_ms / self.num_images


class CostModel:
    """Batch-aware latency oracle for one accelerator + model config.

    Parameters
    ----------
    table: :class:`repro.core.latency.LatencySparsityTable` mapping
        patch keep ratio to per-image ONE-BLOCK marginal latency (ms) --
        the slope of the calibrated ``latency(B)`` line, or the paper's
        measured Table IV for the degenerate instance.
    num_patches: patch count of the served config (token lengths seen by
        the bucket planner convert to table keep ratios through it).
    extra_tokens: non-patch slots (CLS, plus the package token when the
        model packages) included in engine sequence lengths.
    batch_overhead_ms: fixed whole-model cost per accelerator launch.
    bucket_overhead_ms: fixed PER-BLOCK cost of launching one more
        bucket inside a batch -- the savings a bucket merge captures.
    """

    #: Whether batch pricing refits from measured wall time
    #: (:class:`repro.cost.OnlineCostModel`).
    learns = False

    def __init__(self, table, num_patches, extra_tokens=1,
                 batch_overhead_ms=0.0, bucket_overhead_ms=0.0,
                 name="cost-model"):
        if not isinstance(table, LatencySparsityTable):
            raise TypeError("table must be a LatencySparsityTable")
        if num_patches < 1:
            raise ValueError("num_patches must be >= 1")
        if extra_tokens < 0:
            raise ValueError("extra_tokens must be >= 0")
        if batch_overhead_ms < 0 or bucket_overhead_ms < 0:
            raise ValueError("overheads must be >= 0")
        self.table = table
        self.num_patches = int(num_patches)
        self.extra_tokens = int(extra_tokens)
        self.batch_overhead_ms = float(batch_overhead_ms)
        self.bucket_overhead_ms = float(bucket_overhead_ms)
        self.name = name

    def __repr__(self):
        return (f"CostModel({self.name!r}, "
                f"batch_overhead_ms={self.batch_overhead_ms:.4f}, "
                f"bucket_overhead_ms={self.bucket_overhead_ms:.4f})")

    @classmethod
    def zero_overhead(cls, table, num_patches, extra_tokens=1,
                      name="zero-overhead"):
        """Degenerate instance: pricing reduces exactly to the legacy
        ``num_images * per_image_ms`` convention (no batch economies)."""
        return cls(table, num_patches, extra_tokens=extra_tokens,
                   batch_overhead_ms=0.0, bucket_overhead_ms=0.0,
                   name=name)

    @property
    def is_zero_overhead(self):
        return self.batch_overhead_ms == 0.0 and self.bucket_overhead_ms == 0.0

    # ------------------------------------------------------------------
    # Per-image marginal costs (Eq. 18/19 delegation)
    # ------------------------------------------------------------------
    def image_ms(self, depth, selector_blocks, keep_ratios):
        """Marginal whole-model cost of ONE image at a configured
        operating point (Eq. 19 LHS) -- the ``per_image_ms`` a
        :class:`BatchPlan` carries."""
        return latency_for_keep_ratios(self.table, depth, selector_blocks,
                                       keep_ratios)

    def image_ms_from_counts(self, depth, selector_blocks,
                             tokens_per_stage, extra=None):
        """Per-image marginal cost from *realized* post-selector token
        counts; returns a ``(B,)`` array (deployment-side Eq. 18)."""
        extra = self.extra_tokens if extra is None else extra
        return latency_from_stage_counts(self.table, depth, selector_blocks,
                                         tokens_per_stage, self.num_patches,
                                         extra=extra)

    # ------------------------------------------------------------------
    # Whole-model batch pricing
    # ------------------------------------------------------------------
    def estimate(self, plan):
        """Price a :class:`BatchPlan`; returns a :class:`BatchCost`.

        This is the single place batch latency is assembled from its
        terms: ``num_batches`` per-batch overheads plus ``num_images``
        marginal per-image costs.
        """
        if not isinstance(plan, BatchPlan):
            raise TypeError("plan must be a BatchPlan")
        if plan.num_images == 0:
            return BatchCost(overhead_ms=0.0, marginal_ms=0.0, num_images=0)
        return BatchCost(
            overhead_ms=self.batch_overhead_ms * plan.num_batches,
            marginal_ms=plan.per_image_ms * plan.num_images,
            num_images=plan.num_images)

    def batch_ms(self, num_images, per_image_ms, num_batches=1):
        """Shorthand: ``estimate(...).total_ms`` for a uniform batch."""
        return self.estimate(BatchPlan(
            num_images=num_images, per_image_ms=per_image_ms,
            num_batches=num_batches if num_images else 0)).total_ms

    # ------------------------------------------------------------------
    # Bucket-level pricing (block granularity, for the bucket planner)
    # ------------------------------------------------------------------
    def block_ms(self, num_tokens):
        """Per-image ONE-BLOCK marginal cost at a real sequence length
        (CLS/package slots included, as the engine counts tokens)."""
        ratio = (num_tokens - self.extra_tokens) / self.num_patches
        return self.table.latency(ratio)

    def bucket_ms(self, padded_length, num_images):
        """Per-block cost of one bucket launch: every member is priced
        at the *padded* length (bucketed execution pays for padding),
        plus one bucket-launch overhead."""
        if num_images < 0:
            raise ValueError("num_images must be >= 0")
        if num_images == 0:
            return 0.0
        return (self.bucket_overhead_ms
                + num_images * self.block_ms(padded_length))

    def stage_cost_ms(self, buckets):
        """Per-block cost of a whole bucket partition: ``buckets`` is an
        iterable of ``(padded_length, num_images)`` pairs.  The bucket
        planner compares candidate partitions with this."""
        return sum(self.bucket_ms(length, count)
                   for length, count in buckets)


def paper_cost_model(model_name="DeiT-T"):
    """The paper's measured Table IV as a zero-overhead CostModel.

    Both Table IV backbones patch 224x224 images at stride 16, i.e.
    196 patches plus the CLS slot.  The paper prices single images, so
    the instance is degenerate: no batch or bucket overhead, and every
    consumer reproduces the legacy ``n * per_image`` numbers exactly.
    """
    return CostModel.zero_overhead(paper_latency_table(model_name),
                                   num_patches=196, extra_tokens=1,
                                   name=f"paper-{model_name}")
