"""Bucketed batch executor for HeatViT's physically-pruned path.

The reference deployment path (:meth:`repro.core.HeatViT.forward_pruned`)
loops over images one at a time because adaptive pruning gives every
image its own sequence length.  This executor recovers numpy-level
vectorization while preserving those semantics exactly:

1. the **shared prefix** (patch embedding plus every block before the
   first selector) runs fully batched -- all images still have the same
   length there;
2. at each **selector boundary** padding is stripped and all patch
   tokens go into ONE flat ``(M, D)`` array with per-image counts -- the
   only token layout besides the groups blocks run.  The selector
   scores it in one ``select_ragged`` call on every backend (its
   outputs are per image, so this equals the single-image calls; a
   selector module that takes dense input loops its distinct counts
   inside that call), :func:`repro.core.gather.prune_image_sequence`'s
   packager rule sets each new length, and ``[cls, kept tokens, slot]``
   rows are scattered straight into the next stage's groups;
3. between boundaries, a compile whose blocks hold an attention core
   (float32 ``fastpath``: :attr:`CompiledModel.packs`) keeps ONE packed
   ``(sum T, D)`` array with per-image row offsets and runs each block
   once over it (:meth:`CompiledModel.run_packed_block`): no padding,
   no bucket plan, one :class:`StageStats` bucket -- whether or not the
   core is native.  Every other lane buckets: a
   :class:`repro.engine.bucketing.BucketingPolicy` merges nearby lengths
   into padded buckets.  Padded positions are masked out as attention
   keys, which leaves real-token activations unchanged (the ``-1e9``
   score bias underflows to an exact ``0.0`` attention weight), so
   padding buys batching without perturbing logits.

Four compute **backends** execute the plan:

* ``"tensor"`` (default) -- the reference float64 autograd modules under
  ``no_grad``; matches ``forward_pruned`` to within accumulated BLAS
  rounding (well under the 1e-8 parity bound enforced by
  ``tests/engine/test_engine_parity.py``).
* ``"fastpath"`` / ``"int8"`` / ``"int16"`` -- one
  :class:`repro.engine.fastpath.CompiledModel` hierarchy, filled by one
  of two compile functions, with a
  :class:`repro.engine.fastpath.Workspace` holding one scratch arena
  per name, reused across blocks, selector stages, and bursts --
  including the padded bucket stacks and the packed arrays themselves,
  so what a session holds is set by its largest batch and steady
  traffic allocates nothing.

  - ``"fastpath"`` (:func:`~repro.engine.fastpath.compile_model`):
    fused float kernels in float32 (or float64).  Parity: float64
    within the same 1e-8 bound; float32 to ~1e-6 logits with identical
    keep decisions (``tests/engine/test_fastpath.py``).
  - ``"int8"`` / ``"int16"``
    (:func:`~repro.engine.fastpath.compile_quantized`): the paper's
    deployment numerics (integer GEMMs with per-channel weight scales,
    dynamic per-tensor activation quantization, polynomial
    GELU/softmax) in the same block and selector classes.
    ``dtype=float32`` (the int8 default) is the timed serving grade,
    gated on top-1/keep agreement; ``dtype=float64`` is the reference
    grade, the same classes holding the simulation's own kernels,
    bitwise-equal to the :func:`repro.quant.quantize_model` simulation
    (``tests/engine/test_quantized.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.engine.bucketing import BucketingPolicy, plan_buckets
from repro.engine.fastpath.compiled import ModuleSelector, compile_model
from repro.engine.fastpath.kernels import SciPyImport, mask_to_bias
from repro.engine.fastpath.workspace import Workspace
from repro.vit.attention import (key_padding_mask,
                                 suppress_attention_recording)

__all__ = ["BucketedExecutor", "EngineResult", "StageStats", "BACKENDS"]



def _compile_quantized(model, bits, dtype=None):
    # The quantized numerics (quant, approx, qkernels) load with the
    # first session that runs them, never in a float server.
    from repro.engine.fastpath import quantized

    return quantized.compile_quantized(model, bits=bits, dtype=dtype)


# Compile function per compiled backend; ``dtype=None`` is each one's
# own default (float32, except float64 for int16).
_COMPILERS = {"fastpath": compile_model,
              "int8": partial(_compile_quantized, bits=8),
              "int16": partial(_compile_quantized, bits=16)}
BACKENDS = ("tensor", *_COMPILERS)


@dataclass
class StageStats:
    """Bucketing telemetry for the block run after one selector stage."""

    num_buckets: int
    bucket_sizes: list
    padded_tokens: int


@dataclass
class EngineResult:
    """Outcome of one bucketed batch execution.

    ``logits``: ``(B, num_classes)`` array in submission order.
    ``tokens_per_stage``: per selector stage, the ``(B,)`` array of
    per-image token counts (CLS and package included) -- identical to
    what :class:`repro.core.PruningRecord` records on the reference path.
    ``stage_stats``: one :class:`StageStats` per selector stage.
    """

    logits: np.ndarray
    tokens_per_stage: list = field(default_factory=list)
    stage_stats: list = field(default_factory=list)


@dataclass(slots=True)
class _Group:
    """A set of images executing together between selector boundaries,
    as one bucket stack."""

    x: np.ndarray                  # (g, T, D) bucket stack
    mask: np.ndarray | None        # (g, T) {0,1} key mask, if it pads
    bias: np.ndarray | None        # (g, T) fastpath score bias, likewise
    indices: np.ndarray            # (g,) original image indices
    lengths: np.ndarray            # (g,) real sequence lengths
    has_package: np.ndarray        # (g,) bool

    def patches(self):
        """Copies of every image's patch tokens, image after image: no
        CLS, no package slot, no padding."""
        stop = (self.lengths - self.has_package)[:, None]
        return self.x[:, 1:][np.arange(1, self.x.shape[1]) < stop]

    def cls_rows(self):
        return self.x[:, 0]

    def last_rows(self):
        return self.x[np.arange(self.lengths.size), self.lengths - 1]


@dataclass(slots=True)
class _Packed:
    """A set of images executing together between selector boundaries,
    as packed rows: no padding, one block launch for every length."""

    x: np.ndarray                  # (R, D) rows, image after image
    offsets: np.ndarray            # (g + 1,) where each image's rows start
    indices: np.ndarray            # (g,) original image indices
    lengths: np.ndarray            # (g,) sequence lengths
    has_package: np.ndarray        # (g,) bool

    def patches(self):
        counts = self.lengths - 1 - self.has_package
        return self.x[_segment_rows(self.offsets[:-1] + 1, counts)]

    def cls_rows(self):
        return self.x[self.offsets[:-1]]

    def last_rows(self):
        return self.x[self.offsets[1:] - 1]


class BucketedExecutor:
    """Runs a :class:`repro.core.HeatViT` batched with length bucketing.

    Parameters
    ----------
    model: the HeatViT model (callers should put it in ``eval()`` mode;
        :class:`repro.engine.InferenceSession` does so automatically).
    policy: a :class:`BucketingPolicy`; ``None`` uses the defaults.
        The float32 fastpath lane packs and plans no buckets.
    cost_model: optional :class:`repro.cost.CostModel`; when given the
        bucket planner merges on price (padding cost vs saved bucket
        launch overhead) on top of the heuristic limits.
    backend: ``"tensor"`` (reference autograd modules), ``"fastpath"``
        (compiled fused kernels; see :mod:`repro.engine.fastpath`), or
        ``"int8"``/``"int16"`` (quantized deployment kernels; see
        :func:`repro.engine.fastpath.compile_quantized`).
    dtype: fast-path compute dtype, ``float32`` (default) or
        ``float64``; the tensor backend is float64-only and the
        quantized backends default to ``float32`` for int8 (the serving
        grade) and ``float64`` for int16 (whose integer products exceed
        float32's exact window).  ``float64`` on a quantized backend is
        the bitwise simulation-parity grade.
    """

    def __init__(self, model, policy=None, cost_model=None,
                 backend="tensor", dtype=None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        self.model = model
        self.policy = BucketingPolicy() if policy is None else policy
        self.cost_model = cost_model
        self.backend = backend
        if backend in _COMPILERS:
            self.compiled = _COMPILERS[backend](model, dtype=dtype)
            self.dtype = self.compiled.dtype
            self.workspace = Workspace(self.dtype)
        else:
            if dtype is not None and np.dtype(dtype) != np.float64:
                raise ValueError(
                    "the tensor backend is float64-only; use "
                    "backend='fastpath' for float32 serving")
            self.compiled = None
            self.dtype = np.dtype(np.float64)
            self.workspace = None
            # The Tensor modules call SciPy (erf, expit): import it now,
            # or when a worker unpickles this executor, not in the
            # first request.  Compiled parts that call it hold their own.
            self._scipy = SciPyImport()
        # Bucket plans are a pure function of (lengths, policy): the
        # cost model prices buckets from its static table and overheads
        # only (an online model learns batch pricing, never bucket
        # pricing).  Steady traffic repeats length distributions, so
        # cache the planner's output per distribution.
        self._plan_cache = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # A compile whose every block holds an attention core runs the
        # stages after a selector as one packed array (float32
        # fastpath): no bucket plan, no padding.
        self._packs = self.compiled is not None and self.compiled.packs

    # ------------------------------------------------------------------
    def run(self, images, record=None):
        """Execute the pruned path for a batch; returns :class:`EngineResult`.

        Pass a :class:`repro.core.PruningRecord` to collect the same
        per-stage bookkeeping ``forward_pruned`` fills in.
        """
        model = self.model
        images = np.asarray(images.data if isinstance(images, Tensor)
                            else images)
        batch = images.shape[0]
        result = EngineResult(
            logits=np.zeros((batch, model.config.num_classes)))
        if batch == 0:
            return result
        # Attention recording only feeds the masked training path's
        # ranking signal; in the serving hot path it would copy a
        # (g, h, T, T) tensor per block per bucket for nothing.  The
        # fast path never touches the Tensor modules at all.
        recording_off = (suppress_attention_recording(
            block.attn for block in model.backbone.blocks)
            if self.backend == "tensor" else nullcontext())
        # Blocks run in stretches between boundaries; selector ``s``
        # sits in front of stretch ``s + 1``.  A selector at block 0
        # leaves the first stretch empty.
        edges = [0, *model.selector_blocks, len(model.backbone.blocks)]
        with recording_off, nn.no_grad():
            x = self._embed(images)                       # (B, 1+N, D)
            groups = [_Group(x, None, None, np.arange(batch),
                             np.full(batch, x.shape[1]),
                             np.zeros(batch, dtype=bool))]
            for stage, (lo, hi) in enumerate(zip(edges, edges[1:])):
                if stage:
                    groups = self._apply_selector(stage - 1, groups, result)
                for group in groups:
                    for block_index in range(lo, hi):
                        self._run_block(block_index, group)
            for group in groups:
                result.logits[group.indices] = self._classify(group)
        if record is not None:
            model.finalize_pruned_record(record, result.tokens_per_stage)
        return result

    # ------------------------------------------------------------------
    def run_grouped(self, image_groups, record=None):
        """Execute several pre-grouped image sets as ONE bucketed batch.

        ``image_groups`` is a list of ``(n_i, C, H, W)`` arrays, and the
        whole set is bucketed and executed together.
        :meth:`repro.engine.InferenceSession.submit_many` (which the
        serving scheduler calls) hands it one ``batch_size`` chunk per
        call.  Every image's compute is independent of its batch
        neighbours up to rounding (batched matmuls are per-slice and
        padded keys carry an exactly-zero attention weight, but BLAS
        rounds a row by its position in the operand and the buckets
        follow the whole set), so each group's logits agree with
        submitting that group on its own to rounding -- float64 rows
        moved by up to 5.6e-17 -- not bit for bit.

        Returns ``(EngineResult, slices)`` where ``slices[i]`` selects
        group ``i``'s rows in the merged, submission-ordered result.
        """
        image_groups = [np.asarray(g.data if isinstance(g, Tensor) else g)
                        for g in image_groups]
        slices, offset = [], 0
        for group in image_groups:
            slices.append(slice(offset, offset + group.shape[0]))
            offset += group.shape[0]
        non_empty = [g for g in image_groups if g.shape[0]]
        if not non_empty:
            empty = np.zeros((0, self.model.config.num_classes))
            return EngineResult(logits=empty), slices
        images = (non_empty[0] if len(non_empty) == 1
                  else np.concatenate(non_empty, axis=0))
        return self.run(images, record=record), slices

    # ------------------------------------------------------------------
    # Backend dispatch
    # ------------------------------------------------------------------
    def _embed(self, images):
        if self.compiled is not None:
            return self.compiled.embed(images, self.workspace)
        return self.model.backbone.embed(images).data

    def _run_block(self, block_index, group):
        if isinstance(group, _Packed):
            self.compiled.run_packed_block(block_index, group.x,
                                           group.offsets, self.workspace)
            return
        if self.compiled is not None:
            self.compiled.run_block(block_index, group.x, group.bias,
                                    self.workspace)       # in place
            return
        block = self.model.backbone.blocks[block_index]
        group.x = block(Tensor(group.x), key_mask=group.mask).data

    def _select(self, selector_index, flat, counts):
        """Score one boundary's flat ``(M, D)`` patch tokens with
        per-image ``counts``; returns ``(keep, packages)``: boolean
        ``(M,)`` and ``(n, D)``.

        One ``select_ragged`` call on every backend.  A compiled
        backend's selector is a :class:`CompiledSelector` (ONE kernel
        pipeline, whatever the number of distinct lengths) or a
        :class:`ModuleSelector` (one dense stack per distinct count);
        the tensor backend wraps the live ``model.selectors[i]`` in a
        :class:`ModuleSelector` per call, so it scores with the model's
        current weights and mode.
        """
        if self.compiled is not None:
            return self.compiled.select_ragged(selector_index, flat, counts,
                                               self.workspace)
        selector = ModuleSelector(self.model.selectors[selector_index],
                                  self.dtype)
        return selector.select_ragged(flat, counts, None)

    def _classify(self, group):
        if isinstance(group, _Packed):              # (g, 1, D) CLS rows
            return self.compiled.classify(group.cls_rows()[:, None],
                                          self.workspace)
        if self.compiled is not None:
            return self.compiled.classify(group.x, self.workspace)
        return self.model.backbone.classify(Tensor(group.x)).data

    def _new_bucket(self, position, plan, dim):
        """An unfilled ``(g, padded_length, D)`` stack for the bucket at
        ``position`` of a boundary's plan, padding rows zeroed:
        ``(stacked, mask, bias)``.

        On the fast path the stack is a workspace arena named by that
        position -- a stage's buckets are alive together, and a name is
        one live buffer -- so bucket shapes cost no allocation once the
        arena has grown to its largest.  It IS the memory of the
        previous stage's stack at that position, so a caller first
        copies every row it still needs out of the old groups.
        """
        shape = (plan.indices.size, plan.padded_length, dim)
        pooled = self.compiled is not None
        stacked = (self.workspace.take(f"bucket{position}", shape) if pooled
                   else np.empty(shape, dtype=self.dtype))
        if not plan.needs_padding:
            return stacked, None, None
        stacked.fill(0.0)
        mask = key_padding_mask(plan.lengths, plan.padded_length,
                                dtype=self.dtype)
        bias = None
        if pooled:
            bias = mask_to_bias(
                mask, self.dtype,
                out=self.workspace.take(f"bucket_bias{position}",
                                        mask.shape))
        return stacked, mask, bias

    # ------------------------------------------------------------------
    def _apply_selector(self, selector_index, groups, result):
        """Selector boundary: bucket stacks or packed rows -> one flat
        patch-token array -> the next stage's groups (returned): one
        packed array on a compile that packs, else bucket stacks.  The
        stage's token counts and :class:`StageStats` are appended to
        ``result``.
        """
        # Strip CLS, package slots and padding: a selector must see only
        # real patch tokens (its global pooling averages over whatever
        # it is given).  Boolean and fancy indexing copy, and everything
        # below reads these copies, never the old groups, whose memory
        # the new ones reuse (_new_bucket, _pack).
        parts = [g.patches() for g in groups]
        flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
        images = np.concatenate([g.indices for g in groups])
        lengths = np.concatenate([g.lengths for g in groups])
        had_package = np.concatenate([g.has_package for g in groups])
        cls = np.concatenate([g.cls_rows() for g in groups])
        last = np.concatenate([g.last_rows()
                               for g in groups])       # slot, if packaged
        counts = lengths - 1 - had_package
        # BLAS rounds a row by where it sits in the operand, so the
        # served bits depend on the order images are scored in: ascending
        # (length, has_package), ties in group-then-row order (lexsort
        # is stable).  Every first boundary is already in that order.
        order = np.lexsort((had_package, lengths))
        if (order[1:] < order[:-1]).any():
            flat = flat[_segment_gather(counts, order)]
            images, had_package, counts, cls, last = (
                column[order]
                for column in (images, had_package, counts, cls, last))
        keep, packages = self._select(selector_index, flat, counts)
        # The packager rule of prune_image_sequence for all images at
        # once: a fresh package takes the slot when anything was pruned,
        # the old slot is carried when nothing was, and without a
        # packager there is no slot.
        kept = np.add.reduceat(keep, _offsets(counts), dtype=np.intp)
        fresh = (kept < counts) & self.model.use_packager
        has_slot = fresh | (had_package & self.model.use_packager)
        slots = np.where(fresh[:, None], packages, last)
        packaged = had_package | fresh
        lengths = np.empty(images.size, dtype=int)       # in image order
        lengths[images] = 1 + kept + has_slot
        result.tokens_per_stage.append(lengths)
        if self._packs:
            result.stage_stats.append(StageStats(
                num_buckets=1, bucket_sizes=[int(images.size)],
                padded_tokens=0))
            return [self._pack(flat, keep, kept, cls, slots, has_slot,
                               images, packaged)]
        cache_key = (self.policy, lengths.tobytes())
        plans = self._plan_cache.get(cache_key)
        if plans is None:
            self.plan_cache_misses += 1
            plans = plan_buckets(lengths, self.policy,
                                 cost_model=self.cost_model)
            if len(self._plan_cache) >= 256:       # bound the cache
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[cache_key] = plans
        else:
            self.plan_cache_hits += 1
        result.stage_stats.append(StageStats(
            num_buckets=len(plans),
            bucket_sizes=[int(p.indices.size) for p in plans],
            padded_tokens=sum(p.padded_tokens for p in plans)))
        # ``rows``: where each bucket member sits in scoring order.  One
        # gather puts every kept token in bucket-then-row order, so a
        # bucket's tokens are one slice of it.
        rows = np.argsort(images)[np.concatenate([p.indices for p in plans])]
        tokens = flat[np.flatnonzero(keep)[_segment_gather(kept, rows)]]
        new_groups, row, token = [], 0, 0
        for position, plan in enumerate(plans):
            members = rows[row:row + plan.indices.size]
            count = kept[members]
            stacked, mask, bias = self._new_bucket(position, plan,
                                                   flat.shape[1])
            stacked[:, 0] = cls[members]
            body, end = stacked[:, 1:], token + count.sum()
            body[np.arange(body.shape[1]) < count[:, None]] = (
                tokens[token:end])
            slotted = np.flatnonzero(has_slot[members])
            stacked[slotted, 1 + count[slotted]] = slots[members[slotted]]
            new_groups.append(_Group(stacked, mask, bias, plan.indices,
                                     plan.lengths, packaged[members]))
            row, token = row + members.size, end
        return new_groups


    def _pack(self, flat, keep, kept, cls, slots, has_slot, images,
              packaged):
        """The next stage's one packed array, images in scoring order:
        each image's ``[cls, kept tokens, slot]`` rows gathered straight
        from the boundary's copies.  It is the workspace's ``packed``
        arena, the memory of the previous stage's packed array."""
        lengths = 1 + kept + has_slot
        offsets = np.zeros(lengths.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        x = self.workspace.take("packed", (offsets[-1], flat.shape[1]))
        x[offsets[:-1]] = cls
        x[_segment_rows(offsets[:-1] + 1, kept)] = flat[keep]
        slotted = np.flatnonzero(has_slot)
        x[offsets[slotted] + 1 + kept[slotted]] = slots[slotted]
        return _Packed(x, offsets, images, lengths, packaged)


def _segment_rows(starts, counts):
    """Row indices of ragged segments, segment after segment: segment
    ``i`` is ``counts[i]`` rows from ``starts[i]``."""
    return (np.repeat(starts - _offsets(counts), counts)
            + np.arange(counts.sum()))


def _offsets(counts):
    """Where each segment of a ragged array with these ``counts`` starts."""
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _segment_gather(counts, order):
    """Flat indices that reorder a ragged array's segments: segment
    ``order[j]`` of the source becomes segment ``j`` of the result."""
    return _segment_rows(_offsets(counts)[order], counts[order])
