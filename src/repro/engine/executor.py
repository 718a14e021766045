"""Bucketed batch executor for HeatViT's physically-pruned path.

The reference deployment path (:meth:`repro.core.HeatViT.forward_pruned`)
loops over images one at a time because adaptive pruning gives every
image its own sequence length.  This executor recovers numpy-level
vectorization while preserving those semantics exactly:

1. the **shared prefix** (patch embedding plus every block before the
   first selector) runs fully batched -- all images still have the same
   length there;
2. at each **selector boundary** images are regrouped by their exact
   ``(length, has_package)`` state and each group runs the selector as
   one batched forward (selector outputs are per-image, so this is
   bit-equivalent to the single-image calls); the kept tokens are then
   gathered per image with the same :func:`repro.core.gather` helper the
   reference path uses;
3. between boundaries, a :class:`repro.engine.bucketing.BucketingPolicy`
   merges nearby lengths into padded buckets.  Padded positions are
   masked out as attention keys, which leaves real-token activations
   unchanged (the ``-1e9`` score bias underflows to an exact ``0.0``
   attention weight), so padding buys batching without perturbing
   logits.

Four compute **backends** execute the plan:

* ``"tensor"`` (default) -- the reference float64 autograd modules under
  ``no_grad``; matches ``forward_pruned`` to within accumulated BLAS
  rounding (well under the 1e-8 parity bound enforced by
  ``tests/engine/test_engine_parity.py``).
* ``"fastpath"`` / ``"int8"`` / ``"int16"`` -- one
  :class:`repro.engine.fastpath.CompiledModel` hierarchy, filled by one
  of two compile functions, with a
  :class:`repro.engine.fastpath.Workspace` of scratch buffers reused
  across blocks, selector stages, and bursts -- including the padded
  bucket stacks themselves, so steady traffic reallocates nothing.

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
    grade (:class:`repro.engine.fastpath.QuantizedModel`),
    bitwise-equal to the :func:`repro.quant.quantize_model` simulation
    (``tests/engine/test_quantized.py``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.core.gather import prune_group_sequences
from repro.engine.bucketing import BucketingPolicy, plan_buckets
from repro.engine.fastpath import (Workspace, compile_model,
                                   compile_quantized, mask_to_bias)
from repro.vit.attention import (key_padding_mask, pad_token_sequences,
                                 suppress_attention_recording)

__all__ = ["BucketedExecutor", "EngineResult", "StageStats", "BACKENDS"]

# Compile function per compiled backend; ``dtype=None`` is each one's
# own default (float32, except float64 for int16).
_COMPILERS = {"fastpath": compile_model,
              "int8": partial(compile_quantized, bits=8),
              "int16": partial(compile_quantized, bits=16)}
BACKENDS = ("tensor", *_COMPILERS)


@dataclass
class StageStats:
    """Bucketing telemetry for the block run after one selector stage.

    ``wall_ms`` is the measured host wall time of the stage's block
    executions (summed over its buckets); zero unless the executor's
    cost model learns online (timing is only taken when something
    consumes it).
    """

    num_buckets: int
    bucket_sizes: list
    padded_tokens: int
    wall_ms: float = 0.0


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


class _Group:
    """A set of images executing together between selector boundaries."""

    __slots__ = ("x", "mask", "bias", "indices", "lengths", "has_package")

    def __init__(self, x, mask, bias, indices, lengths, has_package):
        self.x = x                      # (g, T, D) ndarray
        self.mask = mask                # (g, T) {0,1} ndarray or None
        self.bias = bias                # (g, T) fastpath score bias or None
        self.indices = indices          # (g,) original image indices
        self.lengths = lengths          # (g,) real sequence lengths
        self.has_package = has_package  # (g,) bool


class BucketedExecutor:
    """Runs a :class:`repro.core.HeatViT` batched with length bucketing.

    Parameters
    ----------
    model: the HeatViT model (callers should put it in ``eval()`` mode;
        :class:`repro.engine.InferenceSession` does so automatically).
    policy: a :class:`BucketingPolicy`; ``None`` uses the defaults.
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
        # Bucket plans are deterministic in (lengths, policy, cost
        # model); steady traffic repeats length distributions, so cache
        # the planner's output per distribution.  The key includes the
        # policy and the cost model's drift version: an online model
        # that has significantly refit bumps its version, invalidating
        # every cached plan at once -- stable coefficients keep stable
        # shapes cached across thousands of samples.
        self._plan_cache = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Per-bucket wall timing is only taken when the cost model can
        # consume it (an online model refitting bucket pricing).
        self._observe_buckets = hasattr(cost_model, "observe_bucket")

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
        selector_pos = {b: i for i, b in enumerate(model.selector_blocks)}
        # Attention recording only feeds the masked training path's
        # ranking signal; in the serving hot path it would copy a
        # (g, h, T, T) tensor per block per bucket for nothing.  The
        # fast path never touches the Tensor modules at all.
        recording_off = (suppress_attention_recording(
            block.attn for block in model.backbone.blocks)
            if self.backend == "tensor" else nullcontext())
        observe = self._observe_buckets
        with recording_off, nn.no_grad():
            x = self._embed(images)                       # (B, 1+N, D)
            groups = [_Group(x, None, None, np.arange(batch),
                             np.full(batch, x.shape[1]),
                             np.zeros(batch, dtype=bool))]
            segment = self._segment_start(groups) if observe else None
            for block_index, block in enumerate(model.backbone.blocks):
                if block_index in selector_pos:
                    if observe:
                        self._segment_flush(segment)
                    groups = self._apply_selector(
                        selector_pos[block_index], groups, batch, result)
                    if observe:
                        segment = self._segment_start(
                            groups, result.stage_stats[-1])
                if observe:
                    # Timed variant of the block sweep below: per-bucket
                    # wall time is the online cost model's bucket-pricing
                    # signal.  _run_block mutates the group in place.
                    for row, group in enumerate(groups):
                        tick = time.perf_counter()
                        self._run_block(block_index, group)
                        segment["walls"][row] += time.perf_counter() - tick
                    segment["blocks"] += 1
                else:
                    groups = [self._run_block(block_index, group)
                              for group in groups]
            if observe:
                self._segment_flush(segment)
            for group in groups:
                result.logits[group.indices] = self._classify(group.x)
        if record is not None:
            model.finalize_pruned_record(record, result.tokens_per_stage)
        return result

    # ------------------------------------------------------------------
    def run_grouped(self, image_groups, record=None):
        """Execute several pre-grouped image sets as ONE bucketed batch.

        The serving scheduler's continuous re-bucketing entry point:
        ``image_groups`` is a list of ``(n_i, C, H, W)`` arrays -- e.g.
        the remainder requests carried over from a previous partially
        filled batch plus the newly arrived ones -- and the whole set is
        re-bucketed and executed together.  Because every image's
        compute is independent of its batch neighbours (batched matmuls
        are per-slice and padded keys carry an exactly-zero attention
        weight), each group's logits are bitwise identical to submitting
        that group on its own.

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
    # Per-bucket wall timing (the online cost model's bucket signal)
    # ------------------------------------------------------------------
    def _segment_start(self, groups, stats=None):
        """Open one timing segment: the stretch of blocks between two
        selector boundaries, over a fixed set of bucket groups.  Shapes
        are captured now because groups mutate in place as blocks run."""
        return {
            "shapes": [(int(group.x.shape[1]), int(group.indices.size))
                       for group in groups],
            "walls": [0.0] * len(groups),
            "blocks": 0,
            "stats": stats,
        }

    def _segment_flush(self, segment):
        """Close a segment: feed each bucket's measured wall time to
        the online cost model and stamp the stage's telemetry."""
        if segment is None or segment["blocks"] == 0:
            return
        total_ms = 0.0
        for (padded_length, num_images), wall_s in zip(segment["shapes"],
                                                       segment["walls"]):
            wall_ms = wall_s * 1e3
            total_ms += wall_ms
            self.cost_model.observe_bucket(
                padded_length, num_images, segment["blocks"], wall_ms)
        if segment["stats"] is not None:
            segment["stats"].wall_ms = total_ms

    # ------------------------------------------------------------------
    # Backend dispatch
    # ------------------------------------------------------------------
    def _embed(self, images):
        if self.compiled is not None:
            return self.compiled.embed(images, self.workspace)
        return self.model.backbone.embed(images).data

    def _run_block(self, block_index, group):
        if self.compiled is not None:
            self.compiled.run_block(block_index, group.x, group.bias,
                                    self.workspace)
            return group
        block = self.model.backbone.blocks[block_index]
        out = block(Tensor(group.x), key_mask=group.mask)
        group.x = out.data
        return group

    def _selector_eval(self, selector_index, patches):
        """Evaluate selector ``selector_index`` on dense ``(g, N, D)``
        patches; returns ``(keep_bool, packages)``."""
        if self.compiled is not None:
            return self.compiled.select(selector_index, patches,
                                        self.workspace)
        selector = self.model.selectors[selector_index]
        out = selector(Tensor(patches), hard=False)
        # The selector's internal guard ensures >= 1 keep.
        keep = out.decision.data > 0.5                    # (g, N)
        return keep, out.package.data[:, 0, :]            # (g, D)

    def _evaluate_selector(self, selector_index, exacts):
        """Score every exact group at one boundary; returns one
        ``(keep, packages)`` pair per group.

        On the fast path all groups run as ONE ragged kernel pipeline
        (per-token math identical to the dense per-group evaluation;
        see :meth:`CompiledSelector.select_ragged`) -- the boundary cost
        no longer scales with the number of distinct sequence lengths.
        This includes hybrid-fallback (non-stock classifier) selectors,
        whose classifier module is scored once per distinct length
        inside the pipeline.  The tensor backend -- and any compiled
        model that opts out via ``supports_ragged`` (the quantized
        parity grade scores through surgered selector modules) --
        evaluates per group.
        """
        if self.compiled is not None and self.compiled.supports_ragged:
            dim = self.model.config.embed_dim
            patches, counts = [], []
            for x, indices, packaged in exacts:
                stop = x.shape[1] - (1 if packaged else 0)
                patches.append(np.ascontiguousarray(
                    x[:, 1:stop, :]).reshape(-1, dim))
                counts.extend([stop - 1] * x.shape[0])
            flat = np.concatenate(patches, axis=0)
            keep_flat, packages = self.compiled.select_ragged(
                selector_index, flat, counts, self.workspace)
            decisions, token_lo, image_lo = [], 0, 0
            for x, indices, packaged in exacts:
                g = x.shape[0]
                n = x.shape[1] - (2 if packaged else 1)
                token_hi = token_lo + g * n
                decisions.append(
                    (keep_flat[token_lo:token_hi].reshape(g, n),
                     packages[image_lo:image_lo + g]))
                token_lo, image_lo = token_hi, image_lo + g
            return decisions
        decisions = []
        for x, indices, packaged in exacts:
            stop = x.shape[1] - (1 if packaged else 0)
            decisions.append(self._selector_eval(selector_index,
                                                 x[:, 1:stop, :]))
        return decisions

    def _classify(self, x):
        if self.compiled is not None:
            return self.compiled.classify(x, self.workspace)
        return self.model.backbone.classify(Tensor(x)).data

    def _stack_bucket(self, members, plan):
        """Stack a planned bucket's sequences, padding if needed.

        Returns ``(stacked, mask, bias)``.  On the fast path the stack
        lives in the workspace pool, so recurring bucket shapes across
        stages and bursts reuse the same memory instead of reallocating
        per pad.
        """
        if self.compiled is not None:
            dim = members[0].shape[-1]
            stacked = self.workspace.take(
                "bucket", (len(members), plan.padded_length, dim))
            if plan.needs_padding:
                stacked.fill(0.0)
            for row, seq in enumerate(members):
                stacked[row, :seq.shape[0]] = seq
            if not plan.needs_padding:
                return stacked, None, None
            mask = key_padding_mask(plan.lengths, plan.padded_length,
                                    dtype=self.dtype)
            bias = mask_to_bias(
                mask, self.dtype,
                out=self.workspace.take("bucket_bias", mask.shape))
            return stacked, mask, bias
        if plan.needs_padding:
            stacked, mask = pad_token_sequences(members, plan.padded_length)
            return stacked, mask, None
        return np.stack(members, axis=0), None, None

    # ------------------------------------------------------------------
    def _apply_selector(self, selector_index, groups, batch, result):
        """Selector boundary: regather every image, then re-bucket."""
        sequences = [None] * batch
        has_package = np.zeros(batch, dtype=bool)
        stage_counts = np.zeros(batch, dtype=int)
        exacts = list(self._split_exact(groups))
        decisions = self._evaluate_selector(selector_index, exacts)
        for (x, indices, packaged), (keep, packages) in zip(exacts,
                                                            decisions):
            gathered, flags = prune_group_sequences(
                x, keep, use_packager=self.model.use_packager,
                has_package=packaged, packages=packages)
            for row, image in enumerate(indices):
                sequences[image] = gathered[row]
                has_package[image] = flags[row]
                stage_counts[image] = gathered[row].shape[0]
        result.tokens_per_stage.append(stage_counts)
        lengths = np.array([s.shape[0] for s in sequences])
        cache_key = (self.policy,
                     getattr(self.cost_model, "version", None),
                     lengths.tobytes())
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
        new_groups = []
        for plan in plans:
            members = [sequences[i] for i in plan.indices]
            stacked, mask, bias = self._stack_bucket(members, plan)
            new_groups.append(_Group(stacked, mask, bias, plan.indices,
                                     plan.lengths.copy(),
                                     has_package[plan.indices]))
        return new_groups

    @staticmethod
    def _split_exact(groups):
        """Break padded groups into exact ``(length, has_package)`` sets.

        Selector evaluations must see only real tokens (its global
        pooling averages over every token it is given), so padding is
        stripped before the boundary.  Yields ``(x, indices,
        has_package)`` with ``x`` dense ``(g, T, D)``.

        The shared-prefix boundary (one unpadded group, uniform length
        and package state -- every first selector hits this) is passed
        through without the per-row re-pooling copy.
        """
        if len(groups) == 1 and groups[0].mask is None:
            group = groups[0]
            uniform = (group.lengths[0] == group.lengths).all()
            if uniform and (group.has_package[0] == group.has_package).all():
                yield (group.x, group.indices,
                       bool(group.has_package[0]))
                return
        pools = {}
        for group in groups:
            for row in range(group.indices.size):
                length = int(group.lengths[row])
                key = (length, bool(group.has_package[row]))
                pools.setdefault(key, ([], []))
                pools[key][0].append(group.x[row, :length])
                pools[key][1].append(int(group.indices[row]))
        for (length, packaged), (seqs, indices) in sorted(pools.items()):
            yield (np.stack(seqs, axis=0), np.asarray(indices), packaged)
