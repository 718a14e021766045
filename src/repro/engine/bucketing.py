"""Length-bucketing policy for the batched pruned-inference engine.

Image-adaptive token pruning leaves every image with its own sequence
length, which defeats naive batching.  The standard fix for
variable-length workloads is *length bucketing*: group sequences of
equal length and run each group as one vectorized forward, optionally
padding nearby lengths together when the padding waste is cheaper than
launching another tiny batch.

This module is pure policy -- given the per-image sequence lengths it
decides the grouping and padding; :mod:`repro.engine.executor` applies
the plan.  Keeping it side-effect free makes the decisions unit-testable
(``tests/engine/test_bucketing.py``).

With a :class:`repro.cost.CostModel` the planner additionally merges on
*price*: launching one more bucket costs a fixed per-bucket overhead
(weight loading / pipeline fill), so a group whose total padding cost is
smaller than that overhead batches into the longer bucket even when the
pure length-gap heuristic would keep it separate.  The cost-aware plan
is guaranteed never to price worse than the heuristic plan it replaces
(the cheaper of the two is returned), and a zero-overhead model leaves
the decisions exactly as the heuristic made them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.gather import value_groups

__all__ = ["BucketingPolicy", "BucketPlan", "plan_buckets",
           "plan_cost_ms", "group_exact"]


@dataclass(frozen=True)
class BucketingPolicy:
    """Tunable knobs for the bucket planner.

    Attributes
    ----------
    allow_padding: when False every distinct length gets its own bucket
        (maximally faithful, minimally batched).
    pad_limit: never pad any image by more than this many tokens.
    max_pad_fraction: nor by more than this fraction of the bucket's
        padded length (guards short sequences against relative bloat).
    min_bucket: groups smaller than this always try to merge upward
        (within the padding limits above).  Groups of ``min_bucket`` or
        more images may still merge, but only while the total padding
        waste stays below one virtual sequence
        (``pad * group_size <= padded_length``) -- big groups a hair
        apart batch together, big groups far apart stand alone.
    """

    allow_padding: bool = True
    pad_limit: int = 8
    max_pad_fraction: float = 0.5
    min_bucket: int = 4

    def __post_init__(self):
        if self.pad_limit < 0:
            raise ValueError("pad_limit must be >= 0")
        if not 0.0 <= self.max_pad_fraction <= 1.0:
            raise ValueError("max_pad_fraction must be in [0, 1]")
        if self.min_bucket < 1:
            raise ValueError("min_bucket must be >= 1")

    def may_merge(self, padded_length, group_length, group_size):
        """Should a ``group_size``-image group of real length
        ``group_length`` join a bucket padded to ``padded_length``?"""
        pad = padded_length - group_length
        if pad < 0:
            raise ValueError("cannot pad to a shorter length")
        if pad == 0:
            return True
        if not self.allow_padding:
            return False
        if pad > self.pad_limit:
            return False
        if pad > self.max_pad_fraction * padded_length:
            return False
        # Pay at most one extra "virtual sequence" of padding waste per
        # merge -- beyond that the bigger batch stops being profitable.
        return pad * group_size <= padded_length or group_size < self.min_bucket


@dataclass
class BucketPlan:
    """One planned bucket: which images run together and at what length.

    ``indices`` point into the caller's image batch; ``lengths`` are the
    members' real (unpadded) sequence lengths; ``padded_length`` is the
    common length the executor pads to (equal to ``lengths.max()``).
    """

    indices: np.ndarray
    lengths: np.ndarray
    padded_length: int

    @property
    def needs_padding(self):
        return bool((self.lengths < self.padded_length).any())

    @property
    def padded_tokens(self):
        """Total padding waste (tokens) this plan accepts."""
        return int((self.padded_length - self.lengths).sum())


def group_exact(lengths):
    """Map each distinct length to the array of image indices having it.

    Returned as a list of ``(length, indices)`` pairs sorted by length
    descending (the planner folds shorter groups into longer buckets).
    """
    return [(int(value), indices)
            for value, indices in reversed(value_groups(lengths))]


def plan_buckets(lengths, policy=None, cost_model=None):
    """Partition images into execution buckets.

    ``lengths``: per-image sequence lengths, ``(B,)``.  Returns a list of
    :class:`BucketPlan` covering every index exactly once, ordered by
    padded length descending.  With ``policy.allow_padding`` False this
    degenerates to one bucket per distinct length.

    ``cost_model`` (a :class:`repro.cost.CostModel`) makes the planner
    cost-aware: besides the heuristic length-gap merges, a group also
    joins the current bucket when the modeled padding cost is *strictly*
    smaller than the per-bucket launch overhead it saves.  The returned
    plan never prices worse (per :func:`plan_cost_ms`) than the pure
    heuristic plan; with a zero-overhead model the cost branch can never
    fire and the decisions are identical to the heuristic's.
    """
    policy = BucketingPolicy() if policy is None else policy
    lengths = np.asarray(lengths)
    if lengths.size == 0:
        return []
    heuristic = _plan_greedy(lengths, policy, None)
    if cost_model is None or cost_model.is_zero_overhead:
        # With nothing to save per launch the cost branch can never
        # fire -- skip the second planning pass on the hot path.
        return heuristic
    cost_aware = _plan_greedy(lengths, policy, cost_model)
    if (plan_cost_ms(cost_aware, cost_model)
            < plan_cost_ms(heuristic, cost_model)):
        return cost_aware
    return heuristic


def plan_cost_ms(plans, cost_model):
    """Modeled per-block price of a bucket partition.

    Every bucket pays one launch overhead and prices each member at the
    *padded* length -- :meth:`repro.cost.CostModel.bucket_ms` summed
    over the partition.
    """
    return cost_model.stage_cost_ms(
        (plan.padded_length, plan.indices.size) for plan in plans)


def _plan_greedy(lengths, policy, cost_model):
    """One greedy planning pass over the descending length groups."""
    plans = []
    current_length = None
    current_members = []     # (length, indices) accepted into the bucket
    for length, indices in group_exact(lengths):
        if current_length is not None and _accept_merge(
                policy, cost_model, current_length, length, indices.size):
            current_members.append((length, indices))
            continue
        if current_members:
            plans.append(_finish(current_members, current_length))
        current_length = length
        current_members = [(length, indices)]
    if current_members:
        plans.append(_finish(current_members, current_length))
    return plans


def _accept_merge(policy, cost_model, padded_length, length, group_size):
    if policy.may_merge(padded_length, length, group_size):
        return True
    if cost_model is None or not policy.allow_padding:
        return False
    # Cost-aware merge: joining prices every member at the padded
    # length; standing alone opens a new bucket and pays its launch
    # overhead.  Merge exactly when padding costs less than the saved
    # overhead (strict, so a zero-overhead model never merges here).
    padding_cost = group_size * (cost_model.block_ms(padded_length)
                                 - cost_model.block_ms(length))
    return padding_cost < cost_model.bucket_overhead_ms


def _finish(members, padded_length):
    indices = np.concatenate([idx for _, idx in members])
    member_lengths = np.concatenate(
        [np.full(idx.size, length) for length, idx in members])
    return BucketPlan(indices=indices, lengths=member_lengths,
                      padded_length=int(padded_length))
