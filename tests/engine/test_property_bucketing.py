"""Property-based tests (hypothesis) for the bucket planner.

``plan_buckets`` invariants, over random length distributions and random
policies: every image index appears in exactly one bucket, a bucket's
padded length is the max of (and hence >= each of) its members' real
lengths, and no merge the policy's ``may_merge`` would reject ever
happens.  The grouped submission path has one rule left to pin: it is
the flat path on the groups' concatenation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeatViT
from repro.core.gather import value_groups
from repro.engine import BucketingPolicy, InferenceSession, plan_buckets

lengths_strategy = st.lists(st.integers(2, 200), min_size=0, max_size=80)

policy_strategy = st.builds(
    BucketingPolicy,
    allow_padding=st.booleans(),
    pad_limit=st.integers(0, 32),
    max_pad_fraction=st.floats(0.0, 1.0, allow_nan=False),
    min_bucket=st.integers(1, 16),
)


@settings(max_examples=200, deadline=None)
@given(values=lengths_strategy)
def test_value_groups_is_unique_then_flatnonzero(values):
    """The sort-based grouping behind ``group_exact`` and ``dense_runs``
    gives what ``np.unique`` + ``np.flatnonzero`` gave, values' dtype
    and order included, so bucket plans cannot move."""
    values = np.asarray(values, dtype=np.int64)
    expected = [(value, np.flatnonzero(values == value))
                for value in np.unique(values)]
    groups = value_groups(values)
    assert [value for value, _ in groups] == [v for v, _ in expected]
    assert all(type(value) is type(v) for (value, _), (v, _) in
               zip(groups, expected))
    for (_, indices), (_, want) in zip(groups, expected):
        assert indices.dtype == want.dtype
        np.testing.assert_array_equal(indices, want)


class TestPlanBucketsProperties:
    @given(lengths=lengths_strategy, policy=policy_strategy)
    @settings(max_examples=200, deadline=None)
    def test_partition_and_padding_invariants(self, lengths, policy):
        lengths = np.asarray(lengths, dtype=int)
        plans = plan_buckets(lengths, policy)
        covered = [int(i) for plan in plans for i in plan.indices]
        assert sorted(covered) == list(range(lengths.size))
        for plan in plans:
            np.testing.assert_array_equal(plan.lengths,
                                          lengths[plan.indices])
            assert plan.padded_length == int(plan.lengths.max())
            assert np.all(plan.lengths <= plan.padded_length)
            assert plan.padded_tokens == int(
                (plan.padded_length - plan.lengths).sum())

    @given(lengths=lengths_strategy, policy=policy_strategy)
    @settings(max_examples=200, deadline=None)
    def test_may_merge_never_violated(self, lengths, policy):
        """Every shorter length sharing a bucket passed the policy check
        with its full exact-group size (all images of one length always
        travel together)."""
        lengths = np.asarray(lengths, dtype=int)
        for plan in plan_buckets(lengths, policy):
            for member_length in np.unique(plan.lengths):
                if member_length == plan.padded_length:
                    continue
                group_size = int((plan.lengths == member_length).sum())
                assert group_size == int((lengths == member_length).sum())
                assert policy.may_merge(plan.padded_length,
                                        int(member_length), group_size)

    @given(lengths=lengths_strategy, policy=policy_strategy)
    @settings(max_examples=100, deadline=None)
    def test_buckets_ordered_longest_first(self, lengths, policy):
        plans = plan_buckets(lengths, policy)
        padded = [plan.padded_length for plan in plans]
        assert padded == sorted(padded, reverse=True)

    @given(lengths=lengths_strategy)
    @settings(max_examples=100, deadline=None)
    def test_no_padding_means_exact_buckets(self, lengths):
        policy = BucketingPolicy(allow_padding=False)
        for plan in plan_buckets(lengths, policy):
            assert not plan.needs_padding
            assert plan.padded_tokens == 0
            assert np.unique(plan.lengths).size <= 1


class TestGroupedSubmissionProperties:
    @given(sizes=st.lists(st.integers(0, 9), min_size=1, max_size=5),
           batch_size=st.integers(1, 11))
    @settings(max_examples=40, deadline=None)
    def test_submit_many_is_submit_of_the_concatenation(
            self, tiny_backbone, tiny_dataset, sizes, batch_size):
        """Groups (empty ones included) are cut into executor chunks
        exactly where ``submit`` cuts their concatenation, so the merged
        result is bitwise the flat one, and ``slices`` hand every group
        its own rows."""
        model = HeatViT(tiny_backbone, {1: 0.6, 3: 0.4},
                        rng=np.random.default_rng(42))
        model.eval()
        session = InferenceSession(model, batch_size=batch_size,
                                   backend="fastpath", dtype=np.float64)
        bounds = np.cumsum([0, *sizes]).tolist()
        groups = [tiny_dataset.images[lo:hi]
                  for lo, hi in zip(bounds, bounds[1:])]
        flat = session.submit(np.concatenate(groups))
        merged, slices = session.submit_many(groups)
        assert merged.logits.tobytes() == flat.logits.tobytes()
        assert len(merged.tokens_per_stage) == len(flat.tokens_per_stage)
        for ours, theirs in zip(merged.tokens_per_stage,
                                flat.tokens_per_stage):
            np.testing.assert_array_equal(ours, theirs)
        assert slices == [slice(lo, hi)
                          for lo, hi in zip(bounds, bounds[1:])]
