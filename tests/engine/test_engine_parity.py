"""Parity: the bucketed engine must reproduce ``forward_pruned`` exactly.

The engine's whole contract is "same semantics, vectorized": for every
batch size, selector configuration, and bucketing policy, the batched
logits must match the per-image reference loop to within 1e-8 and the
per-stage token bookkeeping must match exactly.
"""

import numpy as np
import pytest

from repro.core import HeatViT, PruningRecord
from repro.engine import (BucketedExecutor, BucketingPolicy,
                          InferenceSession, SessionResult)

BATCH_SIZES = [1, 3, 8, 17]
TOLERANCE = 1e-8


def make_model(backbone, selector_blocks, *, use_packager=True, seed=42):
    model = HeatViT(backbone, selector_blocks,
                    rng=np.random.default_rng(seed),
                    use_packager=use_packager)
    model.eval()
    return model


def assert_parity(model, images, *, batch_size=32, policy=None):
    record_ref = PruningRecord()
    ref = model.forward_pruned(images, record=record_ref)
    session = InferenceSession(model, batch_size=batch_size, policy=policy)
    record = PruningRecord()
    result = session.submit(images, record=record)
    np.testing.assert_allclose(result.logits, ref.data, rtol=0,
                               atol=TOLERANCE)
    assert len(record.tokens_per_stage) == len(record_ref.tokens_per_stage)
    for engine_counts, ref_counts in zip(record.tokens_per_stage,
                                         record_ref.tokens_per_stage):
        np.testing.assert_array_equal(engine_counts, ref_counts)
    np.testing.assert_allclose(record.cumulative_keep,
                               record_ref.cumulative_keep, atol=1e-12)
    return result


class TestLogitsParity:
    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("use_packager", [True, False])
    def test_batch_sizes_and_packager(self, tiny_backbone, tiny_dataset,
                                      batch, use_packager):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4},
                           use_packager=use_packager)
        assert_parity(model, tiny_dataset.images[:batch])

    def test_selector_before_block_zero(self, tiny_backbone, tiny_dataset):
        """A selector in front of block 0 leaves no shared prefix."""
        model = make_model(tiny_backbone, {0: 0.7, 2: 0.5})
        assert_parity(model, tiny_dataset.images[:9])

    def test_single_selector(self, tiny_backbone, tiny_dataset):
        model = make_model(tiny_backbone, {2: 0.5})
        assert_parity(model, tiny_dataset.images[:11])

    def test_no_selectors_dense(self, tiny_backbone, tiny_dataset):
        """Degenerate config: the engine is just a batched dense forward."""
        model = make_model(tiny_backbone, {})
        result = assert_parity(model, tiny_dataset.images[:5])
        assert result.tokens_per_stage == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_models(self, tiny_backbone, tiny_dataset, seed):
        model = make_model(tiny_backbone, {1: 0.8, 2: 0.55, 3: 0.35},
                           seed=seed)
        assert_parity(model, tiny_dataset.images[:13])

    def test_cost_driven_merging_preserves_parity(self, tiny_backbone,
                                                  tiny_dataset):
        """A huge bucket overhead makes the cost-aware planner merge
        every stage into one maximally padded bucket; padded keys are
        masked, so logits must still match the reference loop."""
        from repro.core.latency import LatencySparsityTable
        from repro.cost import CostModel

        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        greedy = CostModel(
            LatencySparsityTable({0.5: 1e-6, 1.0: 1e-6}),
            num_patches=model.config.num_patches,
            batch_overhead_ms=1e6, bucket_overhead_ms=1e6)
        ref = model.forward_pruned(tiny_dataset.images[:16])
        session = InferenceSession(model, batch_size=16, cost_model=greedy)
        result = session.submit(tiny_dataset.images[:16])
        np.testing.assert_allclose(result.logits, ref.data, rtol=0,
                                   atol=TOLERANCE)
        assert all(s.num_buckets == 1 for s in result.stage_stats)

    def test_chunking_matches_one_shot(self, tiny_backbone, tiny_dataset):
        """batch_size smaller than the submission exercises chunk merge."""
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        small = assert_parity(model, tiny_dataset.images[:17], batch_size=4)
        large = assert_parity(model, tiny_dataset.images[:17],
                              batch_size=17)
        np.testing.assert_allclose(small.logits, large.logits, rtol=0,
                                   atol=TOLERANCE)


class TestPolicies:
    @pytest.mark.parametrize("policy", [
        None,
        BucketingPolicy(allow_padding=False),
        BucketingPolicy(pad_limit=1, min_bucket=1),
        BucketingPolicy(pad_limit=64, max_pad_fraction=1.0, min_bucket=64),
    ], ids=["default", "no-padding", "tight", "greedy"])
    def test_policy_invariance(self, tiny_backbone, tiny_dataset, policy):
        """Bucketing is an execution detail: every policy, same logits."""
        model = make_model(tiny_backbone, {1: 0.6, 2: 0.45})
        assert_parity(model, tiny_dataset.images[:17], policy=policy)


class TestGroupedSubmission:
    """submit_many / run_grouped: the remainder-carrying entry points."""

    def test_grouped_matches_flat_bitwise(self, tiny_backbone,
                                          tiny_dataset):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        images = tiny_dataset.images[:17]
        session = InferenceSession(model, batch_size=6)
        flat = session.submit(images)
        for splits in [(5, 12), (1, 2, 3), (17,), (0, 9)]:
            bounds = np.cumsum((0,) + splits)
            groups = [images[lo:hi] for lo, hi in zip(bounds[:-1],
                                                      bounds[1:])]
            groups.append(images[bounds[-1]:])
            result, slices = session.submit_many(groups)
            np.testing.assert_array_equal(result.logits, flat.logits)
            np.testing.assert_array_equal(result.latency_ms,
                                          flat.latency_ms)
            # Slices partition the batch in submission order.
            assert slices[0].start == 0 and slices[-1].stop == 17
            for group, rows in zip(groups, slices):
                assert rows.stop - rows.start == group.shape[0]
            for prev, nxt in zip(slices, slices[1:]):
                assert prev.stop == nxt.start

    def test_executor_run_grouped_slices(self, tiny_backbone,
                                         tiny_dataset):
        model = make_model(tiny_backbone, {1: 0.6})
        executor = BucketedExecutor(model)
        groups = [tiny_dataset.images[:3], tiny_dataset.images[3:3],
                  tiny_dataset.images[3:8]]
        result, slices = executor.run_grouped(groups)
        assert result.logits.shape == (8, model.config.num_classes)
        assert [s.stop - s.start for s in slices] == [3, 0, 5]
        whole = executor.run(tiny_dataset.images[:8])
        np.testing.assert_array_equal(result.logits, whole.logits)

    def test_run_grouped_all_empty(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        executor = BucketedExecutor(model)
        result, slices = executor.run_grouped([np.zeros((0, 3, 16, 16))])
        assert result.logits.shape == (0, model.config.num_classes)
        assert slices == [slice(0, 0)]

    def test_submit_many_empty_list(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        session = InferenceSession(model, batch_size=8)
        result, slices = session.submit_many([])
        assert slices == []
        assert result.logits.shape == (0, model.config.num_classes)
        assert result.latency_ms.shape == (0,)

    def test_grouped_record_matches_reference(self, tiny_backbone,
                                              tiny_dataset):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        images = tiny_dataset.images[:10]
        ref_record = PruningRecord()
        model.forward_pruned(images, record=ref_record)
        session = InferenceSession(model, batch_size=4)
        record = PruningRecord()
        session.submit_many([images[:4], images[4:10]], record=record)
        for engine_counts, ref_counts in zip(record.tokens_per_stage,
                                             ref_record.tokens_per_stage):
            np.testing.assert_array_equal(engine_counts, ref_counts)


class TestSessionResult:
    def test_latency_and_throughput_fields(self, tiny_backbone,
                                           tiny_dataset):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        session = InferenceSession(model, batch_size=8)
        result = session.submit(tiny_dataset.images[:10])
        assert result.latency_ms.shape == (10,)
        assert np.all(result.latency_ms > 0)
        # Pruned images must be estimated no slower than the dense model.
        table = session.latency_table
        dense = table.model_latency([1.0] * model.config.depth)
        assert np.all(result.latency_ms <= dense + 1e-9)
        assert result.wall_time_s > 0
        assert result.images_per_second > 0
        assert result.predictions.shape == (10,)

    def test_executor_empty_batch(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        executor = BucketedExecutor(model)
        result = executor.run(np.zeros((0, 3, 16, 16)))
        assert result.logits.shape == (0, model.config.num_classes)

    def test_session_empty_submission(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        session = InferenceSession(model, batch_size=8)
        result = session.submit(np.zeros((0, 3, 16, 16)))
        assert result.logits.shape == (0, model.config.num_classes)
        assert result.latency_ms.shape == (0,)
        assert result.latency_ms.dtype == np.float64
        assert result.predictions.shape == (0,)

    def test_latency_field_always_well_formed(self, tiny_backbone,
                                              tiny_dataset):
        """latency_ms is never None: a (B,) float array for every
        construction path, including the bare dataclass default."""
        bare = SessionResult(logits=np.zeros((0, 4)))
        assert isinstance(bare.latency_ms, np.ndarray)
        assert bare.latency_ms.shape == (0,)
        model = make_model(tiny_backbone, {})          # dense fallback
        session = InferenceSession(model, batch_size=8)
        result = session.submit(tiny_dataset.images[:3])
        assert result.latency_ms.shape == (3,)
        assert result.latency_ms.dtype == np.float64
        assert np.all(result.latency_ms > 0)

    def test_default_cost_model_is_per_config(self, tiny_backbone):
        """With no explicit cost model the session calibrates one from
        the FPGA simulator for ITS OWN config (not the paper's DeiT-T
        values), batch overhead included."""
        from repro.hardware.latency_table import build_cost_model

        model = make_model(tiny_backbone, {1: 0.6})
        session = InferenceSession(model, batch_size=8)
        expected = build_cost_model(model.config)
        assert session.cost_model.table.items() == expected.table.items()
        assert session.latency_table.items() == expected.table.items()
        assert session.cost_model.batch_overhead_ms == (
            expected.batch_overhead_ms)
        assert session.cost_model.batch_overhead_ms > 0
        # Length -> keep-ratio conversion must use the model's real
        # non-patch slot count (CLS + package), not a bare CLS default.
        assert session.cost_model.extra_tokens == model.non_patch_slots
        assert session.marginal_image_ms > 0
        # The estimate tracks the operating point automatically through
        # set_keep_ratios: pruning harder must not increase it.
        loose = session.marginal_image_ms
        model.set_keep_ratios([0.5])
        assert session.marginal_image_ms <= loose
        model.set_keep_ratios([0.6])
        assert session.marginal_image_ms == loose

    def test_estimated_batch_latency_includes_chunk_overheads(
            self, tiny_backbone):
        """Batch pricing pays one per-batch overhead per executor
        chunk."""
        from repro.cost import CostModel
        from repro.core.latency import LatencySparsityTable

        table = LatencySparsityTable({0.5: 1.0, 1.0: 1.0})
        cost_model = CostModel(table, num_patches=16,
                               batch_overhead_ms=3.0,
                               bucket_overhead_ms=0.5)
        model = make_model(tiny_backbone, {1: 0.6})
        session = InferenceSession(model, batch_size=8,
                                   cost_model=cost_model)
        per_image = session.marginal_image_ms
        cost = session.estimated_batch_cost(12)     # 2 chunks of <= 8
        assert cost.overhead_ms == pytest.approx(2 * 3.0)
        assert cost.marginal_ms == pytest.approx(12 * per_image)
        assert session.estimated_batch_cost(0).total_ms == 0.0

    def test_cost_model_and_table_are_exclusive(self, tiny_backbone):
        """A session is priced by a ``CostModel`` and nothing else: a
        bare table has to be wrapped (``CostModel.zero_overhead``)."""
        from repro.cost import paper_cost_model

        model = make_model(tiny_backbone, {1: 0.6})
        with pytest.raises(TypeError):
            InferenceSession(model, cost_model=paper_cost_model().table)
        with pytest.raises(TypeError):
            InferenceSession(model, cost_model=object())

    def test_invalid_batch_size(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        with pytest.raises(ValueError):
            InferenceSession(model, batch_size=0)

    def test_submit_restores_training_mode(self, tiny_backbone,
                                           tiny_dataset):
        """A session shared with a training loop must not leave the
        model in eval mode (and must still produce eval-mode logits)."""
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        ref = model.forward_pruned(tiny_dataset.images[:5])   # eval mode
        model.train()
        session = InferenceSession(model, batch_size=8)
        result = session.submit(tiny_dataset.images[:5])
        assert model.training
        assert all(s.training for s in model.selectors)
        np.testing.assert_allclose(result.logits, ref.data, rtol=0,
                                   atol=TOLERANCE)
