"""Tests for the latency-sparsity table and loss (Eqs. 18-20)."""

import numpy as np
import pytest

from repro.core import (LatencySparsityTable, confidence_loss,
                        latency_from_stage_counts, latency_sparsity_loss,
                        paper_latency_table, ratios_for_latency_budget)
from repro.core.latency import latency_for_keep_ratios
from repro.nn.tensor import Tensor


class TestTable:
    def test_paper_values_deit_t(self):
        table = paper_latency_table("DeiT-T")
        assert table.latency(1.0) == pytest.approx(1.034)
        assert table.latency(0.5) == pytest.approx(0.636)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            paper_latency_table("DeiT-B")

    def test_interpolation_between_grid_points(self):
        table = paper_latency_table("DeiT-S")
        mid = table.latency(0.75)
        assert table.latency(0.7) < mid < table.latency(0.8)

    def test_clipping_outside_range(self):
        table = paper_latency_table("DeiT-T")
        assert table.latency(0.1) == table.latency(0.5)
        assert table.latency(2.0) == table.latency(1.0)

    def test_inverse_lookup_roundtrip(self):
        table = paper_latency_table("DeiT-T")
        for ratio in (0.5, 0.62, 0.8, 1.0):
            latency = table.latency(ratio)
            assert table.ratio_for_latency(latency) == pytest.approx(
                ratio, abs=1e-9)

    def test_model_latency_sums_blocks(self):
        table = paper_latency_table("DeiT-T")
        total = table.model_latency([1.0] * 12)
        assert total == pytest.approx(12 * 1.034)

    def test_monotonicity_required(self):
        with pytest.raises(ValueError):
            LatencySparsityTable({0.5: 2.0, 1.0: 1.0})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySparsityTable({})


class TestLoss:
    def test_zero_at_target(self):
        decisions = [Tensor(np.full((4, 10), 0.7))]
        loss = latency_sparsity_loss(decisions, [0.7])
        assert loss.item() == pytest.approx(0.0)

    def test_quadratic_in_gap(self):
        decisions = [Tensor(np.full((2, 10), 0.5))]
        small = latency_sparsity_loss(decisions, [0.6]).item()
        large = latency_sparsity_loss(decisions, [0.7]).item()
        assert large == pytest.approx(4 * small)

    def test_batch_average_allows_adaptivity(self):
        """Per-image keep ratios may differ as long as the mean hits the
        target -- the paper's 'average pruning rate' convergence goal."""
        varied = np.concatenate([np.ones((2, 10)) * 0.9,
                                 np.ones((2, 10)) * 0.5])
        loss = latency_sparsity_loss([Tensor(varied)], [0.7])
        assert loss.item() == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            latency_sparsity_loss([Tensor(np.ones((1, 2)))], [0.5, 0.5])

    def test_gradient_flows(self):
        decision = Tensor(np.full((2, 5), 0.9), requires_grad=True)
        latency_sparsity_loss([decision], [0.5]).backward()
        assert decision.grad is not None
        assert np.all(decision.grad > 0)    # pushes decisions down


class TestConfidenceLoss:
    def _scores(self, keep):
        keep = np.asarray(keep, dtype=np.float64)
        return Tensor(np.stack([keep, 1.0 - keep], axis=-1))

    def test_zero_when_bimodal_at_target(self):
        # 2 of 4 tokens confidently kept; target ratio 0.5.
        keep = np.array([[0.999999, 0.999999, 1e-7, 1e-7]])
        loss = confidence_loss([self._scores(keep)],
                               [np.ones((1, 4))], [0.5])
        assert loss.item() < 1e-4

    def test_uniform_scores_penalized(self):
        """The failure mode the term exists for: uniform score = rho
        satisfies the ratio loss but must be penalized here."""
        uniform = np.full((1, 4), 0.7)
        loss = confidence_loss([self._scores(uniform)],
                               [np.ones((1, 4))], [0.5])
        assert loss.item() > 0.3

    def test_targets_follow_ranking(self):
        keep = Tensor(np.stack([np.array([[0.9, 0.6, 0.4, 0.1]]),
                                1 - np.array([[0.9, 0.6, 0.4, 0.1]])],
                               axis=-1), requires_grad=True)
        loss = confidence_loss([keep], [np.ones((1, 4))], [0.5])
        loss.backward()
        grad = keep.grad[0, :, 0]
        # Top-2 tokens pushed up (negative grad on keep prob means up
        # after descent), bottom-2 pushed down.
        assert grad[0] < 0 and grad[1] < 0
        assert grad[2] > 0 and grad[3] > 0

    def test_dead_tokens_excluded(self):
        keep = np.array([[0.5, 0.5, 0.9, 0.1]])
        alive = np.array([[0.0, 0.0, 1.0, 1.0]])
        # Only tokens 2, 3 participate: target keeps ceil(0.25*4)=1,
        # token 2 wins, token 3 gets 0; both already near-correct.
        loss_alive = confidence_loss([self._scores(keep)], [alive],
                                     [0.25])
        keep_sharp = np.array([[0.5, 0.5, 0.999999, 1e-7]])
        loss_sharp = confidence_loss([self._scores(keep_sharp)], [alive],
                                     [0.25])
        assert loss_sharp.item() < loss_alive.item()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confidence_loss([self._scores(np.ones((1, 2)))], [], [0.5])


class TestBudgetAssignment:
    def test_no_pruning_when_budget_loose(self):
        table = paper_latency_table("DeiT-T")
        ratios = ratios_for_latency_budget(table, 12, latency_limit=100.0)
        assert ratios == [1.0] * 12

    def test_back_blocks_pruned_first(self):
        table = paper_latency_table("DeiT-T")
        ratios = ratios_for_latency_budget(table, 12, latency_limit=12.0)
        assert ratios[-1] < 1.0
        assert all(r == 1.0 for r in ratios[:3])

    def test_front_blocks_protected(self):
        table = paper_latency_table("DeiT-T")
        ratios = ratios_for_latency_budget(table, 12, latency_limit=9.5,
                                           front_blocks=3)
        assert all(r == 1.0 for r in ratios[:3])
        assert table.model_latency(ratios) <= 9.5

    def test_infeasible_budget_raises(self):
        table = paper_latency_table("DeiT-T")
        with pytest.raises(ValueError):
            ratios_for_latency_budget(table, 12, latency_limit=1.0)


class TestLatencyFromStageCounts:
    def test_patch_ratio_convention(self):
        """Counts include CLS + package; the ratio must not.

        A packaged image keeping exactly half its 196 patches has
        count 98 + 2 = 100 and must look up ratio 0.5, not 100/197 --
        the same convention as ``PruningRecord.cumulative_keep`` and
        :func:`ratios_for_latency_budget`.
        """
        table = paper_latency_table("DeiT-T")
        # One selector before block 6 of 12: 6 dense + 6 pruned blocks.
        estimate = latency_from_stage_counts(
            table, 12, [6], [np.array([100])], num_patches=196, extra=2)
        expected = 6 * table.latency(1.0) + 6 * table.latency(0.5)
        assert estimate.shape == (1,)
        assert estimate[0] == pytest.approx(expected)

    def test_matches_scalar_lookup_per_block(self):
        table = paper_latency_table("DeiT-S")
        counts = [np.array([150, 100, 60]), np.array([80, 50, 30])]
        estimate = latency_from_stage_counts(table, 12, [3, 8], counts,
                                             num_patches=196, extra=2)
        for image in range(3):
            ratios = ([1.0] * 3
                      + [(counts[0][image] - 2) / 196] * 5
                      + [(counts[1][image] - 2) / 196] * 4)
            assert estimate[image] == pytest.approx(
                table.model_latency(ratios))

    def test_count_mismatch_raises(self):
        table = paper_latency_table("DeiT-T")
        with pytest.raises(ValueError):
            latency_from_stage_counts(table, 12, [3, 8],
                                      [np.array([100])], num_patches=196)

    def test_no_stages_raises(self):
        table = paper_latency_table("DeiT-T")
        with pytest.raises(ValueError):
            latency_from_stage_counts(table, 12, [], [], num_patches=196)

    def test_latency_batch_matches_scalar(self):
        table = paper_latency_table("DeiT-T")
        ratios = np.array([0.45, 0.55, 0.72, 1.0, 1.3])
        np.testing.assert_allclose(
            table.latency_batch(ratios),
            [table.latency(r) for r in ratios])


class TestLatencyForKeepRatios:
    def test_matches_cumulative_model_latency(self):
        table = paper_latency_table("DeiT-T")
        # Selectors at blocks 3 and 8 with cumulative ratios 0.8, 0.7
        # (the reading Eq. 20 trains towards): blocks 0-2 dense, 3-7 at
        # 0.8 of all patches, 8-11 at 0.7.
        estimate = latency_for_keep_ratios(table, 12, [3, 8], [0.8, 0.7])
        expected = table.model_latency([1.0] * 3 + [0.8] * 5 + [0.7] * 4)
        assert estimate == pytest.approx(expected)

    def test_ratios_are_cumulative_above_the_table_floor(self):
        """An unclamped pin: read relatively, (0.9, 0.8) would price
        the last stage at 0.72 (10.6614 ms); cumulatively it is 0.8."""
        table = paper_latency_table("DeiT-T")
        estimate = latency_for_keep_ratios(table, 12, [3, 6], (0.9, 0.8))
        assert estimate == pytest.approx(11.223, abs=1e-9)

    def test_suite_operating_point_price_is_unmoved(self):
        """Both readings clamp at the table's 0.5 floor on the suite's
        pruned shape, so its session price is bit-for-bit the one it
        had when the ratios were read relatively."""
        from benchmarks.suite.models import PRUNED, build_model
        from repro.engine import InferenceSession

        session = InferenceSession(build_model(PRUNED), batch_size=32)
        assert session.marginal_image_ms == 0.3939207484840257

    def test_no_selectors_is_dense(self):
        table = paper_latency_table("DeiT-T")
        assert latency_for_keep_ratios(table, 12, [], []) == pytest.approx(
            table.model_latency([1.0] * 12))

    def test_selector_before_block_zero(self):
        table = paper_latency_table("DeiT-T")
        estimate = latency_for_keep_ratios(table, 4, [0], [0.5])
        assert estimate == pytest.approx(table.model_latency([0.5] * 4))

    def test_ratio_count_mismatch_raises(self):
        table = paper_latency_table("DeiT-T")
        with pytest.raises(ValueError):
            latency_for_keep_ratios(table, 12, [3], [0.8, 0.7])
