"""Parity and behavior suite for the compiled inference fast path.

The Tensor modules are the reference implementation; the fast path must
reproduce them:

* float64 compiles match ``forward_pruned`` to within the engine's 1e-8
  bound (near-bitwise in practice);
* float32 compiles stay within 1e-5 logits with IDENTICAL token-keep
  decisions and argmax;
* both hold across batch sizes, packager settings, masked (padded
  bucket) and unmasked execution, ragged buckets, and chunked
  submissions.

Also pinned here: workspace buffer reuse across submissions, serving
every selector the compiler does not recognise through its own module
(:class:`ModuleSelector`), dtype
handling of the padding/masking/gather helpers, and the
attention-recording policy of the deployed paths.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.core import (ConvTokenClassifier, HeatViT, PruningRecord,
                        TokenSelector, UniformHeadSelector,
                        make_single_head_factory)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gather import prune_image_sequence, weighted_package
from repro.engine import (BucketedExecutor, BucketingPolicy, CompileError,
                          InferenceSession, Workspace, compile_model,
                          compile_quantized)
from repro.engine.executor import EngineResult, _Group, _Packed
from repro.engine.fastpath.compiled import (CompiledBlock, CompiledModel,
                                            CompiledSelector,
                                            ModuleSelector)
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quant import PER_CHANNEL_CHILDREN, quantize_model
from repro.vit.attention import (key_padding_mask, pad_token_sequences,
                                 suppress_attention_recording)

F64_TOL = 1e-8
F32_TOL = 1e-5


def make_model(backbone, selector_blocks, *, use_packager=True, seed=42,
               classifier_factory=None):
    model = HeatViT(backbone, selector_blocks,
                    rng=np.random.default_rng(seed),
                    use_packager=use_packager,
                    classifier_factory=classifier_factory)
    model.eval()
    return model


def assert_backend_parity(model, images, *, dtype, tol, batch_size=32,
                          policy=None):
    """Fast-path submission vs the per-image reference loop."""
    record_ref = PruningRecord()
    ref = model.forward_pruned(images, record=record_ref)
    session = InferenceSession(model, batch_size=batch_size, policy=policy,
                               backend="fastpath", dtype=dtype)
    record = PruningRecord()
    result = session.submit(images, record=record)
    np.testing.assert_allclose(result.logits, ref.data, rtol=0, atol=tol)
    # Identical keep decisions: the per-stage token counts are a direct
    # function of every selector's keep mask.
    assert len(record.tokens_per_stage) == len(record_ref.tokens_per_stage)
    for counts, ref_counts in zip(record.tokens_per_stage,
                                  record_ref.tokens_per_stage):
        np.testing.assert_array_equal(counts, ref_counts)
    np.testing.assert_array_equal(result.logits.argmax(axis=-1),
                                  ref.data.argmax(axis=-1))
    return result


class TestCompiledForwardParity:
    """compile_model on a plain backbone vs the Tensor block stack."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, F32_TOL)])
    def test_dense_stack(self, tiny_backbone, tiny_dataset, dtype, tol):
        images = tiny_dataset.images[:5]
        compiled = compile_model(tiny_backbone, dtype=dtype)
        ws = Workspace(dtype)
        with nn.no_grad():
            x = tiny_backbone.embed(images)
            ref = x
            for block in tiny_backbone.blocks:
                ref = block(ref)
            ref_logits = tiny_backbone.classify(ref)
        tokens = compiled.embed(images, ws)
        np.testing.assert_allclose(tokens, x.data, rtol=0, atol=tol)
        hidden = compiled.forward(tokens, ws)
        np.testing.assert_allclose(hidden, ref.data, rtol=0, atol=tol)
        np.testing.assert_allclose(compiled.classify(hidden, ws),
                                   ref_logits.data, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, F32_TOL)])
    def test_masked_stack(self, tiny_backbone, tiny_dataset, dtype, tol):
        """Padded keys masked out: fastpath matches the Tensor blocks."""
        images = tiny_dataset.images[:4]
        compiled = compile_model(tiny_backbone, dtype=dtype)
        ws = Workspace(dtype)
        tokens = compiled.embed(images, ws)
        mask = np.ones((4, tokens.shape[1]))
        mask[:, -3:] = 0.0
        with nn.no_grad():
            ref = Tensor(np.asarray(tokens, dtype=np.float64))
            for block in tiny_backbone.blocks:
                ref = block(ref, key_mask=mask)
        out = compiled.forward(tokens, ws, key_mask=mask)
        np.testing.assert_allclose(out, ref.data, rtol=0, atol=tol)

    def test_forward_does_not_mutate_input(self, tiny_backbone,
                                           tiny_dataset):
        compiled = compile_model(tiny_backbone, dtype=np.float64)
        ws = Workspace(np.float64)
        tokens = np.array(compiled.embed(tiny_dataset.images[:2], ws))
        before = tokens.copy()
        compiled.forward(tokens, ws)
        np.testing.assert_array_equal(tokens, before)


class TestEngineBackendParity:
    """InferenceSession(backend="fastpath") vs forward_pruned."""

    @pytest.mark.parametrize("batch", [1, 3, 8, 17])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL),
                                           (np.float32, F32_TOL)])
    def test_batches_both_dtypes(self, tiny_backbone, tiny_dataset, batch,
                                 dtype, tol):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        assert_backend_parity(model, tiny_dataset.images[:batch],
                              dtype=dtype, tol=tol)

    @pytest.mark.parametrize("use_packager", [True, False])
    def test_packager_modes(self, tiny_backbone, tiny_dataset,
                            use_packager):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4},
                           use_packager=use_packager)
        assert_backend_parity(model, tiny_dataset.images[:11],
                              dtype=np.float32, tol=F32_TOL)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_models_ragged_stages(self, tiny_backbone, tiny_dataset,
                                         seed):
        """Three selectors produce genuinely ragged per-stage buckets."""
        model = make_model(tiny_backbone, {1: 0.8, 2: 0.55, 3: 0.35},
                           seed=seed)
        result = assert_backend_parity(model, tiny_dataset.images[:13],
                                       dtype=np.float32, tol=F32_TOL)
        assert len(result.tokens_per_stage) == 3

    @pytest.mark.parametrize("policy", [
        None,
        BucketingPolicy(allow_padding=False),
        BucketingPolicy(pad_limit=64, max_pad_fraction=1.0, min_bucket=64),
    ], ids=["default", "no-padding", "greedy"])
    def test_policy_invariance(self, tiny_backbone, tiny_dataset, policy):
        model = make_model(tiny_backbone, {1: 0.6, 2: 0.45})
        assert_backend_parity(model, tiny_dataset.images[:17],
                              dtype=np.float64, tol=F64_TOL, policy=policy)

    def test_chunked_matches_one_shot(self, tiny_backbone, tiny_dataset):
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        small = assert_backend_parity(model, tiny_dataset.images[:17],
                                      dtype=np.float64, tol=F64_TOL,
                                      batch_size=4)
        large = assert_backend_parity(model, tiny_dataset.images[:17],
                                      dtype=np.float64, tol=F64_TOL,
                                      batch_size=17)
        np.testing.assert_allclose(small.logits, large.logits, rtol=0,
                                   atol=F64_TOL)

    def test_selector_before_block_zero(self, tiny_backbone, tiny_dataset):
        model = make_model(tiny_backbone, {0: 0.7, 2: 0.5})
        assert_backend_parity(model, tiny_dataset.images[:9],
                              dtype=np.float32, tol=F32_TOL)

    def test_dense_no_selectors(self, tiny_backbone, tiny_dataset):
        model = make_model(tiny_backbone, {})
        assert_backend_parity(model, tiny_dataset.images[:5],
                              dtype=np.float64, tol=F64_TOL)

    def test_empty_batch(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        session = InferenceSession(model, batch_size=8, backend="fastpath")
        result = session.submit(np.zeros((0, 3, 16, 16)))
        assert result.logits.shape == (0, model.config.num_classes)

    def test_scheduler_serves_fastpath_sessions(self, tiny_backbone,
                                                tiny_dataset):
        """End-to-end through the request scheduler."""
        from repro.serving import Scheduler, VirtualClock

        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        images = tiny_dataset.images[:6]
        ref = model.forward_pruned(images)
        scheduler = Scheduler(clock=VirtualClock())
        scheduler.register("fast", model, batch_size=8,
                           backend="fastpath", dtype=np.float64)
        assert scheduler.sessions[0].session.backend == "fastpath"
        ids = [scheduler.submit(images[i]) for i in range(6)]
        results = {r.request_id: r for r in scheduler.flush()}
        logits = np.concatenate([results[i].logits for i in ids], axis=0)
        np.testing.assert_allclose(logits, ref.data, rtol=0, atol=F64_TOL)


class TestCompiledSelector:
    """The compiled selector pipeline vs the Tensor module."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, 1e-5)])
    def test_dense_select_matches_module(self, tiny_backbone,
                                         tiny_dataset, dtype, tol):
        model = make_model(tiny_backbone, {1: 0.6})
        compiled, ws = compile_model(model, dtype=dtype), Workspace(dtype)
        patches = np.array(
            compiled.embed(tiny_dataset.images[:6], ws)[:, 1:, :])
        keep, packages = compiled.select(0, patches, ws)
        with nn.no_grad():
            out = model.selectors[0](
                Tensor(np.asarray(patches, dtype=np.float64)), hard=False)
        np.testing.assert_array_equal(keep, out.decision.data > 0.5)
        np.testing.assert_allclose(packages, out.package.data[:, 0, :],
                                   rtol=0, atol=tol)

    @pytest.mark.parametrize("grade,short,min_keep,atol", [
        ("float64", 13, 1.0, 1e-12),
        # int8: activation scales are dynamic per tensor, i.e. per call,
        # so the ragged pipeline and its float64 twin (which scores per
        # exact group) quantize alike only when one call sees exactly
        # the other's tokens -- a single uniform-length group.  Even
        # then float32 rounding can move an activation across a rint
        # boundary by one quantization step: agreement, not equality.
        ("int8-f32", None, 0.9, 5e-3)])
    def test_ragged_select_matches_reference(self, tiny_backbone,
                                             tiny_dataset, grade, short,
                                             min_keep, atol):
        """The one ragged pipeline vs the reference, per exact group:
        the Tensor module for float64, the simulation-parity float64
        twin for the int8 serving grade."""
        model = make_model(tiny_backbone, {1: 0.6})
        if grade == "float64":
            compiled = compile_model(model, dtype=np.float64)
            ws = Workspace(np.float64)

            def reference(group):
                with nn.no_grad():
                    out = model.selectors[0](Tensor(group), hard=False)
                return out.decision.data > 0.5, out.package.data[:, 0, :]
        else:
            compiled = compile_quantized(model, dtype=np.float32)
            twin = compile_quantized(model, dtype=np.float64)
            ws = Workspace(np.float32)

            def reference(group):
                return twin.select(0, group, Workspace(np.float64))
        tokens = compiled.embed(tiny_dataset.images[:6], ws)
        if short is None:
            groups = [np.array(tokens[:, 1:, :])]
        else:
            groups = [np.array(tokens[:3, 1:, :]),
                      np.array(tokens[3:, 1:1 + short, :])]  # two lengths
        flat = np.concatenate([g.reshape(-1, g.shape[-1])
                               for g in groups], axis=0)
        counts = [g.shape[1] for g in groups for _ in range(g.shape[0])]
        keep_flat, packages = compiled.select_ragged(0, flat, counts, ws)
        offset, image = 0, 0
        for group in groups:
            g, n = group.shape[0], group.shape[1]
            keep_ref, packages_ref = reference(group)
            keep = keep_flat[offset:offset + g * n].reshape(g, n)
            same = (keep == keep_ref).all(axis=1)
            assert same.mean() >= min_keep
            np.testing.assert_allclose(packages[image:image + g][same],
                                       packages_ref[same], rtol=0,
                                       atol=atol)
            offset += g * n
            image += g

    @pytest.mark.parametrize("compile_fn", [compile_model,
                                            compile_quantized])
    def test_dense_select_is_ragged_select(self, tiny_backbone,
                                           tiny_dataset, compile_fn):
        """``select`` on a uniform group is ``select_ragged`` on the
        same tokens, bit for bit."""
        model = make_model(tiny_backbone, {1: 0.6})
        compiled, ws = compile_fn(model, dtype=np.float32), Workspace()
        group = np.array(
            compiled.embed(tiny_dataset.images[:6], ws)[:, 1:, :])
        g, n, dim = group.shape
        keep, packages = compiled.select(0, group, ws)
        keep_flat, packages_flat = compiled.select_ragged(
            0, group.reshape(g * n, dim), [n] * g, ws)
        np.testing.assert_array_equal(keep, keep_flat.reshape(g, n))
        np.testing.assert_array_equal(packages, packages_flat)

    def test_module_selector_scores_through_its_module(self,
                                                       tiny_backbone,
                                                       tiny_dataset):
        """A selector the compiler does not recognise is served through
        a copy of its own module, one uniform-length group at a time:
        its decisions and packages are the module's."""
        model = _non_stock_model("plain", tiny_backbone)
        compiled, ws = compile_model(model), Workspace()
        selector = compiled.selectors[0]
        assert isinstance(selector, ModuleSelector)
        assert selector.module is not model.selectors[0]
        tokens = compiled.embed(tiny_dataset.images[:6], ws)
        for group in (np.array(tokens[:3, 1:, :]),
                      np.array(tokens[3:, 1:14, :])):      # two lengths
            keep, packages = compiled.select(0, group, ws)
            with nn.no_grad():
                out = model.selectors[0](
                    Tensor(np.asarray(group, dtype=np.float64)),
                    hard=False)
            np.testing.assert_array_equal(keep, out.decision.data > 0.5)
            assert packages.dtype == np.float32
            np.testing.assert_array_equal(
                packages, out.package.data[:, 0, :].astype(np.float32))


class TestActivationLowering:
    @pytest.mark.parametrize("activation", [nn.ReLU, nn.Hardswish,
                                            nn.Sigmoid, nn.Identity])
    def test_builtin_activations_compile(self, tiny_backbone,
                                         tiny_dataset, activation):
        """Selectors built with any stock activation lower natively and
        keep reference parity."""
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        for selector in model.selectors:
            for seq in (selector.classifier.feature_mlp,
                        selector.classifier.classifier_mlp):
                for name, module in list(seq._modules.items()):
                    if isinstance(module, nn.GELU):
                        seq.register_module(name, activation())
        assert_backend_parity(model, tiny_dataset.images[:7],
                              dtype=np.float64, tol=F64_TOL)

    def test_unknown_activation_falls_back(self, tiny_backbone,
                                           tiny_dataset):
        """An activation the fast path cannot lower natively routes
        through the Tensor module, still matching the reference."""

        class Softsign(nn.Module):
            def forward(self, x):
                x = Tensor.ensure(x)
                return x / (Tensor(np.abs(x.data)) + 1.0)

        model = make_model(tiny_backbone, {1: 0.6})
        for seq in (model.selectors[0].classifier.feature_mlp,
                    model.selectors[0].classifier.classifier_mlp):
            for name, module in list(seq._modules.items()):
                if isinstance(module, nn.GELU):
                    seq.register_module(name, Softsign())
        assert_backend_parity(model, tiny_dataset.images[:7],
                              dtype=np.float64, tol=F64_TOL)


class TestConstruction:
    def test_unknown_backend_rejected(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        with pytest.raises(ValueError, match="backend"):
            InferenceSession(model, backend="gpu")
        with pytest.raises(ValueError, match="backend"):
            BucketedExecutor(model, backend="gpu")

    def test_tensor_backend_is_float64_only(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        with pytest.raises(ValueError, match="float64-only"):
            InferenceSession(model, backend="tensor", dtype=np.float32)
        session = InferenceSession(model, backend="tensor",
                                   dtype=np.float64)
        assert session.dtype == np.float64

    def test_compile_rejects_bad_dtype_and_model(self, tiny_backbone):
        with pytest.raises(CompileError):
            compile_model(tiny_backbone, dtype=np.float16)
        with pytest.raises(CompileError):
            compile_model(object())

    def test_float_and_int8_share_one_hierarchy(self, tiny_backbone):
        """Both compile functions fill the same classes, on every
        quantized grade too: a re-forked block or selector tree fails
        here, not in review."""
        model = make_model(tiny_backbone, {1: 0.6})
        floats, quants = compile_model(model), compile_quantized(model)
        assert type(floats) is type(quants)
        assert type(floats.blocks[0]) is type(quants.blocks[0])
        assert type(floats.selectors[0]) is type(quants.selectors[0])
        for parity in (compile_quantized(model, dtype=np.float64),
                       compile_quantized(model, bits=16)):
            assert type(parity) is CompiledModel
            assert all(type(block) is CompiledBlock
                       for block in parity.blocks)

    def test_session_exposes_backend_and_dtype(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        session = InferenceSession(model, backend="fastpath")
        assert session.backend == "fastpath"
        assert session.dtype == np.float32
        assert session.executor.compiled is not None


class TestWorkspaceReuse:
    @pytest.mark.parametrize("backend", ["fastpath", "int8", "int16"])
    def test_no_new_buffers_on_repeat_submission(self, tiny_backbone,
                                                 tiny_dataset, backend):
        """Steady traffic must reuse every scratch arena: the second
        identical submission allocates nothing."""
        model = make_model(tiny_backbone, {1: 0.6, 3: 0.4})
        session = InferenceSession(model, batch_size=8, backend=backend)
        images = tiny_dataset.images[:8]
        session.submit(images)
        ws = session.executor.workspace
        arenas, held, allocations = len(ws), ws.nbytes, ws.allocations
        assert allocations >= arenas > 0 and held > 0
        session.submit(images)
        assert (len(ws), ws.nbytes, ws.allocations) == (arenas, held,
                                                        allocations)
        # ... and neither does a smaller one: it runs in the same arenas.
        session.submit(images[:3])
        assert (ws.nbytes, ws.allocations) == (held, allocations)

    def test_pool_is_bounded_by_its_names(self):
        """An open-ended stream of shapes under one name holds one
        arena, as large as the largest of them (long-lived sessions see
        arbitrarily many (batch, padded_length) combinations)."""
        ws = Workspace(np.float32)
        for size in range(1, 50):
            ws.take("bucket", (size, 4))
        assert len(ws) == 1
        assert ws.nbytes == 49 * 4 * 4
        assert ws.allocations == 49            # grew every time
        for size in range(49, 0, -1):
            ws.take("bucket", (4, size))
        assert (len(ws), ws.allocations) == (1, 49)

    def test_take_returns_same_buffer_and_clear(self):
        ws = Workspace(np.float32)
        a = ws.take("x", (4, 4))
        a[...] = np.arange(16).reshape(4, 4)
        b = ws.take("x", (4, 4))
        assert np.shares_memory(a, b) and ws.allocations == 1
        np.testing.assert_array_equal(a, b)
        # A smaller shape is a view of the front of the same arena.
        c = ws.take("x", (2, 4))
        assert c.flags.c_contiguous and ws.allocations == 1
        np.testing.assert_array_equal(c, a[:2])
        assert not np.shares_memory(ws.take("y", (4, 4)), a)
        ones = ws.ones("ones", (3, 1))
        np.testing.assert_array_equal(ones, np.ones((3, 1), np.float32))
        # A constant survives growth, and a new value refills.
        assert (ws.ones("ones", (7, 1)) == 1.0).all()
        assert (ws.ones("ones", (2, 2)) == 1.0).all()
        assert ws.full("mv", (4, 1), 0.25)[0, 0] == np.float32(0.25)
        assert (ws.full("mv", (4, 1), 0.5) == 0.5).all()
        assert (ws.full("mv", (2, 1), 0.5) == 0.5).all()
        ws.clear()
        assert len(ws) == 0 and ws.nbytes == 0
        assert (ws.full("mv", (3, 1), 0.5) == 0.5).all()   # filled anew


class _PlainClassifier(nn.Module):
    """A token classifier the fast path does not lower (served through
    its selector's module): one Linear scoring broadcast over heads."""

    def __init__(self, embed_dim, num_heads, rng):
        super().__init__()
        self.num_heads = num_heads
        self.score = nn.Linear(embed_dim, 2, rng=rng)

    def forward(self, x, mask=None):
        x = Tensor.ensure(x)
        batch, tokens, _ = x.shape
        probs = F.softmax(self.score(x), axis=-1)          # (B, N, 2)
        probs = probs.reshape(batch, 1, tokens, 2)
        return probs + Tensor(np.zeros((batch, self.num_heads, tokens, 2)))


def _with_selectors(model, replace):
    """``model`` with selector ``i`` swapped for ``replace(i, stock)``."""
    for index, stock in enumerate(list(model.selectors)):
        model.selectors.register_module(str(index), replace(index, stock))
    model.eval()
    return model


def _uniform_head(index, stock):
    """The attention-branch ablation, holding the stock selector's
    parameters: only the Eq. 8 combine differs."""
    uniform = UniformHeadSelector(stock.embed_dim, stock.num_heads,
                                  keep_ratio=stock.keep_ratio,
                                  rng=np.random.default_rng(index))
    uniform.load_state_dict(stock.state_dict())
    return uniform


def _non_stock_model(variant, backbone):
    """A model whose selectors the compiler does not recognise."""
    dim, heads = backbone.config.embed_dim, backbone.config.num_heads
    if variant == "uniform-head":
        return _with_selectors(make_model(backbone, {1: 0.6, 3: 0.4}),
                               _uniform_head)
    if variant == "conv":
        # A conv classifier needs the full patch grid: one selector, at
        # the first boundary, where every image still has all patches.
        grid = backbone.config.image_size // backbone.config.patch_size
        return make_model(backbone, {1: 0.6},
                          classifier_factory=lambda rng: ConvTokenClassifier(
                              dim, heads, grid, rng=rng))
    factory = (make_single_head_factory(dim, heads)
               if variant == "single-head"
               else lambda rng: _PlainClassifier(dim, heads, rng))
    return make_model(backbone, {1: 0.6, 3: 0.4},
                      classifier_factory=factory)


class TestSelectorFallback:
    """Selectors the compiler does not recognise are served through
    their own modules (:class:`ModuleSelector`)."""

    @pytest.mark.parametrize("variant", ["plain", "single-head", "conv",
                                         "uniform-head"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL),
                                           (np.float32, F32_TOL)])
    def test_non_stock_selector_keeps_parity(self, tiny_backbone,
                                             tiny_dataset, variant, dtype,
                                             tol):
        """float64 within 1e-8 of ``forward_pruned``, float32 within
        1e-5; both with identical ``tokens_per_stage`` and argmax.  A
        :class:`UniformHeadSelector` (Eq. 8 with uniform head weights)
        is a stock selector's parameters under another class: lowered
        as the stock Eq. 8, it would keep other tokens."""
        model = _non_stock_model(variant, tiny_backbone)
        assert all(isinstance(s, ModuleSelector)
                   for s in compile_model(model, dtype=dtype).selectors)
        assert_backend_parity(model, tiny_dataset.images[:24],
                              dtype=dtype, tol=tol)

    def test_module_selector_scores_a_ragged_array_per_count(
            self, tiny_backbone, tiny_dataset):
        """``ModuleSelector.select_ragged`` over images of three distinct
        counts, interleaved: bit for bit the module called once per
        count group, and the module runs exactly that many times."""
        model = _non_stock_model("uniform-head", tiny_backbone)
        compiled, ws = compile_model(model, dtype=np.float64), Workspace()
        selector = compiled.selectors[0]
        assert isinstance(selector, ModuleSelector)
        patches = np.array(
            compiled.embed(tiny_dataset.images[:7], ws)[:, 1:, :])
        grid = patches.shape[1]
        counts = np.array([grid, 9, 13, grid, 9, 9, 13])
        flat = np.concatenate([image[:count]
                               for image, count in zip(patches, counts)])
        module, calls = selector.module, []

        def spy(group, **kwargs):
            calls.append(group.shape[0])
            return module(group, **kwargs)

        selector.module = spy
        keep, packages = selector.select_ragged(flat, counts, ws)
        assert sorted(calls) == [2, 2, 3]
        starts = np.cumsum(counts) - counts
        for count in (9, 13, grid):
            rows = np.flatnonzero(counts == count)
            with nn.no_grad():
                out = module(Tensor(patches[rows, :count]), hard=False)
            tokens = starts[rows][:, None] + np.arange(count)
            np.testing.assert_array_equal(keep[tokens],
                                          out.decision.data > 0.5)
            assert packages[rows].tobytes() == (
                out.package.data[:, 0, :].tobytes())

    @pytest.mark.parametrize("compile_fn", [
        compile_model, lambda model: compile_quantized(model,
                                                       dtype=np.float64)],
        ids=["fastpath", "int8-f64"])
    def test_compiling_leaves_the_live_selectors_mode_alone(
            self, tiny_backbone, compile_fn):
        """A model in ``train()`` mode compiles to served selector
        copies in ``eval()`` mode, and its own selectors stay in
        ``train()``."""
        model = _non_stock_model("uniform-head", tiny_backbone).train()
        compiled = compile_fn(model)
        for live, served in zip(model.selectors, compiled.selectors):
            assert isinstance(served, ModuleSelector)
            assert served.module is not live
            assert all(m.training for m in live.modules())
            assert not any(m.training for m in served.module.modules())

    def test_uniform_head_selector_serves_its_surgered_module_on_int8(
            self, tiny_backbone, tiny_dataset):
        """The int8 serving grade scores an ablation through its
        surgered module: its keep decisions are the simulation's."""
        model = _non_stock_model("uniform-head", tiny_backbone)
        compiled = compile_quantized(model, dtype=np.float32)
        simulation = copy.deepcopy(model)
        quantize_model(simulation, bits=8, per_channel=PER_CHANNEL_CHILDREN)
        simulation.eval()
        ws = Workspace(np.float32)
        patches = np.array(
            compiled.embed(tiny_dataset.images[:12], ws)[:, 1:, :])
        for stage, selector in enumerate(compiled.selectors):
            assert isinstance(selector, ModuleSelector)
            keep, _ = compiled.select(stage, patches, ws)
            with nn.no_grad():
                out = simulation.selectors[stage](
                    Tensor(np.asarray(patches, dtype=np.float64)),
                    hard=False)
            np.testing.assert_array_equal(keep, out.decision.data > 0.5)

    def test_stock_boundaries_stay_ragged_beside_a_module_selector(
            self, tiny_backbone, tiny_dataset, monkeypatch):
        """Each selector decides for its own boundary: one module
        selector does not send the stock ones down the dense path."""
        dim, heads = (tiny_backbone.config.embed_dim,
                      tiny_backbone.config.num_heads)

        def plain_first(index, stock):
            if index:
                return stock
            return TokenSelector(
                dim, heads, keep_ratio=stock.keep_ratio,
                classifier=_PlainClassifier(dim, heads,
                                            np.random.default_rng(3)),
                rng=np.random.default_rng(3))

        model = _with_selectors(make_model(tiny_backbone, {1: 0.6, 3: 0.4}),
                                plain_first)
        session = InferenceSession(model, backend="int8")
        module_selector, stock = session.executor.compiled.selectors
        assert isinstance(module_selector, ModuleSelector)
        assert type(stock) is CompiledSelector
        ragged_calls, module_calls = [], []
        ragged, module = CompiledSelector.select_ragged, module_selector.module

        def ragged_spy(selector, flat, counts, ws):
            assert selector is stock
            ragged_calls.append(np.asarray(counts).copy())
            return ragged(selector, flat, counts, ws)

        def module_spy(patches, **kwargs):
            module_calls.append(patches.shape)
            return module(patches, **kwargs)

        monkeypatch.setattr(CompiledSelector, "select_ragged", ragged_spy)
        module_selector.module = module_spy
        result = session.submit(tiny_dataset.images[:8])
        # The stock boundary scores every image's tokens in one call;
        # the module scores one stack per distinct count -- here all 8
        # images still hold the full patch grid.
        grid = tiny_backbone.config.num_patches
        assert module_calls == [(8, grid, tiny_backbone.config.embed_dim)]
        (counts,) = ragged_calls
        stage0 = result.tokens_per_stage[0]        # CLS + kept + package
        np.testing.assert_array_equal(
            np.sort(counts), np.sort(np.where(stage0 == 1 + grid, grid,
                                              stage0 - 2)))
        assert np.isfinite(result.logits).all()

    def test_non_stock_classifier_serves_on_int8(self, tiny_backbone,
                                                 tiny_dataset):
        """The int8 serving grade scores a non-stock classifier through
        the surgered Tensor selector, per exact group."""
        model = _non_stock_model("plain", tiny_backbone)
        session = InferenceSession(model, backend="int8")
        assert session.executor.dtype == np.float32
        assert all(isinstance(s, ModuleSelector)
                   for s in session.executor.compiled.selectors)
        result = session.submit(tiny_dataset.images[:6])
        assert result.logits.shape == (6, tiny_backbone.config.num_classes)
        assert np.isfinite(result.logits).all()

    def test_stock_classifier_compiles_fully(self, tiny_backbone):
        model = make_model(tiny_backbone, {1: 0.6})
        for compiled in (compile_model(model), compile_quantized(model)):
            assert all(type(s) is CompiledSelector
                       for s in compiled.selectors)


class TestDtypeThreading:
    """Satellite: float32 batches must not be upcast by padding/masks
    or the gather path."""

    def test_pad_token_sequences_preserves_float32(self):
        seqs = [np.ones((3, 4), np.float32), np.ones((5, 4), np.float32)]
        stacked, mask = pad_token_sequences(seqs)
        assert stacked.dtype == np.float32
        assert mask.dtype == np.float32

    def test_pad_token_sequences_default_stays_float64(self):
        seqs = [np.ones((3, 4)), np.ones((5, 4))]
        stacked, mask = pad_token_sequences(seqs)
        assert stacked.dtype == np.float64
        assert mask.dtype == np.float64
        # Non-float input also computes in float64.
        stacked, _ = pad_token_sequences([np.ones((2, 4), dtype=int)])
        assert stacked.dtype == np.float64

    def test_pad_token_sequences_explicit_dtype(self):
        seqs = [np.ones((3, 4)), np.ones((5, 4))]
        stacked, mask = pad_token_sequences(seqs, dtype=np.float32)
        assert stacked.dtype == np.float32
        assert mask.dtype == np.float32

    def test_key_padding_mask_dtype(self):
        mask = key_padding_mask([2, 3], 4, dtype=np.float32)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(
            mask, [[1, 1, 0, 0], [1, 1, 1, 0]])

    def test_weighted_package_preserves_dtype(self):
        tokens = np.ones((3, 4), np.float32)
        out = weighted_package(tokens, np.array([1.0, 2.0, 0.5]))
        assert out.dtype == np.float32
        out64 = weighted_package(tokens.astype(np.float64), [1, 2, 0.5])
        assert out64.dtype == np.float64

    def test_group_gather_preserves_dtype(self, tiny_backbone, rng):
        """A float32 boundary fed float64 packages stays float32 and
        still equals the per-image rule (which casts the package row)."""
        executor = boundary_executor(tiny_backbone, backend="fastpath")
        assert executor.dtype == np.float32
        run_boundary(executor, *boundary_groups(
            rng, [[(7, False), (5, True)], [(6, False)] * 3], np.float32))


def boundary_groups(rng, layout, dtype, dim=6):
    """Hand-built executor groups in front of one selector boundary.

    ``layout``: one list of ``(length, has_package)`` rows per group.
    Rows are padded to their group's longest with garbage (a real
    stack's padding rows hold whatever the blocks left there) and image
    ids are dealt out of order.  Every image's first patch token is one
    the scripted selector keeps.  Returns ``(groups, sequences)`` with
    ``sequences[image]`` the ``((T, D) real sequence, has_package)``
    the boundary must treat it as.
    """
    ids = iter(rng.permutation(sum(len(rows) for rows in layout)))
    groups, sequences = [], {}
    for rows in layout:
        lengths = np.array([length for length, _ in rows])
        packaged = np.array([flag for _, flag in rows], dtype=bool)
        x = rng.normal(size=(len(rows), lengths.max(), dim)).astype(dtype)
        x[:, 1, 0] = 1.0
        indices = np.array([next(ids) for _ in rows])
        for row, image in enumerate(indices):
            sequences[image] = (x[row, :lengths[row]].copy(),
                                bool(packaged[row]))
        groups.append(_Group(x, None, None, indices, lengths, packaged))
    return groups, sequences


def as_packed(groups, workspace=None):
    """The images of bucket ``groups`` as one packed group, in group
    order -- what a packing executor hands its later boundaries.  With
    a ``workspace`` the rows sit in its ``packed`` arena, the memory
    the boundary writes its output to."""
    rows = [g.x[row, :length] for g in groups
            for row, length in enumerate(g.lengths)]
    lengths = np.array([len(r) for r in rows])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    x = np.concatenate(rows)
    if workspace is not None:
        pooled = workspace.take("packed", x.shape)
        pooled[...] = x
        x = pooled
    return _Packed(x, offsets, np.concatenate([g.indices for g in groups]),
                   lengths, np.concatenate([g.has_package for g in groups]))


def scripted_select(stage, flat, counts):
    """Stands in for ``BucketedExecutor._select``: decisions that are a
    function of each token alone, so they do not depend on the order
    the boundary presents images in.  Packages are float64 whatever the
    tokens are."""
    starts = np.cumsum(counts) - counts
    return flat[:, 0] > 0, flat[starts].astype(np.float64) * 2.0 + 1.0


def boundary_executor(backbone, *, use_packager=True, backend="tensor",
                      dtype=None):
    """An executor whose selector is :func:`scripted_select`."""
    executor = BucketedExecutor(
        make_model(backbone, {1: 0.6}, use_packager=use_packager),
        backend=backend, dtype=dtype)
    executor._select = scripted_select
    return executor


def run_boundary(executor, groups, sequences):
    """Drive ``_apply_selector`` over hand-built ``groups`` and hold
    every output row against :func:`prune_image_sequence` on that
    image's own sequence; returns the new groups."""
    use_packager = executor.model.use_packager
    result = EngineResult(logits=None)
    new_groups = executor._apply_selector(0, groups, result)
    (counts,), (stats,) = result.tokens_per_stage, result.stage_stats
    assert counts.dtype.kind == "i" and counts.shape == (len(sequences),)
    assert sorted(np.concatenate([g.indices for g in new_groups])) == (
        sorted(sequences))
    assert stats.num_buckets == len(new_groups)
    if executor._packs:          # one packed array, nothing padded
        (group,) = new_groups
        assert isinstance(group, _Packed) and stats.padded_tokens == 0
        assert stats.bucket_sizes == [len(sequences)]
        assert group.offsets[-1] == group.x.shape[0]
    for group in new_groups:
        assert group.x.dtype == executor.dtype
        packed = isinstance(group, _Packed)
        if not packed:
            assert (group.mask is None) == (
                group.lengths == group.x.shape[1]).all()
        for row, image in enumerate(group.indices):
            sequence, has_package = sequences[image]
            patches = sequence[1:len(sequence) - has_package]
            want, want_flag = prune_image_sequence(
                sequence, patches[:, 0] > 0, use_packager=use_packager,
                has_package=has_package,
                package=patches[0].astype(np.float64) * 2.0 + 1.0)
            length = group.lengths[row]
            if packed:
                lo, hi = group.offsets[row:row + 2]
                assert hi - lo == length
                np.testing.assert_array_equal(group.x[lo:hi], want)
            else:
                np.testing.assert_array_equal(group.x[row, :length], want)
                assert (group.x[row, length:] == 0.0).all()  # clean padding
            assert group.has_package[row] == want_flag
            assert counts[image] == length == want.shape[0]
    return new_groups


# (backend, dtype) of the three boundary layouts: the tensor and
# float64 fastpath lanes bucket, the float32 fastpath lane packs.
LANES = [("tensor", None), ("fastpath", np.float32),
         ("fastpath", np.float64)]
LANE_IDS = ["tensor", "fastpath", "fastpath64"]


class TestGroupGatherEquivalence:
    """The boundary's batched gather (``_apply_selector``: strip, score,
    re-bucket from one flat array) must equal the written-down
    per-image rule, :func:`prune_image_sequence`, bit for bit."""

    @pytest.mark.parametrize("use_packager,has_package", [
        (True, False), (True, True), (False, False), (False, True)])
    def test_matches_per_image(self, tiny_backbone, rng, use_packager,
                               has_package):
        groups, sequences = boundary_groups(
            rng, [[(8, has_package)] * 5], np.float64)
        groups[0].x[0, 1:, 0] = 1.0             # one prune-free image
        sequences[groups[0].indices[0]][0][1:, 0] = 1.0
        run_boundary(boundary_executor(tiny_backbone,
                                       use_packager=use_packager),
                     groups, sequences)

    def test_shape_validation(self, rng):
        """The reference rule refuses what the boundary never hands it:
        a keep mask that does not cover the patch tokens, and a pruning
        packager stage without its package."""
        sequence = rng.normal(size=(6, 4))
        with pytest.raises(ValueError, match="keep_flags"):
            prune_image_sequence(sequence, np.ones(9, bool),
                                 use_packager=False, has_package=False)
        keep = np.array([True, False, True, True, True])
        with pytest.raises(ValueError, match="package"):
            prune_image_sequence(sequence, keep, use_packager=True,
                                 has_package=False)

    @pytest.mark.parametrize("backend,dtype", LANES, ids=LANE_IDS)
    @pytest.mark.parametrize("use_packager", [True, False])
    def test_mixed_lengths_padding_and_package_flags(
            self, tiny_backbone, rng, backend, dtype, use_packager):
        layout = [[(9, False), (6, True), (9, True), (3, False)],
                  [(5, True)],
                  [(7, False), (7, True), (4, False)]]
        executor = boundary_executor(tiny_backbone, backend=backend,
                                     dtype=dtype, use_packager=use_packager)
        new_groups = run_boundary(executor, *boundary_groups(
            rng, layout, executor.dtype))
        if executor._packs:
            assert executor.plan_cache_misses == 0   # no plan was made
        else:
            assert len(new_groups) > 1 or new_groups[0].mask is not None

    @given(layout=st.lists(
        st.lists(st.tuples(st.integers(1, 7), st.booleans()).map(
            lambda row: (1 + row[0] + row[1], row[1])),
            min_size=1, max_size=5), min_size=1, max_size=4),
        use_packager=st.booleans(), seed=st.integers(0, 2 ** 16),
        lane=st.sampled_from(LANES), packed_input=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_layouts(self, tiny_backbone, layout, use_packager,
                            seed, lane, packed_input):
        """Bucket stacks or one packed array in, on every lane: what a
        packing executor's later boundaries are handed, too."""
        backend, dtype = lane
        executor = boundary_executor(tiny_backbone, backend=backend,
                                     dtype=dtype, use_packager=use_packager)
        groups, sequences = boundary_groups(
            np.random.default_rng(seed), layout, executor.dtype)
        if packed_input:
            groups = [as_packed(groups)]
        run_boundary(executor, groups, sequences)

    def test_packed_array_reuses_its_arena(self, tiny_backbone, rng):
        """The next stage's packed array is the workspace's ``packed``
        arena, the memory of the array the boundary reads: every row it
        needs is copied out before the first one is written.  Images
        prune one token each and gain a package -- same total rows."""
        executor = boundary_executor(tiny_backbone, backend="fastpath")
        groups, sequences = boundary_groups(rng, [[(7, False)] * 4],
                                            executor.dtype)
        groups[0].x[:, 2:, 0] = [-1.0, 1.0, 1.0, 1.0, 1.0]  # prune token 2
        for row, image in enumerate(groups[0].indices):
            sequences[image] = (groups[0].x[row].copy(), False)
        packed = as_packed(groups, executor.workspace)
        (out,) = run_boundary(executor, [packed], sequences)
        assert np.shares_memory(out.x, packed.x)   # the hazard is live

    def test_recurring_bucket_shape_does_not_corrupt_rows(
            self, tiny_backbone, rng):
        """A bucket stack is the workspace arena of its plan position,
        i.e. the memory of the previous stage's stack at that position:
        the boundary must have copied every row it needs before it
        writes the first new bucket.  Here each of four images prunes
        one token and gains a package -- same length, same shape, rows
        in a different order.  The float64 fastpath buckets; float32
        packs (:meth:`test_packed_array_reuses_its_arena`)."""
        executor = boundary_executor(tiny_backbone, backend="fastpath",
                                     dtype=np.float64)
        groups, _ = boundary_groups(rng, [[(7, False)] * 4],
                                    executor.dtype)
        group = groups[0]
        group.indices = np.array([2, 0, 3, 1])
        group.x[:, 2:, 0] = [-1.0, 1.0, 1.0, 1.0, 1.0]  # prune token 2
        sequences = {image: (group.x[row].copy(), False)
                     for row, image in enumerate(group.indices)}
        pooled = executor.workspace.take("bucket0", group.x.shape)
        pooled[...] = group.x
        group.x = pooled
        (out,) = run_boundary(executor, groups, sequences)
        assert np.shares_memory(out.x, pooled)  # the hazard is live
        assert list(out.indices) == [0, 1, 2, 3]

    def test_buckets_of_one_stage_never_share_memory(self, tiny_backbone,
                                                     rng):
        """A stage's buckets are alive together, so each sits in its own
        arena -- stacks and score biases alike.  Two far-apart groups,
        each mixing two lengths: two padded buckets."""
        executor = boundary_executor(tiny_backbone, backend="fastpath",
                                     dtype=np.float64)
        groups, sequences = boundary_groups(
            rng, [[(30, False)] * 4, [(8, False)] * 4], executor.dtype)
        for group in groups:
            group.x[:, 1:, 0] = 1.0                    # keep everything,
            group.x[2:, 2:4, 0] = -1.0                 # or prune two
            for row, image in enumerate(group.indices):
                sequences[image] = (group.x[row].copy(), False)
        first, second = run_boundary(executor, groups, sequences)
        assert first.x.shape[1:] == (30, 6) and second.x.shape[1:] == (8, 6)
        assert first.bias is not None and second.bias is not None
        assert not np.shares_memory(first.x, second.x)
        assert not np.shares_memory(first.bias, second.bias)


class TestAttentionRecordingPolicy:
    """Satellite: deployed paths skip the (B, h, N, N) copies; the
    analysis paths keep them."""

    def _fresh_model(self, tiny_config):
        from repro.vit import VisionTransformer

        backbone = VisionTransformer(tiny_config,
                                     rng=np.random.default_rng(3))
        backbone.eval()
        return make_model(backbone, {1: 0.6, 3: 0.4}, seed=7)

    def test_forward_pruned_does_not_record(self, tiny_config,
                                            tiny_dataset):
        model = self._fresh_model(tiny_config)
        model.forward_pruned(tiny_dataset.images[:3])
        assert all(b.attn.last_attention is None
                   for b in model.backbone.blocks)
        assert all(b.attn.record_attention          # flag restored
                   for b in model.backbone.blocks)

    @pytest.mark.parametrize("backend", ["tensor", "fastpath"])
    def test_engine_does_not_record(self, tiny_config, tiny_dataset,
                                    backend):
        model = self._fresh_model(tiny_config)
        session = InferenceSession(model, batch_size=8, backend=backend)
        session.submit(tiny_dataset.images[:5])
        assert all(b.attn.last_attention is None
                   for b in model.backbone.blocks)

    def test_masked_forward_still_records(self, tiny_config,
                                          tiny_dataset):
        """The analysis / Fig. 5 path keeps the attention maps."""
        model = self._fresh_model(tiny_config)
        with nn.no_grad():
            model.forward(tiny_dataset.images[:2])
        for block in model.backbone.blocks:
            attn = block.attn.last_attention
            assert attn is not None
            assert attn.shape[0] == 2
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_suppression_restores_prior_state(self, tiny_config,
                                              tiny_dataset):
        model = self._fresh_model(tiny_config)
        modules = [b.attn for b in model.backbone.blocks]
        modules[0].record_attention = False      # mixed prior state
        with suppress_attention_recording(modules):
            assert all(not m.record_attention for m in modules)
        assert not modules[0].record_attention
        assert all(m.record_attention for m in modules[1:])
