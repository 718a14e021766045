"""Quantized serving backend: kernels, compile, and end-to-end parity.

The ``backend="int8"``/``"int16"`` fast path holds itself to the
:func:`repro.quant.quantize_model` simulation -- the surgered Tensor
model.  The contract under test, grade by grade:

* the float64 layer norm and linear kernel are **bitwise** mirrors of
  the Tensor chain (functional layer norm / QuantizedLinear), the
  kernel in every form a block calls it (whole, row slices, strided);
  the nonlinearities need no mirror, both sides call ``repro.approx``;
* the float64 engine grade is bitwise equal to the surgered model end
  to end -- logits AND per-stage token counts -- through bucketing,
  selectors, and the classify head;
* the float32 timed grade agrees with its float64 twin on top-1 and
  keep decisions (the stated tolerance; quantized arithmetic in two
  float precisions);
* ``int16`` compiles float64-only: its operands overflow the float32
  GEMM exactness window, and the compile must refuse rather than
  silently lose bitwise parity.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.approx import softmax_approx
from repro.core import HeatViT
from repro.engine import (BucketedExecutor, CompileError, InferenceSession,
                          Workspace, compile_quantized)
from repro.engine.fastpath.compiled import CompiledSelector, ModuleSelector
from repro.engine.fastpath.qkernels import (approx_softmax_fast,
                                            layer_norm_reference,
                                            quantize_fast)
from repro.engine.fastpath.quantized import QuantizedLinearKernel
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quant import (PER_CHANNEL_CHILDREN, QuantizedLinear,
                         calibrate_minmax, quantize, quantize_model)
from repro.vit import VisionTransformer, ViTConfig


@pytest.fixture(scope="module")
def quant_setup():
    rng = np.random.default_rng(42)
    config = ViTConfig(name="quant-e2e", image_size=16, patch_size=4,
                       embed_dim=24, depth=4, num_heads=3, num_classes=4)
    model = HeatViT(VisionTransformer(config, rng=rng), {1: 0.7, 2: 0.5},
                    rng=rng)
    model.eval()
    images = rng.normal(size=(12, 3, 16, 16))
    return model, images


def surgered(model, bits):
    """The reference: quantize_model surgery on a deep copy."""
    sim = copy.deepcopy(model)
    quantize_model(sim, bits=bits, per_channel=PER_CHANNEL_CHILDREN)
    sim.eval()
    return sim


class TestReferenceKernels:
    """The float64 layer norm is a bitwise mirror of the Tensor chain --
    same operations in the same order."""

    def test_layer_norm_bitwise(self, rng):
        x = rng.normal(size=(3, 5, 8))
        weight, bias = rng.normal(size=8), rng.normal(size=8)
        ref = F.layer_norm(Tensor(x), Tensor(weight), Tensor(bias),
                           eps=1e-6).data
        out = layer_norm_reference(x, weight, bias, 1e-6)
        assert out.tobytes() == ref.tobytes()


class TestFastKernels:
    """The float32 in-place kernels track the float64 definitions to
    float32 rounding and preserve the structural invariants.  (The
    Eq. 12 GELU is pinned in ``test_property_fastpath.py``.)"""

    def test_softmax_close_and_normalized(self, rng):
        ws = Workspace(np.float32)
        scores64 = rng.normal(size=(2, 3, 9, 9)) * 8
        ref = softmax_approx(scores64, delta2=1.0)
        scores32 = np.ascontiguousarray(scores64, dtype=np.float32)
        out = approx_softmax_fast(scores32, None, 1.0, ws, "s")
        assert out is scores32
        np.testing.assert_allclose(out, ref, atol=2e-6)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)

    def test_softmax_padding_rows_get_exact_zero(self, rng):
        """A -1e9 key bias must produce exactly-0.0 attention weight --
        the engine's padding invariant survives the approximation."""
        ws = Workspace(np.float32)
        scores = np.ascontiguousarray(rng.normal(size=(2, 2, 5, 5)),
                                      dtype=np.float32)
        bias = np.zeros((2, 5), dtype=np.float32)
        bias[:, -2:] = -1e9                     # two masked keys
        out = approx_softmax_fast(scores, bias, 1.0, ws, "p")
        assert np.all(out[..., -2:] == 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-5)

    def test_quantize_fast_matches_reference_scale_free(self, rng):
        ws = Workspace(np.float32)
        x = np.ascontiguousarray(rng.normal(size=(4, 16)) * 3,
                                 dtype=np.float32)
        q, scale = quantize_fast(x.copy(), 127, ws, "q")
        assert np.all(q == np.rint(q))          # integer-valued
        assert np.abs(q).max() <= 127
        params = calibrate_minmax(x.astype(np.float64), bits=8)
        assert scale == pytest.approx(params.scale, rel=1e-6)

    def test_quantize_fast_rejects_non_finite(self):
        ws = Workspace(np.float32)
        bad = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            quantize_fast(bad, 127, ws, "q")

    @pytest.mark.parametrize("amax", [1e-36, 3e-37, 1e-38, 1e-45])
    def test_quantize_fast_tiny_abs_max(self, rng, amax):
        """Below an abs-max of ~3.7e-37 the reciprocal of ``amax/qmax``
        is inf in float32; the scale floor keeps ``q`` finite, integer
        and within ``qmax``."""
        x = (amax * np.sign(rng.normal(size=(3, 8)))).astype(np.float32)
        q, scale = quantize_fast(x, 127, Workspace(np.float32), "q")
        assert np.isfinite(q).all() and scale > 0.0
        assert np.all(q == np.rint(q))
        assert np.abs(q).max() <= 127


class TestQuantizedLinearKernel:
    def test_reference_apply_bitwise_vs_module(self, rng):
        linear = nn.Linear(16, 8, rng=rng)
        qmodule = QuantizedLinear.from_linear(linear, bits=8)
        kernel = QuantizedLinearKernel.from_linear(
            linear, bits=8, dtype=np.dtype(np.float64), per_channel=False)
        x = rng.normal(size=(3, 5, 16))
        ref = qmodule(Tensor(x)).data
        out = kernel(x, Workspace(np.float64), "k")
        assert out.tobytes() == ref.tobytes()

    def test_per_channel_reference_bitwise(self, rng):
        linear = nn.Linear(12, 6, rng=rng)
        qmodule = QuantizedLinear.from_linear(linear, bits=8,
                                              per_channel=True)
        kernel = QuantizedLinearKernel.from_linear(
            linear, bits=8, dtype=np.dtype(np.float64), per_channel=True)
        x = rng.normal(size=(4, 12))
        assert kernel(x, Workspace(np.float64), "k").tobytes() == \
            qmodule(Tensor(x)).data.tobytes()

    @pytest.mark.parametrize("per_channel", [False, True],
                             ids=["per_tensor", "per_channel"])
    def test_float64_slices_and_strided_out_bitwise(self, rng, per_channel):
        """The float64 kernel prepared once and run over row slices (a
        block's fc1 tiles) or into a strided ``out`` (embed's token
        rows) is still bitwise ``QuantizedLinear.forward``: its GEMM
        operands are integers, exact below 2^53.  The input sits on the
        half-steps of its quantization grid, where the float32 grade's
        reciprocal-multiply quantizer rounds some values the other way:
        only the simulation's own quantizer is bitwise here."""
        linear = nn.Linear(16, 8, rng=rng)
        qmodule = QuantizedLinear.from_linear(linear, bits=8,
                                              per_channel=per_channel)
        kernel = QuantizedLinearKernel.from_linear(
            linear, bits=8, dtype=np.dtype(np.float64),
            per_channel=per_channel)
        amax = 2.0924042183036358
        x = (rng.integers(-126, 126, size=(5, 7, 16)) + 0.5) * (amax / 127)
        x[0, 0, 0] = amax
        fast, _ = quantize_fast(x.copy(), 127, Workspace(np.float64), "q")
        assert not np.array_equal(
            fast, quantize(x, calibrate_minmax(x, bits=8)))
        ref = qmodule(Tensor(x)).data
        ws = Workspace(np.float64)
        rows, rescale = kernel.prepare(x, ws, "k")
        tiled = np.empty_like(ref)
        kernel.gemm(rows[:2], rescale, tiled[:2])
        kernel.gemm(rows[2:], rescale, tiled[2:])
        assert tiled.tobytes() == ref.tobytes()
        buffer = np.zeros((5, 8, 8))
        kernel(x, ws, "k", out=buffer[:, 1:, :], inplace=True)
        assert buffer[:, 1:, :].tobytes() == ref.tobytes()
        assert not buffer[:, 0, :].any()

    @pytest.mark.parametrize("per_channel", [False, True],
                             ids=["per_tensor", "per_channel"])
    def test_apply_fast_is_the_integer_gemm(self, rng, per_channel):
        """Whatever GEMM shape ``apply_fast`` hands BLAS (one 2-D call
        into a contiguous ``out``, the batched call into a strided one),
        its result is bitwise the int64 GEMM of the quantized rows,
        rescaled and biased in float32."""
        linear = nn.Linear(64, 96, rng=rng)
        kernel = QuantizedLinearKernel.from_linear(
            linear, bits=8, dtype=np.dtype(np.float32),
            per_channel=per_channel)

        def expected(x):
            q, scale = quantize_fast(x.copy(), 127, Workspace(np.float32),
                                     "q")
            exact = q.astype(np.int64) @ kernel.w_q.astype(np.int64)
            out = exact.astype(np.float32)
            if per_channel:
                out *= kernel.scales * np.float32(scale)
            else:
                out *= np.float32(kernel.scales * scale)
            return out + kernel.bias

        x = rng.normal(size=(5, 17, 64)).astype(np.float32)
        ws = Workspace(np.float32)
        out = kernel.apply_fast(x, ws, "k")
        assert out.tobytes() == expected(x).tobytes()
        # embed's form: the token rows of a (B, 1 + T, N) buffer.
        buffer = np.zeros((5, 18, 96), dtype=np.float32)
        kernel.apply_fast(x, ws, "k", out=buffer[:, 1:, :])
        assert buffer[:, 1:, :].tobytes() == expected(x).tobytes()
        assert not buffer[:, 0, :].any()
        row = rng.normal(size=(1, 64)).astype(np.float32)
        assert kernel.apply_fast(row, ws, "k").tobytes() == \
            expected(row).tobytes()

    def test_float32_exact_window_rejected(self, rng):
        """127^2 * K beyond 2^24 can round inside a float32 GEMM, which
        would break bitwise parity -- the compile must refuse."""
        wide = nn.Linear(2048, 4, rng=rng)
        with pytest.raises(CompileError, match="exact"):
            QuantizedLinearKernel.from_linear(
                wide, bits=8, dtype=np.dtype(np.float32), per_channel=False)
        # The same reduction length is fine in float64 (2^53 window).
        QuantizedLinearKernel.from_linear(
            wide, bits=8, dtype=np.dtype(np.float64), per_channel=False)


class TestCompileValidation:
    def test_bits_out_of_range(self, quant_setup):
        model, _ = quant_setup
        for bits in (1, 17):
            with pytest.raises(CompileError):
                compile_quantized(model, bits=bits)

    def test_dtype_defaults(self, quant_setup):
        model, _ = quant_setup
        assert compile_quantized(model).dtype == np.dtype(np.float32)
        assert compile_quantized(model, bits=16).dtype == \
            np.dtype(np.float64)

    def test_int16_refuses_float32(self, quant_setup):
        model, _ = quant_setup
        with pytest.raises(CompileError):
            compile_quantized(model, bits=16, dtype=np.float32)

    def test_ragged_support_by_grade(self, quant_setup):
        model, _ = quant_setup
        # Stock float32 selectors lower to the one ragged kernel
        # pipeline; the parity grade runs each surgered selector
        # *module*, one dense stack per distinct count.
        assert all(type(s) is CompiledSelector
                   for s in compile_quantized(model).selectors)
        assert all(type(s) is ModuleSelector for s in compile_quantized(
            model, dtype=np.float64).selectors)


class TestEndToEndParity:
    def test_int8_f64_bitwise_vs_simulation(self, quant_setup):
        model, images = quant_setup
        ref = BucketedExecutor(surgered(model, 8),
                               backend="tensor").run(images)
        out = BucketedExecutor(model, backend="int8",
                               dtype=np.float64).run(images)
        assert out.logits.tobytes() == ref.logits.tobytes()
        assert len(out.tokens_per_stage) == len(ref.tokens_per_stage)
        for mine, theirs in zip(out.tokens_per_stage,
                                ref.tokens_per_stage):
            assert np.array_equal(mine, theirs)

    def test_int16_f64_bitwise_vs_simulation(self, quant_setup):
        model, images = quant_setup
        ref = BucketedExecutor(surgered(model, 16),
                               backend="tensor").run(images)
        out = BucketedExecutor(model, backend="int16").run(images)
        assert out.logits.tobytes() == ref.logits.tobytes()

    def test_int8_f32_agrees_with_f64(self, quant_setup):
        """The timed grade's stated tolerance against its f64 twin:
        top-1 and per-image keep decisions each agree on >= 90% of
        images (a selector score sitting exactly on the 0.5 threshold
        can flip with float32 rounding -- one image here does), any
        keep difference is a single token, and images whose token path
        matched have close logits.  (Close, not float32-rounding-equal:
        the activation quantization is dynamic, so a float32 abs-max
        can shift a rint boundary and move an activation by one whole
        quantization step.)"""
        model, images = quant_setup
        out64 = BucketedExecutor(model, backend="int8",
                                 dtype=np.float64).run(images)
        out32 = BucketedExecutor(model, backend="int8").run(images)
        top1 = np.mean(out32.logits.argmax(-1) == out64.logits.argmax(-1))
        assert top1 >= 0.9
        stages32 = np.stack(out32.tokens_per_stage)
        stages64 = np.stack(out64.tokens_per_stage)
        same_path = np.all(stages32 == stages64, axis=0)
        assert same_path.mean() >= 0.9
        assert np.abs(stages32 - stages64).max() <= 1
        assert np.abs(out32.logits[same_path]
                      - out64.logits[same_path]).max() < 0.02

    def test_dense_model_parity(self, rng):
        """No selectors: the pure block/classify pipeline, both grades."""
        config = ViTConfig(name="quant-dense", image_size=16, patch_size=8,
                           embed_dim=16, depth=2, num_heads=2,
                           num_classes=4)
        model = HeatViT(VisionTransformer(config, rng=rng), {}, rng=rng)
        model.eval()
        images = rng.normal(size=(5, 3, 16, 16))
        ref = BucketedExecutor(surgered(model, 8),
                               backend="tensor").run(images)
        out = BucketedExecutor(model, backend="int8",
                               dtype=np.float64).run(images)
        assert out.logits.tobytes() == ref.logits.tobytes()

    def test_tiny_valued_image_is_served(self, rng):
        """An image of all-1e-38 pixels is finite, so admission takes
        it; the float32 grade must serve it (its patch GEMM's abs-max is
        below where ``1/scale`` overflows float32) and land where the
        float64 grade does."""
        config = ViTConfig(name="quant-dense", image_size=32, patch_size=8,
                           embed_dim=64, depth=8, num_heads=4,
                           mlp_ratio=16.0, num_classes=8)
        model = HeatViT(VisionTransformer(config, rng=rng), {}, rng=rng)
        model.eval()
        images = np.full((1, 3, 32, 32), 1e-38)
        out32 = InferenceSession(model, backend="int8").submit(images)
        out64 = InferenceSession(model, backend="int8",
                                 dtype=np.float64).submit(images)
        assert np.isfinite(out32.logits).all()
        assert np.array_equal(out32.logits.argmax(-1),
                              out64.logits.argmax(-1))

    @pytest.mark.parametrize("act", [nn.ReLU, nn.Sigmoid],
                             ids=["ReLU", "Sigmoid"])
    def test_non_gelu_backbone_keeps_its_activation(self, rng, act):
        """A non-GELU MLP backbone serves what ``quantize_model`` makes
        of its activation -- ReLU stays exact, Sigmoid becomes PLAN, and
        neither becomes the polynomial GELU -- in both grades: float64
        bitwise with the simulation, float32 agreeing with it on
        top-1."""
        config = ViTConfig(name="quant-relu", image_size=16, patch_size=4,
                           embed_dim=16, depth=2, num_heads=2,
                           num_classes=4)
        backbone = VisionTransformer(config, rng=rng)
        for block in backbone.blocks:
            block.mlp.register_module("act", act())
        model = HeatViT(backbone, {1: 0.6}, rng=rng)
        model.eval()
        images = rng.normal(size=(12, 3, 16, 16))
        ref = BucketedExecutor(surgered(model, 8),
                               backend="tensor").run(images)
        out64 = BucketedExecutor(model, backend="int8",
                                 dtype=np.float64).run(images)
        assert out64.logits.tobytes() == ref.logits.tobytes()
        for mine, theirs in zip(out64.tokens_per_stage,
                                ref.tokens_per_stage):
            assert np.array_equal(mine, theirs)
        out32 = BucketedExecutor(model, backend="int8").run(images)
        top1 = np.mean(out32.logits.argmax(-1) == ref.logits.argmax(-1))
        assert top1 >= 0.9


class TestSessionIntegration:
    def test_session_reports_backend_and_dtype(self, quant_setup):
        model, _ = quant_setup
        session = InferenceSession(model, batch_size=8, backend="int8")
        assert session.backend == "int8"
        assert session.dtype == np.dtype(np.float32)

    def test_unknown_backend_rejected(self, quant_setup):
        model, _ = quant_setup
        with pytest.raises(ValueError, match="backend"):
            InferenceSession(model, backend="int4")
