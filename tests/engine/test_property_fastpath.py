"""Property-based tests (hypothesis) for the fused fast-path kernels.

The fused masked softmax must behave like a softmax no matter the
scores: every row sums to 1, masked (padded) keys carry exactly zero
weight, and real-key probabilities match the Tensor reference softmax
-- on the shift-free branch and, with scores large enough to leave its
guard, on the max-shifted one.  The fused LayerNorm is
held against the Tensor reference, with and without its affine folded
away.  The lean rational GELU is pinned from both sides (accuracy in
both dtypes, its fixed points, no overflow), the int8 grade's Eq. 12
GELU the same way against its float64 definition, and a compiled block must
compute the same thing whether it sees a batch at once or image by
image -- the property its cache-resident chunk loop rests on.  The
float32 sigmoid is held within 4 ulp of ``scipy.special.expit`` over
every finite float32, with exact fixed points and no floating-point
warning whatever the caller's ``np.errstate``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.approx import ERF_B, gelu_approx
from repro.core import HeatViT, PruningRecord
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import InferenceSession
from repro.engine.fastpath import (CompiledBlock, Workspace, compile_model,
                                   compile_quantized, fused_layer_norm,
                                   gelu_exact, gelu_rational,
                                   mask_to_bias, masked_softmax, sigmoid)
from repro.engine.fastpath.compiled import CHUNK_BYTES
from repro.engine.fastpath.qkernels import approx_gelu_fast, quantize_fast
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.vit import VisionTransformer, ViTConfig

finite = st.floats(-30.0, 30.0, allow_nan=False, width=32)


def scores_case(draw, max_b=4, max_h=3, max_t=12):
    b = draw(st.integers(1, max_b))
    h = draw(st.integers(1, max_h))
    t = draw(st.integers(1, max_t))
    values = draw(st.lists(finite, min_size=b * h * t * t,
                           max_size=b * h * t * t))
    scores = np.array(values, dtype=np.float64).reshape(b, h, t, t)
    # Mask with at least one real key per image.
    real = draw(st.lists(st.integers(1, t), min_size=b, max_size=b))
    mask = np.zeros((b, t))
    for row, keep in enumerate(real):
        mask[row, :keep] = 1.0
    return scores, mask


@st.composite
def scores_and_mask(draw):
    return scores_case(draw)


class TestMaskedSoftmaxProperties:
    @given(case=scores_and_mask(), scale=st.sampled_from([1.0, 100.0]))
    @settings(max_examples=120, deadline=None)
    def test_rows_sum_to_one_and_padded_keys_zero(self, case, scale):
        """Sum-to-1 and exact zeros on masked keys, on every code path
        (``scale=100`` pushes scores outside the shift-free guard)."""
        scores, mask = case
        scores = scores * scale
        bias = mask_to_bias(mask, np.float64)
        out = masked_softmax(scores.copy(), bias, Workspace(np.float64))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        masked_cols = mask[:, None, None, :] == 0.0
        assert (out[np.broadcast_to(masked_cols, out.shape)] == 0.0).all()
        assert np.isfinite(out).all()

    @given(case=scores_and_mask())
    @settings(max_examples=120, deadline=None)
    def test_matches_tensor_reference(self, case):
        """Same probabilities as the reference masked softmax chain."""
        scores, mask = case
        bias = (1.0 - mask)[:, None, None, :] * (-1e9)
        ref = F.softmax(Tensor(scores + bias), axis=-1).data
        out = masked_softmax(scores.copy(), mask_to_bias(mask, np.float64),
                             Workspace(np.float64))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    @given(case=scores_and_mask())
    @settings(max_examples=60, deadline=None)
    def test_unmasked_matches_reference(self, case):
        scores, _ = case
        ref = F.softmax(Tensor(scores), axis=-1).data
        out = masked_softmax(scores.copy(), None, Workspace(np.float64))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    @given(case=scores_and_mask())
    @settings(max_examples=40, deadline=None)
    def test_three_dimensional_scores(self, case):
        """The bias broadcast must follow the scores' rank (the docs
        promise any >= 2-D scores, e.g. the selector's (M, h, 2))."""
        scores4, mask = case
        scores = scores4[:, 0]                  # (B, T, T)
        bias = (1.0 - mask)[:, None, :] * (-1e9)
        ref = F.softmax(Tensor(scores + bias), axis=-1).data
        out = masked_softmax(scores.copy(), mask_to_bias(mask, np.float64),
                             Workspace(np.float64))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)


@st.composite
def token_batches(draw):
    b = draw(st.integers(1, 5))
    t = draw(st.integers(1, 6))
    d = draw(st.integers(2, 16))
    values = draw(st.lists(finite, min_size=b * t * d, max_size=b * t * d))
    return np.array(values, dtype=np.float64).reshape(b, t, d)


class TestFusedLayerNormProperties:
    @given(x=token_batches())
    @settings(max_examples=120, deadline=None)
    def test_matches_tensor_reference(self, x):
        dim = x.shape[-1]
        rng = np.random.default_rng(dim)
        weight = rng.normal(size=dim)
        bias = rng.normal(size=dim)
        ref = F.layer_norm(Tensor(x), Tensor(weight), Tensor(bias),
                           eps=1e-6).data
        out = np.empty_like(x)
        fused_layer_norm(x, weight, bias, 1e-6, out, Workspace(np.float64))
        # Constant (zero-variance) rows normalize by 1/sqrt(eps) = 1e3,
        # amplifying the two implementations' differently-ordered
        # mean subtraction to ~|x| * eps_machine * 1e3 ~ 7e-12 at the
        # strategy's +/-30 bound -- the tolerance must clear that
        # cancellation floor.
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)

    @given(x=token_batches())
    @settings(max_examples=60, deadline=None)
    def test_affine_folded_form(self, x):
        """weight=None stops at the normalized activations (the affine
        lives in the next GEMM after compile-time folding)."""
        ref = F.layer_norm(Tensor(x), Tensor(np.ones(x.shape[-1])),
                           Tensor(np.zeros(x.shape[-1])), eps=1e-6).data
        out = np.empty_like(x)
        fused_layer_norm(x, None, None, 1e-6, out, Workspace(np.float64))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)


class TestGeluKernels:
    @given(values=st.lists(st.floats(-8.0, 8.0, allow_nan=False),
                           min_size=1, max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_exact_matches_reference(self, values):
        x = np.array(values, dtype=np.float64).reshape(1, -1)
        ref = F.gelu(Tensor(x)).data
        out = gelu_exact(x.copy(), Workspace(np.float64), "g")
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-15)

    @given(values=st.lists(st.floats(-8.0, 8.0, allow_nan=False),
                           min_size=1, max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_rational_close_to_exact(self, values):
        """A&S 7.1.26: erf error <= 1.5e-7 => GELU error <= ~|x| * 1e-7."""
        x = np.array(values, dtype=np.float64).reshape(1, -1)
        ref = F.gelu(Tensor(x)).data
        out = gelu_rational(x.copy(), Workspace(np.float64), "g")
        bound = 2e-7 * np.maximum(np.abs(x), 1.0)
        assert (np.abs(out - ref) <= bound).all()

    @staticmethod
    def assert_float32_close(x):
        """The docstring's float32 figure: within 6e-7 * max(|x|, 1) of
        the exact (float64) GELU."""
        ref = F.gelu(Tensor(x.astype(np.float64))).data
        out = gelu_rational(x.copy(), Workspace(np.float32), "g")
        assert out.dtype == np.float32
        assert (np.abs(out - ref) <= 6e-7 * np.maximum(np.abs(x), 1.0)).all()

    @given(values=st.lists(st.floats(-8.0, 8.0, allow_nan=False, width=32),
                           min_size=1, max_size=64))
    @settings(max_examples=120, deadline=None)
    def test_rational_float32_close_to_exact(self, values):
        self.assert_float32_close(
            np.array(values, dtype=np.float32).reshape(1, -1))

    def test_rational_float32_dense_sweep(self):
        self.assert_float32_close(
            np.linspace(-8.0, 8.0, 200001, dtype=np.float32)[None])

    def test_rational_fixed_points(self):
        """``max(x, 0) - |x|/2 P exp(-x^2/2)``: zero stays zero, the
        correction vanishes in float32 beyond |x| = 6, and a huge input
        overflows nothing on the way to ``exp``."""
        def gelu(values):
            x = np.array(values, dtype=np.float32)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return gelu_rational(x, Workspace(np.float32), "g")

        assert gelu([0.0])[0] == 0.0
        assert np.isfinite(gelu([-0.0])).all()
        high = np.linspace(6.0, 40.0, 69, dtype=np.float32)
        assert np.array_equal(gelu(high), high)
        assert (np.abs(gelu(-high)) <= 1e-7).all()
        assert np.array_equal(gelu([1e4, -1e4]), [1e4, 0.0])

    def test_rational_needs_finite_input(self):
        """The documented domain: at ``+-inf`` the correction term is
        ``0 * inf``, so a diverged activation comes out NaN, not inf."""
        x = np.array([np.inf, -np.inf], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            out = gelu_rational(x, Workspace(np.float32), "g")
        assert np.isnan(out).all()

    # The int8 serving grade's Eq. 12 GELU against its float64
    # definition, at the paper's delta1 and at no regularization.
    DELTAS = (0.5, 1.0)
    # Where the clip saturates the erf polynomial: |x| = -b * sqrt(2).
    KNEE = np.float32(-ERF_B * np.sqrt(2.0))

    @staticmethod
    def approx_gelu(values, delta1, ws=None):
        x = np.array(values, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return approx_gelu_fast(
                x, delta1, Workspace(np.float32) if ws is None else ws, "g")

    @classmethod
    def assert_approx_close(cls, x, delta1):
        """Within 1.5e-7 * max(|x|, 1) of :func:`gelu_approx`."""
        ref = gelu_approx(x.astype(np.float64), delta1)
        out = cls.approx_gelu(x, delta1)
        assert out.dtype == np.float32 and np.isfinite(out).all()
        assert (np.abs(out - ref)
                <= 1.5e-7 * np.maximum(np.abs(x.astype(np.float64)),
                                       1.0)).all()

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     width=32),
                           min_size=1, max_size=64),
           delta1=st.sampled_from(DELTAS))
    @settings(max_examples=200, deadline=None)
    def test_approx_close_to_definition(self, values, delta1):
        """Close and finite over the whole finite float32 range."""
        self.assert_approx_close(np.array(values, dtype=np.float32), delta1)

    @pytest.mark.parametrize("delta1", DELTAS)
    def test_approx_dense_sweep(self, delta1):
        self.assert_approx_close(
            np.linspace(-8.0, 8.0, 200001, dtype=np.float32), delta1)

    @pytest.mark.parametrize("delta1", DELTAS)
    def test_approx_fixed_points(self, delta1):
        """Zero stays zero; from the clip knee on the polynomial is
        exactly 1, so the output is ``(1 +- delta1) * x / 2`` -- at
        ``delta1 = 1`` the identity above the knee and zero below minus
        the knee -- and nothing overflows on the way at float32's max."""
        assert np.array_equal(self.approx_gelu([0.0, -0.0], delta1),
                              [0.0, 0.0])
        knee = [np.nextafter(self.KNEE, np.float32(0.0)), self.KNEE,
                np.nextafter(self.KNEE, np.float32(np.inf))]
        self.assert_approx_close(np.array(knee + [-k for k in knee]), delta1)
        for big in (knee[1:], [1e30, 3.4e38]):
            big = np.array(big, dtype=np.float32)
            assert np.array_equal(self.approx_gelu(big, delta1),
                                  big * np.float32((1 + delta1) / 2))
            assert np.array_equal(self.approx_gelu(-big, delta1),
                                  -big * np.float32((1 - delta1) / 2))

    def test_approx_in_place(self, rng):
        x = (rng.normal(size=(6, 33)) * 3).astype(np.float32)
        expected = self.approx_gelu(x, 0.5)
        assert approx_gelu_fast(x, 0.5, Workspace(np.float32), "g") is x
        assert x.tobytes() == expected.tobytes()

    def test_approx_workspace_reuse_is_bitwise(self, rng):
        """Same bits from a fresh workspace and from one whose arenas a
        larger, differently shaped call already grew -- with ``x``
        itself a view of that workspace, as in a compiled block."""
        x = (rng.normal(size=(5, 17, 40)) * 3).astype(np.float32)
        fresh = self.approx_gelu(x, 0.5).tobytes()
        ws = Workspace(np.float32)
        self.approx_gelu(rng.normal(size=(7, 300)) * 3, 0.5, ws)
        served = ws.take("blk_mlp", x.shape)
        served[...] = x
        approx_gelu_fast(served, 0.5, ws, "g")
        assert served.tobytes() == fresh


def ulp_distance(a, b):
    """Representable float32 values between ``a`` and ``b``, elementwise
    (``+0`` and ``-0`` are one value)."""
    def ordered(x):
        bits = np.asarray(x, dtype=np.float32).view(np.int32).astype(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)
    return np.abs(ordered(a) - ordered(b))


class TestSigmoidKernel:
    """The float32 selector's sigmoid against ``scipy.special.expit``,
    which float64 compiles keep: both evaluate ``1 / (1 + exp(-x))`` in
    float32, and only the ``exp`` differs."""

    ULPS = 4

    @staticmethod
    def sigmoid32(values):
        x = np.array(values, dtype=np.float32)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x, None, None)
        assert out is x and out.dtype == np.float32
        return out

    @classmethod
    def assert_close_to_expit(cls, x):
        expected = special.expit(x)
        assert expected.dtype == np.float32
        assert ulp_distance(cls.sigmoid32(x), expected).max() <= cls.ULPS

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     width=32), min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_within_ulps_of_expit(self, values):
        self.assert_close_to_expit(np.array(values, dtype=np.float32))

    def test_dense_sweep(self):
        """Every region: saturated at both ends, the exp overflow at
        ~-88.7, subnormal results just above it, and the steep middle."""
        self.assert_close_to_expit(
            np.linspace(-100.0, 100.0, 2_000_001, dtype=np.float32))

    def test_fixed_points(self):
        out = self.sigmoid32([np.inf, -np.inf, 0.0, -0.0, 1e30, -1e30])
        assert out.tolist() == [1.0, 0.0, 0.5, 0.5, 1.0, 0.0]

    def test_in_place_on_a_view(self, rng):
        """A strided view is written through and nothing else moves."""
        base = rng.normal(size=(6, 8)).astype(np.float32) * 20
        expected = base.copy()
        expected[:, ::2] = special.expit(base[:, ::2])
        view = base[:, ::2]
        assert sigmoid(view, None, None) is view
        assert ulp_distance(base, expected).max() <= self.ULPS
        assert np.array_equal(base[:, 1::2], expected[:, 1::2])


# The benchmark suite's pruned shape (benchmarks/suite/models.py): at 65
# tokens one float32 chunk is 8 images, so batches up to 40 run the
# chunk loop several times over.
SUITE_PRUNED = ViTConfig(name="suite", image_size=32, patch_size=4,
                         embed_dim=48, depth=12, num_heads=4,
                         mlp_ratio=4.0, num_classes=8)


@pytest.fixture(scope="module")
def suite_model():
    backbone = VisionTransformer(SUITE_PRUNED, rng=np.random.default_rng(0))
    model = HeatViT(backbone, {3: 0.7, 6: 0.5, 9: 0.35},
                    rng=np.random.default_rng(1))
    model.eval()
    return model


@pytest.fixture(scope="module")
def suite_blocks(suite_model):
    """The model's first block compiled once per dtype."""
    return {dtype: compile_model(suite_model, dtype).blocks[0]
            for dtype in (np.float32, np.float64)}


@pytest.fixture(scope="module")
def suite_canary():
    """The suite's canary batch (``make_images(32, CANARY_SEED)``)."""
    config = SyntheticConfig(image_size=32, num_classes=8,
                             object_scale_range=(0.15, 0.9))
    return generate_dataset(config, 32, np.random.default_rng(0)).images


def block_bytes(ws):
    """What the block kernels' ``blk_*`` arenas of a workspace hold."""
    return sum(arena.nbytes for name, arena in ws._arenas.items()
               if name.startswith("blk_"))


# One block of the benchmark suite's DENSE shape: 17 tokens, a 1024-wide
# MLP -- where an int8 fc1 -> GELU runs in several tiles.
SUITE_DENSE_BLOCK = ViTConfig(name="dense", image_size=32, patch_size=8,
                              embed_dim=64, depth=1, num_heads=4,
                              mlp_ratio=16.0, num_classes=8)


class _CountingActivation:
    """Wraps a compiled block's activation slot and records how many
    images each call saw."""

    def __init__(self, block):
        self.act, self.rows = block.act, []
        block.act = self

    def __call__(self, x, ws, key):
        self.rows.append(x.shape[0])
        return self.act(x, ws, key)


def int8_whole_batch(block, x, delta1):
    """An int8 serving block on the whole batch in one pass: every
    linear quantizes its whole input, runs numpy's batched GEMM,
    rescales and adds its bias; the Eq. 12 GELU (``delta1``) sees the
    whole hidden layer."""
    ws = Workspace(np.float32)
    batch, tokens, dim = x.shape
    h, d = block.num_heads, block.head_dim

    def linear(kernel, rows):
        q, scale = quantize_fast(rows, kernel.qmax, ws, "ref_q")
        out = np.matmul(q, kernel.w_q)
        if kernel.per_channel:
            out *= kernel.scales * np.float32(scale)
        else:
            out *= np.float32(kernel.scales * scale)
        return out + kernel.bias

    def norm(rows, weight, bias, eps):
        return fused_layer_norm(rows, weight, bias, eps,
                                out=np.empty_like(rows), ws=ws, key="ref_ln")

    qkv = linear(block.qkv, norm(x, block.n1_w, block.n1_b, block.eps1))
    split = qkv.reshape(batch, tokens, 3, h, d)
    scores = np.matmul(split[:, :, 0].transpose(0, 2, 1, 3),
                       split[:, :, 1].transpose(0, 2, 3, 1))
    if block.score_scale is not None:
        scores *= np.float32(block.score_scale)
    block.softmax(scores, None, ws=ws, key="ref_sm")
    context = np.matmul(scores, split[:, :, 2].transpose(0, 2, 1, 3))
    x = x + linear(block.proj,
                   context.transpose(0, 2, 1, 3).reshape(batch, tokens, dim))
    hidden = linear(block.fc1, norm(x, block.n2_w, block.n2_b, block.eps2))
    hidden = approx_gelu_fast(hidden, delta1, ws, "ref_act")
    return x + linear(block.fc2, hidden)


@pytest.fixture(scope="module")
def suite_traffic(suite_model, suite_canary):
    """One float32 ``batch_size=32`` session on the suite's PRUNED shape
    through a full batch, 100 submits of random size, and the same 100
    again; what its workspace read after each."""
    session = InferenceSession(suite_model, batch_size=32,
                               backend="fastpath", dtype=np.float32)
    ws = session.executor.workspace
    readings = {}

    def read(label):
        readings[label] = {"arenas": len(ws), "nbytes": ws.nbytes,
                           "block_bytes": block_bytes(ws),
                           "allocations": ws.allocations}

    session.submit(suite_canary)
    read("full batch")
    rng = np.random.default_rng(19)
    picks = [rng.choice(32, size=rng.integers(1, 33), replace=False)
             for _ in range(100)]
    for label in ("random sizes", "second pass"):
        for pick in picks:
            session.submit(suite_canary[pick])
        read(label)
    return readings


class TestChunkedBlockExecution:
    @given(batch=st.integers(1, 40), tokens=st.integers(2, 70),
           masked=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_image_by_image(self, suite_blocks, batch, tokens,
                                         masked, dtype, seed):
        """Chunks are an execution detail: a block run on the batch
        equals the same block run on each image alone.  Not asserted
        bitwise -- BLAS may pick its kernel by the row count."""
        block = suite_blocks[dtype]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, tokens, 48)).astype(dtype)
        bias = None
        if masked:
            mask = (np.arange(tokens)
                    < rng.integers(1, tokens + 1, size=(batch, 1)))
            bias = mask_to_bias(mask, dtype)
        ws = Workspace(dtype)
        whole = block.forward(x.copy(), bias, ws)
        alone = np.concatenate([
            block.forward(x[i:i + 1].copy(),
                          None if bias is None else bias[i:i + 1], ws)
            for i in range(batch)])
        tol = 1e-6 if dtype is np.float32 else 1e-12
        assert (np.abs(whole - alone)
                <= tol * np.maximum(np.abs(alone), 1.0)).all()

    def test_canary_batch_decisions_unchanged(self, suite_model,
                                              suite_canary):
        """A 32-image submit (four chunks in the first stage) keeps the
        same tokens and lands on the same classes as the Tensor
        reference -- the suite's own output check."""
        record = PruningRecord()
        reference = suite_model.forward_pruned(suite_canary,
                                               record=record).data
        result = InferenceSession(suite_model, batch_size=32,
                                  backend="fastpath",
                                  dtype=np.float32).submit(suite_canary)
        assert np.array_equal(result.logits.argmax(-1),
                              reference.argmax(-1))
        assert np.abs(result.logits - reference).max() <= 1e-5
        for ours, theirs in zip(result.tokens_per_stage,
                                record.tokens_per_stage):
            assert np.array_equal(ours, theirs)

    def test_block_scratch_is_chunk_sized(self, suite_traffic):
        """A chunk's tail and every later, shorter stage run in views
        of the first chunks' arenas, so ALL block scratch together stays
        at one chunk's budget -- after a 32-image submit (four chunks in
        the first stage) and after any traffic.  (The slack: each arena
        holds its own largest request, and those come from different
        token counts.)"""
        for label in ("full batch", "random sizes"):
            assert 0 < suite_traffic[label]["block_bytes"] <= (
                1.1 * CHUNK_BYTES), label

    def test_session_memory_is_bounded_by_construction(self,
                                                       suite_traffic):
        """What a session holds follows from the code's scratch names
        and its ``batch_size``, not from how many shapes pruning
        produced: a few MB in a few dozen arenas after 100 submits of
        random size, and a repeat of that traffic allocates nothing."""
        after = suite_traffic["random sizes"]
        assert after["nbytes"] <= 10e6 and after["arenas"] <= 80
        assert suite_traffic["second pass"] == after

    def test_int8_block_tiles_fc1_bitwise(self, rng):
        """The int8 serving grade calibrates one activation scale per
        tensor over the whole batch, so its block runs the batch as one
        chunk; only fc1 -> GELU runs in tiles, after fc1's input is
        quantized whole.  At the suite's DENSE block shape, for one
        image, one tile, one tile plus a one-image tail and several
        tiles, that is bitwise the whole-batch arithmetic."""
        model = VisionTransformer(SUITE_DENSE_BLOCK, rng=rng)
        model.eval()
        block = compile_quantized(model).blocks[0]
        assert type(block) is CompiledBlock and not block.image_separable
        tokens, dim, hidden = 17, 64, block.hidden_dim
        tile = block.mlp_tile(tokens, 4)
        assert tile > 1
        delta1 = block.act.delta1
        activations = _CountingActivation(block)
        for batch in (1, tile, tile + 1, 3 * tile + 2):
            x = rng.normal(size=(batch, tokens, dim)).astype(np.float32)
            ws = Workspace(np.float32)
            activations.rows.clear()
            served = block.forward(x.copy(), None, ws)
            assert served.tobytes() == int8_whole_batch(block, x,
                                                      delta1).tobytes()
            assert activations.rows == [min(tile, batch - lo)
                                        for lo in range(0, batch, tile)]
            assert ws._arenas["blk_ln"].size == x.size
            for name, arena in ws._arenas.items():
                if name.startswith("blk_act"):
                    assert 0 < arena.size <= tile * tokens * hidden, name
        # ... where the float block of the same shape chunks: no arena
        # of its workspace ever held the batch, and each chunk is one
        # MLP tile.
        block = compile_model(model).blocks[0]
        activations = _CountingActivation(block)
        x = rng.normal(size=(32, tokens, dim)).astype(np.float32)
        ws = Workspace(np.float32)
        block.forward(x, None, ws)
        chunk = ws._arenas["blk_ln"].size // (tokens * dim)
        assert 0 < chunk < 32
        assert activations.rows == [min(chunk, 32 - lo)
                                    for lo in range(0, 32, chunk)]
        assert block_bytes(ws) <= 1.1 * CHUNK_BYTES


class TestWorkspacePooling:
    @given(takes=st.lists(
        st.tuples(st.sampled_from("abc"),
                  st.lists(st.integers(0, 5), min_size=1, max_size=3)
                  .map(tuple)),
        min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_reuse_is_keyed_by_name_and_shape(self, takes):
        """Reuse is keyed by name alone and the shape only picks the
        view: any ``(name, shape)`` sequence leaves one arena per name,
        as large as that name's largest request, and writing through
        one name's view never shows through another's."""
        ws = Workspace(np.float32)
        largest, written = {}, {}
        for stamp, (name, shape) in enumerate(takes, start=1):
            view = ws.take(name, shape)
            assert view.shape == shape and view.dtype == np.float32
            assert view.flags.c_contiguous
            view[...] = stamp
            written[name] = (shape, stamp)
            largest[name] = max(largest.get(name, 0), view.size)
            for other, (seen, value) in written.items():
                if other != name:
                    assert (ws.take(other, seen) == value).all()
        assert len(ws) == len(largest)
        assert ws.nbytes == 4 * sum(largest.values())
