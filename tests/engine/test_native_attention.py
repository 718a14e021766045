"""The float32 attention core over packed images (``ragged_attention_f32``
in ``fastpath/rows.c`` via ``native.NativeAttention``; numpy definition
:func:`.kernels.ragged_attention`).

Pinned here:

* its float32 bound against the float64 reference, for the native
  kernel and the numpy definition alike;
* an image's bits depend only on its own rows: alone, in any sub-range
  of the packed array, beside loud images, at any row offset;
* edge shapes (one token, lengths off the 16-float vector, 65 tokens)
  and head widths other than the suite's 12, from the repo's configs;
* which core a compile installs: native where gcc works, numpy without
  a compiler, none on float64 and the quantized grades -- and that a
  pickled float32 session reinstalls it when unpickled, before its first
  request.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeatViT, PruningRecord
from repro.engine import InferenceSession, compile_quantized
from repro.engine.fastpath import Workspace, compile_model, native
from repro.engine.fastpath.kernels import ragged_attention
from repro.engine.fastpath.native import NativeAttention
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.vit import VisionTransformer
from repro.vit.config import DEIT_T_160, DEIT_TINY
from tests.engine.test_native_gelu import SRC, fresh, needs_gcc  # noqa: F401

_ULP = 2.0 ** -24


def native_attention():
    """The float32 compile's attention core, which must be the native
    one."""
    kernel = native.attention_kernel()
    assert isinstance(kernel, NativeAttention)
    return kernel


def numpy_attention(qkv, offsets, heads, out):
    return ragged_attention(qkv, offsets, heads, out, Workspace(np.float32))


def _packed(rng, lengths, heads, d, scale=2.0):
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    qkv = (rng.normal(size=(offsets[-1], 3 * heads * d))
           * scale).astype(np.float32)
    return qkv, offsets


def _run(kernel, qkv, offsets, heads):
    out = np.full((qkv.shape[0], qkv.shape[1] // 3), np.nan, np.float32)
    assert kernel(qkv, offsets, heads, out) is out
    return out


def assert_within_bound(kernel, qkv, offsets, heads):
    """Every context feature within ``8 * 2^-24 * max|v| * (1 + A)`` of
    the float64 reference on the same float32 input, per image and
    head, where ``A`` is the query's largest ``sum_j |q_j k_j|``: a
    score is rounded to ``A``'s ulp, the softmax's normalisation
    doubles that in a weight, and the value sum adds a few ulps of
    ``max|v|``.  Measured worst cases are about 1/8 (native) and 1/5
    (numpy) of it."""
    out = _run(kernel, qkv, offsets, heads)
    assert out.dtype == np.float32
    d = qkv.shape[1] // 3 // heads
    for lo, hi in zip(offsets, offsets[1:]):
        rows = qkv[lo:hi].astype(np.float64).reshape(hi - lo, 3, heads, d)
        q, k, v = (rows[:, i].transpose(1, 0, 2) for i in range(3))
        weights = F.softmax(Tensor(q @ k.transpose(0, 2, 1)), axis=-1).data
        ref = weights @ v                                   # (h, T, d)
        spread = (np.abs(q) @ np.abs(k).transpose(0, 2, 1)).max(-1)
        bound = (8 * _ULP * np.abs(v).max(axis=(1, 2))[:, None]
                 * (1.0 + spread))                          # (h, T)
        got = out[lo:hi].reshape(hi - lo, heads, d).transpose(1, 0, 2)
        assert (np.abs(got - ref).max(-1) <= bound).all()


@st.composite
def packed_cases(draw):
    heads = draw(st.integers(1, 4))
    d = draw(st.sampled_from([1, 5, 12, 16, 17, 40, 64]))
    lengths = draw(st.lists(st.integers(1, 70), min_size=1, max_size=5))
    scale = draw(st.sampled_from([0.01, 0.5, 2.0, 8.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return (*_packed(rng, lengths, heads, d, scale), heads)


class TestFloat32Bound:
    @given(case=packed_cases())
    @settings(max_examples=40, deadline=None)
    def test_numpy_definition(self, case):
        assert_within_bound(numpy_attention, *case)

    @needs_gcc
    @given(case=packed_cases())
    @settings(max_examples=40, deadline=None)
    def test_native_core(self, case):
        assert_within_bound(native_attention(), *case)

    @pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [17], [33, 5],
                                         [65], [65, 1, 64, 16]])
    def test_edge_lengths(self, lengths, rng):
        """One token (its weight is exactly 1), lengths on and off the
        16-float vector, the suite's 65."""
        qkv, offsets = _packed(rng, lengths, 4, 12)
        assert_within_bound(numpy_attention, qkv, offsets, 4)
        if native.load() is not None:
            assert_within_bound(native_attention(), qkv, offsets, 4)
            one = offsets[np.flatnonzero(np.diff(offsets) == 1)]
            out = _run(native_attention(), qkv, offsets, 4)
            for row in one:                       # context = own value
                np.testing.assert_array_equal(out[row], qkv[row, 96:])

    @pytest.mark.parametrize("config", [DEIT_TINY, DEIT_T_160],
                             ids=lambda c: c.name)
    def test_paper_head_widths(self, config, rng):
        """Head widths of the repo's paper configs (64 and 40 features,
        against the suite's 12): the native core takes them, so it is
        what a float32 compile of such a model installs."""
        heads = config.num_heads
        d = config.embed_dim // heads
        assert d != 12
        qkv, offsets = _packed(rng, [1, 20, 65, 197], heads, d)
        assert_within_bound(numpy_attention, qkv, offsets, heads)
        if native.load() is not None:
            assert_within_bound(native_attention(), qkv, offsets, heads)

    def test_empty_and_zero_length_images(self, rng):
        qkv, offsets = _packed(rng, [3, 0, 2], 2, 5)
        for kernel in ([numpy_attention, native_attention()]
                       if native.load() is not None else [numpy_attention]):
            out = _run(kernel, qkv, offsets, 2)
            assert np.isfinite(out).all()
            empty = np.zeros((0, 30), np.float32)
            assert kernel(empty, np.zeros(1, np.int64), 2,
                          np.zeros((0, 10), np.float32)).shape == (0, 10)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint32)


@needs_gcc
class TestPositionIndependence:
    """An image's context bits depend only on its own rows: every image
    runs the same instructions whatever comes before or after it."""

    @given(lengths=st.lists(st.integers(1, 70), min_size=1, max_size=6),
           heads=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_alone_in_every_sub_range_and_beside_loud_images(
            self, lengths, heads, seed):
        kernel = native_attention()
        rng = np.random.default_rng(seed)
        qkv, offsets = _packed(rng, lengths, heads, 12)
        whole = _bits(_run(kernel, qkv, offsets, heads))
        n = len(lengths)
        for lo in range(n):
            for hi in range(lo + 1, n + 1):
                rows = slice(offsets[lo], offsets[hi])
                part = _run(kernel, qkv[rows], offsets[lo:hi + 1]
                            - offsets[lo], heads)
                assert np.array_equal(_bits(part), whole[rows]), (lo, hi)
        # The first image between images scored at 400x.
        loud, loud_offsets = _packed(rng, [9, lengths[0], 40], heads, 12,
                                     scale=800.0)
        mine = slice(loud_offsets[1], loud_offsets[2])
        loud[mine] = qkv[:offsets[1]]
        got = _bits(_run(kernel, loud, loud_offsets, heads))
        assert np.array_equal(got[mine], whole[:offsets[1]])

    @given(tokens=st.integers(1, 70), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_every_row_offset(self, tokens, seed):
        """After a leading image of 1-17 rows: every start modulo the
        four-query group and the 16-float vector."""
        kernel = native_attention()
        rng = np.random.default_rng(seed)
        qkv, offsets = _packed(rng, [tokens], 4, 12)
        alone = _bits(_run(kernel, qkv, offsets, 4))
        for lead in range(1, 18):
            filler, _ = _packed(rng, [lead], 4, 12)
            both = np.concatenate([filler, qkv])
            got = _run(kernel, both, np.array([0, lead, lead + tokens]), 4)
            assert np.array_equal(_bits(got[lead:]), alone), lead

    def test_strided_operands_are_copied(self, rng):
        """A non-contiguous qkv or out runs through contiguous copies:
        the same bits, the host array's other columns untouched."""
        kernel = native_attention()
        qkv, offsets = _packed(rng, [7, 20], 4, 12)
        whole = _run(kernel, qkv, offsets, 4)
        host = np.repeat(qkv, 2, axis=1)[:, ::2]
        assert not host.flags.c_contiguous
        out = np.zeros((27, 96), np.float32)
        kernel(host, offsets, 4, out[:, ::2])
        assert np.array_equal(_bits(out[:, ::2]), _bits(whole))
        assert not out[:, 1::2].any()


@needs_gcc
class TestRefusals:
    """The C loop trusts its sizes, so the wrapper and the loop check
    them."""

    def test_float32_only(self, rng):
        qkv, offsets = _packed(rng, [3], 1, 4)
        with pytest.raises(TypeError):
            native_attention()(qkv.astype(np.float64), offsets, 1,
                               np.zeros((3, 4)))

    def test_mismatched_shapes(self, rng):
        qkv, offsets = _packed(rng, [3], 2, 4)
        with pytest.raises(ValueError):
            native_attention()(qkv, offsets, 2, np.zeros((3, 5), np.float32))
        with pytest.raises(ValueError):
            native_attention()(qkv, offsets, 3, np.zeros((3, 8), np.float32))

    @pytest.mark.parametrize("offsets", [[0, 4], [0, 2], [1, 3], [0, 2, 1, 3],
                                         []])
    def test_offsets_that_do_not_cut_the_rows(self, rng, offsets):
        qkv, _ = _packed(rng, [3], 1, 4)
        with pytest.raises(ValueError):
            native_attention()(qkv, np.array(offsets, np.int64), 1,
                               np.zeros((3, 4), np.float32))


@pytest.fixture(scope="module")
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(3))
    model.eval()
    return model


def _cores(compiled):
    return {type(block.attention).__name__ for block in compiled.blocks}


class TestWhichCore:
    @needs_gcc
    def test_float32_compiles_install_the_native_core(self, model):
        compiled = compile_model(model, np.float32)
        assert all(isinstance(block.attention, NativeAttention)
                   for block in compiled.blocks)
        assert compiled.packs

    def test_no_compiler_installs_the_numpy_core(self, model, tiny_dataset,
                                                 monkeypatch, fresh):
        """The float32 lane packs whether or not gcc exists: only the
        core's kernel changes."""
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        compiled = compile_model(model, np.float32)
        assert all(block.attention is ragged_attention
                   for block in compiled.blocks)
        session = InferenceSession(model, backend="fastpath",
                                   dtype=np.float32)
        served = session.submit(tiny_dataset.images[:12])
        assert [s.num_buckets for s in served.stage_stats] == [1, 1]
        assert all(s.padded_tokens == 0 for s in served.stage_stats)
        assert session.executor.plan_cache_misses == 0
        assert not any(fresh.iterdir())

    def test_float64_and_quantized_grades_hold_no_core(self, model):
        for compiled in (compile_model(model, np.float64),
                         compile_quantized(model, dtype=np.float32),
                         compile_quantized(model, dtype=np.float64)):
            assert _cores(compiled) == {"NoneType"}
            assert not compiled.packs

    def test_a_paper_head_width_serves_within_bound(self, rng):
        """A DeiT-Tiny-wide model (64-feature heads) scaled to 17
        tokens: the float32 lane keeps the reference's tokens and
        argmax, its logits within 1e-5."""
        config = DEIT_TINY.scaled(image_size=32, patch_size=8, depth=3,
                                  num_classes=5)
        backbone = VisionTransformer(config, rng=np.random.default_rng(2))
        model = HeatViT(backbone, {1: 0.5}, rng=np.random.default_rng(4))
        model.eval()
        images = rng.normal(size=(9, 3, 32, 32))
        record = PruningRecord()
        reference = model.forward_pruned(images, record=record).data
        served = InferenceSession(model, backend="fastpath",
                                  dtype=np.float32).submit(images)
        assert np.abs(served.logits - reference).max() <= 1e-5
        assert np.array_equal(served.logits.argmax(-1),
                              reference.argmax(-1))
        for ours, theirs in zip(served.tokens_per_stage,
                                record.tokens_per_stage):
            assert np.array_equal(ours, theirs)


# Unpickle a float32 session in a fresh interpreter and report which
# core its blocks hold, whether the library loaded before any request,
# and what a request imported.
UNPICKLE = textwrap.dedent("""
    import json
    import pickle
    import sys
    from repro.engine.fastpath import native

    with open(sys.argv[1], "rb") as handle:
        session, images = pickle.load(handle)
    cores = sorted({type(block.attention).__name__
                    for block in session.executor.compiled.blocks})
    loaded = native._library is not None
    before = set(sys.modules)
    logits = session.submit(images).logits
    print(json.dumps([cores, loaded, sorted(set(sys.modules) - before),
                      logits.tobytes().hex()]))
""")


@needs_gcc
def test_pickled_session_reinstalls_the_core_when_unpickled(
        model, tiny_dataset, tmp_path):
    images = tiny_dataset.images[:10]
    session = InferenceSession(model, backend="fastpath", dtype=np.float32)
    path = tmp_path / "session.pkl"
    path.write_bytes(pickle.dumps((session, images)))
    child = subprocess.run(
        [sys.executable, "-c", UNPICKLE, str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    cores, loaded, imported, logits = json.loads(child.stdout)
    assert cores == ["NativeAttention"]
    assert loaded
    assert imported == []
    assert logits == session.submit(images).logits.tobytes().hex()


def _suite_twin(use_packager):
    """The suite's PRUNED model (``benchmarks/suite/models.py``), or its
    twin without the Eq. 10 packager."""
    from benchmarks.suite.models import PRUNED, build_model

    model = build_model(PRUNED)
    if use_packager:
        return model
    twin = HeatViT(model.backbone, PRUNED["selectors"],
                   rng=np.random.default_rng(1), use_packager=False)
    twin.eval()
    return twin


@pytest.mark.parametrize("use_packager", [True, False],
                         ids=["pruned", "no-packager"])
def test_float32_lane_keeps_the_float64_decisions(use_packager):
    """The packed float32 lane against the bucketed float64 one (itself
    pinned to ``forward_pruned`` within 1e-8): the same
    ``tokens_per_stage`` and argmax on every image of
    ``make_images(256, s)``, s = 0-4, and the suite's canary batch, in
    32-image submits, logits within 1e-5."""
    from benchmarks.suite.models import make_images

    model = _suite_twin(use_packager)
    packed = InferenceSession(model, backend="fastpath", dtype=np.float32)
    bucketed = InferenceSession(model, backend="fastpath", dtype=np.float64)
    for images in [make_images(256, s) for s in range(5)] + [
            make_images(32, 0)]:
        ours, theirs = packed.submit(images), bucketed.submit(images)
        assert all(s.num_buckets == 1 and s.padded_tokens == 0
                   for s in ours.stage_stats)
        assert np.array_equal(ours.logits.argmax(-1),
                              theirs.logits.argmax(-1))
        assert np.abs(ours.logits - theirs.logits).max() <= 1e-5
        for got, want in zip(ours.tokens_per_stage,
                             theirs.tokens_per_stage):
            assert np.array_equal(got, want)
