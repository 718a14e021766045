"""The int8 float32 hidden layer's native passes (``fastpath/qmlp.c``).

:class:`FusedHiddenLayer` runs fc1's rescale and bias plus the Eq. 12
GELU as one tile pass, and fc2's input quantization as one more, where
the native library loads.  Its contract is the numpy kernels' bits:
here the two passes equal :func:`approx_gelu_fast` and
:func:`quantize_fast` bitwise at any shape and offset, the guards of
:func:`quantize_fast` hold on the fused path, the int8 float32 lane
serves the same logits with and without a compiler, and a pickled int8
session loads the library when it is unpickled.  The build rules
(per-source flags, one cache key) are pinned at the end.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeatViT
from repro.engine import (BucketedExecutor, InferenceSession,
                          compile_quantized)
from repro.engine.fastpath import Workspace, compile_model, compiled, native
from repro.engine.fastpath.kernels import gelu_rational, ragged_attention
from repro.engine.fastpath.qkernels import (approx_gelu_fast,
                                            gelu_fast_constants,
                                            quantize_fast)
from repro.engine.fastpath.quantized import FusedHiddenLayer
from repro.vit import VisionTransformer, ViTConfig
from tests.engine.test_native_gelu import fresh  # noqa: F401

SRC = Path(__file__).resolve().parents[2] / "src"
DELTA1 = 1.0
QMAX = 127


def _gcc():
    compiler = native.find_compiler()
    if compiler is None:
        return False
    child = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
    return child.returncode == 0 and "clang" not in child.stdout


needs_gcc = pytest.mark.skipif(not _gcc(), reason="no gcc on this host")


def native_layer():
    layer = FusedHiddenLayer(DELTA1)
    assert layer._library is not None
    return layer


def numpy_tile(x, rescale, bias):
    """The numpy lane's passes over one fc1 tile: rescale, bias, Eq. 12."""
    x *= rescale
    if bias is not None:
        x += bias
    return approx_gelu_fast(x, DELTA1, Workspace(np.float32), "g")


def _near_clip(rng, size):
    """Values within a few ulps of the Eq. 12 clip bound, both signs."""
    clip = np.float32(gelu_fast_constants(DELTA1)[0])
    steps = rng.integers(-4, 5, size)
    near = np.array([np.float32(clip)] * size)
    for _ in range(4):
        near = np.where(steps > 0, np.nextafter(near, np.float32(np.inf)),
                        near)
        near = np.where(steps < 0, np.nextafter(near, np.float32(0)), near)
        steps = steps - np.sign(steps)
    return (near * rng.choice([-1, 1], size)).astype(np.float32)


@needs_gcc
class TestPassesBitwise:
    """Each op in ``qmlp.c`` is one IEEE rounding in numpy's order, so
    both passes give numpy's bits -- at any width, also one that no
    vector width divides, and at any start offset in a buffer."""

    @given(rows=st.integers(1, 70), cols=st.integers(1, 1100),
           seed=st.integers(0, 2 ** 32 - 1), per_channel=st.booleans(),
           with_bias=st.booleans(), exact=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_tile_and_quantize_equal_numpy(self, rows, cols, seed,
                                           per_channel, with_bias, exact):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(rows, cols))
             * 10.0 ** rng.uniform(-3, 3)).astype(np.float32)
        # Some values sit on the clip bound after the rescale and bias
        # (an exact rescale of 1 and no bias put them there verbatim).
        picks = rng.random((rows, cols)) < 0.3
        x[picks] = _near_clip(rng, int(picks.sum()))
        if exact:
            rescale, bias = np.float32(1.0), None
        else:
            rescale = (rng.random(cols).astype(np.float32) * 0.02
                       if per_channel else np.float32(rng.random() * 0.02))
            bias = (rng.normal(size=cols).astype(np.float32)
                    if with_bias else None)
        expected = numpy_tile(x.copy(), rescale, bias)
        q_expected, scale_expected = quantize_fast(
            expected.copy(), QMAX, Workspace(np.float32), "q")
        layer = native_layer()
        for offset in range(17):
            buffer = np.full(rows * cols + 17, np.float32(7.0))
            tile = buffer[offset:offset + rows * cols].reshape(rows, cols)
            tile[...] = x
            layer.begin()
            layer.tile(tile, rescale, bias)
            assert np.array_equal(tile.view(np.uint32),
                                  expected.view(np.uint32)), offset
            assert np.all(buffer[:offset] == 7.0)
            assert np.all(buffer[offset + rows * cols:] == 7.0)
            assert layer(tile, None, None) is tile      # nothing left
            assert np.array_equal(tile, expected)
            q, scale = layer.quantize(tile, QMAX, Workspace(np.float32),
                                      "q", out=tile)
            assert scale == scale_expected
            assert np.array_equal(q.view(np.uint32),
                                  q_expected.view(np.uint32)), offset

    @pytest.mark.parametrize("tiles", [1, 3])
    def test_abs_max_runs_over_tiles(self, rng, tiles):
        """fc2's scale comes from the abs-max of every tile since
        :meth:`begin`, not from the last tile."""
        hidden = (rng.normal(size=(tiles * 5, 33)) * 4).astype(np.float32)
        hidden[1, 2] = 40.0              # the peak sits in the first tile
        expected = numpy_tile(hidden.copy(), np.float32(0.5), None)
        layer = native_layer()
        layer.tile(np.ones((2, 33), np.float32), np.float32(1e6), None)
        layer.begin()                    # forgets the stale 1e6 tile
        for lo in range(0, len(hidden), 5):
            layer.tile(hidden[lo:lo + 5], np.float32(0.5), None)
        q, scale = layer.quantize(hidden, QMAX, Workspace(np.float32), "q")
        q_ref, scale_ref = quantize_fast(expected, QMAX,
                                         Workspace(np.float32), "q")
        assert scale == scale_ref
        assert np.array_equal(q, q_ref)

    def test_rejects_a_strided_tile(self):
        with pytest.raises(ValueError, match="contiguous"):
            native_layer().tile(np.zeros((4, 8), np.float32)[:, ::2],
                                   np.float32(1.0), None)


@needs_gcc
class TestFusedGuards:
    """Twins of ``test_quantized.py``'s ``quantize_fast`` guards, on the
    fused path: the scale comes from the abs-max the tile pass kept."""

    def _fused(self, x):
        layer = native_layer()
        layer.begin()
        layer.tile(x, np.float32(1.0), None)
        return layer.quantize(x, QMAX, Workspace(np.float32), "q")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fused_quantize_rejects_non_finite(self, bad):
        x = np.array([[1.0, bad, -2.0]], dtype=np.float32)
        with np.errstate(invalid="ignore"):         # -inf/2 + inf
            reference = numpy_tile(x.copy(), np.float32(1.0), None)
        with pytest.raises(ValueError, match="non-finite") as numpy_error:
            quantize_fast(reference, QMAX, Workspace(np.float32), "q")
        with pytest.raises(ValueError, match="non-finite") as fused_error:
            self._fused(x)
        assert str(fused_error.value) == str(numpy_error.value)

    def test_fused_quantize_all_zero(self):
        q, scale = self._fused(np.zeros((3, 8), np.float32))
        assert scale == 1.0 / QMAX
        assert not q.any()

    @pytest.mark.parametrize("amax", [1e-36, 3e-37, 1e-38, 1e-45])
    def test_fused_quantize_tiny_abs_max(self, rng, amax):
        """A hidden layer whose abs-max is below ``qmax * 2^-126`` gets
        the ``2^-126`` floor, and ``q`` stays finite, integer, within
        ``qmax`` and equal to the numpy lane's."""
        x = (amax * np.sign(rng.normal(size=(3, 8)))).astype(np.float32)
        reference = numpy_tile(x.copy(), np.float32(1.0), None)
        peak = np.abs(reference).max()
        assert peak < QMAX * 2.0 ** -126
        q_ref, scale_ref = quantize_fast(reference, QMAX,
                                         Workspace(np.float32), "q")
        q, scale = self._fused(x)
        # Eq. 12 takes the smallest subnormals to zero: all-zero scale.
        assert scale == scale_ref == (2.0 ** -126 if peak else 1.0 / QMAX)
        assert np.isfinite(q).all()
        assert np.all(q == np.rint(q))
        assert np.abs(q).max() <= QMAX
        assert np.array_equal(q, q_ref)


def _models():
    """A dense and a pruned HeatViT, both with GELU MLPs."""
    config = ViTConfig(name="qmlp", image_size=16, patch_size=4,
                       embed_dim=24, depth=4, num_heads=3, num_classes=4)
    dense = HeatViT(VisionTransformer(config, rng=np.random.default_rng(5)),
                    {}, rng=np.random.default_rng(5))
    pruned = HeatViT(VisionTransformer(config, rng=np.random.default_rng(6)),
                     {1: 0.7, 2: 0.5}, rng=np.random.default_rng(7))
    return {"dense": dense.eval(), "pruned": pruned.eval()}


MODELS = _models()


def _int8_executor(model, per_channel):
    """An int8 float32 executor; ``per_channel`` (``None``: the default
    list) is forwarded to :func:`compile_quantized`."""
    executor = BucketedExecutor(model, backend="int8")
    if per_channel is not None:
        executor.compiled = compile_quantized(model, bits=8,
                                              per_channel=per_channel)
    return executor


@needs_gcc
@pytest.mark.parametrize("per_channel", [None, ()],
                         ids=["per_channel_fc1", "per_tensor"])
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_lane_serves_the_same_bits_without_a_compiler(kind, per_channel,
                                                      monkeypatch):
    """The native and the numpy int8 float32 lanes, batches of 1, 7, 32
    and 64 images through 5-image fc1 tiles (so with tile tails)."""
    model = MODELS[kind]
    served = _int8_executor(model, per_channel)
    blocks = served.compiled.blocks
    assert all(isinstance(block.act, FusedHiddenLayer)
               and block.act._library is not None for block in blocks)
    assert blocks[0].fc1.per_channel == (per_channel is None)
    # fc1 -> GELU tiles of 5 images at the full 17 tokens.
    block = blocks[0]
    monkeypatch.setattr(compiled, "CHUNK_BYTES", 5 * 4 * 17 * (
        block.num_heads * block.head_dim + 4 * block.hidden_dim))
    assert block.mlp_tile(17, 4) == 5
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    fallback = _int8_executor(model, per_channel)
    assert all(block.act._library is None
               for block in fallback.compiled.blocks)
    rng = np.random.default_rng(11)
    for batch in (1, 7, 32, 64):
        images = rng.normal(size=(batch, 3, 16, 16))
        native_result = served.run(images)
        numpy_result = fallback.run(images)
        assert native_result.logits.tobytes() == \
            numpy_result.logits.tobytes(), batch
        for ours, theirs in zip(native_result.tokens_per_stage,
                                numpy_result.tokens_per_stage):
            assert np.array_equal(ours, theirs)


def test_parity_grade_and_selectors_keep_their_kernels():
    """Only float32 blocks' Eq. 12 slots fuse: the float64 parity grade
    and the selectors' scoring MLPs run what they ran before."""
    model = MODELS["pruned"]
    parity = InferenceSession(model, backend="int8", dtype=np.float64)
    for block in parity.executor.compiled.blocks:
        assert not isinstance(block.act, FusedHiddenLayer)
        assert block.fc1.epilogue is None
        assert block.fc2.quantizer is quantize_fast
    fast = InferenceSession(model, backend="int8", dtype=np.float32)
    for selector in fast.executor.compiled.selectors:
        for mlp in (selector.feature_mlp, selector.classifier_mlp,
                    selector.attention_mlp):
            assert not any(isinstance(step, FusedHiddenLayer)
                           for step in mlp)


# Unpickle an int8 session in a fresh interpreter: report whether the
# library loaded before any request and which kind every block's slot
# holds, then serve with every way of building or loading it broken.
UNPICKLE = textwrap.dedent("""
    import json
    import pickle
    import sys
    from repro.engine.fastpath import native

    with open(sys.argv[1], "rb") as handle:
        session, images = pickle.load(handle)
    loaded = native._library is not None
    fused = [block.act._library is not None
             for block in session.executor.compiled.blocks]

    def refuse(*args):
        raise AssertionError("a request built or loaded the library")

    native.load = native._open = native._build = refuse
    logits = session.submit(images).logits
    print(json.dumps([loaded, fused, logits.tobytes().hex()]))
""")


@needs_gcc
def test_pickled_int8_session_loads_the_library_when_unpickled(tmp_path):
    images = np.random.default_rng(4).normal(size=(9, 3, 16, 16))
    session = InferenceSession(MODELS["pruned"], backend="int8",
                               dtype=np.float32)
    blocks = session.executor.compiled.blocks
    assert blocks[0].fc1.epilogue is blocks[0].act
    clone = pickle.loads(pickle.dumps(session))
    block = clone.executor.compiled.blocks[0]
    assert block.fc1.epilogue is block.act is block.fc2.quantizer.__self__
    path = tmp_path / "session.pkl"
    path.write_bytes(pickle.dumps((session, images)))
    child = subprocess.run(
        [sys.executable, "-c", UNPICKLE, str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    loaded, fused, logits = json.loads(child.stdout)
    assert loaded
    assert fused == [True] * len(blocks)
    assert logits == session.submit(images).logits.tobytes().hex()


class TestBuildRules:
    def test_each_source_compiles_with_its_own_flags(self):
        flags = {source.name: flags
                 for source, flags in native.SOURCES.items()}
        assert "-ffast-math" in flags["gelu.c"]
        assert "-ffp-contract=off" in flags["qmlp.c"]
        assert "-ffast-math" not in flags["qmlp.c"]
        # Fast-math would fold the exp's two-step range reduction and
        # its rounding trick away.
        assert "-ffast-math" not in flags["rows.c"]
        # The runner's bias and residual adds must round as numpy's.
        assert "-ffp-contract=off" in flags["block.c"]
        assert "-ffast-math" not in flags["block.c"]
        assert "-ffast-math" not in native.LINK_FLAGS

    @needs_gcc
    def test_build_links_every_object_once(self, monkeypatch, tmp_path):
        commands = []
        run = native._run
        monkeypatch.setattr(native, "_run",
                            lambda command: (commands.append(command),
                                             run(command)))
        native._build(native.find_compiler(), tmp_path / "lib.so")
        compiles, (link,) = commands[:-1], commands[-1:]
        # The compiles run at once, so they may start in any order; the
        # link runs after every one has ended.
        by_source = {command[command.index("-c") + 1]: command
                     for command in compiles}
        for source, flags in native.SOURCES.items():
            assert by_source[str(source)][1:1 + len(flags)] == list(flags)
        assert len(compiles) == len(native.SOURCES) == 4
        assert sum(arg.endswith(".o") for arg in link) == 4
        assert "-ffast-math" not in link

    @needs_gcc
    def test_compiles_run_at_once(self, monkeypatch, tmp_path):
        """Every compile has started before any one ends: the cold
        build takes the slowest compile, not the sum."""
        started, release = [], threading.Event()
        run = native._run

        def gated(command):
            if "-c" in command:
                started.append(command)
                if len(started) == len(native.SOURCES):
                    release.set()
                assert release.wait(timeout=60)
            run(command)

        monkeypatch.setattr(native, "_run", gated)
        native._build(native.find_compiler(), tmp_path / "lib.so")
        assert len(started) == 4
        assert (tmp_path / "lib.so").exists()

    @needs_gcc
    @pytest.mark.parametrize("broken", ["gelu.c", "qmlp.c", "rows.c",
                                        "block.c"])
    def test_one_failing_source_leaves_no_library(self, fresh, monkeypatch,
                                                  broken):
        """One source fails to compile while the others build: nothing
        is linked, no ``.so`` and no scratch directory is left in the
        cache, and the float32 compile serves the numpy kernels."""
        run = native._run

        def failing(command):
            if "-c" in command and command[
                    command.index("-c") + 1].endswith(broken):
                raise subprocess.CalledProcessError(1, command)
            run(command)

        monkeypatch.setattr(native, "_run", failing)
        assert native.load() is None
        assert not any(fresh.iterdir())
        compiled = compile_model(MODELS["pruned"], np.float32)
        assert compiled.blocks[0].attention is ragged_attention
        assert compiled.blocks[0].act is gelu_rational
        assert compiled.blocks[0].runner is None

    @needs_gcc
    def test_cache_key_covers_every_source_and_flag(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        compiler = native.find_compiler()
        version = native._version(compiler)
        key = native._library_path(compiler, version)
        sources = dict(native.SOURCES)
        for source, flags in sources.items():
            changed = dict(sources)
            changed[source] = tuple(f for f in flags
                                    if f != "-ffp-contract=off") + ("-O2",)
            monkeypatch.setattr(native, "SOURCES", changed)
            assert native._library_path(compiler, version) != key
        monkeypatch.setattr(native, "SOURCES", sources)
        assert native._library_path(compiler, version) == key
