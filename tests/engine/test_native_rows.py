"""The native float32 LayerNorm (``fastpath/rows.c`` via
``fastpath/native.py``), and the numpy softmax every compile keeps.

Its float32 bound is pinned next to the numpy kernel's, against the
float64 Tensor reference, in ``test_property_fastpath.py``.  Here: a
row's bits depend only on that row; other dtypes, mismatched shapes and
an affine are refused; a float32 compile installs it where gcc works
and the numpy one where there is no compiler, and numpy's softmax in
both cases (float32 blocks run the attention core; only a padded
``CompiledModel.forward`` reaches the softmax slot); float64 compiles
and both quantized grades keep their own kernels, so their bits cannot
move; and a pickled session installs the native kernel when it is
unpickled, before its first request.
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

from repro.core import HeatViT
from repro.engine import InferenceSession, compile_quantized
from repro.engine.fastpath import Workspace, compile_model, native
from repro.engine.fastpath.kernels import fused_layer_norm, masked_softmax
from repro.engine.fastpath.native import NativeLayerNorm
from repro.engine.fastpath.qkernels import approx_softmax_fast
from repro.engine.fastpath.quantized import (_layer_norm_reference,
                                             _softmax_reference)
from tests.engine.test_native_gelu import SRC, fresh, needs_gcc  # noqa: F401


def native_layer_norm():
    """The float32 compile's LayerNorm kernel, which must be the native
    one."""
    kernel = native.layer_norm_kernel()
    assert isinstance(kernel, NativeLayerNorm)
    return kernel


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint32)


def _scores(rng, batch, heads, tokens, scale=4.0):
    return (rng.normal(size=(batch, heads, tokens, tokens))
            * scale).astype(np.float32)


@needs_gcc
class TestPositionIndependence:
    """A LayerNorm row's bits depend only on that row: not on its
    offset in the operand (which of the kernel's four interleaved row
    slots it takes, or whether its group is a short last one), the
    chunk of images it arrives in, or the other images of the batch.

    The numpy float32 softmax has such a dependence:
    :func:`.kernels.masked_softmax` chooses its shift-free branch from
    the min and max of the whole chunk it is handed, so one image's
    weights round one way alone and another way beside an image whose
    scores leave the +-60 guard
    (:meth:`test_the_numpy_softmax_depends_on_the_chunk`).
    """

    def test_the_numpy_softmax_depends_on_the_chunk(self):
        """The contrast: numpy's float32 softmax gives an image other
        bits beside an image with a score of 100 -- why float32 blocks
        run the attention core, whose image bits depend only on that
        image (``test_native_attention.py``), and the softmax slot is
        left to the padded ``CompiledModel.forward``."""
        rng = np.random.default_rng(0)
        image = _scores(rng, 1, 4, 65)
        beside = np.concatenate([image, np.full_like(image, 100.0)])
        ws = Workspace(np.float32)
        alone = masked_softmax(image.copy(), None, ws)
        together = masked_softmax(beside.copy(), None, ws)[:1]
        assert alone.tobytes() != together.tobytes()

    @given(batch=st.integers(1, 7), tokens=st.integers(1, 20),
           dim=st.sampled_from([1, 5, 16, 48, 64, 77]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_layer_norm_row_bits_do_not_depend_on_position(
            self, batch, tokens, dim, seed):
        """By image, by row offset, and read through a strided view as
        ``classify`` reads the CLS rows (``x[:, k, :]``)."""
        kernel = native_layer_norm()
        x = np.random.default_rng(seed).normal(
            1, 3, (batch, tokens, dim)).astype(np.float32)

        def norm(rows):
            return kernel(rows, None, None, 1e-6,
                          out=np.empty(rows.shape, np.float32))

        whole = _bits(norm(x))
        for i in range(batch):
            assert np.array_equal(_bits(norm(x[i:i + 1])), whole[i:i + 1])
        for k in range(tokens):
            assert np.array_equal(_bits(norm(x[:, k, :])), whole[:, k, :])
        flat, flat_bits = x.reshape(-1, dim), whole.reshape(-1, dim)
        for off in range(min(8, flat.shape[0])):
            for n in range(1, 10):
                assert np.array_equal(_bits(norm(flat[off:off + n])),
                                      flat_bits[off:off + n]), (off, n)


@needs_gcc
class TestRefusals:
    def test_layer_norm_takes_float32_only(self):
        with pytest.raises(TypeError):
            native_layer_norm()(np.zeros((2, 4)), None, None, 1e-6,
                                out=np.zeros((2, 4)))
        with pytest.raises(TypeError):
            native_layer_norm()(np.zeros((2, 4), np.float32), None, None,
                                1e-6, out=np.zeros((2, 4)))

    def test_mismatched_shapes_are_refused(self):
        """The C loop trusts its sizes, so the wrapper checks them."""
        with pytest.raises(ValueError):
            native_layer_norm()(np.zeros((2, 4), np.float32), None, None,
                                1e-6, out=np.zeros((2, 3), np.float32))

    def test_layer_norm_takes_no_affine(self):
        """Every float32 compile folds it into the next GEMM."""
        ones = np.ones(4, np.float32)
        with pytest.raises(ValueError):
            native_layer_norm()(np.zeros((2, 4), np.float32), ones, ones,
                                1e-6, out=np.zeros((2, 4), np.float32))


@pytest.fixture(scope="module")
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(3))
    model.eval()
    return model


def _row_slots(compiled):
    """Every softmax and LayerNorm slot of a compiled model."""
    return ([block.softmax for block in compiled.blocks],
            [block.layer_norm for block in compiled.blocks]
            + [compiled.layer_norm])


class TestWhichKernel:
    @needs_gcc
    def test_float32_compiles_install_the_native_kernels(self, model):
        softmaxes, norms = _row_slots(compile_model(model, np.float32))
        assert all(slot is masked_softmax for slot in softmaxes)
        assert all(isinstance(slot, NativeLayerNorm) for slot in norms)

    def test_no_compiler_installs_the_numpy_kernels(self, model,
                                                    tiny_dataset,
                                                    monkeypatch, fresh):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        softmaxes, norms = _row_slots(compile_model(model, np.float32))
        assert all(slot is masked_softmax for slot in softmaxes)
        assert all(slot is fused_layer_norm for slot in norms)
        served = InferenceSession(model, backend="fastpath",
                                  dtype=np.float32).submit(
                                      tiny_dataset.images[:12])
        assert np.isfinite(served.logits).all()
        assert not any(fresh.iterdir())

    @needs_gcc
    def test_one_compiler_probe_per_process(self, model, monkeypatch):
        """A float32 compile asks for three native kernels in every
        block; a warm set-up still probes the compiler once."""
        monkeypatch.setattr(native, "_loaded", {})
        monkeypatch.setattr(native, "_library", native._library)
        probes = []
        version = native._version
        monkeypatch.setattr(native, "_version",
                            lambda compiler: (probes.append(compiler),
                                              version(compiler))[1])
        compile_model(model, np.float32)
        compile_model(model, np.float32)
        assert len(probes) == 1

    def test_float64_keeps_the_numpy_kernels(self, model):
        softmaxes, norms = _row_slots(compile_model(model, np.float64))
        assert all(slot is masked_softmax for slot in softmaxes)
        assert all(slot is fused_layer_norm for slot in norms)

    def test_quantized_grades_keep_their_kernels(self, model):
        """The int8 float32 grade sums rows through BLAS matvecs and is
        held bitwise, so it keeps numpy's LayerNorm and its polynomial
        softmax; the float64 grade keeps the simulation's own."""
        softmaxes, norms = _row_slots(compile_quantized(model,
                                                        dtype=np.float32))
        assert all(slot.func is approx_softmax_fast for slot in softmaxes)
        assert all(slot is fused_layer_norm for slot in norms)
        softmaxes, norms = _row_slots(compile_quantized(model,
                                                        dtype=np.float64))
        assert all(slot.func is _softmax_reference for slot in softmaxes)
        assert all(slot is _layer_norm_reference for slot in norms)

    def test_int8_float32_lane_never_runs_the_row_kernels(
            self, model, tiny_dataset, monkeypatch):
        images = tiny_dataset.images[:12]
        before = InferenceSession(model, backend="int8",
                                  dtype=np.float32).submit(images)

        def refuse(*args, **kwargs):
            raise AssertionError("the int8 lane ran a native row kernel")

        monkeypatch.setattr(NativeLayerNorm, "__call__", refuse)
        after = InferenceSession(model, backend="int8",
                                 dtype=np.float32).submit(images)
        assert after.logits.tobytes() == before.logits.tobytes()


# Unpickle a float32 session in a fresh interpreter and report which
# row kernels it holds (the softmax slot holds numpy's function),
# whether the library loaded before any request, and what a request
# imported.
UNPICKLE = textwrap.dedent("""
    import json
    import pickle
    import sys
    from repro.engine.fastpath import native

    with open(sys.argv[1], "rb") as handle:
        session, images = pickle.load(handle)
    compiled = session.executor.compiled
    kinds = sorted({type(slot).__name__ for block in compiled.blocks
                    for slot in (block.softmax, block.layer_norm)}
                   | {type(compiled.layer_norm).__name__})
    loaded = native._library is not None
    before = set(sys.modules)
    logits = session.submit(images).logits
    print(json.dumps([kinds, loaded, sorted(set(sys.modules) - before),
                      logits.tobytes().hex()]))
""")


@needs_gcc
def test_pickled_session_installs_the_native_kernels_when_unpickled(
        model, tiny_dataset, tmp_path):
    images = tiny_dataset.images[:10]
    session = InferenceSession(model, backend="fastpath", dtype=np.float32)
    path = tmp_path / "session.pkl"
    path.write_bytes(pickle.dumps((session, images)))
    child = subprocess.run(
        [sys.executable, "-c", UNPICKLE, str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    kinds, loaded, imported, logits = json.loads(child.stdout)
    assert kinds == ["NativeLayerNorm", "function"]
    assert loaded
    assert imported == []
    assert logits == session.submit(images).logits.tobytes().hex()
