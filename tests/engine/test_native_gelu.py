"""The native float32 GELU (``fastpath/gelu.c`` via ``fastpath/native.py``).

Its accuracy is pinned next to the numpy kernel's, with the same bounds,
in ``test_property_fastpath.py``.  Here: an element's bits do not depend
on its offset in the operand (the engine hands one image to the kernel
at different offsets: chunks, tiles, pooled shards); loading the library
leaves the process's floating-point mode alone; a float32 compile
installs it where ``cc`` works and falls back to numpy where the
compiler, the build, the load or the cache directory fails; and a
pickled session loads it when unpickled, before its first request.
"""

import json
import os
import pickle
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.core import HeatViT
from repro.engine import InferenceSession
from repro.engine.fastpath import Workspace, compiled, native
from repro.engine.fastpath.kernels import gelu_rational
from repro.engine.fastpath.native import NativeGelu

SRC = Path(__file__).resolve().parents[2] / "src"


def _gcc():
    """Whether ``cc`` (or ``gcc``) here is a working gcc."""
    compiler = native.find_compiler()
    if compiler is None:
        return False
    child = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True)
    return child.returncode == 0 and "clang" not in child.stdout


needs_gcc = pytest.mark.skipif(not _gcc(), reason="no gcc on this host")


def native_gelu():
    """The float32 compile's GELU kernel, which must be the native one."""
    kernel = compiled._gelu_kernel(np.float32)
    assert isinstance(kernel, NativeGelu)
    return kernel


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """An empty per-process load table and an empty cache under
    ``tmp_path``; the module's state is restored afterwards."""
    monkeypatch.setattr(native, "_loaded", {})
    monkeypatch.setattr(native, "_library", native._library)
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    monkeypatch.setattr(native, "cache_dir", lambda: cache)
    return cache


def _bits(x):
    return np.asarray(x).view(np.uint32)


@needs_gcc
class TestPositionIndependence:
    @given(x=arrays(np.float32, 148, elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False)))
    @settings(max_examples=12, deadline=None)
    def test_any_offset_any_length_same_bits(self, x):
        """Every offset 0-47 and length 1-100, as a copy and as an
        in-place (unaligned) view of the whole array."""
        kernel = native_gelu()
        whole = _bits(kernel(x.copy(), None, None))
        for off in range(48):
            for n in range(1, 101):
                part = x[off:off + n].copy()
                assert np.array_equal(_bits(kernel(part, None, None)),
                                      whole[off:off + n]), (off, n)
                host = x.copy()
                kernel(host[off:off + n], None, None)
                assert np.array_equal(_bits(host[off:off + n]),
                                      whole[off:off + n]), (off, n)
                assert np.array_equal(host[:off], x[:off])
                assert np.array_equal(host[off + n:], x[off + n:])

    def test_strided_view_same_bits(self):
        kernel = native_gelu()
        x = np.random.default_rng(0).normal(0, 3, (40, 24)).astype(
            np.float32)
        whole = _bits(kernel(x.copy(), None, None))
        view = x.copy()
        kernel(view[:, 5:17], None, None)
        assert np.array_equal(_bits(view[:, 5:17]), whole[:, 5:17])

    def test_rejects_other_dtypes(self):
        with pytest.raises(TypeError):
            native_gelu()(np.zeros(4), None, None)


# Build an int8 and a float32 session in a fresh interpreter (the
# library loads at the first set-up), then print whether the native
# kernels are installed and what float64 subnormals came to.
SUBNORMALS = textwrap.dedent("""
    import json
    import numpy as np
    from repro.core import HeatViT
    from repro.engine import InferenceSession
    from repro.engine.fastpath.native import (NativeBlock, NativeGelu,
                                              NativeLayerNorm)
    from repro.vit import VisionTransformer, ViTConfig

    config = ViTConfig(name="ftz", image_size=16, patch_size=4,
                       embed_dim=24, depth=2, num_heads=3, num_classes=4)
    model = HeatViT(VisionTransformer(config, rng=np.random.default_rng(0)),
                    {1: 0.7}, rng=np.random.default_rng(1))
    model.eval()
    images = np.random.default_rng(2).random((2, 3, 16, 16))
    int8 = InferenceSession(model, backend="int8", dtype=np.float32)
    int8.submit(images)
    fused = int8.executor.compiled.blocks[0].act._library is not None
    session = InferenceSession(model, backend="fastpath", dtype=np.float32)
    block = session.executor.compiled.blocks[0]
    session.submit(images)
    tiny = np.finfo(np.float64).smallest_subnormal
    print(json.dumps([fused, isinstance(block.act, NativeGelu)
                      and isinstance(block.runner, NativeBlock)
                      and isinstance(block.layer_norm, NativeLayerNorm),
                      float((np.array([1e-310]) * 1.0)[0]),
                      float(tiny * 1.0) == float(tiny)]))
""")


@needs_gcc
def test_loading_the_library_keeps_float64_subnormals():
    """Linking with -ffast-math would pull in crtfastmath.o, whose
    constructor sets flush-to-zero for the whole process.  Holds for the
    whole library: the float32 session serves its native float32
    kernels (GELU, LayerNorm, the block runner)."""
    child = subprocess.run(
        [sys.executable, "-c", SUBNORMALS], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    fused, native_installed, product, survives = json.loads(child.stdout)
    assert fused
    assert native_installed
    assert product == 1e-310
    assert survives


@pytest.fixture(scope="module")
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(3))
    model.eval()
    return model


def _gelu_slots(session, model):
    """Every GELU kernel a compiled float32 session runs: the blocks'
    and the selectors' scoring MLPs', one per ``nn.GELU`` in the
    model."""
    compiled_model = session.executor.compiled
    slots = [block.act for block in compiled_model.blocks]
    for selector in compiled_model.selectors:
        slots += [step for mlp in (selector.feature_mlp,
                                   selector.classifier_mlp,
                                   selector.attention_mlp)
                  for step in mlp
                  if step is gelu_rational or isinstance(step, NativeGelu)]
    assert len(slots) == sum(isinstance(module, nn.GELU)
                             for module in model.modules())
    return slots


class TestWhichKernel:
    @needs_gcc
    def test_float32_compiles_install_the_native_kernel(self, model):
        session = InferenceSession(model, backend="fastpath",
                                   dtype=np.float32)
        assert all(isinstance(slot, NativeGelu)
                   for slot in _gelu_slots(session, model))

    def test_float64_keeps_exact_gelu(self):
        assert not isinstance(compiled._gelu_kernel(np.float64), NativeGelu)

    def test_no_compiler_serves_the_numpy_lane(self, model, tiny_dataset,
                                               monkeypatch, fresh):
        images = tiny_dataset.images[:12]
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        assert compiled._gelu_kernel(np.float32) is gelu_rational
        fallback = InferenceSession(model, backend="fastpath",
                                    dtype=np.float32)
        assert all(slot is gelu_rational
                   for slot in _gelu_slots(fallback, model))
        served = fallback.submit(images)
        monkeypatch.setattr(compiled, "gelu_kernel", lambda: gelu_rational)
        numpy_lane = InferenceSession(model, backend="fastpath",
                                      dtype=np.float32).submit(images)
        assert served.logits.tobytes() == numpy_lane.logits.tobytes()
        assert fresh.exists() and not any(fresh.iterdir())

    @needs_gcc
    def test_empty_cache_builds_once(self, fresh, monkeypatch):
        umask = os.umask(0o002)           # the linker's mode follows it
        try:
            kernel = native.gelu_kernel()
        finally:
            os.umask(umask)
        assert isinstance(kernel, NativeGelu)
        library, = fresh.glob("native-*.so")
        assert not stat.S_IMODE(library.stat().st_mode) & 0o022
        # A second process finds it built: only the load repeats.
        monkeypatch.setattr(native, "_loaded", {})
        monkeypatch.setattr(native, "_build", _fail)
        assert isinstance(native.gelu_kernel(), NativeGelu)
        x = np.linspace(-8, 8, 333, dtype=np.float32)
        expected = gelu_rational(x.copy(), Workspace(np.float32), "g")
        np.testing.assert_allclose(kernel(x, None, None), expected,
                                   rtol=0, atol=1e-6)

    def test_failed_build_falls_back(self, fresh, monkeypatch):
        def broken(command):
            raise subprocess.CalledProcessError(1, command)

        monkeypatch.setattr(native, "_run", broken)
        assert native.gelu_kernel() is gelu_rational
        # Failure is remembered: no second build in this process.
        monkeypatch.setattr(native, "_run", _fail)
        assert native.gelu_kernel() is gelu_rational
        assert not any(fresh.iterdir())

    @needs_gcc
    def test_unloadable_library_falls_back(self, fresh):
        compiler = native.find_compiler()
        library = native._library_path(compiler, native._version(compiler))
        library.write_bytes(b"not a shared object")
        library.chmod(0o755)
        assert native.gelu_kernel() is gelu_rational

    @needs_gcc
    def test_library_others_can_write_is_not_loaded(self, fresh):
        native.gelu_kernel()
        library, = fresh.glob("native-*.so")
        library.chmod(0o666)
        native._loaded.clear()
        assert native.gelu_kernel() is gelu_rational

    def test_cache_dir_skips_a_directory_others_can_write(self, tmp_path,
                                                          monkeypatch):
        shared = tmp_path / "home" / ".cache" / "repro"
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        monkeypatch.setattr(native.Path, "home",
                            staticmethod(lambda: tmp_path / "home"))
        monkeypatch.setattr(native.tempfile, "gettempdir",
                            lambda: str(tmp_path / "tmp"))
        root = native.cache_dir()
        assert root == tmp_path / "tmp" / f"repro-{os.getuid()}"
        assert stat.S_IMODE(root.stat().st_mode) == 0o700
        root.chmod(0o777)
        assert native.cache_dir() is None


def _fail(*args):
    raise AssertionError("the compiler ran again")


# Unpickle a float32 session in a fresh interpreter, report whether the
# library loaded before any request, then serve with every way of
# building or loading it broken.
UNPICKLE = textwrap.dedent("""
    import json
    import pickle
    import sys
    from repro.engine.fastpath import native

    with open(sys.argv[1], "rb") as handle:
        session, images = pickle.load(handle)
    loaded = native._library is not None

    def refuse(*args):
        raise AssertionError("a request built or loaded the library")

    native.load = native._open = native._build = refuse
    before = set(sys.modules)
    logits = session.submit(images).logits
    print(json.dumps([loaded, sorted(set(sys.modules) - before),
                      logits.tobytes().hex()]))
""")


@needs_gcc
def test_pickled_session_loads_the_library_when_unpickled(model,
                                                          tiny_dataset,
                                                          tmp_path):
    images = tiny_dataset.images[:10]
    session = InferenceSession(model, backend="fastpath", dtype=np.float32)
    path = tmp_path / "session.pkl"
    path.write_bytes(pickle.dumps((session, images)))
    child = subprocess.run(
        [sys.executable, "-c", UNPICKLE, str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    loaded, imported, logits = json.loads(child.stdout)
    assert loaded
    assert imported == []
    assert logits == session.submit(images).logits.tobytes().hex()
