"""The float32 block runner (``fastpath/block.c`` via
``native.NativeBlock``; numpy definition ``CompiledBlock._run_packed``).

Pinned here:

* the runner gives the numpy glue's bits: block by block on ragged
  packed rows (one-row images, chunk tails, a 64-wide head) and whole
  sessions on the float32 lanes of the verify recipe and the suite's
  canary batch;
* a block's chunks give the same bits on the caller alone and with a
  helper thread, and sessions submitting on more threads than cores
  give the bits of serial runs;
* without numpy's sgemm, or without a compiler, blocks hold no runner
  and serve the numpy glue, bit for bit;
* a pickled session rebuilds its runners (and starts the helper
  threads) when unpickled, pickles no second copy of a weight, and
  imports nothing in its first request;
* a block of one chunk never offers work to a helper.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeatViT
from repro.engine import InferenceSession
from repro.engine.bucketing import BucketingPolicy
from repro.engine.fastpath import Workspace, compile_model, native
from repro.engine.fastpath.compiled import CHUNK_BYTES, CompiledBlock
from repro.engine.fastpath.native import NativeBlock
from repro.vit import VisionTransformer, ViTConfig
from repro.vit.config import DEIT_TINY
from tests.engine.test_native_gelu import SRC, fresh, needs_gcc  # noqa: F401


@pytest.fixture(scope="module")
def suite_model():
    from benchmarks.suite.models import PRUNED, build_model

    return build_model(PRUNED)


def _lane_models(suite_model):
    """The float32 models of the verify recipe's lanes check: the
    suite's PRUNED model, a 6-block twin without the Eq. 10 packager,
    and one with selectors at blocks 0-2."""
    config = ViTConfig(name="six", image_size=32, patch_size=4,
                       embed_dim=48, depth=6, num_heads=4, num_classes=8)
    backbone = VisionTransformer(config, rng=np.random.default_rng(5))
    return {
        "pruned": suite_model,
        "no-packager": HeatViT(backbone, {2: 0.7, 4: 0.5},
                               rng=np.random.default_rng(6),
                               use_packager=False).eval(),
        "early": HeatViT(backbone, {0: 0.7, 1: 0.5, 2: 0.35},
                         rng=np.random.default_rng(7)).eval(),
    }


def _without_runners(session):
    """Serve ``session`` through its blocks' numpy glue."""
    for block in session.executor.compiled.blocks:
        block.runner = None
    return session


def _serve(model, images, policy=None, glue=False):
    session = InferenceSession(model, backend="fastpath", dtype=np.float32,
                               policy=policy)
    if glue:
        _without_runners(session)
    result = session.submit(images)
    return result.logits, result.tokens_per_stage


def _assert_same_bits(ours, theirs):
    (logits, tokens), (want_logits, want_tokens) = ours, theirs
    assert logits.tobytes() == want_logits.tobytes()
    for got, want in zip(tokens, want_tokens, strict=True):
        assert np.array_equal(got, want)


def _packed(rng, lengths, dim):
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return rng.normal(size=(offsets[-1], dim)).astype(np.float32), offsets


@needs_gcc
class TestSameBits:
    @given(lengths=st.lists(st.integers(1, 70), min_size=1, max_size=40),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_a_block_against_its_numpy_glue(self, suite_model, lengths,
                                            seed):
        """Ragged packed rows of the suite's block shape -- one-row
        images, one-row chunks, several chunks and their tails -- give
        the numpy glue's bits."""
        block = compile_model(suite_model, np.float32).blocks[4]
        assert isinstance(block.runner, NativeBlock)
        x, offsets = _packed(np.random.default_rng(seed), lengths, 48)
        ours = block.forward_packed(x.copy(), offsets, Workspace(np.float32))
        runner, block.runner = block.runner, None
        theirs = block.forward_packed(x.copy(), offsets,
                                      Workspace(np.float32))
        block.runner = runner
        assert ours.tobytes() == theirs.tobytes()

    def test_a_paper_head_width(self, rng):
        """A DeiT-Tiny-wide block (192 features, 64-feature heads, a
        768-wide MLP) over ragged images, in several chunks."""
        config = DEIT_TINY.scaled(image_size=32, patch_size=8, depth=1,
                                  num_classes=5)
        model = VisionTransformer(config, rng=np.random.default_rng(2))
        block = compile_model(model.eval(), np.float32).blocks[0]
        assert isinstance(block.runner, NativeBlock)
        x, offsets = _packed(rng, rng.integers(1, 18, size=60), 192)
        assert offsets[-1] * 4 * (10 * 192 + 4 * 768) > 2 * CHUNK_BYTES
        ours = block.forward_packed(x.copy(), offsets, Workspace(np.float32))
        block.runner = None
        theirs = block.forward_packed(x.copy(), offsets,
                                      Workspace(np.float32))
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("name", ["pruned", "no-packager", "early"])
    @pytest.mark.parametrize("exact", [False, True],
                             ids=["default", "no-padding"])
    def test_the_float32_lanes(self, suite_model, name, exact):
        """The verify recipe's float32 lanes: 64, 30 and 1 images of
        ``make_images(64, 3)`` under both policies."""
        from benchmarks.suite.models import make_images

        model = _lane_models(suite_model)[name]
        policy = BucketingPolicy(allow_padding=False) if exact else None
        images = make_images(64, 3)
        for count in (64, 30, 1):
            _assert_same_bits(
                _serve(model, images[:count], policy),
                _serve(model, images[:count], policy, glue=True))

    def test_the_canary_batch(self, suite_model):
        from benchmarks.suite.models import make_images

        canary = make_images(32, 0)
        _assert_same_bits(_serve(suite_model, canary),
                          _serve(suite_model, canary, glue=True))


class _Takers:
    """Records which thread takes each chunk; ``helper_first`` makes
    the caller wait until a helper has taken one, so the helper's part
    is certain."""

    def __init__(self, monkeypatch, helper_first=False):
        self.names = []
        take, drain = native._Chunks._take, native._Chunks.drain

        def recording_take(chunks):
            call = take(chunks)
            if call is not None:
                self.names.append(threading.current_thread().name)
            return call

        def waiting_drain(chunks, ws):
            caller = threading.current_thread() is threading.main_thread()
            if caller and len(chunks.calls) > 1:
                deadline = time.monotonic() + 30.0
                while not chunks.taken and time.monotonic() < deadline:
                    time.sleep(0.001)
            drain(chunks, ws)

        monkeypatch.setattr(native._Chunks, "_take", recording_take)
        if helper_first:
            monkeypatch.setattr(native._Chunks, "drain", waiting_drain)

    @property
    def helped(self):
        return any(name.startswith("repro-engine-helper")
                   for name in self.names)


@pytest.fixture(scope="module")
def one_helper():
    """This process's helpers if it has one, else one more thread."""
    helpers = native._helpers
    return helpers if helpers and helpers.threads else native._Helpers(1)


@needs_gcc
class TestThreads:
    @pytest.fixture
    def helper(self, one_helper, monkeypatch):
        """One helper thread, whatever this host's CPU count."""
        monkeypatch.setattr(native, "_helpers", one_helper)
        return one_helper

    def test_threaded_and_serial_give_the_same_bits(self, suite_model,
                                                     helper, monkeypatch):
        from benchmarks.suite.models import make_images

        images = make_images(64, 1)
        session = InferenceSession(suite_model, backend="fastpath",
                                   dtype=np.float32)
        with monkeypatch.context() as serial_only:
            serial_only.setattr(native, "_helpers", None)
            takers = _Takers(serial_only)
            serial = session.submit(images).logits
            assert not takers.helped
        takers = _Takers(monkeypatch, helper_first=True)
        threaded = session.submit(images).logits
        assert takers.helped
        assert threaded.tobytes() == serial.tobytes()

    def test_sessions_on_more_threads_than_cores(self, suite_model,
                                                 helper):
        """Four sessions submit at once from four threads, all sharing
        the helper, with the interpreter switching threads every 10 us:
        each gets the bits of serial runs through the numpy glue."""
        from benchmarks.suite.models import make_images

        batches = [make_images(32, seed) for seed in (11, 12, 13, 14)]
        sessions = [InferenceSession(suite_model, backend="fastpath",
                                     dtype=np.float32) for _ in range(4)]
        served = {}

        def serve(index):
            served[index] = [sessions[index].submit(images).logits
                             for images in batches[index:] + batches[:index]]

        threads = [threading.Thread(target=serve, args=(i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        alone = _without_runners(InferenceSession(
            suite_model, backend="fastpath", dtype=np.float32))
        want = [alone.submit(images).logits.tobytes() for images in batches]
        for index in range(4):
            assert [got.tobytes() for got in served[index]] == (
                want[index:] + want[:index])

    def test_one_chunk_never_touches_the_helper(self, suite_model, helper,
                                                monkeypatch):
        """Every 1-9-image flush of ``http_open`` is one chunk per
        block: it runs on the caller and offers nothing."""
        from benchmarks.suite.models import make_images

        offers = []
        monkeypatch.setattr(helper, "offer", offers.append)
        session = InferenceSession(suite_model, backend="fastpath",
                                   dtype=np.float32)
        takers = _Takers(monkeypatch)
        session.submit(make_images(9, 2))
        assert offers == [] and not takers.helped
        assert set(takers.names) == {threading.current_thread().name}
        session.submit(make_images(32, 2))         # several chunks
        assert offers


class TestNumpyGlue:
    def test_no_sgemm_serves_the_glue_with_the_same_bits(
            self, suite_model, monkeypatch):
        """Where numpy's BLAS has no ``scipy_cblas_sgemm64_`` (an MKL
        build), blocks hold no runner and run ``_run_packed``."""
        from benchmarks.suite.models import make_images

        images = make_images(32, 4)
        native_lane = _serve(suite_model, images)
        monkeypatch.setattr(native, "find_sgemm", lambda: None)
        glue = []
        run = CompiledBlock._run_packed
        monkeypatch.setattr(CompiledBlock, "_run_packed",
                            lambda self, *args: (glue.append(1),
                                                 run(self, *args)))
        session = InferenceSession(suite_model, backend="fastpath",
                                   dtype=np.float32)
        assert all(block.runner is None
                   for block in session.executor.compiled.blocks)
        result = session.submit(images)
        assert glue
        _assert_same_bits((result.logits, result.tokens_per_stage),
                          native_lane)

    def test_no_compiler_holds_no_runner(self, suite_model, monkeypatch,
                                         fresh):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        compiled = compile_model(suite_model, np.float32)
        assert all(block.runner is None for block in compiled.blocks)
        assert not any(fresh.iterdir())

    def test_only_float32_compiles_hold_a_runner(self, suite_model):
        from repro.engine import compile_quantized

        for compiled in (compile_model(suite_model, np.float64),
                         compile_quantized(suite_model, dtype=np.float32),
                         compile_quantized(suite_model, dtype=np.float64)):
            assert all(block.runner is None for block in compiled.blocks)

    @needs_gcc
    def test_a_swapped_slot_is_served(self, suite_model, rng):
        """A slot swapped after compiling -- the activation, or a
        linear kernel -- wins over the runner."""
        from repro.engine.fastpath.compiled import LinearKernel

        block = compile_model(suite_model, np.float32).blocks[0]
        x, offsets = _packed(rng, [65] * 12, 48)
        calls = []
        gelu = block.act
        block.act = lambda x, ws, key: (calls.append(x.shape), gelu(x, ws,
                                                                   key))[1]
        block.forward_packed(x.copy(), offsets, Workspace(np.float32))
        assert calls
        block.act = gelu
        served = block.forward_packed(x.copy(), offsets,
                                      Workspace(np.float32))
        block.fc2 = LinearKernel(block.fc2.weight * 2, block.fc2.bias,
                                 np.float32)
        doubled = block.forward_packed(x.copy(), offsets,
                                       Workspace(np.float32))
        block.runner = None
        assert doubled.tobytes() == block.forward_packed(
            x.copy(), offsets, Workspace(np.float32)).tobytes()
        assert doubled.tobytes() != served.tobytes()


@needs_gcc
def test_pickling_holds_no_second_weight(suite_model):
    """A runner pickles as its factory call over the block's own
    kernels: the session's bytes hardly grow, and the copy's runner
    addresses the copy's weights."""
    compiled = compile_model(suite_model, np.float32)
    with_runners = pickle.dumps(compiled)
    runners = [block.runner for block in compiled.blocks]
    for block in compiled.blocks:
        block.runner = None
    assert len(with_runners) - len(pickle.dumps(compiled)) < 4096
    for block, runner in zip(compiled.blocks, runners):
        block.runner = runner
    copy = pickle.loads(with_runners)
    for block in copy.blocks:
        assert isinstance(block.runner, NativeBlock)
        assert block.runner._params.qkv_w == block.qkv.weight.ctypes.data
        assert block.runner.linears[0] is block.qkv


# Unpickle a float32 session in a fresh interpreter and report its
# blocks' runners, the helper threads alive before any request, what a
# request imported and started, and the logits.
UNPICKLE = textwrap.dedent("""
    import json
    import pickle
    import sys
    import threading

    with open(sys.argv[1], "rb") as handle:
        session, images = pickle.load(handle)
    runners = sorted({type(block.runner).__name__
                      for block in session.executor.compiled.blocks})
    threads = sorted(t.name for t in threading.enumerate())
    before = set(sys.modules)
    logits = session.submit(images).logits
    print(json.dumps([runners, threads,
                      sorted(set(sys.modules) - before),
                      sorted(t.name for t in threading.enumerate()),
                      logits.tobytes().hex()]))
""")


@needs_gcc
def test_pickled_session_reinstalls_the_runner_when_unpickled(
        suite_model, tmp_path):
    from benchmarks.suite.models import make_images

    images = make_images(32, 5)
    session = InferenceSession(suite_model, backend="fastpath",
                               dtype=np.float32)
    path = tmp_path / "session.pkl"
    path.write_bytes(pickle.dumps((session, images)))
    child = subprocess.run(
        [sys.executable, "-c", UNPICKLE, str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    runners, threads, imported, after, logits = json.loads(child.stdout)
    assert runners == ["NativeBlock"]
    helpers = len(os.sched_getaffinity(0)) - 1
    assert sum(name.startswith("repro-engine-helper")
               for name in threads) == helpers
    assert imported == []
    assert after == threads
    assert logits == session.submit(images).logits.tobytes().hex()
