"""SessionSpec + pickling: sessions must cross a process boundary.

The multi-worker backend ships sessions to executor processes either as
a :class:`repro.engine.SessionSpec` (config + weights, rebuilt in the
child) or by pickle.  Both roads must reproduce the parent's results
*bit for bit* -- rebuild runs the same float64 arithmetic on the same
weights, so the tolerance here is exact equality (stricter than the
issue's 1e-16 bar).
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro import nn
from repro.core import HeatViT
from repro.engine import (CompiledModel, InferenceSession, SessionSpec,
                          SpecError)
from repro.nn.tensor import Tensor
from repro.nn import functional as F


@pytest.fixture(scope="module")
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(3))
    model.eval()
    return model


def make_session(model, backend="tensor", dtype=None):
    return InferenceSession(model, batch_size=8, backend=backend,
                            dtype=dtype)


class TestSessionSpec:
    @pytest.mark.parametrize("backend,dtype", [("tensor", None),
                                               ("fastpath", "float32"),
                                               ("fastpath", "float64")])
    def test_rebuild_is_bitwise_identical(self, model, tiny_dataset,
                                          backend, dtype):
        session = make_session(model, backend=backend, dtype=dtype)
        rebuilt = session.spec().build()
        assert rebuilt.backend == session.backend
        assert rebuilt.dtype == session.dtype
        assert rebuilt.batch_size == session.batch_size
        reference = session.submit(tiny_dataset.images[:12])
        result = rebuilt.submit(tiny_dataset.images[:12])
        np.testing.assert_array_equal(result.logits, reference.logits)
        np.testing.assert_array_equal(result.latency_ms,
                                      reference.latency_ms)
        for got, want in zip(result.tokens_per_stage,
                             reference.tokens_per_stage):
            np.testing.assert_array_equal(got, want)

    def test_spec_carries_session_knobs(self, model):
        session = make_session(model)
        spec = session.spec(metadata={"origin": "test"})
        assert spec.cost_model is session.cost_model
        assert spec.policy is session.policy
        assert spec.selector_blocks == {1: 0.7, 2: 0.5}
        assert spec.use_packager is True
        assert spec.metadata == {"origin": "test"}

    def test_spec_itself_pickles(self, model, tiny_dataset):
        session = make_session(model)
        spec = pickle.loads(pickle.dumps(session.spec()))
        rebuilt = spec.build()
        reference = session.submit(tiny_dataset.images[:6])
        np.testing.assert_array_equal(
            rebuilt.submit(tiny_dataset.images[:6]).logits,
            reference.logits)

    def test_non_stock_classifier_rejected(self, tiny_backbone):
        model = HeatViT(
            tiny_backbone, {1: 0.6}, rng=np.random.default_rng(5),
            classifier_factory=lambda rng: _PlainClassifier(
                tiny_backbone.config.embed_dim,
                tiny_backbone.config.num_heads, rng))
        model.eval()
        with pytest.raises(SpecError, match="non-stock classifier"):
            make_session(model).spec()

    def test_non_gelu_activation_rejected(self, tiny_backbone):
        model = HeatViT(tiny_backbone, {1: 0.6},
                        rng=np.random.default_rng(6), activation=nn.ReLU)
        model.eval()
        with pytest.raises(SpecError, match="non-stock activation"):
            make_session(model).spec()

    def test_plain_backbone_rejected(self, tiny_backbone):
        session = InferenceSession.__new__(InferenceSession)
        session.model = tiny_backbone
        with pytest.raises(SpecError, match="not a HeatViT"):
            SessionSpec.from_session(session)


class TestSessionPickle:
    @pytest.mark.parametrize("backend,dtype", [("tensor", None),
                                               ("fastpath", "float32")])
    def test_pickle_round_trip_parity(self, model, tiny_dataset,
                                      backend, dtype):
        session = make_session(model, backend=backend, dtype=dtype)
        session.submit(tiny_dataset.images[:8])      # warm the workspace
        clone = pickle.loads(pickle.dumps(session))
        reference = session.submit(tiny_dataset.images[:12])
        result = clone.submit(tiny_dataset.images[:12])
        np.testing.assert_array_equal(result.logits, reference.logits)

    def test_fallback_selector_session_pickles(self, tiny_backbone,
                                               tiny_dataset):
        """Sessions a SessionSpec cannot describe still cross the
        process boundary by pickle (the WorkerPool fallback road)."""
        model = HeatViT(
            tiny_backbone, {1: 0.6}, rng=np.random.default_rng(5),
            classifier_factory=lambda rng: _PlainClassifier(
                tiny_backbone.config.embed_dim,
                tiny_backbone.config.num_heads, rng))
        model.eval()
        session = make_session(model, backend="fastpath", dtype="float32")
        clone = pickle.loads(pickle.dumps(session))
        np.testing.assert_array_equal(
            clone.submit(tiny_dataset.images[:6]).logits,
            session.submit(tiny_dataset.images[:6]).logits)

    def test_compiled_model_pickles_with_empty_workspace(
            self, model, tiny_dataset):
        """Scratch is not shipped: the compiled model owns none, and the
        session's one workspace crosses the boundary empty."""
        session = make_session(model, backend="fastpath", dtype="float64")
        reference = session.submit(tiny_dataset.images[:8]).logits
        assert session.executor.workspace.nbytes > 0           # warm
        clone = pickle.loads(pickle.dumps(session))
        assert isinstance(clone.executor.compiled, CompiledModel)
        assert len(clone.executor.workspace) == 0
        assert clone.executor.workspace.allocations == 0
        np.testing.assert_array_equal(
            clone.submit(tiny_dataset.images[:8]).logits, reference)


def _child_rebuild(spec, images, out_queue):
    """Spawn-target: rebuild the session from its spec and run it."""
    session = spec.build()
    out_queue.put(session.submit(images).logits)


class TestChildProcessRebuild:
    def test_spawned_child_matches_parent_bitwise(self, model,
                                                  tiny_dataset):
        """The real thing: a spawn-context child process rebuilds the
        session from config + weights and produces identical logits."""
        session = make_session(model)
        reference = session.submit(tiny_dataset.images[:8]).logits
        ctx = multiprocessing.get_context("spawn")
        out_queue = ctx.Queue()
        child = ctx.Process(target=_child_rebuild,
                            args=(session.spec(),
                                  tiny_dataset.images[:8], out_queue))
        child.start()
        try:
            logits = out_queue.get(timeout=120)
        finally:
            child.join(timeout=30)
        assert child.exitcode == 0
        np.testing.assert_array_equal(logits, reference)


class _PlainClassifier(nn.Module):
    """A classifier SessionSpec cannot describe (no config knob)."""

    def __init__(self, embed_dim, num_heads, rng):
        super().__init__()
        self.num_heads = num_heads
        self.score = nn.Linear(embed_dim, 2, rng=rng)

    def forward(self, x, mask=None):
        x = Tensor.ensure(x)
        batch, tokens, _ = x.shape
        probs = F.softmax(self.score(x), axis=-1)
        probs = probs.reshape(batch, 1, tokens, 2)
        return probs + Tensor(np.zeros((batch, self.num_heads, tokens, 2)))
