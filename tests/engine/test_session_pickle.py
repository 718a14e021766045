"""Pickling: sessions must cross a process boundary.

The multi-worker backend ships a session to each executor process as
its pickle, and the child serves the unpickled copy.  That copy must
reproduce the parent's results *bit for bit* on every backend -- the
same objects run the same arithmetic on the same weights, so the
tolerance here is exact equality (stricter than the engine's ~1e-16
parity bar against ``forward_pruned``).
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro import nn
from repro.core import HeatViT
from repro.engine import CompiledModel, InferenceSession
from repro.nn.tensor import Tensor
from repro.nn import functional as F
from tests.conftest import assert_same_fit


@pytest.fixture(scope="module")
def model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(3))
    model.eval()
    return model


def make_session(model, backend="tensor", dtype=None, learn_cost=False):
    return InferenceSession(model, batch_size=8, backend=backend,
                            dtype=dtype, learn_cost=learn_cost)


#: Session knobs per round trip: every backend and grade a worker pool
#: serves, and a learning session whose fit must survive the trip.
ROUND_TRIPS = {
    "tensor-None": dict(backend="tensor"),
    "fastpath-float32": dict(backend="fastpath", dtype="float32"),
    "int8-float32": dict(backend="int8", dtype="float32"),
    "int8-float64": dict(backend="int8", dtype="float64"),
    "int16-float64": dict(backend="int16", dtype="float64"),
    "learn-cost": dict(backend="fastpath", dtype="float64",
                       learn_cost=True),
}


class TestSessionPickle:
    @pytest.mark.parametrize("knobs", list(ROUND_TRIPS.values()),
                             ids=list(ROUND_TRIPS))
    def test_pickle_round_trip_parity(self, model, tiny_dataset, knobs):
        images = tiny_dataset.images[:12]
        session = make_session(model, **knobs)
        session.submit(tiny_dataset.images[:8])      # warm the workspace
        if session.learns_cost:
            for _ in range(12):
                session.submit(images)
            assert session.cost_model.confident()
        clone = pickle.loads(pickle.dumps(session))
        assert clone.backend == session.backend
        assert clone.dtype == session.dtype
        assert clone.batch_size == session.batch_size
        assert clone.learns_cost == session.learns_cost
        if session.learns_cost:
            assert_same_fit(clone.cost_model, session.cost_model)
        assert clone.estimated_batch_cost(12).total_ms == (
            session.estimated_batch_cost(12).total_ms)
        reference = session.submit(images)
        result = clone.submit(images)
        assert result.logits.dtype == reference.logits.dtype
        assert result.logits.tobytes() == reference.logits.tobytes()
        np.testing.assert_array_equal(result.latency_ms,
                                      reference.latency_ms)
        for got, want in zip(result.tokens_per_stage,
                             reference.tokens_per_stage):
            np.testing.assert_array_equal(got, want)

    def test_fallback_selector_session_pickles(self, tiny_backbone,
                                               tiny_dataset):
        """A session whose selectors use a custom classifier (served
        through their own modules) crosses the process boundary too."""
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


def _child_unpickle(payload, images, out_queue):
    """Spawn-target: unpickle the session and run it."""
    session = pickle.loads(payload)
    out_queue.put(session.submit(images).logits)


class TestChildProcessUnpickle:
    def test_spawned_child_matches_parent_bitwise(self, model,
                                                  tiny_dataset):
        """The real thing: a spawn-context child process unpickles the
        session's bytes, as a pool worker does, and produces identical
        logits."""
        session = make_session(model)
        reference = session.submit(tiny_dataset.images[:8]).logits
        ctx = multiprocessing.get_context("spawn")
        out_queue = ctx.Queue()
        child = ctx.Process(target=_child_unpickle,
                            args=(pickle.dumps(session),
                                  tiny_dataset.images[:8], out_queue))
        child.start()
        try:
            logits = out_queue.get(timeout=120)
        finally:
            child.join(timeout=30)
        assert child.exitcode == 0
        np.testing.assert_array_equal(logits, reference)


class _PlainClassifier(nn.Module):
    """A selector classifier other than the stock one."""

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
