"""The float32 and int8 serving paths never import SciPy.

``scipy.special`` costs ~0.3 s of every server and worker start, and
float32 / int8 serving has numpy kernels for everything it computes;
only the float64 parity grades and the Tensor reference modules call
SciPy: the modules import it where it is called, and each compiled
part that runs them loads it when it is built or unpickled, before its
first request.  A stray module-level ``from scipy import ...`` anywhere
under ``repro.serving``'s imports would load it for every process, so
the checks run in fresh interpreters: this process imported SciPy long
ago.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.engine import InferenceSession

SRC = Path(__file__).resolve().parents[2] / "src"

# Shared by the child interpreter and this process, so both build the
# same weights and the same image.
BUILD = textwrap.dedent("""
    import numpy as np
    from repro.core import HeatViT
    from repro.data import SyntheticConfig, generate_dataset
    from repro.vit import VisionTransformer, ViTConfig

    config = ViTConfig(name="guard", image_size=16, patch_size=4,
                       embed_dim=24, depth=4, num_heads=3, num_classes=4)
    model = HeatViT(VisionTransformer(config, rng=np.random.default_rng(7)),
                    {1: 0.7}, rng=np.random.default_rng(8))
    model.eval()
    image = generate_dataset(SyntheticConfig(image_size=16, num_classes=4),
                             1, np.random.default_rng(3)).images
""")

CHILD = BUILD + textwrap.dedent("""
    import sys
    from repro.serving import Scheduler

    scheduler = Scheduler()
    scheduler.register("f32", model, backend="fastpath", dtype=np.float32)
    scheduler.register("int8", model, backend="int8")
    for name in ("f32", "int8"):
        scheduler.submit(image, model=name)
        result, = scheduler.flush()
        assert result.logits.shape == (1, 4), result.logits.shape
    assert "scipy" not in sys.modules, sorted(
        m for m in sys.modules if m.startswith("scipy"))[:5]
    scheduler.register("f64", model, backend="fastpath", dtype=np.float64)
    # The float64 grade loads SciPy at set-up, not in its first request.
    assert "scipy.special" in sys.modules
    scheduler.submit(image, model="f64")
    result, = scheduler.flush()
    sys.stdout.write(result.logits.tobytes().hex())
""")


def test_float32_and_int8_serving_import_no_scipy():
    child = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    namespace = {}
    exec(BUILD, namespace)
    expected = InferenceSession(namespace["model"], backend="fastpath",
                                dtype=np.float64).submit(namespace["image"])
    served = np.frombuffer(bytes.fromhex(child.stdout), dtype=np.float64)
    assert np.array_equal(served, expected.logits.reshape(-1))


# One session per run, in a fresh interpreter: built (``build``) or
# unpickled (``unpickle``) from the file a ``build`` run wrote, as a
# spawned worker receives a session SessionSpec cannot describe.  The
# run reports whether SciPy was loaded once the session existed and
# after it served one request.
CASE = BUILD + textwrap.dedent("""
    import json
    import pickle
    import sys
    from repro import nn
    from repro.engine import InferenceSession
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor

    class PlainClassifier(nn.Module):
        # Not the stock classifier: compiled selectors fall back to it.
        def __init__(self, rng):
            super().__init__()
            self.num_heads = 3
            self.score = nn.Linear(24, 2, rng=rng)

        def forward(self, x, mask=None):
            batch, tokens, _ = x.shape
            probs = F.softmax(self.score(x), axis=-1)
            return (probs.reshape(batch, 1, tokens, 2)
                    + Tensor(np.zeros((batch, 3, tokens, 2))))

    class SiLU(nn.Module):
        # Not a stock activation: compiled as its Tensor module.
        def forward(self, x):
            return x * F.sigmoid(x)

    variant, backend, dtype, mode, path = sys.argv[1:]
    if mode == "unpickle":
        with open(path, "rb") as handle:
            session = pickle.load(handle)
    else:
        if variant != "stock":
            model = HeatViT(
                model.backbone, {1: 0.7}, rng=np.random.default_rng(8),
                activation=SiLU if variant == "activation" else None,
                classifier_factory=(PlainClassifier
                                    if variant == "classifier" else None))
            model.eval()
        session = InferenceSession(model, backend=backend,
                                   dtype=None if dtype == "-" else dtype)
        with open(path, "wb") as handle:
            pickle.dump(session, handle)
    at_set_up = "scipy.special" in sys.modules
    session.submit(image)
    print(json.dumps([at_set_up, "scipy.special" in sys.modules]))
""")


@pytest.mark.parametrize("variant,backend,dtype,scipy", [
    ("stock", "fastpath", "float32", False),
    ("stock", "fastpath", "float64", True),
    ("stock", "int8", "float64", True),
    ("stock", "int16", "-", True),
    ("stock", "tensor", "-", True),
    ("classifier", "fastpath", "float32", True),
    ("classifier", "int8", "-", True),
    ("activation", "fastpath", "float32", True),
    ("activation", "int8", "-", True),
])
def test_scipy_loads_at_set_up_never_in_a_request(tmp_path, variant,
                                                  backend, dtype, scipy):
    """A session whose numerics call SciPy has loaded it once it is
    built and once it is unpickled, so no first request pays the
    ~0.3 s import; one that does not call it never loads it."""
    path = str(tmp_path / "session.pkl")
    for mode in ("build", "unpickle"):
        child = subprocess.run(
            [sys.executable, "-c", CASE, variant, backend, dtype, mode,
             path], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [scipy, scipy], mode
