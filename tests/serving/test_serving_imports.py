"""Serving path import guard: a server imports what it serves, once.

``scipy.special`` costs ~0.3 s of every server and worker start, and
float32 / int8 serving has numpy kernels for everything it computes;
only the float64 parity grades and the Tensor reference modules call
SciPy: the modules import it where it is called, and each compiled
part that runs them loads it when it is built or unpickled, before its
first request.  A stray module-level ``from scipy import ...`` anywhere
under ``repro.serving``'s imports would load it for every process.

The same holds for ``repro`` itself: the packages resolve their exports
on first access (``repro._lazy``), so a float32 server never compiles
the quantizer, the training loop or the FPGA schedule tools, and no
request imports anything -- ``np.unique`` used to pull in ``numpy.ma``
inside the first flush that reached a selector.  The checks run in
fresh interpreters: this process imported all of it long ago.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.engine import InferenceSession
from repro.serving import FrontDoorClient

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
# pool worker receives its session.  The run reports whether SciPy was
# loaded once the session existed and after it served one request.
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


# A server in a process of its own, as the HTTP benchmark runs one: set
# up a front door over one target, print its port, serve until stdin
# closes, then report the modules requests imported and every module
# loaded by then.
SERVER = BUILD + textwrap.dedent("""
    import json
    import sys
    from repro.serving import FrontDoor, Scheduler

    def main(backend, dtype, workers):
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("m", model, backend=backend,
                           dtype=None if dtype == "-" else dtype,
                           workers=int(workers))
        door = FrontDoor(scheduler)
        door.start()
        loaded = set(sys.modules)
        print(door.port, flush=True)
        sys.stdin.read()
        served = set(sys.modules) - loaded
        door.stop()
        scheduler.shutdown()
        print(json.dumps({"served": sorted(served),
                          "loaded": sorted(sys.modules)}))

    if __name__ == "__main__":
        main(*sys.argv[1:])
""")

# What a float32 server has no use for.
NOT_SERVED_BY_FLOAT32 = [
    "numpy.ma",
    "repro.quant", "repro.approx", "repro.engine.fastpath.quantized",
    "repro.core.training", "repro.core.ablations",
    "repro.serving.worker", "repro.serving.placement",
    "repro.hardware.comparison", "repro.hardware.schedule",
    "repro.hardware.selector_flow", "repro.hardware.tiling",
    "repro.vit.analysis", "repro.vit.cka",
    "repro.cost.online",
]


def _serve(tmp_path, backend, dtype, workers):
    """Serve seeded and inline submissions, long-polled, from a fresh
    server process; returns its report."""
    script = tmp_path / "server.py"       # spawned workers import it
    script.write_text(SERVER)
    server = subprocess.Popen(
        [sys.executable, str(script), backend, dtype, str(workers)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        port = int(server.stdout.readline())
        namespace = {}
        exec(BUILD, namespace)
        bodies = [{"num_images": 1 + seed, "seed": seed}
                  for seed in range(3)]
        bodies.append({"images": namespace["image"].tolist()})
        with FrontDoorClient("127.0.0.1", port) as client:
            for body in bodies:
                status, payload = client.request("POST", "/v1/submit",
                                                 body=body)
                assert status == 200, payload
                status, payload = client.result(
                    payload["request_id"], wait=True, timeout_ms=60_000)
                assert status == 200, payload
        out, _ = server.communicate(timeout=120)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("backend,dtype,workers", [
    ("fastpath", "float32", 1),
    ("int8", "-", 1),
    ("fastpath", "float32", 2),
], ids=["fastpath-f32", "int8", "pool"])
def test_no_request_imports_a_module(tmp_path, backend, dtype, workers):
    """Everything a request runs is loaded at set-up: no request, the
    first included, waits on an import."""
    assert _serve(tmp_path, backend, dtype, workers)["served"] == []


def test_float32_server_imports_only_what_it_serves(tmp_path):
    loaded = _serve(tmp_path, "fastpath", "float32", 1)["loaded"]
    stray = [name for name in loaded
             if any(name == unused or name.startswith(unused + ".")
                    for unused in NOT_SERVED_BY_FLOAT32)]
    assert stray == []


LAZY_PACKAGES = ["repro.core", "repro.vit", "repro.nn", "repro.cost",
                 "repro.hardware", "repro.engine", "repro.engine.fastpath",
                 "repro.serving"]

# In a fresh interpreter: importing a lazy package and listing it loads
# none of its submodules, and ``dir()`` already names every export.
LISTING = textwrap.dedent("""
    import importlib
    import json
    import sys

    problems = []
    for package in sys.argv[1:]:
        before = set(sys.modules)
        module = importlib.import_module(package)
        names = dir(module)
        loaded = sorted(set(sys.modules) - before - {package, "repro",
                                                     "repro._lazy"})
        problems += [f"import {package} loaded {name}" for name in loaded
                     if not package.startswith(name + ".")]
        problems += [f"dir({package}) lacks {name}"
                     for name in module.__all__ if name not in names]
    print(json.dumps(problems))
""")


def test_lazy_packages_load_nothing_until_asked():
    child = subprocess.run(
        [sys.executable, "-c", LISTING, *LAZY_PACKAGES],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_and_dir_of_a_lazy_package(package):
    """``from <package> import *`` binds every name of ``__all__`` to
    the object the package attribute resolves to, ``dir()`` lists them,
    and a name the package does not export is an ``AttributeError``."""
    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(module, name)
               for name in module.__all__)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export
