"""Fan one scheduler out to a pool of executor worker processes.

A walkthrough of multi-worker serving (`repro.serving.worker` +
`repro.serving.placement`): one HeatViT operating point registers with
``workers=N`` executor *processes*, each of which unpickles the
parent's serving session in its own interpreter.  A burst of
single-image requests is flushed, split into balanced shards, and
placed one per idle worker, then by predicted completion time; each
worker's measured execution time refines its own learned batch law
(per-launch overhead + per-image marginal), which starts at the
session's static FPGA-simulator price.  The demo then serves the same
burst in-process and verifies the pooled logits are **bitwise
identical** -- fan-out changes where batches run, never what they
compute.

On a multi-core host the pooled run finishes close to ``1/N`` of the
in-process time (near-linear for 2-4 workers); on a single-CPU host it
only demonstrates correctness and the transport overhead.

Usage::

    PYTHONPATH=src python examples/serve_multiworker.py
    PYTHONPATH=src python examples/serve_multiworker.py --workers 4
"""

import argparse
import time

import numpy as np

from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import InferenceSession
from repro.hardware.latency_table import (FINE_KEEP_RATIO_GRID,
                                          build_cost_model)
from repro.serving import Scheduler, VirtualClock
from repro.vit import VisionTransformer, ViTConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2,
                        help="executor processes in the pool")
    parser.add_argument("--requests", type=int, default=64,
                        help="single-image requests in the burst")
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    config = ViTConfig(name="serve-multiworker", image_size=32,
                       patch_size=8, embed_dim=48, depth=12, num_heads=4,
                       num_classes=8)
    backbone = VisionTransformer(config, rng=rng)
    model = HeatViT(backbone, {3: 0.7, 6: 0.5, 9: 0.35}, rng=rng)
    model.eval()
    cost_model = build_cost_model(config,
                                  keep_ratios=FINE_KEEP_RATIO_GRID,
                                  extra_tokens=model.non_patch_slots)
    images = generate_dataset(
        SyntheticConfig(image_size=32, num_classes=8),
        args.requests, rng).images

    # 1. In-process reference: one session, one burst, one big flush.
    session = InferenceSession(model, batch_size=args.requests,
                               cost_model=cost_model)
    session.submit(images[:4])                     # warm up
    start = time.perf_counter()
    reference = session.submit(images)
    in_process_s = time.perf_counter() - start
    print(f"in-process: {args.requests} requests in "
          f"{in_process_s * 1e3:.1f} ms")

    # 2. The same burst through a pool of executor processes.  The
    #    scheduler pickles the session once and each worker unpickles
    #    it; flushes are split into balanced shards and placed by
    #    predicted completion time.
    scheduler = Scheduler(clock=VirtualClock(), batch_window_ms=10.0)
    scheduler.register("pruned", session=InferenceSession(
        model, batch_size=args.requests, cost_model=cost_model),
        max_batch=args.requests, workers=args.workers)
    served = scheduler.sessions[0]

    def serve_burst():
        ids = [scheduler.submit(images[i]) for i in range(args.requests)]
        results = {r.request_id: r for r in scheduler.flush()}
        return np.concatenate([results[i].logits for i in ids], axis=0)

    serve_burst()                                  # warm up + calibrate
    start = time.perf_counter()
    logits = serve_burst()
    pooled_s = time.perf_counter() - start
    print(f"{args.workers} workers: {args.requests} requests in "
          f"{pooled_s * 1e3:.1f} ms "
          f"({in_process_s / pooled_s:.2f}x vs in-process)")

    # 3. Placement telemetry: which worker ran what, and the batch law
    #    each worker learned from its own replies (host ms, where the
    #    session's simulator price was the starting point).
    for event in scheduler.events[-args.workers:]:
        print(f"  flush -> worker {event.worker}: "
              f"{event.num_images} images, predicted "
              f"{event.estimated_ms:.2f} ms")
    for worker, law in enumerate(served.placement.snapshot()["learned"]):
        print(f"  worker {worker} learned: {law['overhead_ms']:.2f} ms "
              f"per launch + {law['marginal_ms']:.3f} ms per image "
              f"({law['samples']} samples)")

    # 4. The point: fan-out never changes the numbers.
    identical = bool((logits == reference.logits).all())
    print(f"pooled logits bitwise identical to in-process: {identical}")

    # 5. Deterministic shutdown: drains queues, joins workers.
    scheduler.shutdown()
    print(f"shutdown complete; worker processes alive: "
          f"{served.pool.alive_workers()}")
    if not identical:
        raise SystemExit("FAIL: pooled logits diverged")


if __name__ == "__main__":
    main()
