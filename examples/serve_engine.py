"""Serve a HeatViT model with the batched bucketed inference engine.

Simulates a small serving scenario: requests arrive in bursts of varying
size, and an :class:`repro.engine.InferenceSession` batches each burst
through the bucketed executor, reporting predictions, measured host
throughput, the per-stage bucketing decisions, and the estimated
accelerator latency per image (paper Table IV lookup, Eq. 18).

Pass ``--backend fastpath`` to serve through the compiled graph-free
fast path (fused float32 kernels + workspace reuse; identical
predictions, several times the throughput) instead of the float64
Tensor reference modules.  ``--backend int8`` serves the deployed
numerics: 8-bit integer GEMMs with the paper's polynomial GELU and
shift-based softmax (``int16`` runs them in float64).

Usage::

    PYTHONPATH=src python examples/serve_engine.py
    PYTHONPATH=src python examples/serve_engine.py --backend fastpath
    PYTHONPATH=src python examples/serve_engine.py --backend int8
"""

import argparse

import numpy as np

from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import BACKENDS, BucketingPolicy, InferenceSession
from repro.vit import VisionTransformer, ViTConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=BACKENDS, default="tensor",
                        help="engine compute backend (fastpath = compiled "
                             "float32 kernels; int8/int16 = quantized "
                             "deployment numerics)")
    args = parser.parse_args()
    rng = np.random.default_rng(0)

    # 1. A deployment-shaped model: selectors prune progressively.
    config = ViTConfig(name="serve-demo", image_size=32, patch_size=8,
                       embed_dim=48, depth=12, num_heads=4, num_classes=8)
    backbone = VisionTransformer(config, rng=rng)
    model = HeatViT(backbone, {3: 0.7, 6: 0.5, 9: 0.35}, rng=rng)
    print(f"model: {config.depth} blocks, {config.num_tokens} tokens, "
          f"selectors at {dict(zip(model.selector_blocks, model.keep_ratios))}")

    # 2. One session serves many requests; buckets pad up to 4 tokens.
    session = InferenceSession(model, batch_size=32,
                               policy=BucketingPolicy(pad_limit=4),
                               backend=args.backend)
    print(f"backend: {session.backend} "
          f"(compute dtype {np.dtype(session.dtype).name})")

    # 3. Bursts of varying size, as a request queue would hand us.
    data_config = SyntheticConfig(image_size=32, num_classes=8)
    for burst, count in enumerate([5, 17, 32]):
        batch = generate_dataset(data_config, count, rng)
        result = session.submit(batch.images)
        accuracy = float((result.predictions == batch.labels).mean())
        kept = [int(c.mean()) for c in result.tokens_per_stage]
        print(f"\nburst {burst}: {count} images in "
              f"{result.wall_time_s * 1e3:.1f} ms "
              f"({result.images_per_second:.0f} img/s)")
        print(f"  mean tokens per stage: {kept} (from {config.num_tokens})")
        print(f"  buckets per stage: "
              f"{[s.num_buckets for s in result.stage_stats]}, "
              f"padded tokens: "
              f"{sum(s.padded_tokens for s in result.stage_stats)}")
        print(f"  estimated accelerator latency: "
              f"{result.latency_ms.mean():.2f} ms/image "
              f"(min {result.latency_ms.min():.2f}, "
              f"max {result.latency_ms.max():.2f})")
        print(f"  accuracy vs synthetic labels: {accuracy:.2f} "
              f"(untrained weights -- wire in train_heatvit for real ones)")


if __name__ == "__main__":
    main()
