"""The two model shapes the workloads serve, and their inputs.

Weights come from fixed seeds: ``--seed`` varies the *inputs* (images,
burst composition, arrival schedule), never the program.
"""

from __future__ import annotations

import numpy as np

from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.vit import VisionTransformer, ViTConfig

NUM_CLASSES = 8
IMAGE_SIZE = 32
BATCH = 32

# The paper's deployed shape at laptop scale: 64 patches, three selector
# stages.  Untrained selectors still decide per image, so kept-token
# counts are ragged within every batch.
PRUNED = dict(patch_size=4, embed_dim=48, depth=12, num_heads=4,
              mlp_ratio=4.0, selectors={3: 0.7, 6: 0.5, 9: 0.35})
# MLP-heavy and dense (the QUANT_GATE regime of
# bench_engine_throughput.py, deepened so one 32-image batch takes
# ~45 ms on int8): GELU/softmax/quantize kernels do the work, bucketing
# and selectors none.
DENSE = dict(patch_size=8, embed_dim=64, depth=8, num_heads=4,
             mlp_ratio=16.0, selectors={})


def build_model(shape):
    config = ViTConfig(name="suite", image_size=IMAGE_SIZE,
                       patch_size=shape["patch_size"],
                       embed_dim=shape["embed_dim"], depth=shape["depth"],
                       num_heads=shape["num_heads"],
                       mlp_ratio=shape["mlp_ratio"],
                       num_classes=NUM_CLASSES)
    backbone = VisionTransformer(config, rng=np.random.default_rng(0))
    model = HeatViT(backbone, shape["selectors"],
                    rng=np.random.default_rng(1))
    model.eval()
    return model


def make_images(count, seed):
    """``count`` synthetic images whose object size -- and so the number
    of tokens the selectors keep -- varies widely per image."""
    config = SyntheticConfig(image_size=IMAGE_SIZE, num_classes=NUM_CLASSES,
                             object_scale_range=(0.15, 0.9))
    return generate_dataset(config, count, np.random.default_rng(seed)).images
