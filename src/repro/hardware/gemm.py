"""Cycle-level model of the tiled GEMM engine (paper Fig. 8b).

The engine has a ``Ti x To x Th`` MAC array: ``Ti`` multipliers along
the input (reduction) dimension, ``To`` along the output dimension, and
``Th`` parallel head groups.

* Attention layers (Q x K^T, QK^T x V, and the per-head part of the
  linear transformation) run ``h`` independent group-GEMMs; ``Th``
  groups execute concurrently and results stay grouped ("Concat").
* Non-attention layers (projection, FFN, token-selector MLPs) use the
  head dimension as an extra reduction tile: the ``Th`` groups each take
  a ``Di/Th`` slice of the reduction and their partial sums are added
  ("Sum") -- the ``Attention?`` multiplexer of Fig. 8b.

Cycle counts are the exact loop-nest trip counts of the tiled schedule
(ceil division captures padding waste), plus a pipeline-fill overhead
per tile swap; DDR transfer time is overlapped via double buffering, so
a layer's latency is ``max(compute, transfer) + fill``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GemmShape", "TiledGemmEngine"]


@dataclass(frozen=True)
class GemmShape:
    """One GEMM workload: ``(rows x depth) @ (depth x cols)``.

    ``groups > 1`` marks a per-head (attention) computation executing
    ``groups`` independent GEMMs of this shape.
    """

    rows: int
    depth: int
    cols: int
    groups: int = 1

    @property
    def macs(self):
        return self.groups * self.rows * self.depth * self.cols

    def operand_bytes(self, bitwidth):
        per = bitwidth // 8
        inputs = self.groups * self.rows * self.depth * per
        weights = self.groups * self.depth * self.cols * per
        outputs = self.groups * self.rows * self.cols * per
        return inputs + weights + outputs


class TiledGemmEngine:
    """The ``Ti x To x Th`` MAC array with its tiling schedule."""

    PIPELINE_FILL = 24   # cycles to fill/drain the MAC pipeline per tile

    def __init__(self, ti, to, th, bitwidth, device):
        if min(ti, to, th) < 1:
            raise ValueError("tile sizes must be >= 1")
        self.ti = ti
        self.to = to
        self.th = th
        self.bitwidth = bitwidth
        self.device = device

    @property
    def macs_per_cycle(self):
        return self.ti * self.to * self.th

    # ------------------------------------------------------------------
    def compute_cycles(self, shape):
        """Loop-nest trip count for one workload."""
        if shape.groups > 1:
            # Attention: Th groups in parallel, each a full GEMM.
            group_passes = math.ceil(shape.groups / self.th)
            tiles = (math.ceil(shape.depth / self.ti)
                     * math.ceil(shape.cols / self.to))
            return group_passes * tiles * shape.rows
        # Non-attention: heads tile the reduction dimension.
        reduction = math.ceil(shape.depth / (self.ti * self.th))
        tiles = reduction * math.ceil(shape.cols / self.to)
        return tiles * shape.rows

    def tile_swaps(self, shape):
        """Number of weight-tile swaps (pipeline fills) for a workload."""
        if shape.groups > 1:
            return (math.ceil(shape.groups / self.th)
                    * math.ceil(shape.depth / self.ti)
                    * math.ceil(shape.cols / self.to))
        return (math.ceil(shape.depth / (self.ti * self.th))
                * math.ceil(shape.cols / self.to))

    def transfer_cycles(self, shape):
        """DDR transfer cycles for all operands of a workload."""
        return math.ceil(shape.operand_bytes(self.bitwidth)
                         / self.device.ddr_bytes_per_cycle)

    def latency_cycles(self, shape):
        """Double-buffered layer latency in cycles."""
        compute = self.compute_cycles(shape)
        transfer = self.transfer_cycles(shape)
        fills = self.tile_swaps(shape) * self.PIPELINE_FILL
        return max(compute, transfer) + fills

    def efficiency(self, shape):
        """Achieved / peak MAC utilization for a workload in [0, 1]."""
        ideal = shape.macs / self.macs_per_cycle
        return ideal / self.latency_cycles(shape)
