"""End-to-end ViT accelerator simulator (paper Sec. V, Table VI).

Builds the full layer schedule of a (possibly token-pruned) ViT --
GEMMs, nonlinear activation passes, CPU-side LayerNorm, and the token
selection flow -- and produces latency / FPS / resource / power numbers
for a given :class:`AcceleratorDesign`.

Calibration targets (documented in EXPERIMENTS.md): the 16-bit baseline
designs use a 768-MAC array at 2 DSP/MAC; the 8-bit HeatViT designs use
a 1920-MAC array at 1 DSP/MAC.  Per-model designs share the total
parallelism and set ``Th`` to the model's head count, exactly as the
paper describes ("multiple hardware accelerators are designed according
to the number of heads in a specific ViT").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hardware.device import ZCU102
from repro.hardware.gemm import GemmShape, TiledGemmEngine
from repro.hardware.resources import (buffer_brams, gemm_engine_resources,
                                      selector_control)

__all__ = ["AcceleratorDesign", "AcceleratorReport", "ViTAcceleratorSim",
           "baseline_design", "heatvit_design"]

# Nonlinear / elementwise engines process this many elements per cycle.
_NONLINEAR_LANES = 16
# ARM-side LayerNorm throughput (elements per second); NEON-vectorized
# fp16 normalization on a Cortex-A53 class core.
_CPU_LN_ELEMENTS_PER_S = 6.0e8
# Power model (calibrated to Table VI's four measured designs).
_POWER_STATIC_W = 1.36
_POWER_PER_DSP_W = 0.002
_POWER_PER_BRAM_W = 0.007
_POWER_PER_LUT_W = 1.0e-5

# Total MAC-array parallelism per bitwidth (see module docstring).
_TOTAL_MACS = {16: 768, 8: 1920}
_DEFAULT_TI = 8


@dataclass(frozen=True)
class AcceleratorDesign:
    """A concrete accelerator instance."""

    name: str
    ti: int
    to: int
    th: int
    bitwidth: int
    with_token_selector: bool
    use_approx_nonlinear: bool

    @property
    def macs_per_cycle(self):
        return self.ti * self.to * self.th


def baseline_design(config):
    """The 16-bit, no-pruning baseline accelerator for a backbone."""
    heads = config.num_heads
    to = max(1, _TOTAL_MACS[16] // (_DEFAULT_TI * heads))
    return AcceleratorDesign(
        name=f"baseline-{config.name}", ti=_DEFAULT_TI, to=to, th=heads,
        bitwidth=16, with_token_selector=False, use_approx_nonlinear=False)


def heatvit_design(config):
    """The 8-bit HeatViT accelerator (token selector + approximations)."""
    heads = config.num_heads
    to = max(1, _TOTAL_MACS[8] // (_DEFAULT_TI * heads))
    return AcceleratorDesign(
        name=f"heatvit-{config.name}", ti=_DEFAULT_TI, to=to, th=heads,
        bitwidth=8, with_token_selector=True, use_approx_nonlinear=True)


@dataclass
class AcceleratorReport:
    """Simulation outcome for one design + workload."""

    design: AcceleratorDesign
    latency_ms: float
    fps: float
    resources: dict
    utilization: dict
    power_w: float
    energy_efficiency: float
    cycles_by_kind: dict = field(default_factory=dict)

    def speedup_over(self, other):
        return other.latency_ms / self.latency_ms


class ViTAcceleratorSim:
    """Simulates a ViT (optionally token-pruned) on a design."""

    def __init__(self, config, design, device=ZCU102):
        self.config = config
        self.design = design
        self.device = device
        self.engine = TiledGemmEngine(design.ti, design.to, design.th,
                                      design.bitwidth, device)

    # ------------------------------------------------------------------
    # Layer schedule
    # ------------------------------------------------------------------
    def block_gemms(self, tokens, batch=1):
        """The six Table II GEMMs of one encoder block.

        ``batch > 1`` models back-to-back execution of a batch on the
        same accelerator: weight-stationary layers stack the images
        along the row (token) dimension -- the weight tiles are loaded
        once for the whole batch -- while the per-head attention GEMMs
        are independent per image and multiply the group count.
        """
        cfg = self.config
        d = cfg.head_dim
        h = cfg.num_heads
        rows = batch * tokens
        return [
            ("qkv", GemmShape(rows, cfg.embed_dim, 3 * cfg.embed_dim)),
            ("qk_t", GemmShape(tokens, d, tokens, groups=batch * h)),
            ("att_v", GemmShape(tokens, tokens, d, groups=batch * h)),
            ("proj", GemmShape(rows, cfg.embed_dim, cfg.embed_dim)),
            ("fc1", GemmShape(rows, cfg.embed_dim, cfg.mlp_hidden_dim)),
            ("fc2", GemmShape(rows, cfg.mlp_hidden_dim, cfg.embed_dim)),
        ]

    def selector_gemms(self, tokens, batch=1):
        """Token-selector GEMMs (classifier + attention branch, Fig. 7)."""
        cfg = self.config
        d = cfg.head_dim
        h = cfg.num_heads
        feat = max(d // 2, 2)
        rows = batch * tokens
        return [
            ("sel_feature", GemmShape(tokens, d, feat, groups=batch * h)),
            ("sel_cls1", GemmShape(tokens, 2 * feat, feat,
                                   groups=batch * h)),
            ("sel_cls2", GemmShape(tokens, feat, max(feat // 2, 2),
                                   groups=batch * h)),
            ("sel_cls3", GemmShape(tokens, max(feat // 2, 2), 2,
                                   groups=batch * h)),
            ("sel_attn", GemmShape(rows, h, h)),
        ]

    def _nonlinear_cycles(self, elements):
        return math.ceil(elements / _NONLINEAR_LANES)

    def block_cycles(self, tokens, with_selector=False, batch=1):
        """FPGA cycles + CPU nanoseconds for one block (+ selector).

        ``batch`` sizes the workload for a whole batch executed in one
        launch: compute and data movement scale with the image count
        while weight-tile loads (the pipeline-fill overhead of the
        weight-stationary GEMMs) are paid once -- the economy of scale
        the batch-aware cost model calibrates against.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        cfg = self.config
        cycles = {"gemm": 0, "nonlinear": 0, "selector_flow": 0}
        for _, shape in self.block_gemms(tokens, batch=batch):
            cycles["gemm"] += self.engine.latency_cycles(shape)
        # Softmax over h x N x N scores, GELU over N x hidden.
        cycles["nonlinear"] += self._nonlinear_cycles(
            batch * cfg.num_heads * tokens * tokens)
        cycles["nonlinear"] += self._nonlinear_cycles(
            batch * tokens * cfg.mlp_hidden_dim)
        if with_selector:
            for _, shape in self.selector_gemms(tokens, batch=batch):
                cycles["gemm"] += self.engine.latency_cycles(shape)
            # Fig. 9 flow: exponent+sum, divide+classify, concat/average;
            # each pass is streamed one token per cycle with small fixed
            # sequencing overhead paid once per launch.
            cycles["selector_flow"] += 3 * batch * tokens + 64
            cycles["nonlinear"] += self._nonlinear_cycles(
                batch * tokens * cfg.num_heads)  # sigmoid of attn branch
        cpu_ns = (2 * batch * tokens * cfg.embed_dim
                  / _CPU_LN_ELEMENTS_PER_S * 1e9)
        return cycles, cpu_ns

    # ------------------------------------------------------------------
    # Whole-model simulation
    # ------------------------------------------------------------------
    def tokens_schedule(self, stage_plan=None):
        """Per-block token counts (with the selector boundaries)."""
        cfg = self.config
        if stage_plan is None:
            return [cfg.num_tokens] * cfg.depth, set()
        counts = stage_plan.tokens_per_block(cfg.depth, cfg.num_patches)
        return counts, set(stage_plan.boundaries)

    def simulate(self, stage_plan=None):
        """Run the layer schedule; returns an :class:`AcceleratorReport`.

        ``stage_plan`` (a :class:`repro.vit.StagePlan`) enables token
        pruning; ``None`` simulates the dense backbone.
        """
        cfg = self.config
        design = self.design
        if stage_plan is not None and not design.with_token_selector:
            raise ValueError(
                "design has no token selector but a stage plan was given")
        counts, boundaries = self.tokens_schedule(stage_plan)
        totals = {"gemm": 0, "nonlinear": 0, "selector_flow": 0}
        cpu_ns_total = 0.0
        # Patch embedding GEMM + final head.
        patch_dim = cfg.in_channels * cfg.patch_size ** 2
        embed = GemmShape(cfg.num_patches, patch_dim, cfg.embed_dim)
        head = GemmShape(1, cfg.embed_dim, cfg.num_classes)
        totals["gemm"] += self.engine.latency_cycles(embed)
        totals["gemm"] += self.engine.latency_cycles(head)
        for block_index in range(cfg.depth):
            with_selector = block_index in boundaries
            cycles, cpu_ns = self.block_cycles(counts[block_index],
                                               with_selector=with_selector)
            for key, value in cycles.items():
                totals[key] += value
            cpu_ns_total += cpu_ns
        fpga_cycles = sum(totals.values())
        latency_ms = (fpga_cycles * self.device.cycle_ns
                      + cpu_ns_total) / 1e6
        fps = 1000.0 / latency_ms
        resources = self.resource_usage()
        utilization = self.device.utilization(resources)
        power = self.power_w(resources)
        return AcceleratorReport(
            design=design, latency_ms=latency_ms, fps=fps,
            resources=resources, utilization=utilization, power_w=power,
            energy_efficiency=fps / power, cycles_by_kind=dict(totals))

    # ------------------------------------------------------------------
    # Resources and power
    # ------------------------------------------------------------------
    def resource_usage(self):
        cfg = self.config
        design = self.design
        logic = gemm_engine_resources(
            design.ti, design.to, design.th, design.bitwidth,
            design.use_approx_nonlinear)
        brams = buffer_brams(
            max_tokens=cfg.num_tokens, head_dim=cfg.head_dim,
            num_heads=cfg.num_heads, th=design.th, ti=design.ti,
            to=design.to, bitwidth=design.bitwidth,
            mlp_hidden_dim=cfg.mlp_hidden_dim)
        if design.with_token_selector:
            extra, extra_bram = selector_control(cfg.num_heads,
                                                 design.bitwidth)
            logic = logic + extra
            brams += extra_bram
        return {"dsp": logic.dsp, "lut": logic.lut, "ff": logic.ff,
                "bram36": brams}

    @staticmethod
    def power_w(resources):
        return (_POWER_STATIC_W
                + _POWER_PER_DSP_W * resources["dsp"]
                + _POWER_PER_BRAM_W * resources["bram36"]
                + _POWER_PER_LUT_W * resources["lut"])
