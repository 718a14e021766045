"""FPGA accelerator simulator + CPU/GPU comparison models."""

from repro._lazy import lazy_exports

__all__ = [
    "FPGASpec", "ProcessorSpec", "ZCU102", "TX2_CPU", "TX2_GPU",
    "BRAM36_BYTES",
    "GemmShape", "TiledGemmEngine",
    "AcceleratorDesign", "AcceleratorReport", "ViTAcceleratorSim",
    "baseline_design", "heatvit_design",
    "ResourceCount", "nonlinear_unit_table", "original_unit",
    "approx_gelu_unit", "approx_softmax_unit", "approx_sigmoid_unit",
    "gemm_engine_resources", "buffer_brams", "selector_control",
    "PAPER_TABLE3", "PAPER_TABLE4",
    "build_latency_table", "block_latency_ms",
    "build_cost_model", "simulated_model_batch_ms",
    "cost_model_prediction_error", "DEFAULT_BATCH_SIZES",
    "TokenSelectionFlow", "FlowResult",
    "TilingChoice", "search_tiling",
    "PlatformResult", "compare_platforms", "speedup_breakdown",
    "LayerTraceEntry", "trace_schedule", "format_trace",
    "utilization_summary",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "accelerator": ("AcceleratorDesign", "AcceleratorReport",
                    "ViTAcceleratorSim", "baseline_design", "heatvit_design"),
    "comparison": ("PlatformResult", "compare_platforms", "speedup_breakdown"),
    "device": ("BRAM36_BYTES", "TX2_CPU", "TX2_GPU", "ZCU102", "FPGASpec",
               "ProcessorSpec"),
    "gemm": ("GemmShape", "TiledGemmEngine"),
    "latency_table": ("DEFAULT_BATCH_SIZES", "PAPER_TABLE4",
                      "block_latency_ms", "build_cost_model",
                      "build_latency_table", "cost_model_prediction_error",
                      "simulated_model_batch_ms"),
    "resources": ("PAPER_TABLE3", "ResourceCount", "approx_gelu_unit",
                  "approx_sigmoid_unit", "approx_softmax_unit",
                  "buffer_brams", "gemm_engine_resources",
                  "nonlinear_unit_table", "original_unit", "selector_control"),
    "schedule": ("LayerTraceEntry", "format_trace", "trace_schedule",
                 "utilization_summary"),
    "selector_flow": ("FlowResult", "TokenSelectionFlow"),
    "tiling": ("TilingChoice", "search_tiling"),
})
