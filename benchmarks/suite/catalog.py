"""Every workload and metric the suite knows, with unit and direction.

``BENCHMARK.json`` at the repository root enrols a *subset* of this
catalogue in the driver's contract (the workloads and end-to-end metrics
steady enough on a shared 2-CPU host to carry a regression bound, see
README "Bounds"); the suite itself runs and reports everything here.
"""

from __future__ import annotations

WORKLOADS = ("offline_pruned_f32", "offline_dense_int8", "pool_burst",
             "http_open")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "images_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
    "within_limit_share": ("share", "higher"),
    "failed_share": ("share", "lower"),
    "cpu_ms_per_image": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "engine.session.submit_ms_p50": ("ms", "lower"),
    "engine.session.calls": ("count", "higher"),
    "engine.session.images_per_call_mean": ("count", "higher"),
    "engine.session.self_ms_per_call": ("ms", "lower"),
    "engine.session.busy_share": ("share", "lower"),
    "engine.executor.run_ms_p50": ("ms", "lower"),
    "engine.executor.self_ms_per_call": ("ms", "lower"),
    "engine.bucketing.plan_us_per_call": ("us", "lower"),
    "engine.bucketing.plan_cache_hit_share": ("share", "higher"),
    "engine.bucketing.buckets_per_stage_mean": ("count", "lower"),
    "engine.bucketing.padded_token_share": ("share", "lower"),
    "core.tokens_kept_share_stage1": ("share", "lower"),
    "core.tokens_kept_share_stage2": ("share", "lower"),
    "core.tokens_kept_share_stage3": ("share", "lower"),
    "core.macs_per_image": ("MAC", "lower"),
    "engine.fastpath.embed_ms_per_call": ("ms", "lower"),
    "engine.fastpath.block_ms_per_call": ("ms", "lower"),
    "engine.fastpath.block_calls_per_call": ("count", "lower"),
    "engine.fastpath.selector_ms_per_call": ("ms", "lower"),
    "engine.fastpath.classify_ms_per_call": ("ms", "lower"),
    "engine.fastpath.kernels.gelu_ms_per_call": ("ms", "lower"),
    "engine.fastpath.kernels.softmax_ms_per_call": ("ms", "lower"),
    "engine.fastpath.kernels.layernorm_ms_per_call": ("ms", "lower"),
    "engine.fastpath.kernels.gemm_floor_ms_per_call": ("ms", "lower"),
    "engine.fastpath.qkernels.quantize_ms_per_call": ("ms", "lower"),
    "engine.fastpath.qkernels.approx_gelu_ms_per_call": ("ms", "lower"),
    "engine.fastpath.qkernels.approx_softmax_ms_per_call": ("ms", "lower"),
    "engine.fastpath.qkernels.int_gemm_ms_per_call": ("ms", "lower"),
    "cost.estimate_us_per_call": ("us", "lower"),
    "serving.queue.push_us_per_request": ("us", "lower"),
    "serving.queue.pop_batch_us_per_flush": ("us", "lower"),
    "serving.queue.wait_ms_p50": ("ms", "lower"),
    "serving.queue.wait_ms_p90": ("ms", "lower"),
    "serving.scheduler.submit_us_p50": ("us", "lower"),
    "serving.scheduler.drain_ms_p50": ("ms", "lower"),
    "serving.scheduler.flushes": ("count", "lower"),
    "serving.scheduler.images_per_flush_mean": ("count", "higher"),
    "serving.scheduler.flush_reason_window_share": ("share", "lower"),
    "serving.scheduler.flush_reason_capacity_share": ("share", "higher"),
    "serving.scheduler.flush_reason_deadline_share": ("share", "lower"),
    "serving.scheduler.flush_reason_forced_share": ("share", "lower"),
    "serving.scheduler.self_ms_per_flush": ("ms", "lower"),
    "serving.router.route_us_per_request": ("us", "lower"),
    "serving.placement.assign_us_per_shard": ("us", "lower"),
    "serving.placement.worker_image_imbalance": ("ratio", "lower"),
    "serving.placement.predicted_vs_measured_mape": ("share", "lower"),
    "serving.worker.dispatch_ms_per_shard": ("ms", "lower"),
    "serving.worker.exec_ms_per_shard": ("ms", "lower"),
    "serving.worker.transport_ms_per_shard": ("ms", "lower"),
    "serving.worker.payload_bytes_per_shard": ("B", "lower"),
    "serving.worker.busy_share": ("share", "higher"),
    "serving.worker.spawn_s": ("s", "lower"),
    "serving.worker.restarts": ("count", "lower"),
    "serving.http.submit_rtt_ms_p50_seed": ("ms", "lower"),
    "serving.http.submit_rtt_ms_p50_inline": ("ms", "lower"),
    "serving.http.result_rtt_ms_p50": ("ms", "lower"),
    "serving.http.overhead_ms_p50": ("ms", "lower"),
    "serving.http.body_bytes_per_request": ("B", "lower"),
    "serving.http.requests": ("count", "higher"),
    "serving.http.status_429": ("count", "lower"),
    "serving.http.status_5xx": ("count", "lower"),
    "serving.trace.generator_late_ms_p99": ("ms", "lower"),
    "serving.trace.offered_per_s": ("1/s", "higher"),
    "trace.unattributed_share": ("share", "lower"),
    "trace.overhead_share": ("share", "lower"),
    # End-to-end numbers the contract cannot bound, as the client of the
    # traced run saw them: failed_share is 0 on a healthy run, and the
    # run-to-run spread of the p90 (every workload) and of the peak
    # resident set (http_open) exceeds 0.10 on this host (AA_REPORT.md).
    "client.failed_share": ("share", "lower"),
    "client.latency_ms_p90": ("ms", "lower"),
    "client.peak_rss_mb": ("MB", "lower"),
}

UNITS = {name: unit for table in (END_TO_END, PER_LAYER)
         for name, (unit, _) in table.items()}
