"""Per-layer metrics: where the wrappers go and what the spans mean.

``install_*`` put a :class:`spans.Tracer`'s wrappers around the public
functions of one layer of a live object graph and record counts at the
same boundaries into a plain ``counters`` dict (JSON-serialisable, so
the HTTP server process can hand its half to the bench process).
``*_metrics`` turn spans + counters into the named per-layer metrics.
A layer a workload does not touch yields no metric at all -- absent,
not zero.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import by_name, children_of, durations_ms, self_ms
from stats import percentile

ENGINE_ENTRY = ("engine.session.submit", "engine.session.submit_many")
SELECT_SPANS = ("engine.fastpath.select", "engine.fastpath.select_ragged")
# How many distinct block shapes the kernel probes time; the rest of
# the recorded token volume is scaled up from the probed share.
MAX_PROBED_SHAPES = 48


def _mean(values):
    return statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------------
# engine.* and core.*
# ----------------------------------------------------------------------
def new_engine_counters():
    return {"calls": 0, "images": 0, "runs": 0,
            "block_shapes": {},          # "B,T" -> run_block calls
            "stage_tokens": [],          # per stage: {token count: images}
            "stage_lengths": [],         # a few length vectors to re-plan
            "buckets": [], "padded_tokens": 0, "real_tokens": 0,
            "plan_cache": [0, 0]}        # hits, misses (filled at the end)


def install_engine(tracer, session, counters, entry="submit"):
    """Wrap the engine layers under ``session``.  ``entry`` is the
    public call the workload enters through: ``submit`` for a direct
    caller, ``submit_many`` under the scheduler."""
    executor, compiled = session.executor, session.executor.compiled

    def on_entry(span, args, kwargs, result):
        counters["calls"] += 1

    def on_run(span, args, kwargs, result):
        batch = int(result.logits.shape[0])
        counters["runs"] += 1
        counters["images"] += batch
        stages = counters["stage_tokens"]
        for stage, counts in enumerate(result.tokens_per_stage):
            if stage == len(stages):
                stages.append({})
            values, repeats = np.unique(counts, return_counts=True)
            for value, repeat in zip(values.tolist(), repeats.tolist()):
                stages[stage][value] = stages[stage].get(value, 0) + repeat
            counters["real_tokens"] += int(counts.sum())
            if len(counters["stage_lengths"]) < 24:
                counters["stage_lengths"].append(counts.tolist())
        if result.stage_stats:
            for stats in result.stage_stats:
                counters["buckets"].append(stats.num_buckets)
                counters["padded_tokens"] += stats.padded_tokens
        else:
            counters["buckets"].append(1)     # the one unpruned group

    def on_block(span, args, kwargs, result):
        shape = args[1].shape
        key = f"{shape[0]},{shape[1]}"
        shapes = counters["block_shapes"]
        shapes[key] = shapes.get(key, 0) + 1

    tracer.wrap(session, entry, f"engine.session.{entry}", after=on_entry)
    tracer.wrap(executor, "run_grouped", "engine.executor.run_grouped")
    tracer.wrap(executor, "run", "engine.executor.run", after=on_run)
    tracer.wrap(compiled, "embed", "engine.fastpath.embed")
    tracer.wrap(compiled, "run_block", "engine.fastpath.run_block",
                after=on_block)
    tracer.wrap(compiled, "select", "engine.fastpath.select")
    tracer.wrap(compiled, "select_ragged", "engine.fastpath.select_ragged")
    tracer.wrap(compiled, "classify", "engine.fastpath.classify")
    base = (executor.plan_cache_hits, executor.plan_cache_misses)

    def finish():
        counters["plan_cache"] = [executor.plan_cache_hits - base[0],
                                  executor.plan_cache_misses - base[1]]
    return finish


def engine_metrics(spans, counters, model, plan_us=None):
    """``engine.session`` / ``executor`` / ``bucketing`` / ``fastpath``
    and ``core`` metrics from one traced phase.  ``plan_us`` is the
    :func:`probe_plan_buckets` result, taken where the session lives."""
    metrics = {}
    children = children_of(spans)
    entries = [s for s in spans if s["name"] in ENGINE_ENTRY]
    if not entries:
        return metrics
    calls = len(entries)
    runs = by_name(spans, "engine.executor.run")
    metrics["engine.session.submit_ms_p50"] = percentile(
        durations_ms(entries), 50)
    metrics["engine.session.calls"] = calls
    metrics["engine.session.images_per_call_mean"] = (
        counters["images"] / calls)
    metrics["engine.session.self_ms_per_call"] = _mean(
        [self_ms(s, children) for s in entries])
    metrics["engine.executor.run_ms_p50"] = percentile(durations_ms(runs), 50)
    # run_grouped only concatenates before handing to run; its own time
    # belongs to the executor layer too.
    grouped = by_name(spans, "engine.executor.run_grouped")
    metrics["engine.executor.self_ms_per_call"] = (
        sum(self_ms(s, children) for s in runs + grouped) / calls)

    hits, misses = counters["plan_cache"]
    if hits + misses:
        metrics["engine.bucketing.plan_cache_hit_share"] = (
            hits / (hits + misses))
    metrics["engine.bucketing.buckets_per_stage_mean"] = _mean(
        counters["buckets"])
    if counters["real_tokens"]:
        metrics["engine.bucketing.padded_token_share"] = (
            counters["padded_tokens"] / counters["real_tokens"])
    elif not counters["stage_tokens"]:
        metrics["engine.bucketing.padded_token_share"] = 0.0
    if plan_us is not None:
        metrics["engine.bucketing.plan_us_per_call"] = plan_us

    metrics.update(core_metrics(counters, model))

    for name, metric in (("engine.fastpath.embed", "embed_ms_per_call"),
                         ("engine.fastpath.run_block", "block_ms_per_call"),
                         ("engine.fastpath.classify",
                          "classify_ms_per_call")):
        found = by_name(spans, name)
        if found:
            metrics[f"engine.fastpath.{metric}"] = _mean(durations_ms(found))
    metrics["engine.fastpath.block_calls_per_call"] = (
        len(by_name(spans, "engine.fastpath.run_block")) / calls)
    selects = [s for s in spans if s["name"] in SELECT_SPANS]
    if selects:
        metrics["engine.fastpath.selector_ms_per_call"] = _mean(
            durations_ms(selects))
    return metrics


def core_metrics(counters, model):
    """Pruning as work done: exact kept-token shares per stage and the
    MACs per image they imply (``repro.vit.complexity`` on the kept
    counts).  Counts, so they repeat exactly for a fixed seed."""
    from repro.vit.complexity import (block_macs, model_macs,
                                      token_selector_macs)

    config, images = model.config, counters["images"]
    if not images:
        return {}
    metrics = {}
    full = config.num_tokens
    boundaries = list(model.selector_blocks) + [config.depth]
    dims = (config.embed_dim, config.num_heads, config.mlp_hidden_dim)
    # Embedding + head, then the unpruned prefix, per image.
    macs = (model_macs(config) - model_macs(config, include_embedding=False)
            + boundaries[0] * block_macs(full, *dims)) * images
    incoming = {full: images}
    extra = model.non_patch_slots
    for stage, hist in enumerate(counters["stage_tokens"]):
        hist = {int(tokens): n for tokens, n in hist.items()}
        kept = sum(max(tokens - extra, 0) * n for tokens, n in hist.items())
        metrics[f"core.tokens_kept_share_stage{stage + 1}"] = (
            kept / (config.num_patches * images))
        blocks = boundaries[stage + 1] - boundaries[stage]
        for tokens, n in incoming.items():
            macs += n * token_selector_macs(tokens, config.embed_dim,
                                            config.num_heads)
        for tokens, n in hist.items():
            macs += n * blocks * block_macs(tokens, *dims)
        incoming = hist
    metrics["core.macs_per_image"] = macs / images
    return metrics


def probe_plan_buckets(session, length_vectors):
    """Cold ``plan_buckets`` cost (us per call) on recorded lengths;
    ``None`` when no selector stage produced any."""
    from repro.engine import plan_buckets

    if not length_vectors:
        return None
    executor = session.executor
    arrays = [np.asarray(v) for v in length_vectors]
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for lengths in arrays:
            plan_buckets(lengths, executor.policy,
                         cost_model=executor.cost_model)
        samples.append((time.perf_counter() - start) / len(arrays))
    return statistics.median(samples) * 1e6


# ----------------------------------------------------------------------
# Kernel probes at the recorded block shapes
# ----------------------------------------------------------------------
def _time_ms(fn, repeats=3):
    fn()                                   # allocate workspace, warm caches
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def _probed_shapes(block_shapes):
    """The heaviest recorded ``(B, T) -> calls`` shapes and the factor
    that scales their total up to the whole recorded token volume."""
    shapes = sorted(((tuple(int(v) for v in key.split(",")), calls)
                     for key, calls in block_shapes.items()),
                    key=lambda item: -item[0][0] * item[0][1] * item[1])
    volume = sum(b * t * calls for (b, t), calls in shapes)
    probed = shapes[:MAX_PROBED_SHAPES]
    covered = sum(b * t * calls for (b, t), calls in probed)
    return probed, (volume / covered if covered else 0.0)


def kernel_probes(counters, config, backend, dtype, calls):
    """Time the fused kernels alone on the shapes ``run_block`` saw,
    weighted by how often it saw them: ms per engine call spent in each
    kernel, and the bare-``np.matmul`` floor of the same blocks."""
    from repro.engine.fastpath import (Workspace, fused_layer_norm,
                                       gelu_rational, masked_softmax, qkernels)

    if not counters["block_shapes"] or not calls:
        return {}
    dtype = np.dtype(dtype)
    dim, heads = config.embed_dim, config.num_heads
    hidden, head_dim = config.mlp_hidden_dim, config.embed_dim // heads
    rng = np.random.default_rng(0)
    ws = Workspace(dtype)
    quantized = backend != "fastpath"
    prefix = ("engine.fastpath.qkernels." if quantized
              else "engine.fastpath.kernels.")
    totals = {}

    def add(name, ms, times):
        totals[name] = totals.get(name, 0.0) + ms * times

    def rand(*shape):
        return rng.standard_normal(shape).astype(dtype)

    probed, scale = _probed_shapes(counters["block_shapes"])
    for (batch, tokens), count in probed:
        x, wide = rand(batch, tokens, dim), rand(batch, tokens, hidden)
        scores = rand(batch, heads, tokens, tokens)
        gemms = [(x, rand(dim, 3 * dim)),
                 (rand(batch, heads, tokens, head_dim),
                  rand(batch, heads, head_dim, tokens)),
                 (scores, rand(batch, heads, tokens, head_dim)),
                 (x, rand(dim, dim)), (x, rand(dim, hidden)),
                 (wide, rand(hidden, dim))]
        outs = [np.empty(np.matmul(a, b).shape, dtype) for a, b in gemms]

        def matmuls(pairs):
            for (a, b), out in pairs:
                np.matmul(a, b, out=out)

        if quantized:
            linear = [pair for i, pair in enumerate(zip(gemms, outs))
                      if i not in (1, 2)]
            add("int_gemm_ms_per_call",
                _time_ms(lambda: matmuls(linear)), count)
            add("quantize_ms_per_call", _time_ms(lambda: (
                qkernels.quantize_fast(x, 127, ws, "q"),
                qkernels.quantize_fast(x, 127, ws, "q"),
                qkernels.quantize_fast(x, 127, ws, "q"),
                qkernels.quantize_fast(wide, 127, ws, "qw"))), count)
            add("approx_gelu_ms_per_call", _time_ms(
                lambda: qkernels.approx_gelu_fast(wide, 1.0, ws, "g")), count)
            add("approx_softmax_ms_per_call", _time_ms(
                lambda: qkernels.approx_softmax_fast(
                    scores, None, 1.0, ws, "s")), count)
        else:
            normed = np.empty_like(x)
            add("gemm_floor_ms_per_call",
                _time_ms(lambda: matmuls(list(zip(gemms, outs)))), count)
            add("gelu_ms_per_call",
                _time_ms(lambda: gelu_rational(wide, ws, "g")), count)
            add("softmax_ms_per_call", _time_ms(
                lambda: masked_softmax(scores, None, ws, "s")), count)
            add("layernorm_ms_per_call", 2 * _time_ms(
                lambda: fused_layer_norm(x, None, None, 1e-6, normed,
                                         ws, "l")), count)
    return {prefix + name: total * scale / calls
            for name, total in totals.items()}


def probe_cost_estimate(session, sizes):
    """``session.estimated_batch_cost`` us per call at recorded sizes."""
    sizes = sorted(set(int(n) for n in sizes if n > 0))[:32] or [1]
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for size in sizes:
            session.estimated_batch_cost(size)
        samples.append((time.perf_counter() - start) / len(sizes))
    return statistics.median(samples) * 1e6


def probe_router(scheduler, image):
    """``router.route`` us per request over the registered sessions."""
    from repro.serving import Request

    candidates = scheduler.sessions
    now = scheduler.clock.now()
    request = Request(request_id=-1, images=image[None], arrival_ms=now,
                      deadline_ms=now + 400.0)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(50):
            scheduler.router.route(request, candidates, now)
        samples.append((time.perf_counter() - start) / 50)
    return statistics.median(samples) * 1e6


# ----------------------------------------------------------------------
# serving.queue / scheduler / placement / worker
# ----------------------------------------------------------------------
def new_serving_counters():
    return {"wait_ms": [],               # RequestResult.wait_ms
            "flush_images": [], "flush_reasons": {},
            "shards": {},                # task id -> per-shard record
            "worker_images": {}}


def install_scheduler(tracer, scheduler, served, counters, step=False,
                      label_submit=None):
    """Wrap the queue and the scheduler's public calls: ``submit`` and
    whichever of ``drain`` (closed-loop bursts) or ``step`` (the HTTP
    server's background flush path) completes the requests; steps that
    flushed nothing are dropped.  ``label_submit`` names the
    operation of a ``submit`` that is itself a root span, from the
    request id it returned."""
    tracer.wrap(served.queue, "push", "serving.queue.push")
    tracer.wrap(served.queue, "pop_batch", "serving.queue.pop_batch")

    def on_submit(span, args, kwargs, request_id):
        if label_submit is not None and span["parent"] is None:
            span["op_id"][0] = label_submit(request_id)

    tracer.wrap(scheduler, "submit", "serving.scheduler.submit",
                after=on_submit)

    def on_results(span, args, kwargs, results):
        counters["wait_ms"].extend(r.wait_ms for r in results if not r.failed)

    if step:
        tracer.wrap(scheduler, "step", "serving.scheduler.step",
                    after=on_results, drop_childless=True)
    else:
        tracer.wrap(scheduler, "drain", "serving.scheduler.drain",
                    after=on_results)
    first_event = len(scheduler.events)

    def finish():
        for event in scheduler.events[first_event:]:
            reasons = counters["flush_reasons"]
            reasons[event.reason] = reasons.get(event.reason, 0) + 1
            counters["flush_images"].append(event.num_images)
    return finish


def install_pool(tracer, served, counters, samples, max_samples):
    """Wrap placement and the worker pool; pair every dispatched shard
    with its reply so dispatch, exec and transport separate.  The first
    ``max_samples`` dispatched shards are kept in ``samples`` (the image
    groups themselves) for the engine replay."""
    shards, state = counters["shards"], {"ticket": None}

    def on_assign(span, args, kwargs, ticket):
        state["ticket"] = ticket

    def on_dispatch(span, args, kwargs, result):
        task_id, groups, worker = args
        ticket = state["ticket"]
        if len(samples) < max_samples:
            samples.append(list(groups))
        shards[task_id] = {
            "dispatch_start": span["start"],
            "dispatch_ms": (span["end"] - span["start"]) * 1e3,
            "payload_bytes": sum(g.nbytes for g in groups),
            "predicted_ms": ticket.predicted_ms if ticket else None}

    def on_poll(span, args, kwargs, replies):
        for reply in replies:
            shard = shards.get(reply.task_id)
            if shard is None or reply.kind != "result":
                continue
            shard["seen"] = span["end"]
            shard["exec_ms"] = reply.wall_time_s * 1e3
            shard["payload_bytes"] += reply.logits.nbytes
            images = counters["worker_images"]
            images[reply.worker] = (images.get(reply.worker, 0)
                                    + reply.num_images)

    tracer.wrap(served.placement, "assign", "serving.placement.assign",
                after=on_assign)
    tracer.wrap(served.placement, "complete", "serving.placement.complete")
    tracer.wrap(served.pool, "dispatch", "serving.worker.dispatch",
                after=on_dispatch)
    tracer.wrap(served.pool, "poll", "serving.worker.poll", after=on_poll)


def serving_metrics(spans, counters, phase_seconds, num_workers=0):
    """``serving.queue`` / ``scheduler`` / ``placement`` / ``worker``."""
    metrics = {}

    def mean_us(name):
        found = by_name(spans, name)
        return _mean(durations_ms(found)) * 1e3 if found else None

    for metric, name in (
            ("serving.queue.push_us_per_request", "serving.queue.push"),
            ("serving.queue.pop_batch_us_per_flush",
             "serving.queue.pop_batch"),
            ("serving.placement.assign_us_per_shard",
             "serving.placement.assign")):
        value = mean_us(name)
        if value is not None:
            metrics[metric] = value
    if counters["wait_ms"]:
        metrics["serving.queue.wait_ms_p50"] = percentile(
            counters["wait_ms"], 50)
        metrics["serving.queue.wait_ms_p90"] = percentile(
            counters["wait_ms"], 90)
    submits = by_name(spans, "serving.scheduler.submit")
    if submits:
        metrics["serving.scheduler.submit_us_p50"] = percentile(
            durations_ms(submits), 50) * 1e3
    drains = by_name(spans, "serving.scheduler.drain")
    if drains:
        metrics["serving.scheduler.drain_ms_p50"] = percentile(
            durations_ms(drains), 50)
    flushes = sum(counters["flush_reasons"].values())
    if flushes:
        metrics["serving.scheduler.flushes"] = flushes
        metrics["serving.scheduler.images_per_flush_mean"] = _mean(
            counters["flush_images"])
        for reason in ("window", "capacity", "deadline", "forced"):
            metrics[f"serving.scheduler.flush_reason_{reason}_share"] = (
                counters["flush_reasons"].get(reason, 0) / flushes)

    done = [s for s in counters["shards"].values() if "seen" in s]
    if done:
        metrics["serving.worker.dispatch_ms_per_shard"] = _mean(
            [s["dispatch_ms"] for s in done])
        metrics["serving.worker.exec_ms_per_shard"] = _mean(
            [s["exec_ms"] for s in done])
        metrics["serving.worker.transport_ms_per_shard"] = _mean(
            [(s["seen"] - s["dispatch_start"]) * 1e3 - s["dispatch_ms"]
             - s["exec_ms"] for s in done])
        metrics["serving.worker.payload_bytes_per_shard"] = _mean(
            [s["payload_bytes"] for s in done])
        metrics["serving.worker.busy_share"] = (
            sum(s["exec_ms"] for s in done) / 1e3
            / (phase_seconds * num_workers))
        per_worker = list(counters["worker_images"].values())
        per_worker += [0] * (num_workers - len(per_worker))
        metrics["serving.placement.worker_image_imbalance"] = (
            max(per_worker) / _mean(per_worker))
        errors = [abs(s["predicted_ms"] - s["exec_ms"]) / s["exec_ms"]
                  for s in done if s["predicted_ms"] and s["exec_ms"] > 0]
        if errors:
            metrics["serving.placement.predicted_vs_measured_mape"] = _mean(
                errors)
    return metrics


def scheduler_self_ms_per_flush(spans, counters):
    """Closed-loop bursts: the burst's wall minus its slowest shard's
    dispatch + exec + transport -- what sharding, queueing and
    reassembly cost on top of the work itself."""
    by_op = {}
    for span in by_name(spans, "serving.worker.dispatch"):
        by_op.setdefault(span["op_id"], []).append(span["start"])
    seen_by_start = {s["dispatch_start"]: s["seen"]
                     for s in counters["shards"].values() if "seen" in s}
    own = []
    for root in by_name(spans, "op"):
        starts = by_op.get(root["op_id"], ())
        trips = [seen_by_start[start] - start for start in starts
                 if start in seen_by_start]
        if trips:
            own.append((root["end"] - root["start"] - max(trips)) * 1e3)
    return _mean(own) if own else None
