"""The three closed-loop workloads: what each builds, what one operation
is, and how its outputs are checked (``http_load.py`` holds the open
loop).

Every workload follows the same life cycle::

    w = Workload(seed)      # inputs from the seed; nothing of the program
    w.build()               # the program, up to its first result (timed
                            #   by the caller as one cold set-up)
    w.measure(...)          # warm-up, then the measured phase
    w.verify()              # strict check of the first result against a
                            #   reference
    w.verify_end()          # checks that need the whole run
    w.close()

An operation record is ``(start, end, status, images, limit_ms)`` with
``status`` one of ``"ok"``, ``"shed"``, ``"failed"``.

Strict checks compare against a float64 reference, and float32 kernels
may flip a near-tie (a selector score or a logit gap within rounding of
its threshold) on the odd image.  On seeded inputs a check therefore
asks for agreement on at least ``MIN_AGREEMENT`` of the images -- a
real defect breaks nearly all of them -- and demands every image only
on one fixed canary batch, where a tie cannot come and go with the
seed.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

import layers
import models
from repro.core import PruningRecord
from repro.engine import InferenceSession
from repro.serving import RecoveryPolicy, Scheduler

DISTINCT_BATCHES = 8
MIN_AGREEMENT = 0.9
CANARY_SEED = 0


class CheckFailed(Exception):
    """The program's output failed a workload's strict check."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def agreement(logits, reference, atol):
    """Share of rows within ``atol`` of the reference and with its
    argmax."""
    close = np.abs(logits - reference).max(axis=-1) <= atol
    same = logits.argmax(-1) == reference.argmax(-1)
    return float(np.mean(close & same))


class ClosedLoop:
    """One caller; the next operation starts when the previous returns."""

    images_per_op = models.BATCH
    limit_ms = 150.0
    open_loop = False
    rebuild_for_trace = False
    extra_spans = ()
    span_tables = {}

    def op(self, index):
        """Run operation ``index``; returns whether its output passed."""
        raise NotImplementedError

    def verify_end(self):
        pass

    def extra_detail(self):
        return {}

    def waterfall(self, spans):
        import spans as span_tools

        return span_tools.waterfall(spans)

    def pids(self):
        """The program runs in this process and its pool workers."""
        return [os.getpid()] + [child.pid for child in
                                multiprocessing.active_children()]

    def measure(self, warmup_s, seconds, mark, tracer=None):
        """Warm up, then run back to back for ``seconds``.  ``mark()``
        is called at both ends of the measured phase.  Returns the phase
        start and the operation records."""
        index = 0
        stop = time.perf_counter() + warmup_s
        while time.perf_counter() < stop:
            self.op(index)
            index += 1
        records = []
        mark()
        phase_start = time.perf_counter()
        stop = phase_start + seconds
        while True:
            start = time.perf_counter()
            if start >= stop:
                break
            if tracer is None:
                ok = self.op(index)
            else:
                root = tracer.begin("op", op_id=index)
                try:
                    ok = self.op(index)
                finally:
                    tracer.end(root)
            records.append((start, time.perf_counter(),
                            "ok" if ok else "failed",
                            self.images_per_op, self.limit_ms))
            index += 1
        mark()
        return phase_start, records

    def _repeats(self, slot, logits):
        """An input seen before must produce what it produced then."""
        expected = self.expected.get(slot)
        if expected is None:
            self.expected[slot] = logits
            return bool(np.isfinite(logits).all()
                        and logits.shape == (models.BATCH,
                                             models.NUM_CLASSES))
        return bool(np.allclose(logits, expected, rtol=0.0, atol=1e-5))


# ----------------------------------------------------------------------
# offline_pruned_f32 / offline_dense_int8
# ----------------------------------------------------------------------
class Offline(ClosedLoop):
    """``InferenceSession.submit`` of 32-image batches, cycling eight
    distinct batches, from one caller."""

    shape = backend = None

    def __init__(self, seed):
        images = models.make_images(DISTINCT_BATCHES * models.BATCH, seed)
        self.batches = [images[i * models.BATCH:(i + 1) * models.BATCH]
                        for i in range(DISTINCT_BATCHES)]
        self.session = None
        self.expected = {}

    def build(self, trace=False):
        self.model = models.build_model(self.shape)
        self.session = InferenceSession(self.model, batch_size=models.BATCH,
                                        backend=self.backend,
                                        dtype=np.float32)
        self.first = self.session.submit(self.batches[0])

    def close(self):
        self.session = None

    def op(self, index):
        slot = index % DISTINCT_BATCHES
        return self._repeats(
            slot, self.session.submit(self.batches[slot]).logits)

    def install(self, tracer):
        self.counters = layers.new_engine_counters()
        self._finish = layers.install_engine(tracer, self.session,
                                             self.counters)

    def layer_metrics(self, tracer, phase_seconds):
        self._finish()
        metrics = layers.engine_metrics(
            tracer.export(), self.counters, self.model,
            plan_us=layers.probe_plan_buckets(
                self.session, self.counters["stage_lengths"]))
        metrics.update(layers.kernel_probes(
            self.counters, self.model.config, self.backend,
            self.session.dtype, self.counters["calls"]))
        metrics["cost.estimate_us_per_call"] = layers.probe_cost_estimate(
            self.session, [models.BATCH])
        return metrics


class OfflinePrunedF32(Offline):
    name = "offline_pruned_f32"
    shape, backend = models.PRUNED, "fastpath"

    def _agreement_with_reference(self, images, result):
        """Share of images on which the engine kept the same tokens as
        ``HeatViT.forward_pruned`` and landed within 1e-5 of its logits
        with the same argmax."""
        record = PruningRecord()
        reference = self.model.forward_pruned(images, record=record).data
        good = ((np.abs(result.logits - reference).max(axis=-1) <= 1e-5)
                & (result.logits.argmax(-1) == reference.argmax(-1)))
        for ours, theirs in zip(result.tokens_per_stage,
                                record.tokens_per_stage):
            good &= np.asarray(ours) == np.asarray(theirs)
        return float(np.mean(good))

    def verify(self):
        canary = models.make_images(models.BATCH, CANARY_SEED)
        share = self._agreement_with_reference(canary,
                                               self.session.submit(canary))
        _require(share == 1.0,
                 f"fastpath-f32 matches forward_pruned (logits <= 1e-5, "
                 f"argmax, kept counts) on only {share:.3f} of the canary "
                 f"batch")
        share = self._agreement_with_reference(self.batches[0], self.first)
        _require(share >= MIN_AGREEMENT,
                 f"fastpath-f32 matches forward_pruned on only "
                 f"{share:.3f} of the first batch")


class OfflineDenseInt8(Offline):
    name = "offline_dense_int8"
    shape, backend = models.DENSE, "int8"
    # Twice the p50 (~45 ms) measured when the workload was defined.
    limit_ms = 90.0

    def verify(self):
        images = np.concatenate(self.batches[:2])
        exact = InferenceSession(self.model, batch_size=models.BATCH,
                                 backend="int8", dtype=np.float64)
        share = float(np.mean(self.session.submit(images).predictions
                              == exact.submit(images).predictions))
        _require(share >= 0.95,
                 f"int8 f32-grade top-1 agreement with the f64 grade is "
                 f"{share:.3f} < 0.95 on 64 images")


# ----------------------------------------------------------------------
# pool_burst
# ----------------------------------------------------------------------
class PoolBurst(ClosedLoop):
    """Bursts of 16 small requests through a 2-worker pool:
    ``Scheduler.submit`` x 16, then ``drain()``."""

    name = "pool_burst"
    sizes = (1, 1, 2, 4) * 4
    workers = 2
    replayed_shards = 48

    def __init__(self, seed):
        images = models.make_images(DISTINCT_BATCHES * models.BATCH, seed)
        order = np.random.default_rng(seed)
        self.bursts = []
        for slot in range(DISTINCT_BATCHES):
            batch = images[slot * models.BATCH:(slot + 1) * models.BATCH]
            cuts = np.cumsum(order.permutation(self.sizes))[:-1]
            self.bursts.append(np.split(batch, cuts))
        self.scheduler = None
        self.expected = {}

    def build(self, trace=False):
        self.model = models.build_model(models.PRUNED)
        self.scheduler = Scheduler()
        start = time.perf_counter()
        # One shard in flight per worker, so a burst's two shards always
        # land on both workers.  Left to itself the placement policy
        # sometimes locks one worker out for good: its learned
        # estimator turns confident on eight samples that include the
        # cold first one, over-prices it 3x, and a starved worker never
        # gets the samples that would correct it -- about one pool in
        # six then runs at half speed (see README, "Found on the way").
        # That coin flip is a defect to fix in its own issue; a
        # benchmark has to measure the same thing every run.
        self.served = self.scheduler.register(
            "pruned", self.model, backend="fastpath", dtype=np.float32,
            workers=self.workers, learn_cost=False,
            recovery=RecoveryPolicy(max_in_flight_per_worker=1))
        self.spawn_s = time.perf_counter() - start
        self.first = self._burst(0)

    def close(self):
        if self.scheduler is not None:
            self.scheduler.shutdown()
            self.scheduler = None

    def _burst(self, slot):
        """Submit one burst and drain; its logits in submission order,
        or ``None`` unless exactly its 16 requests came back done."""
        ids = [self.scheduler.submit(images) for images in self.bursts[slot]]
        results = {r.request_id: r for r in self.scheduler.drain()}
        if sorted(results) != ids or any(r.failed for r in results.values()):
            return None
        return np.concatenate([results[i].logits for i in ids])

    def op(self, index):
        slot = index % DISTINCT_BATCHES
        logits = self._burst(slot)
        return logits is not None and self._repeats(slot, logits)

    def verify(self):
        _require(self.first is not None,
                 "the first burst did not return exactly its 16 requests")
        reference = InferenceSession(
            self.model, batch_size=models.BATCH, backend="fastpath",
            dtype=np.float32).submit(np.concatenate(self.bursts[0])).logits
        share = agreement(self.first, reference, atol=1e-5)
        _require(share >= MIN_AGREEMENT,
                 f"pooled burst matches an in-process session on only "
                 f"{share:.3f} of its images")

    def verify_end(self):
        moved = {k: v for k, v in self.served.recovery.items() if v}
        _require(not moved, f"recovery counters moved: {moved}")
        _require(sum(self.served.pool.restarts) == 0, "a worker restarted")

    def install(self, tracer):
        self.counters = layers.new_serving_counters()
        self.shard_samples = []
        self._finish = layers.install_scheduler(
            tracer, self.scheduler, self.served, self.counters)
        layers.install_pool(tracer, self.served, self.counters,
                            self.shard_samples, self.replayed_shards)

    def layer_metrics(self, tracer, phase_seconds):
        self._finish()
        spans = tracer.export()
        metrics = layers.serving_metrics(spans, self.counters, phase_seconds,
                                         num_workers=self.workers)
        own = layers.scheduler_self_ms_per_flush(spans, self.counters)
        if own is not None:
            metrics["serving.scheduler.self_ms_per_flush"] = own
        metrics["serving.worker.spawn_s"] = self.spawn_s
        metrics["serving.worker.restarts"] = sum(self.served.pool.restarts)
        metrics["serving.router.route_us_per_request"] = layers.probe_router(
            self.scheduler, self.bursts[0][0][0])
        metrics["cost.estimate_us_per_call"] = layers.probe_cost_estimate(
            self.served.session, self.sizes)
        metrics.update(self._replay_engine())
        return metrics

    def _replay_engine(self):
        """The engine runs inside the worker processes, out of reach of
        wrappers installed here.  Replay shards the pool was sent (same
        images, same grouping) through the parent's own session of the
        same spec, wrapped, to attribute a shard's exec time."""
        from spans import Tracer

        session = self.served.session
        for groups in self.shard_samples:         # fill the workspaces
            session.submit_many(groups)
        tracer = Tracer()
        counters = layers.new_engine_counters()
        finish = layers.install_engine(tracer, session, counters,
                                       entry="submit_many")
        try:
            for groups in self.shard_samples:
                session.submit_many(groups)
        finally:
            tracer.restore()
        finish()
        metrics = layers.engine_metrics(
            tracer.export(), counters, self.model,
            plan_us=layers.probe_plan_buckets(session,
                                              counters["stage_lengths"]))
        metrics.update(layers.kernel_probes(
            counters, self.model.config, "fastpath", session.dtype,
            counters["calls"]))
        return metrics


CLOSED_LOOPS = (OfflinePrunedF32, OfflineDenseInt8, PoolBurst)
