"""Multi-worker serving: pool parity, dispatch, drain, shutdown.

One spawn-context pool (2 workers) is built per module and reused --
startup is the expensive part.  The core claims:

* pooled execution is **bitwise identical** to in-process execution
  (logits, latency estimates, per-stage token counts, per-request
  ordering);
* dispatch is non-blocking (results arrive via collect, not inline);
  the transport's reply validation, recovery sweep and sharding are
  checked against a fake pool in ``test_transport.py``;
* ``drain``/``shutdown`` are deterministic: afterwards nothing is
  queued, nothing is in flight, and no worker process or scheduler
  thread is left alive.
"""

import copy
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import InferenceSession
from repro.serving import (FaultPlan, Scheduler, SystemClock, VirtualClock,
                           WorkerPool)


@pytest.fixture(scope="module")
def served_model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(21))
    model.eval()
    return model


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(22)
    config = SyntheticConfig(image_size=16, num_classes=4)
    return generate_dataset(config, 16, rng).images


@pytest.fixture(scope="module")
def pooled_scheduler(served_model):
    scheduler = Scheduler(clock=VirtualClock(), batch_window_ms=10.0)
    scheduler.register("tiny", served_model, batch_size=16, workers=2,
                       worker_ctx="spawn")
    yield scheduler
    scheduler.shutdown()


def submit_all(scheduler, images, **kwargs):
    return [scheduler.submit(images[i], **kwargs)
            for i in range(images.shape[0])]


def serve_two_shards(session, images, **register):
    """Serve ``images`` as two 8-image requests -- one shard per worker
    of a 2-worker pool -- and return the logits in request order."""
    with Scheduler(clock=VirtualClock(),
                   batch_window_ms=10.0) as scheduler:
        scheduler.register("pooled", session=session, workers=2,
                           **register)
        first = scheduler.submit(images[:8])
        second = scheduler.submit(images[8:])
        results = {r.request_id: r for r in scheduler.flush()}
    assert sorted(results) == [first, second]
    return np.concatenate([results[first].logits, results[second].logits])


def _refuse_to_load():
    raise RuntimeError("refused to load")


class _LoadsInParentOnly:
    """Pickles, but unpickling it raises -- as a class the parent
    defines and a worker's interpreter cannot import would."""

    def __reduce__(self):
        return _refuse_to_load, ()


class TestPooledParity:
    def test_bitwise_identical_to_in_process(self, pooled_scheduler,
                                             served_model, images):
        reference_session = InferenceSession(served_model, batch_size=16)
        reference = reference_session.submit(images)
        ids = submit_all(pooled_scheduler, images)
        results = {r.request_id: r for r in pooled_scheduler.flush()}
        assert sorted(results) == sorted(ids)
        logits = np.concatenate([results[i].logits for i in ids])
        latency = np.concatenate([results[i].latency_ms for i in ids])
        np.testing.assert_array_equal(logits, reference.logits)
        np.testing.assert_array_equal(latency, reference.latency_ms)
        stages = len(reference.tokens_per_stage)
        for request_index, request_id in enumerate(ids):
            result = results[request_id]
            assert result.session == "tiny"
            assert len(result.tokens_per_stage) == stages
            for stage in range(stages):
                np.testing.assert_array_equal(
                    result.tokens_per_stage[stage],
                    reference.tokens_per_stage[stage][
                        request_index:request_index + 1])

    def test_flush_splits_across_both_workers(self, pooled_scheduler,
                                              images):
        pooled_scheduler.events.clear()
        submit_all(pooled_scheduler, images)
        pooled_scheduler.flush()
        workers = {event.worker for event in pooled_scheduler.events}
        assert workers == {0, 1}
        assert all(event.worker is not None
                   for event in pooled_scheduler.events)
        # Balanced shards: 16 single-image requests over 2 workers.
        assert sorted(event.num_images
                      for event in pooled_scheduler.events) == [8, 8]

    def test_calibration_learns_from_measured_timings(
            self, pooled_scheduler, images):
        served = pooled_scheduler.sessions[0]

        def samples():
            return [entry["samples"]
                    for entry in served.placement.snapshot()["learned"]]

        before = samples()
        submit_all(pooled_scheduler, images)
        pooled_scheduler.flush()
        # One 8-image shard per worker, one measured sample each.
        assert samples() == [count + 1 for count in before]
        assert all(served.placement.predicted_ms(worker, 8) > 0
                   for worker in (0, 1))
        assert served.placement.in_flight == (0, 0)

    def test_spawn_pool_serves_relu_backbone_bitwise(self, tiny_backbone,
                                                     images):
        """Workers serve the parent's own session, not a model rebuilt
        from config + weights: a rebuild would put GELU back into these
        ReLU MLPs, and every logit would move."""
        backbone = copy.deepcopy(tiny_backbone)
        for block in backbone.blocks:
            block.mlp.act = nn.ReLU()
        model = HeatViT(backbone, {1: 0.7, 2: 0.5},
                        rng=np.random.default_rng(23))
        model.eval()
        session = InferenceSession(model, batch_size=8, backend="fastpath")
        reference = np.concatenate([session.submit(images[:8]).logits,
                                    session.submit(images[8:]).logits])
        logits = serve_two_shards(session, images, worker_ctx="spawn")
        assert logits.tobytes() == reference.tobytes()


class TestNonBlockingDispatch:
    def test_flush_without_wait_leaves_batches_in_flight(
            self, pooled_scheduler, images):
        ids = submit_all(pooled_scheduler, images)
        completed = pooled_scheduler.flush(wait=False)
        assert completed == []
        assert pooled_scheduler.in_flight_batches() > 0
        assert pooled_scheduler.pending_requests() == 0
        drained = pooled_scheduler.drain()
        assert sorted(r.request_id for r in drained) == sorted(ids)
        assert pooled_scheduler.in_flight_batches() == 0

    def test_step_collects_in_flight_results(self, pooled_scheduler,
                                             images):
        ids = submit_all(pooled_scheduler, images)
        pooled_scheduler.flush(wait=False)
        collected = {}
        deadline = 60.0
        import time
        start = time.monotonic()
        while (len(collected) < len(ids)
               and time.monotonic() - start < deadline):
            for result in pooled_scheduler.step():
                collected[result.request_id] = result
        assert sorted(collected) == sorted(ids)


class TestWorkerPoolDirect:
    def test_error_reply_carries_traceback(self, served_model):
        session = InferenceSession(served_model, batch_size=4)
        with WorkerPool(session, 1, ctx="fork") as pool:
            bad = [np.zeros((1, 5, 5, 5))]           # wrong image shape
            pool.dispatch(7, bad, 0)
            replies = pool.poll(timeout_s=60.0)
            assert len(replies) == 1
            reply = replies[0]
            assert reply.kind == "error"
            assert reply.task_id == 7
            assert reply.error
            assert "Traceback" in reply.tb
            # The worker survives its task failure.
            good = [np.zeros((1,) + (3, 16, 16))]
            pool.dispatch(8, good, 0)
            follow_up = pool.poll(timeout_s=60.0)
            assert follow_up and follow_up[0].kind == "result"
        assert pool.closed
        assert pool.alive_workers() == []

    def test_dispatch_validates(self, served_model):
        session = InferenceSession(served_model, batch_size=4)
        pool = WorkerPool(session, 1, ctx="fork")
        try:
            with pytest.raises(ValueError):
                pool.dispatch(0, [], 5)
        finally:
            pool.close()
        with pytest.raises(RuntimeError):
            pool.dispatch(0, [], 0)
        pool.close()                                  # idempotent

    def test_worker_death_heals_on_drain(self, served_model, images):
        """A dead worker no longer sinks the target: dispatch avoids
        it, drain completes every request on the survivor, and the
        supervisor respawns the slot (recorded in stats)."""
        scheduler = Scheduler(clock=VirtualClock())
        scheduler.register("tiny", served_model, batch_size=16,
                           workers=2, worker_ctx="fork")
        pool = scheduler.sessions[0].pool
        try:
            victim = pool._processes[0]
            victim.terminate()
            victim.join(timeout=30)
            ids = submit_all(scheduler, images[:4])
            drained = scheduler.drain(timeout_ms=120_000)
            assert sorted(r.request_id for r in drained) == sorted(ids)
            assert all(not r.failed for r in drained)
            recovery = scheduler.stats()["sessions"]["tiny"]["recovery"]
            assert recovery["respawns"] >= 1
        finally:
            scheduler.shutdown(drain=False)


class TestStartupFailures:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts descriptors in /proc/self/fd")
    def test_unpicklable_session_fails_register_leaving_nothing_open(
            self, served_model):
        session = InferenceSession(served_model, batch_size=4)
        session.lock = threading.Lock()
        scheduler = Scheduler(clock=VirtualClock())
        children = set(multiprocessing.active_children())
        descriptors = len(os.listdir("/proc/self/fd"))
        with pytest.raises(TypeError, match="pickle"):
            scheduler.register("unpicklable", session=session, workers=2)
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert set(multiprocessing.active_children()) == children
        assert scheduler.sessions == []

    def test_payload_failing_in_the_child_reports_its_cause(
            self, served_model):
        """The child unpickles inside its startup handler, so a payload
        only the parent can load fails the pool at once, with the
        child's exception -- also while a fault plan is set, which
        keeps the pool waiting out deaths during startup."""
        session = InferenceSession(served_model, batch_size=4)
        session.poison = _LoadsInParentOnly()
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match=r"worker \d failed to start: "
                                 r"RuntimeError\('refused to load'\)"):
            WorkerPool(session, 2, ctx="spawn", fault_plan=FaultPlan())
        assert time.monotonic() - started < 30.0


class TestGracefulShutdown:
    def test_background_thread_and_pool_join_cleanly(self, served_model,
                                                     images):
        threads_before = threading.active_count()
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=2.0)
        scheduler.register("tiny", served_model, batch_size=16,
                           workers=2, worker_ctx="fork")
        pool = scheduler.sessions[0].pool
        scheduler.start(poll_ms=1.0)
        ids = submit_all(scheduler, images, deadline_ms=5_000.0)
        results = [scheduler.wait_result(i, timeout_ms=60_000)
                   for i in ids]
        assert all(r.logits.shape == (1, 4) for r in results)
        drained = scheduler.shutdown()
        assert scheduler.pending_requests() == 0
        assert scheduler.in_flight_batches() == 0
        assert not scheduler.running
        assert pool.closed
        assert pool.alive_workers() == []
        assert not [t.name for t in threading.enumerate()
                    if "repro-serving" in t.name]
        # Queue feeder threads (stdlib-internal) exit asynchronously
        # after close(); give them a moment, then require the baseline.
        import time
        deadline = time.monotonic() + 10.0
        while (threading.active_count() > threads_before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= threads_before
        assert isinstance(drained, list)

    def test_context_manager_shuts_down(self, served_model, images):
        with Scheduler(clock=VirtualClock()) as scheduler:
            scheduler.register("tiny", served_model, batch_size=16,
                               workers=2, worker_ctx="fork")
            pool = scheduler.sessions[0].pool
            ids = submit_all(scheduler, images[:4])
            scheduler.flush(wait=False)
        assert pool.closed
        assert pool.alive_workers() == []
        # drain on exit completed the in-flight work
        assert all(scheduler.pop_result(i) is not None for i in ids)

    def test_shutdown_idempotent_and_without_pool(self, served_model):
        scheduler = Scheduler(clock=VirtualClock())
        scheduler.register("solo", served_model, batch_size=4)
        assert scheduler.shutdown() == []
        assert scheduler.shutdown() == []


class TestQuantizedPooledServing:
    """The int8 backend end to end through scheduler + worker pool.

    The acceptance chain: ``register(backend="int8", dtype=float64,
    workers=2)`` pickles the quantized session, backend and dtype
    included, to each child, the children unpickle it, and the pooled
    results are BITWISE equal to the
    :func:`repro.quant.quantize_model` simulation run in process.

    Two 8-image requests shard one per worker; the reference runs the
    same 8-image batches in process, because the quantized path's
    dynamic activation calibration is per batch tensor -- batch
    composition is part of the arithmetic, so parity is defined
    shard for shard."""

    def test_int8_pool_bitwise_qmodel_parity(self, served_model, images):
        from repro.quant import PER_CHANNEL_CHILDREN, quantize_model

        sim = copy.deepcopy(served_model)
        quantize_model(sim, bits=8, per_channel=PER_CHANNEL_CHILDREN)
        sim.eval()
        sim_session = InferenceSession(sim, batch_size=8)
        reference = np.concatenate([
            sim_session.submit(images[:8]).logits,
            sim_session.submit(images[8:]).logits])
        session = InferenceSession(served_model, batch_size=16,
                                   backend="int8", dtype=np.float64)
        logits = serve_two_shards(session, images, worker_ctx="fork")
        assert logits.tobytes() == reference.tobytes()

    def test_int8_f32_pool_matches_in_process(self, served_model, images):
        """The timed float32 grade, pooled vs in process: the same
        session unpickled in a worker must be bitwise reproducible."""
        session = InferenceSession(served_model, batch_size=8,
                                   backend="int8")
        reference = np.concatenate([session.submit(images[:8]).logits,
                                    session.submit(images[8:]).logits])
        logits = serve_two_shards(session, images, worker_ctx="fork")
        assert logits.tobytes() == reference.tobytes()


class TestDispatchCloseRace:
    """Regression: ``dispatch`` used to read ``self._closed`` and touch
    the task queues with no synchronization against ``close()``, so a
    dispatcher racing a shutdown could enqueue into a released queue
    (raising ``ValueError``/``OSError`` from multiprocessing internals,
    or silently losing the task).  Both are now serialized on the
    pool's state lock: a racing dispatch either lands before the close
    or fails cleanly with ``RuntimeError("worker pool is closed")``."""

    def test_concurrent_dispatch_and_close(self, served_model, images):
        session = InferenceSession(served_model, batch_size=4)
        pool = WorkerPool(session, 1, ctx="fork")
        unexpected = []
        dispatched = []
        overlapped = threading.Event()

        def hammer():
            for task_id in range(200):
                try:
                    pool.dispatch(task_id, [images[:1]], 0)
                    dispatched.append(task_id)
                except RuntimeError:
                    break                   # clean "pool is closed"
                except Exception as exc:    # the pre-fix failure mode
                    unexpected.append(exc)
                    break
                if len(dispatched) >= 5:
                    overlapped.set()        # real overlap reached
            overlapped.set()

        stop_polling = threading.Event()

        def drain():
            # Keep the result pipe drained so the worker can always
            # make progress toward the shutdown sentinel.
            while not stop_polling.is_set():
                try:
                    pool.poll(timeout_s=0.05)
                except Exception:
                    return

        thread = threading.Thread(target=hammer)
        drainer = threading.Thread(target=drain)
        thread.start()
        drainer.start()
        overlapped.wait(timeout=30.0)
        pool.close()
        thread.join()
        stop_polling.set()
        drainer.join()
        assert unexpected == []
        assert pool.closed
        assert pool.alive_workers() == []

    def test_concurrent_poll_and_close(self, served_model, images):
        """A blocked poll() racing close(): the poller must return
        cleanly (empty or with real replies), never raise from
        multiprocessing internals on the released queue."""
        session = InferenceSession(served_model, batch_size=4)
        pool = WorkerPool(session, 1, ctx="fork")
        errors = []
        polled = threading.Event()

        def poller():
            try:
                for _ in range(1000):
                    pool.poll(timeout_s=0.02)
                    polled.set()
                    if pool.closed:
                        return
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=poller) for _ in range(3)]
        for thread in threads:
            thread.start()
        assert polled.wait(timeout=30.0)
        pool.dispatch(0, [images[:1]], 0)
        pool.close()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        assert pool.closed
        assert pool.alive_workers() == []

    def test_shutdown_while_stepping(self, served_model, images):
        """Scheduler-level version: the background stepping thread is
        mid-dispatch when ``shutdown`` runs.  Shutdown must win cleanly
        -- no exception escapes the stepper, every admitted request
        either completes or is returned by the drain, and no worker
        process survives."""
        scheduler = Scheduler(clock=SystemClock(), batch_window_ms=0.0)
        scheduler.register("tiny", served_model, batch_size=16,
                           workers=2, worker_ctx="fork")
        scheduler.start(poll_ms=0.1)
        submitted = [scheduler.submit(images[i % images.shape[0]])
                     for i in range(20)]
        drained = scheduler.shutdown(drain=True)
        collected = {r.request_id for r in drained}
        for request_id in submitted:
            result = scheduler.pop_result(request_id)
            assert request_id in collected or result is not None
        assert scheduler.sessions[0].pool.closed
        assert scheduler.sessions[0].pool.alive_workers() == []
        assert not scheduler.running
