"""Chaos suite: scripted worker failure against the self-healing fleet.

Every scenario is deterministic -- :class:`FaultPlan` scripts exactly
which worker incarnation kills, hangs, delays, corrupts, or duplicates,
so the same test observes the same failure sequence every run.  The
acceptance claim threads through all of them: worker failure changes
*when and where* batches run, never what they compute -- every
recovered request's logits are bitwise identical to in-process
execution, no worker error ever escapes ``step()``/``drain()`` as an
exception, and ``stats()`` accounts for every respawn, re-dispatch,
quarantine, shed, and degraded flush.

Process-spawning scenarios run under a fork context (instant startup);
the orphan check, which kills the pool's parent, runs under spawn too.
They are core-count independent -- a 2-process fleet time-slices fine
on one CPU -- but CI additionally runs this file as a dedicated
chaos-suite step guarded to multi-core runners, where the failure
interleavings are most adversarial.
"""

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import HeatViT
from repro.data import SyntheticConfig, generate_dataset
from repro.engine import InferenceSession
from repro.serving import (DEFAULT_PRIORITY, FaultPlan, FaultSpec, FrontDoor,
                           RecoveryPolicy, RetryPolicy, Scheduler,
                           VirtualClock, WorkerDiedError, WorkerPool)
from tests.conftest import assert_same_fit

#: Production backoffs are seconds; chaos tests respawn in milliseconds.
FAST_BACKOFF = RetryPolicy(attempts=4, backoff_base_s=0.01,
                           backoff_max_s=0.05)


#: The directory ``repro`` imports from, for a child interpreter's path.
SRC = str(Path(repro.__file__).resolve().parents[1])

#: Builds a 2-worker pool under the start method named in ``argv[1]``,
#: prints the worker pids and kills itself without any cleanup.
_ORPHAN_SCRIPT = """
import os, signal, sys
import numpy as np
from repro.core import HeatViT
from repro.engine import InferenceSession
from repro.serving import WorkerPool
from repro.vit import VisionTransformer, ViTConfig

config = ViTConfig(name="orphan", image_size=16, patch_size=4, embed_dim=24,
                   depth=4, num_heads=3, num_classes=4)
model = HeatViT(VisionTransformer(config, rng=np.random.default_rng(7)),
                {1: 0.7}, rng=np.random.default_rng(31))
model.eval()
pool = WorkerPool(InferenceSession(model, batch_size=4), 2, ctx=sys.argv[1])
print(*(process.pid for process in pool._processes), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def fast_recovery(**overrides):
    defaults = dict(restart_backoff=FAST_BACKOFF)
    defaults.update(overrides)
    return RecoveryPolicy(**defaults)


@pytest.fixture(scope="module")
def chaos_model(tiny_backbone):
    model = HeatViT(tiny_backbone, {1: 0.7, 2: 0.5},
                    rng=np.random.default_rng(31))
    model.eval()
    return model


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(32)
    config = SyntheticConfig(image_size=16, num_classes=4)
    return generate_dataset(config, 16, rng).images


@pytest.fixture(scope="module")
def reference(chaos_model, images):
    """Per-request in-process logits: the bitwise recovery oracle.

    Sliced from one full-batch run -- the engine's grouped execution
    keeps each image's rows bitwise stable across any multi-image
    re-batching, which is exactly what recovery re-dispatch produces.
    """
    session = InferenceSession(chaos_model, batch_size=16)
    logits = session.submit(images).logits
    return [logits[i:i + 1].tobytes() for i in range(images.shape[0])]


def chaos_scheduler(model, *, fault_plan, recovery=None, **kwargs):
    scheduler = Scheduler(clock=VirtualClock(), batch_window_ms=10.0)
    scheduler.register("tiny", model, batch_size=16, workers=2,
                       worker_ctx="fork", fault_plan=fault_plan,
                       recovery=recovery or fast_recovery(), **kwargs)
    return scheduler


def submit_all(scheduler, images, **kwargs):
    return [scheduler.submit(images[i], **kwargs)
            for i in range(images.shape[0])]


def assert_bitwise(results, ids, reference):
    for index, request_id in enumerate(ids):
        result = results[request_id]
        assert not result.failed, result.error
        assert result.logits.tobytes() == reference[index]


# ----------------------------------------------------------------------
# Fault scripting (no processes)
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_batch_fields_are_one_based(self):
        for field in ("kill_at_batch", "hang_at_batch",
                      "corrupt_at_batch", "duplicate_at_batch",
                      "torn_reply_at_batch"):
            with pytest.raises(ValueError, match="1-based"):
                FaultSpec(**{field: 0})
        with pytest.raises(ValueError):
            FaultSpec(delay_reply_ms=-1.0)

    def test_kill_and_hang_trigger_at_or_after(self):
        spec = FaultSpec(kill_at_batch=2, hang_at_batch=3)
        assert not spec.should_kill(1)
        assert spec.should_kill(2) and spec.should_kill(5)
        assert not spec.should_hang(2)
        assert spec.should_hang(3) and spec.should_hang(9)
        assert not FaultSpec().should_kill(100)

    def test_corrupt_and_duplicate_trigger_exactly_once(self):
        spec = FaultSpec(corrupt_at_batch=2, duplicate_at_batch=3,
                         torn_reply_at_batch=4)
        assert [spec.should_corrupt(n) for n in (1, 2, 3)] \
            == [False, True, False]
        assert [spec.should_duplicate(n) for n in (2, 3, 4)] \
            == [False, True, False]
        assert [spec.should_tear(n) for n in (3, 4, 5)] \
            == [False, True, False]

    def test_apply_delay(self):
        slept = []
        FaultSpec(delay_reply_ms=250.0).apply_delay(sleep=slept.append)
        assert slept == [0.25]
        FaultSpec().apply_delay(sleep=slept.append)   # no-op at 0
        assert slept == [0.25]


class TestFaultPlan:
    def test_bare_int_key_means_incarnation_zero(self):
        spec = FaultSpec(kill_at_batch=1)
        plan = FaultPlan({0: spec})
        assert plan.for_worker(0) is spec
        assert plan.for_worker(0, incarnation=1) is None
        assert plan.for_worker(1) is None

    def test_tuple_key_targets_a_respawn(self):
        first, second = FaultSpec(kill_at_batch=1), FaultSpec(hang_at_batch=1)
        plan = FaultPlan({(1, 0): first}).add((1, 1), second)
        assert plan.for_worker(1, 0) is first
        assert plan.for_worker(1, 1) is second
        assert len(plan) == 2
        assert "w1.i0" in repr(plan) and "w1.i1" in repr(plan)

    def test_rejects_bad_entries(self):
        with pytest.raises(TypeError):
            FaultPlan({0: "kill"})
        with pytest.raises(ValueError):
            FaultPlan({(-1, 0): FaultSpec(kill_at_batch=1)})
        with pytest.raises(ValueError):
            FaultPlan({(0, -2): FaultSpec(kill_at_batch=1)})


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        assert RetryPolicy(attempts=3).retries == 2

    def test_delay_schedule_caps_and_doubles(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.35,
                             jitter=0.0)
        assert [policy.delay_s(a) for a in range(4)] \
            == pytest.approx([0.1, 0.2, 0.35, 0.35])
        with pytest.raises(ValueError):
            policy.delay_s(-1)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.25)
        assert policy.delay_s(1, seed=7) == policy.delay_s(1, seed=7)
        assert policy.delay_s(1, seed=7) != policy.delay_s(1, seed=8)
        for seed in range(20):
            delay = policy.delay_s(0, seed=seed)
            assert 0.075 <= delay <= 0.125

    def test_call_retries_then_succeeds(self):
        outcomes = iter([OSError("a"), OSError("b"), "ok"])
        slept, observed = [], []

        def flaky():
            result = next(outcomes)
            if isinstance(result, Exception):
                raise result
            return result

        policy = RetryPolicy(attempts=3, backoff_base_s=0.1, jitter=0.0)
        assert policy.call(flaky, retry_on=OSError, sleep=slept.append,
                           on_retry=lambda a, e: observed.append(a)) == "ok"
        assert slept == [0.1, 0.2]
        assert observed == [0, 1]

    def test_call_raises_after_budget(self):
        calls = []

        def always():
            calls.append(1)
            raise ConnectionError("down")

        policy = RetryPolicy(attempts=3, backoff_base_s=0.0)
        with pytest.raises(ConnectionError):
            policy.call(always, retry_on=ConnectionError,
                        sleep=lambda _s: None)
        assert len(calls) == 3

    def test_call_does_not_catch_other_exceptions(self):
        def boom():
            raise KeyError("not transport")

        with pytest.raises(KeyError):
            RetryPolicy(attempts=3).call(boom, retry_on=OSError)


class TestRecoveryPolicy:
    def test_validation(self):
        for bad in (dict(max_worker_restarts=-1),
                    dict(dispatch_timeout_factor=0.0),
                    dict(min_dispatch_timeout_s=0.0),
                    dict(max_in_flight_per_worker=0)):
            with pytest.raises(ValueError):
                RecoveryPolicy(**bad)

    def test_request_retry_budget_comes_from_retry_policy(self):
        policy = RecoveryPolicy(retry=RetryPolicy(attempts=5))
        assert policy.max_request_retries == 4


class TestRespawnPayload:
    def test_respawn_ships_the_current_learned_fit(self, chaos_model,
                                                   monkeypatch):
        """A respawned worker unpickles the parent session as it stands
        at the respawn, so it inherits the cost model's current fit."""
        from repro.serving import worker

        payloads = []

        def record(session, real=worker._session_bytes):
            payloads.append(real(session))
            return payloads[-1]

        monkeypatch.setattr(worker, "_session_bytes", record)
        session = InferenceSession(chaos_model, batch_size=8,
                                   learn_cost=True)
        with WorkerPool(session, 1, ctx="fork",
                        recovery=fast_recovery()) as pool:
            for num_images in (4, 8, 8, 16, 8, 4):
                session.cost_model.observe_batch(num_images,
                                                 5.0 + 0.5 * num_images)
            pool.terminate_worker(0)
            assert pool.respawn_dead() == [0]
        first, respawned = (pickle.loads(payload) for payload in payloads)
        assert first.cost_model.samples() == 0
        assert respawned.cost_model.samples() == 6
        assert_same_fit(respawned.cost_model, session.cost_model)


# ----------------------------------------------------------------------
# Pool-level supervision (real processes)
# ----------------------------------------------------------------------
class TestPoolSupervision:
    def test_dispatch_to_dead_worker_raises_then_respawn_heals(
            self, chaos_model, images):
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1)})
        session = InferenceSession(chaos_model, batch_size=4)
        with WorkerPool(session, 2, ctx="fork", recovery=fast_recovery(),
                        fault_plan=plan) as pool:
            pool.dispatch(1, [images[:1]], 0)          # incarnation 0 dies
            deadline = time.monotonic() + 30.0
            while (pool._processes[0].is_alive()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with pytest.raises(WorkerDiedError) as excinfo:
                pool.dispatch(2, [images[:1]], 0)
            assert excinfo.value.worker == 0
            assert pool.alive_workers() == [1]
            assert not pool.fleet_down                 # budget remains
            # Supervision: the slot respawns as a healthy incarnation.
            assert pool.respawn_dead() == [0]
            assert pool.restarts == (1, 0)
            pool.dispatch(3, [images[:1]], 0)
            replies = pool.poll(timeout_s=60.0)
            deadline = time.monotonic() + 60.0
            while not replies and time.monotonic() < deadline:
                replies = pool.poll(timeout_s=1.0)
            assert [r.kind for r in replies] == ["result"]
            snapshot = pool.supervision_snapshot()
            assert snapshot["incarnations"] == (1, 0)
            assert not snapshot["fleet_down"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads process states from /proc")
    @pytest.mark.parametrize("ctx", ["fork", "spawn"])
    def test_workers_exit_when_the_parent_is_killed(self, ctx, tmp_path):
        """A parent killed outright (``kill -9``: no ``close()``, no
        sentinel on the task queues) leaves no orphan: each idle worker
        sees its parent's process sentinel go away and exits."""
        out, err = tmp_path / "pids.txt", tmp_path / "stderr.txt"
        # Files, not pipes: orphans inherit the parent's stdout/stderr,
        # and a pipe would stay open for as long as they live.
        with open(out, "w") as stdout, open(err, "w") as stderr:
            subprocess.run([sys.executable, "-c", _ORPHAN_SCRIPT, ctx],
                           stdout=stdout, stderr=stderr, timeout=120,
                           env={**os.environ, "PYTHONPATH": SRC})
        pids = [int(pid) for pid in out.read_text().split()]
        assert len(pids) == 2, err.read_text()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in pids if _running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert orphans == []

    def test_restart_budget_exhaustion_is_fleet_down(self, chaos_model,
                                                     images):
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1),
                          1: FaultSpec(kill_at_batch=1)})
        session = InferenceSession(chaos_model, batch_size=4)
        recovery = fast_recovery(max_worker_restarts=0)
        with WorkerPool(session, 2, ctx="fork", recovery=recovery,
                        fault_plan=plan) as pool:
            pool.dispatch(1, [images[:1]], 0)
            pool.dispatch(2, [images[:1]], 1)
            deadline = time.monotonic() + 30.0
            while pool.alive_workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.alive_workers() == []
            assert pool.respawn_dead() == []           # no budget
            assert pool.fleet_down


# ----------------------------------------------------------------------
# Scheduler-level chaos scenarios
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_kill_one_of_two_mid_burst_bitwise_recovery(
            self, chaos_model, images, reference):
        """The acceptance scenario: worker 0 dies on its first batch of
        the burst.  Every request still completes -- re-dispatched to
        the survivor or the respawned slot -- with logits bitwise
        identical to in-process execution, no exception escapes the
        drain, and the recovery is fully accounted in ``stats()``."""
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        try:
            ids = submit_all(scheduler, images)
            drained = scheduler.drain(timeout_ms=120_000)
            results = {r.request_id: r for r in drained}
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            assert scheduler.pending_requests() == 0
            assert scheduler.in_flight_batches() == 0
            stats = scheduler.stats()["sessions"]["tiny"]
            recovery = stats["recovery"]
            assert recovery["respawns"] >= 1
            assert recovery["lost_batches"] >= 1
            assert recovery["redispatched_requests"] >= 1
            assert recovery["failed_requests"] == 0
            assert recovery["degraded_flushes"] == 0
            assert not stats["degraded"]
            assert stats["fleet"]["restarts"][0] >= 1
            classes = scheduler.stats()["classes"][DEFAULT_PRIORITY]
            assert classes["completed"] == len(ids)
            assert classes["failed"] == 0
        finally:
            scheduler.shutdown(drain=False)

    def test_step_loop_survives_kill_without_raising(
            self, chaos_model, images, reference):
        """The background-serving path: non-blocking ``step()`` heals
        the same crash drain() does -- no exception ever reaches the
        stepping loop."""
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        try:
            ids = submit_all(scheduler, images[:8])
            scheduler.flush(wait=False)
            collected = {}
            deadline = time.monotonic() + 120.0
            while (len(collected) < len(ids)
                   and time.monotonic() < deadline):
                # Advance the virtual clock so requeued requests age
                # past the batch window and re-flush on a later step.
                scheduler.clock.advance(20.0)
                for result in scheduler.step():
                    collected[result.request_id] = result
            assert sorted(collected) == sorted(ids)
            assert_bitwise(collected, ids, reference)
            recovery = scheduler.stats()["sessions"]["tiny"]["recovery"]
            assert recovery["respawns"] >= 1
        finally:
            scheduler.shutdown(drain=False)

    def test_respawn_racing_the_sweep_does_not_strand_batches(
            self, chaos_model, images, reference):
        """Regression: a death healed by ``respawn_dead()`` *before*
        the scheduler's recovery sweep ever observed it (supervision
        races the sweep) must not strand the dead incarnation's
        in-flight batches.  Aliveness-only loss detection would see
        the respawned slot alive on both looks and wait out the full
        hung-batch deadline -- then terminate the healthy replacement.
        Incarnation-aware detection recovers the batches on the next
        sweep.  The dispatch deadline is pushed out to 300 s so a
        regression shows up as a drain timeout, not a slow pass."""
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1),
                          1: FaultSpec(kill_at_batch=1)})
        recovery = fast_recovery(min_dispatch_timeout_s=300.0)
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan,
                                    recovery=recovery)
        try:
            # 4 requests -> two 2-image shards: every (re)executed
            # batch stays multi-image, so the full-batch reference
            # slices apply bitwise.
            ids = submit_all(scheduler, images[:4])
            scheduler.flush(wait=False)     # one shard on each worker
            pool = scheduler.sessions[0].pool
            deadline = time.monotonic() + 30.0
            while pool.alive_workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.alive_workers() == []
            # Supervision wins the race: both slots are respawned
            # before any scheduler sweep sees the deaths.
            respawned = set()
            while len(respawned) < 2 and time.monotonic() < deadline:
                respawned.update(pool.respawn_dead())
                time.sleep(0.01)
            assert sorted(respawned) == [0, 1]
            start = time.monotonic()
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert time.monotonic() - start < 60.0
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            recovery_stats = \
                scheduler.stats()["sessions"]["tiny"]["recovery"]
            assert recovery_stats["lost_batches"] >= 2
            assert recovery_stats["redispatched_requests"] >= 4
            assert recovery_stats["hung_workers"] == 0
            assert pool.supervision_snapshot()["incarnations"] == (1, 1)
        finally:
            scheduler.shutdown(drain=False)

    def test_death_mid_reply_tears_only_its_own_pipe(
            self, chaos_model, images, reference):
        """Regression for the shared-reply-queue wedge: a worker that
        dies *midway through writing a reply* must poison nothing but
        its own pipe.  A shared multiprocessing queue let the dying
        writer take the queue's cross-process write lock to the grave,
        wedging every other worker -- respawns included -- on their
        next reply until dispatch deadlines started terminating
        healthy processes.  Per-worker framed pipes confine the damage
        to one torn trailing frame, discarded with the dead
        incarnation's reader; recovery proceeds at liveness speed."""
        plan = FaultPlan({0: FaultSpec(torn_reply_at_batch=1)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        try:
            ids = submit_all(scheduler, images)
            start = time.monotonic()
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            # Liveness catches the death; nobody waits out the 30 s
            # hung-batch deadline behind a poisoned transport.
            assert time.monotonic() - start < 25.0
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            recovery = scheduler.stats()["sessions"]["tiny"]["recovery"]
            assert recovery["respawns"] >= 1
            assert recovery["lost_batches"] >= 1
            assert recovery["redispatched_requests"] >= 1
            assert recovery["failed_requests"] == 0
            assert recovery["hung_workers"] == 0
        finally:
            scheduler.shutdown(drain=False)

    def test_corrupt_reply_rejected_and_retried(self, chaos_model,
                                                images, reference):
        plan = FaultPlan({0: FaultSpec(corrupt_at_batch=1)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        try:
            ids = submit_all(scheduler, images[:8])
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            recovery = scheduler.stats()["sessions"]["tiny"]["recovery"]
            assert recovery["corrupt_replies"] == 1
            assert recovery["redispatched_requests"] >= 1
            assert recovery["respawns"] == 0           # nobody died
        finally:
            scheduler.shutdown(drain=False)

    def test_duplicate_reply_delivered_exactly_once(self, chaos_model,
                                                    images, reference):
        plan = FaultPlan({0: FaultSpec(duplicate_at_batch=1)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        try:
            ids = submit_all(scheduler, images[:8])
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            served = scheduler.sessions[0]
            # The duplicate trails its original on the reply pipe; give
            # collection a moment to drain and drop it.
            deadline = time.monotonic() + 30.0
            while (served.recovery["duplicate_replies"] < 1
                   and time.monotonic() < deadline):
                scheduler.step()
                time.sleep(0.01)
            assert served.recovery["duplicate_replies"] == 1
            classes = scheduler.stats()["classes"][DEFAULT_PRIORITY]
            assert classes["completed"] == len(ids)    # not len + extra
        finally:
            scheduler.shutdown(drain=False)

    def test_delayed_replies_complete_normally(self, chaos_model,
                                               images, reference):
        plan = FaultPlan({0: FaultSpec(delay_reply_ms=50.0),
                          1: FaultSpec(delay_reply_ms=50.0)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        try:
            ids = submit_all(scheduler, images[:4])
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            recovery = scheduler.stats()["sessions"]["tiny"]["recovery"]
            assert all(count == 0 for count in recovery.values())
        finally:
            scheduler.shutdown(drain=False)


class TestHungWorker:
    def test_dispatch_deadline_terminates_and_redispatches(
            self, chaos_model, images, reference):
        """A hung worker answers nothing -- ``is_alive()`` cannot see
        it.  The cost-model-derived dispatch deadline declares the
        batch hung, the process is terminated, and its requests
        re-dispatch; the respawned incarnation serves healthily."""
        plan = FaultPlan({0: FaultSpec(hang_at_batch=1)})
        recovery = fast_recovery(min_dispatch_timeout_s=1.0,
                                 dispatch_timeout_factor=1.0)
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan,
                                    recovery=recovery)
        try:
            ids = submit_all(scheduler, images[:8])
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert sorted(results) == sorted(ids)
            assert_bitwise(results, ids, reference)
            stats = scheduler.stats()["sessions"]["tiny"]
            assert stats["recovery"]["hung_workers"] >= 1
            assert stats["recovery"]["lost_batches"] >= 1
            assert stats["recovery"]["respawns"] >= 1
            assert stats["fleet"]["incarnations"][0] >= 1
        finally:
            scheduler.shutdown(drain=False)


class TestPoisonQuarantine:
    def test_budget_exhausted_requests_fail_cleanly(self, chaos_model,
                                                    images, reference):
        """A batch that kills every worker it touches must not grind
        the fleet down forever: after the re-dispatch budget the
        requests come back as failed results (with the error), and the
        respawned fleet keeps serving later traffic."""
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1),
                          1: FaultSpec(kill_at_batch=1)})
        # Kill faults are caught by liveness, not dispatch deadlines;
        # with a zero retry budget a *false* hung verdict on a merely
        # slow respawned worker (loaded CI host) would quarantine
        # healthy wave-2 requests, so push the deadline out of reach.
        # The hung path has its own scripted-hang test.
        recovery = fast_recovery(retry=RetryPolicy(attempts=1),
                                 min_dispatch_timeout_s=120.0)
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan,
                                    recovery=recovery)
        try:
            first, second = submit_all(scheduler, images[:2])
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert sorted(results) == [first, second]
            for result in results.values():
                assert result.failed
                assert result.logits is None
                assert "quarantine" in result.error
            stats = scheduler.stats()
            recovery_stats = stats["sessions"]["tiny"]["recovery"]
            assert recovery_stats["failed_requests"] == 2
            assert recovery_stats["redispatched_requests"] == 0
            classes = stats["classes"][DEFAULT_PRIORITY]
            assert classes["failed"] == 2
            assert classes["completed"] == 0
            # Incarnation 1 is healthy: the target serves again.
            ids = submit_all(scheduler, images[2:6])
            healthy = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert sorted(healthy) == sorted(ids)
            for index, request_id in zip(range(2, 6), ids):
                assert not healthy[request_id].failed
                assert healthy[request_id].logits.tobytes() \
                    == reference[index]
        finally:
            scheduler.shutdown(drain=False)

    def test_expired_sheddable_requests_shed_on_recovery(
            self, chaos_model, images):
        """Satellite: a request recovered from a lost worker whose
        deadline already passed is shed through the class's shed
        accounting, not silently served late."""
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1)})
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan)
        clock = scheduler.clock
        try:
            request_id = scheduler.submit(images[0], deadline_ms=5.0,
                                          priority=1)
            scheduler.flush(wait=False)        # dispatched to worker 0
            pool = scheduler.sessions[0].pool
            deadline = time.monotonic() + 30.0
            while (0 in pool.alive_workers()
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            clock.advance(10.0)                # request deadline passes
            results = {r.request_id: r
                       for r in scheduler.drain(timeout_ms=120_000)}
            assert list(results) == [request_id]
            result = results[request_id]
            assert result.failed and "shed" in result.error
            stats = scheduler.stats()
            recovery = stats["sessions"]["tiny"]["recovery"]
            assert recovery["shed_on_recovery"] == 1
            assert stats["classes"][1]["shed"] == 1
            assert stats["classes"][1]["failed"] == 1
            assert stats["classes"][1]["completed"] == 0
        finally:
            scheduler.shutdown(drain=False)


class TestFleetCollapse:
    @pytest.fixture()
    def collapsed(self, chaos_model, images):
        """Both workers dead with zero restart budget: the target is
        permanently degraded after the first burst."""
        plan = FaultPlan({0: FaultSpec(kill_at_batch=1),
                          1: FaultSpec(kill_at_batch=1)})
        recovery = fast_recovery(max_worker_restarts=0)
        scheduler = chaos_scheduler(chaos_model, fault_plan=plan,
                                    recovery=recovery)
        yield scheduler
        scheduler.shutdown(drain=False)

    def test_degrades_to_in_process_and_keeps_serving(
            self, collapsed, images, reference):
        ids = submit_all(collapsed, images[:8])
        results = {r.request_id: r
                   for r in collapsed.drain(timeout_ms=120_000)}
        assert sorted(results) == sorted(ids)
        assert_bitwise(results, ids, reference)
        stats = collapsed.stats()["sessions"]["tiny"]
        assert stats["degraded"]
        assert stats["fleet"]["fleet_down"]
        assert stats["fleet"]["alive"] == []
        assert stats["recovery"]["degraded_flushes"] >= 1
        assert stats["recovery"]["respawns"] == 0
        # Degraded mode is steady-state: later class-0 traffic still
        # completes (in-process, identical logits).  A lone request
        # executes as a 1-image batch, so its oracle is a 1-image
        # in-process run (batch composition fixes the exact bits).
        late = collapsed.submit(images[8], priority=0)
        late_results = {r.request_id: r
                        for r in collapsed.drain(timeout_ms=120_000)}
        assert not late_results[late].failed
        solo = InferenceSession(collapsed.sessions[0].session.model,
                                batch_size=16)
        assert late_results[late].logits.tobytes() \
            == solo.submit(images[8:9]).logits.tobytes()

    def test_front_door_answers_503_for_sheddable_classes(
            self, collapsed, images):
        """While the target is degraded the HTTP front door pushes
        sheddable submissions back with 503 + ``Retry-After`` but never
        turns away class 0."""
        submit_all(collapsed, images[:4])
        collapsed.drain(timeout_ms=120_000)            # trips collapse
        assert collapsed.sessions[0].degraded
        front = FrontDoor(collapsed)    # never started: no stepping
        batch = images[:1]
        degraded = front._degraded_response(None, 1, batch)
        assert degraded is not None
        status, payload, headers = degraded
        assert status == 503
        assert payload["status"] == "unavailable"
        assert payload["retry_after_s"] == 1
        assert headers["Retry-After"] == "1"
        assert front.counters["unavailable"] == 1
        # Unnamed priority defaults to the sheddable class: pushed back.
        assert front._degraded_response(None, None, batch) is not None
        # Class 0 and unknown shapes proceed to the scheduler.
        assert front._degraded_response(None, 0, batch) is None
        wrong_shape = np.zeros((1, 3, 8, 8))
        assert front._degraded_response(None, 1, wrong_shape) is None
