"""Multi-process execution backend: a self-healing pool of executor
workers.

A :class:`WorkerPool` spawns N OS processes, each owning a full
:class:`repro.engine.InferenceSession` unpickled in the child from the
bytes of the parent's own session -- the same object, so the same
arithmetic whatever modules the model is built from, under ``fork``
and ``spawn`` alike.  The parent dispatches flushed request batches to
a chosen worker (see :class:`repro.serving.PlacementPolicy`) and
collects replies from **per-worker reply pipes**; each reply carries
the worker's host-measured execution time, which refines that worker's
learned batch law in the placement policy.

Reply transport is deliberately *not* a shared ``multiprocessing``
queue.  A shared queue serializes writers through one cross-process
write lock, and a worker that dies abruptly (``kill -9``, OOM, a
scripted chaos kill) while its feeder thread holds that lock strands
it forever -- every other worker, including freshly respawned ones,
then wedges on its next reply and the whole fleet stalls behind one
corpse.  Instead each worker owns a private pipe and writes
length-prefixed pickled :class:`WorkerReply` frames; the parent reads
every pipe non-blockingly and reassembles frames per worker.  A dying
writer can at worst leave a *torn trailing frame in its own pipe*,
which the parent discards when it retires the dead incarnation's
reader -- no lock, no shared state, no cross-worker blast radius.

A worker serves an unpickled copy of the session, so a shard returns
the same bits from any worker as from in-process execution of that
shard -- multi-worker serving changes *where* batches run, never *what*
they compute.  Re-batching is a different matter: an image's logits are
computed from that image alone only up to rounding (BLAS rounds a row by
its position in the operand, and bucketing follows the whole batch), so
a row re-batched with other neighbours agrees to rounding (float64
rows moved by up to 5.6e-17), not bitwise.  The native float32 GELU
adds no such dependence: its bits do not depend on an element's offset.
**Recovery** therefore re-executes a lost batch anywhere with the same
results to rounding, and bitwise when it runs as the same shard.

Self-healing (the fleet side; the in-flight table and the recovery
sweep live in :class:`repro.serving.PoolTransport`):

* **Supervision** -- the pool keeps one record per worker slot: the
  running incarnation's process, task queue and reply pipe, and the
  slot's restart count and backoff.  Dead workers are respawned,
  bounded per slot (``max_worker_restarts``) and spaced by the shared
  :class:`repro.serving.RetryPolicy` exponential backoff.  A respawn
  starts the slot the way construction does, from the parent session
  pickled afresh, so a learned :class:`repro.cost.OnlineCostModel`
  (when cost learning is on) rides along at its current fit: the
  replacement prices batches from everything the fleet measured
  before the crash instead of re-learning from scratch.  Readers see
  the fleet through ``liveness()`` (alive slots and incarnations from
  one instant), ``restarts`` and ``fleet_down``.
* **Liveness from the OS** -- a death shows as ``is_alive()`` turning
  false and, once respawned, as a newer incarnation; a worker hung
  mid-batch is caught by the transport's per-batch dispatch deadline
  (on the scheduler's clock).  Nothing travels while a worker idles.
  A worker whose parent dies exits at once: it waits on the parent's
  process sentinel, under ``fork`` as under ``spawn``.
* **Liveness-checked dispatch** -- dispatching to a dead worker raises
  :class:`WorkerDiedError` instead of burying the task in a queue no
  process will ever read (respawns get a *fresh* task queue; anything
  in the old one is gone by design -- the transport hands lost batches
  back from its own in-flight table).

Deterministic failure for tests comes from
:mod:`repro.serving.faults`: a :class:`~repro.serving.faults.FaultPlan`
passed at construction scripts kills, hangs, delays, and corrupt or
duplicate replies per worker incarnation.

The pool stays deliberately dumb about *work*: no queues of its own
beyond transport, no policy.  Batch formation stays in the scheduler,
placement in the policy, pricing in the cost model -- the pool owns
only its processes, so it is the one serving part on host time: the
startup handshake, ``close``'s joins, ``poll``'s pipe wait and the
respawn backoff wait on OS processes, which a frozen ``VirtualClock``
would never let finish.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.serving.retry import RetryPolicy

__all__ = ["WorkerPool", "WorkerReply", "WorkerDiedError",
           "RecoveryPolicy"]

_SENTINEL = None
_READY = "ready"

#: How long a new pool waits for every worker's ready handshake.
_STARTUP_TIMEOUT_S = 120.0

#: BLAS/threading knobs capped to 1 in spawned workers: N workers x M
#: BLAS threads oversubscribes the host and ruins scaling.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


#: Reply wire format: a 4-byte big-endian length prefix, then that many
#: bytes of pickled :class:`WorkerReply`.  Each pipe has exactly one
#: writer (its worker's main loop), so frames never interleave; a
#: writer that dies mid-write leaves at most one torn trailing frame,
#: confined to its own pipe.
_FRAME = struct.Struct(">I")


def _write_frame(fd, payload, limit=None):
    """Blocking write of one framed reply onto ``fd``.

    ``limit`` is the fault-injection hook: write only the first
    ``limit`` bytes of the frame (a torn frame, as an abrupt
    mid-write death would leave) and return.
    """
    data = _FRAME.pack(len(payload)) + payload
    if limit is not None:
        data = data[:limit]
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send_reply(conn, reply):
    _write_frame(conn.fileno(),
                 pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))


class _ReplyReader:
    """Parent half of one worker's reply pipe.

    The descriptor is non-blocking: :meth:`drain` reads whatever the
    OS has buffered, reassembles complete frames, and never waits --
    a worker that died mid-write can therefore stall nothing.  Its
    torn trailing frame simply never completes and is dropped with
    the reader.  ``eof`` flips once every write end is closed (the
    worker exited and, under fork, so did any siblings that inherited
    the descriptor); an ``eof`` reader with no complete frame left is
    exhausted and can be closed.
    """

    def __init__(self, conn):
        self._conn = conn
        os.set_blocking(conn.fileno(), False)
        self._buffer = bytearray()
        self.eof = False

    def fileno(self):
        """File descriptor, so ``select`` can wait on readers."""
        return self._conn.fileno()

    def drain(self):
        """Non-blocking: consume available bytes, return the complete
        :class:`WorkerReply` frames they finish."""
        while not self.eof:
            try:
                chunk = os.read(self._conn.fileno(), 1 << 16)
            except BlockingIOError:
                break
            except (OSError, ValueError):     # pipe closed under us
                self.eof = True
                break
            if not chunk:
                self.eof = True
                break
            self._buffer.extend(chunk)
        replies = []
        while len(self._buffer) >= _FRAME.size:
            size = _FRAME.unpack_from(self._buffer)[0]
            if len(self._buffer) - _FRAME.size < size:
                break                          # incomplete (or torn) frame
            frame = bytes(self._buffer[_FRAME.size:_FRAME.size + size])
            del self._buffer[:_FRAME.size + size]
            try:
                replies.append(pickle.loads(frame))
            except Exception:                  # pragma: no cover
                # A length-complete frame that does not unpickle means
                # the writer is garbage; stop trusting the stream.
                self.eof = True
                self._buffer.clear()
                break
        return replies

    def close(self):
        try:
            self._conn.close()
        except OSError:                        # pragma: no cover
            pass


class WorkerDiedError(RuntimeError):
    """Dispatch targeted a worker whose process has exited.

    Raised under the pool's state lock *before* the task is enqueued,
    so the batch is never stranded in a dead worker's queue -- the
    caller redirects it (the transport bounces the shard back to the
    queue and its next sweep respawns the worker).
    """

    def __init__(self, worker, message=None):
        super().__init__(message or f"worker {worker} is dead")
        self.worker = worker


@dataclass(frozen=True)
class RecoveryPolicy:
    """How a serving target survives worker failures.

    One policy covers both halves of self-healing: the pool side
    (restart budget and backoff) and the dispatch side (re-dispatch
    budgets and deadlines).  All defaults are production-shaped; chaos
    tests tighten them.  Recovered requests whose deadline has already
    passed are shed (failed to their callers) instead of silently
    re-executed late; premium class-0 requests are never shed.  The
    scheduler's ledger counts per class what recovery did to requests:
    ``requeued``, ``failed``, and of those ``shed`` (a quarantined
    request is ``failed`` minus ``shed``).

    Parameters
    ----------
    max_worker_restarts: respawns allowed per worker slot before the
        slot is abandoned.  When every slot is dead and exhausted the
        pool reports :attr:`WorkerPool.fleet_down` and its transport
        degrades to in-process execution.
    restart_backoff: :class:`repro.serving.RetryPolicy` spacing
        consecutive respawns of one slot (crash loops must not spin).
    max_request_retries: re-dispatches one request may consume after
        worker losses -- a request whose batches have been lost
        ``max_request_retries + 1`` times is poisoned: failed cleanly to
        its caller instead of retried forever.
    dispatch_timeout_factor: a dispatched batch is declared *hung* when
        no reply arrives within ``factor x`` its placement-predicted
        completion time (the worker's learned batch law; the hung worker
        is terminated and the batch re-dispatched).
    min_dispatch_timeout_s: floor under the dispatch deadline --
        prediction noise on tiny batches must not declare healthy
        workers hung.
    max_in_flight_per_worker: bound on batches queued on one worker;
        flushes defer (backpressure) rather than burying a slow worker,
        which also caps how much work any single crash can strand.
    """

    max_worker_restarts: int = 3
    restart_backoff: RetryPolicy = RetryPolicy(
        attempts=4, backoff_base_s=0.05, backoff_max_s=2.0)
    max_request_retries: int = 2
    dispatch_timeout_factor: float = 20.0
    min_dispatch_timeout_s: float = 30.0
    max_in_flight_per_worker: int = 8

    def __post_init__(self):
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if self.max_request_retries < 0:
            raise ValueError("max_request_retries must be >= 0")
        if self.dispatch_timeout_factor <= 0:
            raise ValueError("dispatch_timeout_factor must be > 0")
        if self.min_dispatch_timeout_s <= 0:
            raise ValueError("min_dispatch_timeout_s must be > 0")
        if self.max_in_flight_per_worker < 1:
            raise ValueError("max_in_flight_per_worker must be >= 1")


class _single_thread_blas_env:
    """Temporarily default the BLAS thread vars to 1 in *this* process
    so child processes started inside the block inherit the cap.

    BLAS libraries read these variables when they load, which in a
    spawn child happens during early module imports -- long before any
    code of ours runs there -- so the cap must already be in the
    environment the child inherits.  Only previously-unset variables
    are touched, and they are restored on exit: an operator's explicit
    thread configuration always wins, and nothing leaks into the
    parent's environment after startup.
    """

    def __enter__(self):
        self._added = []
        for var in _THREAD_VARS:
            if var not in os.environ:
                os.environ[var] = "1"
                self._added.append(var)
        return self

    def __exit__(self, exc_type, exc, tb):
        for var in self._added:
            if os.environ.get(var) == "1":
                del os.environ[var]


@dataclass
class WorkerReply:
    """One message from an executor worker.

    ``kind`` is ``"ready"`` (startup handshake -- consumed by the pool,
    never surfaced to the scheduler), ``"result"`` (a completed batch)
    or ``"error"``.
    Results carry the merged batch arrays in submission order -- the
    parent re-slices them per request -- plus the shard's shape and
    timing: ``num_images`` and ``wall_time_s``, the worker's measured
    host execution time.  The pair is the online-learning signal -- it
    feeds both the placement policy's per-worker estimator and the
    parent session's :class:`repro.cost.OnlineCostModel` (when cost
    learning is on).
    """

    kind: str
    worker: int
    task_id: int = None
    logits: np.ndarray = None
    tokens_per_stage: list = field(default_factory=list)
    latency_ms: np.ndarray = None
    wall_time_s: float = 0.0
    num_images: int = 0
    error: str = None
    tb: str = None


def _session_bytes(session):
    """What a worker receives: the pickled ``session``."""
    return pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)


def _run_worker(worker_index, incarnation, payload, task_queue,
                reply_conn, fault=None):             # pragma: no cover
    """Executor-worker main loop (module-level: spawn must import it).

    Unpickles the session, signals readiness, then blocks on its task
    queue and serves tasks until the ``None`` sentinel arrives.  Every
    task failure is reported as an error reply -- the worker itself
    survives to serve the next batch.  ``fault`` is the resolved
    :class:`repro.serving.faults.FaultSpec` for this incarnation
    (test-only; ``None`` in production).

    A daemon thread waits on the parent's process sentinel and exits
    the worker the moment the parent is gone, so a parent killed
    outright leaves no orphan blocked on its queue.  Replies go over
    this worker's private pipe (see module docstring); a broken pipe
    means the parent is gone or closed the pool, so the worker simply
    exits.

    (no-cover: this body runs inside child processes, outside the
    parent's coverage tracer; ``tests/serving/test_workers.py`` and
    ``tests/serving/test_faults.py`` exercise every branch through
    real pools.)
    """
    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(0)),
                     daemon=True).start()

    def send(reply):
        try:
            _send_reply(reply_conn, reply)
            return True
        except (BrokenPipeError, OSError):
            return False

    try:
        session = pickle.loads(payload)
    except Exception as exc:                             # pragma: no cover
        send(WorkerReply(kind="error", worker=worker_index,
                         error=repr(exc), tb=traceback.format_exc()))
        return
    if not send(WorkerReply(kind=_READY, worker=worker_index)):
        return
    batch_count = 0
    while True:
        task = task_queue.get()
        if task is _SENTINEL:
            break
        task_id, image_groups = task
        batch_count += 1
        if fault is not None and fault.should_kill(batch_count):
            os._exit(13)
        if fault is not None and fault.should_hang(batch_count):
            while True:                 # wedged: alive, silent forever
                time.sleep(60.0)
        try:
            result, _ = session.submit_many(image_groups)
            logits = result.logits
            if fault is not None and fault.should_corrupt(batch_count):
                logits = logits[:-1]    # truncated payload on the wire
            reply = WorkerReply(
                kind="result", worker=worker_index, task_id=task_id,
                logits=logits,
                tokens_per_stage=result.tokens_per_stage,
                latency_ms=result.latency_ms,
                wall_time_s=result.wall_time_s,
                num_images=int(logits.shape[0]))
            if fault is not None:
                fault.apply_delay()
            if fault is not None and fault.should_tear(batch_count):
                # Abrupt death mid-reply: half a frame, then gone.
                payload_bytes = pickle.dumps(
                    reply, protocol=pickle.HIGHEST_PROTOCOL)
                _write_frame(reply_conn.fileno(), payload_bytes,
                             limit=_FRAME.size + len(payload_bytes) // 2)
                os._exit(13)
            if not send(reply):
                return
            if fault is not None and fault.should_duplicate(batch_count):
                send(reply)
        except Exception as exc:
            if not send(WorkerReply(
                    kind="error", worker=worker_index, task_id=task_id,
                    error=repr(exc), tb=traceback.format_exc())):
                return


@dataclass
class _Slot:
    """One worker slot: the running incarnation's process, task queue
    and reply reader, and the slot's supervision record -- restarts
    spent and the host time before which it may not respawn."""

    process: object
    task_queue: object
    reader: _ReplyReader
    incarnation: int = 0
    restarts: int = 0
    next_restart_at: float = 0.0


class WorkerPool:
    """N executor processes fed per-worker task queues, supervised.

    Parameters
    ----------
    session: the :class:`repro.engine.InferenceSession` to replicate.
        It is pickled once here, before any queue, pipe or process
        exists (a session that does not pickle raises with nothing left
        open), and again at each respawn; each worker unpickles its own
        copy -- weights are copied per process.
    num_workers: pool size (>= 1).
    ctx: multiprocessing start method; ``"spawn"`` (default) is the
        portable, spawn-safe road the pool is tested under -- spawned
        workers load their BLAS capped at one thread (inherited env,
        see :class:`_single_thread_blas_env`).  ``"fork"`` trades that
        and safety for instant startup on POSIX: forked workers
        inherit the parent's already-initialized BLAS threading.
    recovery: :class:`RecoveryPolicy` for supervision (restart budget
        and backoff); default policy applies when ``None``.
    fault_plan: optional :class:`repro.serving.faults.FaultPlan`
        scripting deterministic failures per worker incarnation
        (test-only).

    Construction waits up to ``_STARTUP_TIMEOUT_S`` for every worker's
    ready handshake.  A worker that fails to start closes the ones
    already started before the error propagates.
    """

    def __init__(self, session, num_workers, ctx="spawn", recovery=None,
                 fault_plan=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        payload = _session_bytes(session)
        self._session = session
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._fault_plan = fault_plan
        self._ctx = multiprocessing.get_context(ctx)
        self.num_workers = int(num_workers)
        # Guards _closed and the slots, which respawns replace, against
        # dispatch/poll racing close() from another thread (scheduler
        # shutdown during background stepping): without it a dispatcher
        # can observe _closed == False, lose the CPU, and put on a
        # queue close() has already released -- an unhandled
        # ValueError/OSError deep in multiprocessing instead of the
        # clean "pool is closed" error.  RLock so close() can run under
        # it end to end while its own helpers re-enter.
        self._state_lock = threading.RLock()
        self._closed = False
        # Dead incarnations' reply readers still holding completed
        # replies, drained until EOF.
        self._retired_readers = []
        self._slots = []
        try:
            for index in range(self.num_workers):
                self._slots.append(self._start(index, payload, 0))
        except BaseException:
            self.close()
            raise
        self._await_ready()

    def _start(self, index, payload, incarnation):
        """Start ``incarnation`` of slot ``index`` on ``payload`` and
        return its :class:`_Slot`: a fresh task queue and reply pipe,
        the process started under the BLAS cap, then the parent's copy
        of the pipe's write end closed -- after which the pipe's only
        writer is the worker (and any process forked while the end was
        open), so EOF on its reader means that worker is gone."""
        fault = (None if self._fault_plan is None
                 else self._fault_plan.for_worker(index, incarnation))
        task_queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_run_worker,
            args=(index, incarnation, payload, task_queue, send_conn, fault),
            name=f"repro-serving-worker-{index}.{incarnation}", daemon=True)
        try:
            with _single_thread_blas_env():
                process.start()
        finally:
            send_conn.close()
        return _Slot(process, task_queue, _ReplyReader(recv_conn),
                     incarnation)

    def _await_ready(self):
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        ready = set()
        while len(ready) < self.num_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise RuntimeError(
                    f"worker pool startup timed out; ready: "
                    f"{sorted(ready)} of {self.num_workers}")
            replies = self._collect_raw(min(remaining, 0.2))
            if not replies:
                dead = [slot.process.name for slot in self._slots
                        if not slot.process.is_alive()
                        and slot.process.exitcode not in (0, None)]
                if dead and self._fault_plan is None:
                    self.close()
                    raise RuntimeError(
                        f"worker(s) died during startup: {dead}")
                continue
            for reply in replies:
                if reply.kind == "error":
                    self.close()
                    raise RuntimeError(
                        f"worker {reply.worker} failed to start: "
                        f"{reply.error}\n{reply.tb}")
                ready.add(reply.worker)

    # ------------------------------------------------------------------
    def dispatch(self, task_id, image_groups, worker):
        """Send one batch (a list of per-request image arrays) to
        ``worker``.  Non-blocking: the reply arrives via :meth:`poll`.

        Returns the worker's current *incarnation* -- the one whose
        queue the task landed on, read under the same lock as the
        enqueue.  Loss detection keys on it: a batch whose worker slot
        has since moved to a newer incarnation is stranded (the respawn
        swapped in a fresh queue), however alive the slot looks.

        Raises :class:`WorkerDiedError` when the target process has
        exited -- checked under the state lock, so the task is never
        enqueued onto a queue no process will read (respawns start
        from a fresh queue).  Callers redirect the batch instead.
        """
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker index {worker} out of range "
                             f"0..{self.num_workers - 1}")
        with self._state_lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            slot = self._slots[worker]
            if not slot.process.is_alive():
                raise WorkerDiedError(
                    worker,
                    f"worker {worker} (incarnation {slot.incarnation}) "
                    f"is dead; redirect the batch")
            slot.task_queue.put((task_id, list(image_groups)))
            return slot.incarnation

    def poll(self, timeout_s=0.0):
        """Collect available result/error replies; waits at most
        ``timeout_s`` for the first one, then drains without blocking.

        Respawn-ready replies are consumed here, never returned to the
        caller.
        """
        return [reply for reply in self._collect_raw(timeout_s)
                if reply.kind != _READY]

    def _collect_raw(self, timeout_s):
        """Drain every reply pipe -- live and retired -- without
        blocking; when nothing is buffered, wait up to ``timeout_s``
        for readability and drain once more.  Raw: ready replies are
        included (``_await_ready`` needs them)."""
        with self._state_lock:
            if self._closed:
                return []
            replies = self._drain_readers()
        if replies or timeout_s <= 0:
            return replies
        # The wait happens *outside* the lock so a concurrent close()
        # is never stalled behind it; the post-wait drain re-checks
        # _closed.
        self._wait_readable(timeout_s)
        with self._state_lock:
            if self._closed:
                return []
            return self._drain_readers()

    def _drain_readers(self):
        """Drain all reply pipes (caller holds the state lock).
        Exhausted retired readers -- EOF with no complete frame left,
        any torn trailing frame discarded -- are closed and dropped."""
        replies = []
        for slot in self._slots:
            replies.extend(slot.reader.drain())
        kept = []
        for reader in self._retired_readers:
            replies.extend(reader.drain())
            if reader.eof:
                reader.close()
            else:
                kept.append(reader)
        self._retired_readers = kept
        return replies

    def _wait_readable(self, timeout_s):
        """Block until some reply pipe has data, or ``timeout_s``."""
        with self._state_lock:
            readers = [reader for reader in
                       [slot.reader for slot in self._slots]
                       + self._retired_readers
                       if not reader.eof]
        try:
            if readers:
                select.select(readers, [], [], timeout_s)
            else:
                time.sleep(timeout_s)
        except (OSError, ValueError):     # descriptor closed mid-wait
            pass

    def liveness(self):
        """Atomic ``(alive_set, incarnations)`` snapshot.

        Loss detection needs the pair from one instant: checking
        aliveness alone races supervision -- a worker that dies and is
        respawned between two looks is alive both times, with the dead
        incarnation's batches stranded in between.  The incarnation
        numbers disambiguate: a batch dispatched to incarnation *k* of
        a slot now running incarnation *k+1* is lost, however alive
        the slot is.
        """
        with self._state_lock:
            return ({index for index, slot in enumerate(self._slots)
                     if slot.process.is_alive()},
                    tuple(slot.incarnation for slot in self._slots))

    @property
    def restarts(self):
        """Per-slot respawn counts (supervision telemetry)."""
        return tuple(slot.restarts for slot in self._slots)

    @property
    def closed(self):
        return self._closed

    # ------------------------------------------------------------------
    # Supervision: respawn dead workers, terminate hung ones
    # ------------------------------------------------------------------
    @property
    def fleet_down(self):
        """No process alive and no slot can ever respawn: the pool is
        permanently lost and the serving target should degrade to
        in-process execution."""
        with self._state_lock:
            return self._closed or not any(
                slot.process.is_alive()
                or slot.restarts < self.recovery.max_worker_restarts
                for slot in self._slots)

    def terminate_worker(self, worker, incarnation=None):
        """Forcibly kill one worker (the hung-worker remedy).  The
        slot becomes eligible for supervision like any other death.

        When ``incarnation`` is given the kill only lands if the slot
        still runs that incarnation -- a respawn that slipped in
        between blame assignment and the terminate call must not be
        executed for its predecessor's hung batch.
        """
        with self._state_lock:
            slot = self._slots[worker]
            if self._closed or incarnation not in (None, slot.incarnation):
                return
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=5.0)

    def respawn_dead(self):
        """Supervise: restart every dead worker whose slot has restart
        budget and whose backoff window has passed.

        Each respawn gets a **fresh task queue** (anything buffered for
        the dead incarnation is dropped -- the transport hands lost
        batches back from its own in-flight table) and the parent
        session pickled afresh, so a learned cost model's current fit
        rides along (the scheduler folds measurements into that model
        and respawns workers under one lock, its step lock, so the
        pickle never sees an update half done).  Non-blocking beyond
        process start: readiness arrives as a reply consumed by
        :meth:`poll`.  Returns the respawned worker indices.
        """
        respawned = []
        with self._state_lock:
            if self._closed:
                return respawned
            now = time.monotonic()
            for index, slot in enumerate(self._slots):
                if (slot.process.is_alive()
                        or slot.restarts >= self.recovery.max_worker_restarts
                        or now < slot.next_restart_at):
                    continue
                payload = _session_bytes(self._session)
                slot.process.join(timeout=1.0)
                fresh = self._start(index, payload, slot.incarnation + 1)
                fresh.restarts = slot.restarts + 1
                fresh.next_restart_at = (
                    now + self.recovery.restart_backoff.delay_s(
                        slot.restarts, seed=index))
                self._slots[index] = fresh
                try:
                    slot.task_queue.close()
                    slot.task_queue.cancel_join_thread()
                except (ValueError, OSError):         # pragma: no cover
                    pass
                # Retire (don't close) the dead incarnation's reply
                # pipe: results it completed before dying are still
                # buffered there and remain deliverable; poll() drains
                # the retired reader to EOF and then discards it --
                # along with any torn trailing frame the death left.
                self._retired_readers.append(slot.reader)
                respawned.append(index)
        return respawned

    # ------------------------------------------------------------------
    def close(self, timeout_s=30.0):
        """Deterministic shutdown: sentinel every worker, join every
        process (terminating stragglers), release the queues.
        Idempotent, and safe against concurrent :meth:`dispatch` /
        :meth:`poll` -- the closed flag flips and the queues are
        released under the state lock, so a racing dispatcher gets the
        clean "pool is closed" error instead of a multiprocessing
        internals failure."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            for slot in self._slots:
                if slot.process.is_alive():
                    try:
                        slot.task_queue.put(_SENTINEL)
                    except (ValueError, OSError):     # pragma: no cover
                        pass
        deadline = time.monotonic() + timeout_s
        # Keep the reply pipes drained while the workers wind down: a
        # worker with more buffered replies than its pipe holds blocks
        # mid-write and never reaches the sentinel, so an undrained
        # close would stall the full timeout and then terminate a
        # healthy worker.  Discarding is correct here -- close() is
        # end of life; callers that want the results drain before
        # closing (Scheduler.shutdown does).
        while (any(slot.process.is_alive() for slot in self._slots)
               and time.monotonic() < deadline):
            self._wait_readable(0.05)
            with self._state_lock:
                self._drain_readers()
        for slot in self._slots:
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():           # pragma: no cover
                slot.process.terminate()
                slot.process.join(timeout=5.0)
        with self._state_lock:
            for slot in self._slots:
                slot.task_queue.close()
                slot.task_queue.cancel_join_thread()
                slot.reader.close()
            for reader in self._retired_readers:
                reader.close()
            self._retired_readers = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (f"WorkerPool(workers={self.num_workers}, {state}, "
                f"ctx={self._ctx.get_start_method()!r}, "
                f"restarts={sum(self.restarts)})")
