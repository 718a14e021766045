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

Because every image's compute is independent of its batch neighbours
(the engine's grouped-execution invariant), a batch executed by any
worker returns logits bitwise identical to in-process execution --
multi-worker serving changes *where* batches run, never *what* they
compute.  That invariant is also what makes **recovery** exact: a
batch lost to a dead worker re-executes anywhere with bitwise-identical
results.

Self-healing (the fleet side; the in-flight table and the recovery
sweep live in :class:`repro.serving.PoolTransport`):

* **Supervision** -- dead workers are respawned, bounded per slot
  (``max_restarts``) and spaced by the shared
  :class:`repro.serving.RetryPolicy` exponential backoff.  A respawn
  pickles the parent session afresh, so a learned
  :class:`repro.cost.OnlineCostModel` (when cost learning is on) rides
  along at its current fit: the replacement prices batches from
  everything the fleet measured before the crash instead of
  re-learning from scratch.
* **Liveness from the OS** -- a death shows as ``is_alive()`` turning
  false and, once respawned, as a newer incarnation; a worker hung
  mid-batch is caught by the transport's per-batch dispatch deadline
  (derived from the cost model).  Nothing travels while a worker idles.
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
only its processes.
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
    passed are shed (failed to their callers, counted in the class's
    ``shed`` stats) instead of silently re-executed late; premium
    class-0 requests are never shed.

    Parameters
    ----------
    max_worker_restarts: respawns allowed per worker slot before the
        slot is abandoned.  When every slot is dead and exhausted the
        pool reports :attr:`WorkerPool.fleet_down` and its transport
        degrades to in-process execution.
    restart_backoff: :class:`repro.serving.RetryPolicy` spacing
        consecutive respawns of one slot (crash loops must not spin).
    retry: :class:`repro.serving.RetryPolicy` whose ``retries`` is the
        per-request re-dispatch budget after worker losses -- a request
        whose batches have killed ``retries + 1`` workers is poisoned:
        failed cleanly to its caller instead of retried forever.
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
    retry: RetryPolicy = RetryPolicy(attempts=3)
    dispatch_timeout_factor: float = 20.0
    min_dispatch_timeout_s: float = 30.0
    max_in_flight_per_worker: int = 8

    def __post_init__(self):
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if self.dispatch_timeout_factor <= 0:
            raise ValueError("dispatch_timeout_factor must be > 0")
        if self.min_dispatch_timeout_s <= 0:
            raise ValueError("min_dispatch_timeout_s must be > 0")
        if self.max_in_flight_per_worker < 1:
            raise ValueError("max_in_flight_per_worker must be >= 1")

    @property
    def max_request_retries(self):
        """Re-dispatches one request may consume after worker losses."""
        return self.retry.retries


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
    ready handshake.
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
        self._task_queues = [self._ctx.Queue()
                             for _ in range(self.num_workers)]
        # One reply pipe per worker (crash isolation -- see module
        # docstring), plus a graveyard of dead incarnations' readers
        # still holding completed replies, drained until EOF.
        self._reply_readers = [None] * self.num_workers
        self._retired_readers = []
        # Guards _closed (and the process/queue tables, which respawns
        # mutate) against dispatch/poll racing close() from another
        # thread (scheduler shutdown during background stepping):
        # without it a dispatcher can observe _closed == False, lose
        # the CPU, and put on a queue close() has already released --
        # an unhandled ValueError/OSError deep in multiprocessing
        # instead of the clean "pool is closed" error.  RLock so
        # close() can run under it end to end while its own helpers
        # re-enter.
        self._state_lock = threading.RLock()
        self._closed = False
        self._incarnations = [0] * self.num_workers
        self._restarts = [0] * self.num_workers
        self._next_restart_at = [0.0] * self.num_workers
        self._processes = []
        child_conns = []
        for index in range(self.num_workers):
            process, child_conn = self._make_process(index, payload)
            self._processes.append(process)
            child_conns.append(child_conn)
        with _single_thread_blas_env():
            for process in self._processes:
                process.start()
        # Drop the parent's copies of the write ends: after this, each
        # pipe's only writer is its worker, and EOF on a reader means
        # that worker (and, under fork, any sibling that inherited the
        # descriptor) is gone.
        for conn in child_conns:
            conn.close()
        self._await_ready()

    def _make_process(self, index, payload):
        """Build (but do not start) a process that unpickles ``payload``
        as the slot's current incarnation, wiring a fresh reply pipe into
        ``_reply_readers[index]``.  Returns ``(process, child_conn)``;
        the caller starts the process and then closes ``child_conn``
        (the parent's copy of the write end)."""
        incarnation = self._incarnations[index]
        fault = (None if self._fault_plan is None
                 else self._fault_plan.for_worker(index, incarnation))
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        self._reply_readers[index] = _ReplyReader(recv_conn)
        process = self._ctx.Process(
            target=_run_worker,
            args=(index, incarnation, payload,
                  self._task_queues[index], send_conn, fault),
            name=(f"repro-serving-worker-{index}.{incarnation}"),
            daemon=True)
        return process, send_conn

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
                dead = [p.name for p in self._processes
                        if not p.is_alive() and p.exitcode not in (0, None)]
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
            if not self._processes[worker].is_alive():
                raise WorkerDiedError(
                    worker,
                    f"worker {worker} "
                    f"(incarnation {self._incarnations[worker]}) is "
                    f"dead; redirect the batch")
            self._task_queues[worker].put((task_id, list(image_groups)))
            return self._incarnations[worker]

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
        for reader in self._reply_readers:
            if reader is not None:
                replies.extend(reader.drain())
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
            readers = [reader for reader in self._reply_readers
                       if reader is not None and not reader.eof]
            readers += [reader for reader in self._retired_readers
                        if not reader.eof]
        try:
            if readers:
                select.select(readers, [], [], timeout_s)
            else:
                time.sleep(timeout_s)
        except (OSError, ValueError):     # descriptor closed mid-wait
            pass

    def alive_workers(self):
        """Indices of workers whose processes are still running."""
        return [index for index, process in enumerate(self._processes)
                if process.is_alive()]

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
            return ({index for index, process in enumerate(self._processes)
                     if process.is_alive()},
                    tuple(self._incarnations))

    @property
    def restarts(self):
        """Per-slot respawn counts (supervision telemetry)."""
        return tuple(self._restarts)

    @property
    def closed(self):
        return self._closed

    # ------------------------------------------------------------------
    # Supervision: respawn dead workers, terminate hung ones
    # ------------------------------------------------------------------
    def can_respawn(self, worker):
        """Whether the slot has restart budget left (now or after its
        backoff window)."""
        return (not self._closed
                and self._restarts[worker] < self.recovery.max_worker_restarts)

    @property
    def fleet_down(self):
        """No process alive and no slot can ever respawn: the pool is
        permanently lost and the serving target should degrade to
        in-process execution."""
        with self._state_lock:
            if self._closed:
                return True
            return (not any(p.is_alive() for p in self._processes)
                    and not any(self.can_respawn(w)
                                for w in range(self.num_workers)))

    def terminate_worker(self, worker, incarnation=None):
        """Forcibly kill one worker (the hung-worker remedy).  The
        slot becomes eligible for supervision like any other death.

        When ``incarnation`` is given the kill only lands if the slot
        still runs that incarnation -- a respawn that slipped in
        between blame assignment and the terminate call must not be
        executed for its predecessor's hung batch.
        """
        with self._state_lock:
            if self._closed:
                return
            if (incarnation is not None
                    and self._incarnations[worker] != incarnation):
                return
            process = self._processes[worker]
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)

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
            for index, process in enumerate(self._processes):
                if process.is_alive():
                    continue
                if not self.can_respawn(index):
                    continue
                if now < self._next_restart_at[index]:
                    continue
                payload = _session_bytes(self._session)
                process.join(timeout=1.0)
                old_queue = self._task_queues[index]
                self._task_queues[index] = self._ctx.Queue()
                try:
                    old_queue.close()
                    old_queue.cancel_join_thread()
                except (ValueError, OSError):         # pragma: no cover
                    pass
                # Retire (don't close) the dead incarnation's reply
                # pipe: results it completed before dying are still
                # buffered there and remain deliverable; poll() drains
                # the retired reader to EOF and then discards it --
                # along with any torn trailing frame the death left.
                old_reader = self._reply_readers[index]
                if old_reader is not None:
                    self._retired_readers.append(old_reader)
                attempt = self._restarts[index]
                self._restarts[index] += 1
                self._next_restart_at[index] = (
                    now + self.recovery.restart_backoff.delay_s(
                        attempt, seed=index))
                self._incarnations[index] += 1
                replacement, child_conn = self._make_process(index,
                                                             payload)
                with _single_thread_blas_env():
                    replacement.start()
                child_conn.close()
                self._processes[index] = replacement
                respawned.append(index)
        return respawned

    def supervision_snapshot(self):
        """Telemetry: per-slot incarnation/restart/liveness state
        (what ``Scheduler.stats()`` reports per pooled target)."""
        with self._state_lock:
            return {
                "alive": self.alive_workers(),
                "incarnations": tuple(self._incarnations),
                "restarts": tuple(self._restarts),
                "fleet_down": self.fleet_down,
            }

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
            for task_queue, process in zip(self._task_queues,
                                           self._processes):
                if process.is_alive():
                    try:
                        task_queue.put(_SENTINEL)
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
        while (any(process.is_alive() for process in self._processes)
               and time.monotonic() < deadline):
            self._wait_readable(0.05)
            with self._state_lock:
                self._drain_readers()
        for process in self._processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():                # pragma: no cover
                process.terminate()
                process.join(timeout=5.0)
        with self._state_lock:
            for task_queue in self._task_queues:
                task_queue.close()
                task_queue.cancel_join_thread()
            for reader in self._reply_readers + self._retired_readers:
                if reader is not None:
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
                f"restarts={sum(self._restarts)})")
