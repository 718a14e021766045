"""Deterministic fault injection for the worker fleet.

Chaos testing with real ``kill -9`` randomness is unrepeatable; this
module makes worker failure a *scripted, deterministic* event instead.
A :class:`FaultPlan` maps ``(worker index, incarnation)`` to a
:class:`FaultSpec` describing exactly what that process does wrong and
when -- die before its K-th batch, die midway through writing a reply,
hang instead of replying, delay every reply, corrupt a reply's
payload, or send a reply twice.  The
plan ships to each worker process at spawn (it is pickled with the
worker payload) and is evaluated inside ``_run_worker``'s task loop, so
the same plan against the same request stream produces the same failure
sequence every run -- the property the chaos suite and the benchmark's
``--chaos`` lane assert recovery against.

Incarnations make supervision testable: the worker slot that crashes on
incarnation 0 is respawned as incarnation 1, which by default has no
fault entry and serves healthily -- or can be scripted to fail again
(the poison-batch and pool-collapse scenarios).

This is a **test-only hook**: production pools simply pass no plan, and
the injection branch in the worker loop reduces to a ``None`` check per
task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["FaultSpec", "FaultPlan"]


@dataclass(frozen=True)
class FaultSpec:
    """What one worker incarnation does wrong, and when.

    Batch counts are 1-based over the tasks the incarnation *receives*
    (the shutdown sentinel does not count).  All fields compose except
    ``kill_at_batch`` / ``hang_at_batch``, which end the loop.

    Parameters
    ----------
    kill_at_batch: die (``os._exit``) on receiving the K-th task,
        before executing it -- the batch is stranded in flight, the
        crash-recovery path.
    hang_at_batch: on the K-th task, stop responding forever (no reply,
        process stays alive) -- the hung-worker path that
        only a dispatch deadline can catch.
    delay_reply_ms: sleep this long before sending every result reply
        (slow worker; exercises deadline margins without killing).
    corrupt_at_batch: truncate the K-th reply's logits rows -- a
        malformed payload the scheduler must reject and retry, not
        deliver.
    duplicate_at_batch: send the K-th reply twice -- the at-most-once
        delivery check in ``PoolTransport._accept``.
    torn_reply_at_batch: die (``os._exit``) midway through *writing*
        the K-th reply frame -- the abrupt-death-mid-reply case (a
        real ``kill -9`` or OOM lands wherever it lands).  The parent
        must discard the torn frame with the dead incarnation and
        recover the batch; crucially, the rest of the fleet (and the
        slot's respawn) must keep replying -- the scenario that
        deadlocked a shared reply queue's write lock forever.
    """

    kill_at_batch: int = None
    hang_at_batch: int = None
    delay_reply_ms: float = 0.0
    corrupt_at_batch: int = None
    duplicate_at_batch: int = None
    torn_reply_at_batch: int = None

    def __post_init__(self):
        for name in ("kill_at_batch", "hang_at_batch",
                     "corrupt_at_batch", "duplicate_at_batch",
                     "torn_reply_at_batch"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} is 1-based, must be >= 1")
        if self.delay_reply_ms < 0:
            raise ValueError("delay_reply_ms must be >= 0")

    # -- hooks evaluated inside the worker loop ------------------------
    def should_kill(self, batch_count):
        return (self.kill_at_batch is not None
                and batch_count >= self.kill_at_batch)

    def should_hang(self, batch_count):
        return (self.hang_at_batch is not None
                and batch_count >= self.hang_at_batch)

    def should_corrupt(self, batch_count):
        return self.corrupt_at_batch == batch_count

    def should_duplicate(self, batch_count):
        return self.duplicate_at_batch == batch_count

    def should_tear(self, batch_count):
        return self.torn_reply_at_batch == batch_count

    def apply_delay(self, sleep=time.sleep):
        if self.delay_reply_ms > 0:
            sleep(self.delay_reply_ms / 1e3)


class FaultPlan:
    """Scripted faults for a pool: ``{worker: spec}`` or
    ``{(worker, incarnation): spec}``.

    A bare ``int`` key means incarnation 0 (the process started at pool
    construction); a ``(worker, incarnation)`` key targets the N-th
    respawn of that slot.  Workers and incarnations without an entry
    behave normally.
    """

    def __init__(self, faults=None):
        self._faults = {}
        for key, spec in dict(faults or {}).items():
            self.add(key, spec)

    def add(self, key, spec):
        if not isinstance(spec, FaultSpec):
            raise TypeError("fault plan values must be FaultSpec")
        if isinstance(key, tuple):
            worker, incarnation = key
        else:
            worker, incarnation = key, 0
        if worker < 0 or incarnation < 0:
            raise ValueError("worker and incarnation must be >= 0")
        self._faults[(int(worker), int(incarnation))] = spec
        return self

    def for_worker(self, worker, incarnation=0):
        """The :class:`FaultSpec` this incarnation runs under, or
        ``None`` (healthy)."""
        return self._faults.get((int(worker), int(incarnation)))

    def __len__(self):
        return len(self._faults)

    def __repr__(self):
        entries = ", ".join(f"w{w}.i{i}" for w, i in sorted(self._faults))
        return f"FaultPlan({entries})"
