"""The request ledger: one record per admitted request, to delivery.

``_MOVES`` is the whole state machine::

    queued <-> in_flight -> completed | failed -> delivered

:meth:`Ledger._move` is the only mutator: it raises
:class:`IllegalTransition` on a move the table lacks, stamps the
scheduler clock, and bumps the per-class counters ``Scheduler.stats()``
reports.  A request shed at admission gets no entry; it only counts.
Delivery releases the entry (result and stamps): a delivered id keeps
only its state.  Finished ids are evicted oldest first past
``_TERMINAL_WINDOW``; queued and in-flight ones never are, and an
evicted id reads as one never issued.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

__all__ = ["Ledger", "Entry", "IllegalTransition"]

QUEUED, IN_FLIGHT = "queued", "in_flight"
COMPLETED, FAILED, DELIVERED = "completed", "failed", "delivered"
_MOVES = {None: (QUEUED,), QUEUED: (IN_FLIGHT,),
          IN_FLIGHT: (QUEUED, COMPLETED, FAILED),
          COMPLETED: (DELIVERED,), FAILED: (DELIVERED,), DELIVERED: ()}

#: Finished ids held: a result nobody fetches must not grow the server.
_TERMINAL_WINDOW = 65_536


class IllegalTransition(RuntimeError):
    """A move the ledger's transition table does not allow."""


@dataclass(slots=True, eq=False)
class Entry:
    """One request: its state, class, session, result (held until
    delivery) and one ``(state, clock ms)`` stamp per transition."""

    priority: int
    session: str
    state: str = None
    result: object = None
    stamps: list = field(default_factory=list)


#: The one entry every delivered id shares (the table lets it never move).
_DELIVERED = Entry(None, None, DELIVERED)


class Ledger:
    """Request id -> :class:`Entry`, and the per-class counters.

    Every mutator holds ``cond``; :meth:`notify` wakes its waiters and
    calls the ``listeners`` when requests finish.  Reads take no lock.
    """

    def __init__(self, clock):
        self.clock = clock
        self.cond = threading.Condition()
        self.listeners = []          # added and removed under ``cond``
        self.pending_results = 0     # finished entries not yet delivered
        self._entries = {}
        self._finished = deque()     # ids, oldest finish first
        self._classes = {}

    def state(self, request_id):
        """``request_id``'s state, ``None`` when no entry is held."""
        entry = self._entries.get(request_id)
        return None if entry is None else entry.state

    def live(self, request_id):
        """Whether a result is still to come: queued or in flight."""
        return self.state(request_id) in (QUEUED, IN_FLIGHT)

    def admit(self, request_id, priority, session, degraded=False):
        """Enter a request queued on ``session`` (``degraded``:
        admission re-routed it to a cheaper target).  Admitting a held
        id raises: to the table, re-queueing one in flight is legal."""
        with self.cond:
            if request_id in self._entries:
                raise IllegalTransition(f"request {request_id} already "
                                        f"admitted")
            self._entries[request_id] = Entry(priority, session)
            self._move(request_id, QUEUED, degraded=degraded)

    def refuse(self, priority):
        """Count a class-``priority`` request shed at admission."""
        with self.cond:
            self._tally(priority)["shed"] += 1

    def move(self, request_id, state):
        """``queued`` <-> ``in_flight``."""
        with self.cond:
            self._move(request_id, state)

    def finish(self, results, shed=False):
        """File in-flight requests' results -- ``failed`` when one
        carries an error (``shed``: shed on recovery), else
        ``completed`` -- and wake the waiters."""
        with self.cond:
            for result in results:
                self._move(result.request_id,
                           FAILED if result.failed else COMPLETED,
                           result=result, shed=shed)
            self.notify()

    def notify(self):
        """Wake ``cond``'s waiters and the listeners (caller holds it)."""
        self.cond.notify_all()
        for listener in self.listeners:
            listener()

    def take(self, request_id):
        """A finished request's result, now ``delivered``; ``None`` when
        there is none to hand over."""
        with self.cond:
            entry = self._entries.get(request_id)
            if entry is None or entry.state not in (COMPLETED, FAILED):
                return None
            result = entry.result
            self._move(request_id, DELIVERED)
            return result

    def _move(self, request_id, state, result=None, degraded=False,
              shed=False):
        entry = self._entries.get(request_id)
        previous = "unknown" if entry is None else entry.state
        if state not in _MOVES.get(previous, ()):
            raise IllegalTransition(f"request {request_id}: {previous} "
                                    f"-> {state}")
        entry.state, entry.result = state, result
        entry.stamps.append((state, self.clock.now()))
        tally = self._tally(entry.priority)
        if previous is None:
            tally["submitted"] += 1
            tally["degraded"] += degraded
        elif state == FAILED:             # judges no deadline
            tally["failed"] += 1
            tally["shed"] += shed
        elif state == COMPLETED:
            tally["completed"] += 1
            if result.deadline_ms is not None:
                tally["deadline_hits" if result.deadline_met
                      else "deadline_misses"] += 1
        if state == DELIVERED:
            self.pending_results -= 1
            self._entries[request_id] = _DELIVERED
        elif state in (COMPLETED, FAILED):
            self.pending_results += 1
            self._finished.append(request_id)
            while len(self._finished) > _TERMINAL_WINDOW:
                evicted = self._entries.pop(self._finished.popleft())
                self.pending_results -= evicted is not _DELIVERED

    def _tally(self, priority):
        return self._classes.setdefault(priority, {
            "submitted": 0, "completed": 0, "deadline_hits": 0,
            "deadline_misses": 0, "degraded": 0, "shed": 0, "failed": 0})

    def classes(self):
        """The counters by class, each with its ``deadline_hit_rate``
        over deadline-carrying completions (``None`` before one)."""
        with self.cond:
            classes = {priority: dict(tally) for priority, tally
                       in sorted(self._classes.items())}
        for entry in classes.values():
            judged = entry["deadline_hits"] + entry["deadline_misses"]
            entry["deadline_hit_rate"] = (entry["deadline_hits"] / judged
                                          if judged else None)
        return classes
