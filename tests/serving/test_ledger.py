"""The request ledger's state machine, driven directly.

A hypothesis test runs random sequences of transitions -- legal and
illegal -- against a model of the table the ledger documents.  Legal
moves must land where the model says, stamp the clock once each and
keep the counters conserved (``submitted == completed + failed + live
queued + live in-flight``); illegal ones must raise and change nothing.
The eviction window is shrunk so eviction happens inside the runs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import RequestResult, VirtualClock
from repro.serving import ledger as ledger_module
from repro.serving.ledger import IllegalTransition, Ledger

#: The documented state machine, written out independently of the code.
LEGAL = {
    None: {"queued"},
    "queued": {"in_flight"},
    "in_flight": {"queued", "completed", "failed"},
    "completed": {"delivered"},
    "failed": {"delivered"},
    "delivered": set(),
}

OPS = ("admit", "dispatch", "requeue", "complete", "fail", "take", "tick")


def make_result(request_id, now, priority, *, failed=False, deadline=None):
    return RequestResult(
        request_id=request_id, logits=None if failed else np.zeros((1, 2)),
        latency_ms=None if failed else np.ones(1), session="s",
        arrival_ms=0.0, completed_ms=now, deadline_ms=deadline,
        priority=priority, error="lost" if failed else None)


def totals(ledger):
    classes = ledger.classes().values()
    return {key: sum(c[key] for c in classes)
            for key in ("submitted", "completed", "failed", "shed",
                        "degraded", "deadline_hits", "deadline_misses")}


@given(window=st.integers(1, 4),
       steps=st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2),
                                st.integers(0, 2), st.booleans()),
                      min_size=10, max_size=80))
@settings(max_examples=300, deadline=None)
def test_random_transitions(window, steps):
    clock = VirtualClock()
    ledger = Ledger(clock)
    states, history, finished = {}, {}, []       # the model
    admitted = {}              # id -> the Entry the ledger made for it
    expected = dict.fromkeys(totals(ledger), 0)
    with mock.patch.object(ledger_module, "_TERMINAL_WINDOW", window):
        for op, request_id, priority, flag in steps:
            if op == "tick":
                clock.advance(1.0)
                continue
            state = states.get(request_id)
            entry_priority = (priority if state is None
                              else admitted[request_id].priority)
            now = clock.now()
            target = {"admit": "queued", "dispatch": "in_flight",
                      "requeue": "queued", "complete": "completed",
                      "fail": "failed", "take": "delivered"}[op]
            legal = (state is None if op == "admit"
                     else state is not None and target in LEGAL[state])
            deadline = (None if priority == 0
                        else now + (1.0 if flag else -1.0))
            result = make_result(request_id, now, entry_priority,
                                 failed=op == "fail", deadline=deadline)
            if op == "take":
                taken = ledger.take(request_id)           # never raises
                assert (taken is not None) == legal
            elif not legal:
                before = (ledger.state(request_id), totals(ledger),
                          dict(ledger._entries), ledger.pending_results)
                with pytest.raises(IllegalTransition):
                    if op == "admit":
                        ledger.admit(request_id, priority, "s")
                    elif op in ("complete", "fail"):
                        ledger.finish([result], shed=flag)
                    else:
                        ledger.move(request_id, target)
                assert before == (ledger.state(request_id), totals(ledger),
                                  dict(ledger._entries),
                                  ledger.pending_results)
            elif op == "admit":
                ledger.admit(request_id, priority, "s", degraded=flag)
                admitted[request_id] = ledger._entries[request_id]
            elif op in ("complete", "fail"):
                ledger.finish([result], shed=flag)
            else:
                ledger.move(request_id, target)
            if legal:
                states[request_id] = target
                history.setdefault(request_id, []).append((target, now))
                if op == "admit":
                    expected["submitted"] += 1
                    expected["degraded"] += flag
                elif op == "complete":
                    expected["completed"] += 1
                    if deadline is not None:
                        expected["deadline_hits" if flag
                                 else "deadline_misses"] += 1
                elif op == "fail":
                    expected["failed"] += 1
                    expected["shed"] += flag
                if target in ("completed", "failed"):
                    finished.append(request_id)
                    while len(finished) > window:
                        evicted = finished.pop(0)
                        del states[evicted], history[evicted]
            # The ledger agrees with the model, entry by entry.
            for key in range(3):
                assert ledger.state(key) == states.get(key)
                if key in states:
                    assert admitted[key].stamps == history[key]
                    held = ledger._entries[key]
                    assert (held.result is not None) == (
                        states[key] in ("completed", "failed"))
                    assert (held is admitted[key]) == (
                        states[key] != "delivered")
                    if states[key] == "delivered":
                        assert held.stamps == [] and held.session is None
            live = {s: sum(v == s for v in states.values())
                    for s in ("queued", "in_flight")}
            assert ledger.pending_results == sum(
                v in ("completed", "failed") for v in states.values())
            got = totals(ledger)
            assert got == expected
            assert got["submitted"] == (got["completed"] + got["failed"]
                                        + live["queued"] + live["in_flight"])


def test_admission_shed_counts_without_an_entry():
    ledger = Ledger(VirtualClock())
    ledger.refuse(2)
    assert not ledger._entries and ledger.state(0) is None
    assert ledger.classes()[2]["shed"] == 1
    assert ledger.classes()[2]["submitted"] == 0


def test_live_entries_are_never_evicted(monkeypatch):
    monkeypatch.setattr("repro.serving.ledger._TERMINAL_WINDOW", 1)
    clock = VirtualClock()
    ledger = Ledger(clock)
    for request_id in range(4):
        ledger.admit(request_id, 1, "s")
        ledger.move(request_id, "in_flight")
    for request_id in (0, 1):
        ledger.finish([make_result(request_id, 0.0, 1)])
    assert [ledger.state(i) for i in range(4)] == [
        None, "completed", "in_flight", "in_flight"]
    ledger.take(1)
    assert ledger.take(1) is None                 # delivered once
    assert ledger.state(1) == "delivered"
    assert ledger.pending_results == 0
