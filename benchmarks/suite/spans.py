"""Outside-in tracing: spans recorded from the benchmark's own files.

A :class:`Tracer` replaces public methods of *instances* (a session, an
executor, a queue, ...) with timing wrappers, keeps the spans in memory
and restores every attribute afterwards, so an untraced run executes
the program's own code with nothing in between.  ``src/repro`` is not
touched; tracing inside the program is a later issue.

A span is ``{"id", "name", "start", "end", "parent", "op_id"}``: times
are ``time.perf_counter()`` seconds (``CLOCK_MONOTONIC``, so spans of
different processes on one host share a time base), ``parent`` is the
id of the enclosing span in the same thread (``None`` for a root), and
every span of one operation carries the same ``op_id``.  While a trace
is being recorded the ``op_id`` of a span is a one-element list shared
with its root, so an operation can be named once its id is known (a
request id only exists after ``submit`` returns); :meth:`Tracer.export`
flattens it.
"""

from __future__ import annotations

import itertools
import threading
import time

_MISSING = object()


class Tracer:
    def __init__(self, prefix=""):
        self.spans = []
        self.prefix = prefix            # keeps ids of two processes apart
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrapped = []

    # -- spans ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, op_id=None):
        """Open a span in this thread.  A root span names the operation
        (``op_id``); nested spans inherit it."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {"id": f"{self.prefix}{next(self._ids)}", "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": parent["id"] if parent else None,
                "op_id": [op_id] if parent is None else parent["op_id"]}
        stack.append(span)
        return span

    def end(self, span, keep=True):
        span["end"] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        stack.pop()
        self._local.closed = self._closed() + 1
        if keep:
            self.spans.append(span)      # list.append is atomic

    def _closed(self):
        """Spans this thread has closed so far."""
        return getattr(self._local, "closed", 0)

    def record(self, name, start, end, parent=None, op_id=None):
        """Add a span measured elsewhere (an interval that starts in
        one thread and ends in another)."""
        span = {"id": f"{self.prefix}{next(self._ids)}", "name": name,
                "start": start, "end": end, "parent": parent,
                "op_id": [op_id]}
        self.spans.append(span)
        return span["id"]

    def export(self):
        """The recorded spans as plain dicts (``op_id`` flattened)."""
        return [dict(span, op_id=span["op_id"][0]) for span in self.spans]

    # -- instance-level wrapping ---------------------------------------
    def wrap(self, obj, attr, name, after=None, drop_childless=False):
        """Time every call of ``obj.attr`` as a span called ``name``.

        ``after(span, args, kwargs, result)`` runs once the call has
        returned -- the place to record counts at the same boundary.
        ``drop_childless`` discards calls during which no other span
        was opened (a scheduler step that found nothing to flush).
        """
        original = getattr(obj, attr)
        own = vars(obj).get(attr, _MISSING)

        def traced(*args, **kwargs):
            span = self.begin(name)
            before = self._closed()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.end(span)
                raise
            self.end(span, keep=not (drop_childless
                                     and self._closed() == before))
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr, own))

    def restore(self):
        """Put back every attribute :meth:`wrap` replaced."""
        while self._wrapped:
            obj, attr, own = self._wrapped.pop()
            if own is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)

    @property
    def wrapped(self):
        return [(type(obj).__name__, attr) for obj, attr, _ in self._wrapped]


# ----------------------------------------------------------------------
# Reading spans
# ----------------------------------------------------------------------
def by_name(spans, name):
    return [span for span in spans if span["name"] == name]


def durations_ms(spans):
    return [(span["end"] - span["start"]) * 1e3 for span in spans]


def children_of(spans):
    """``{parent id: [child spans]}``."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return children


def self_ms(span, children, exclude=()):
    """A span's own time: its duration minus its direct children's
    (same-thread children never overlap).  Children named in
    ``exclude`` are treated as part of the span itself."""
    inner = sum(child["end"] - child["start"]
                for child in children.get(span["id"], ())
                if child["name"] not in exclude)
    return (span["end"] - span["start"] - inner) * 1e3


def covered_seconds(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def unattributed_share(spans, root_name="op"):
    """Share of the operations' wall time that no span below the root
    accounts for: per root span, its duration minus the union of every
    other span carrying its ``op_id``, summed over operations."""
    by_op = {}
    for span in spans:
        if span["name"] != root_name:
            by_op.setdefault(span["op_id"], []).append(
                (span["start"], span["end"]))
    wall = dark = 0.0
    for root in by_name(spans, root_name):
        length = root["end"] - root["start"]
        wall += length
        dark += length - covered_seconds(root["start"], root["end"],
                                         by_op.get(root["op_id"], ()))
    return dark / wall if wall else 0.0


def waterfall(spans, root_name="op"):
    """Mean self time per operation under every span name, largest
    first.  Same-thread spans nest, so the rows sum to the mean wall of
    an operation; the root's own row is what no layer accounts for."""
    children = children_of(spans)
    ops = len(by_name(spans, root_name))
    totals = {}
    for span in spans:
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + self_ms(span, children))
    return [(f"{name} (unattributed)" if name == root_name else name,
             total / ops)
            for name, total in sorted(totals.items(),
                                      key=lambda item: -item[1])] if ops else []
