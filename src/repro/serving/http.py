"""HTTP/JSON front door: the network face of the serving scheduler.

An asyncio HTTP/1.1 server (stdlib only -- ``asyncio.start_server``
plus a small request parser, no web framework) that exposes a
:class:`repro.serving.Scheduler` to real clients:

* ``POST /v1/submit`` -- submit images with an optional deadline,
  priority class, and model pin.  Payload images travel either inline
  (``{"images": [[[...]]]}``, a ``(C,H,W)`` or ``(n,C,H,W)`` nested
  list) or by seed (``{"num_images": 2, "seed": 7}``: the server
  synthesizes the deterministic :func:`repro.serving.trace.synth_images`
  stack -- the trace-replay road, no megabytes of JSON pixels).
  Answers ``200 {"status": "queued", "request_id": ...}``, ``429``
  when admission control sheds, ``503`` + ``Retry-After`` for
  sheddable classes while every eligible target is degraded (worker
  fleet lost, serving in-process), ``400``/``404`` on malformed input
  (``num_images``, ``seed`` and ``priority`` must be JSON integers,
  ``deadline_ms`` a finite number > 0, ``model`` a string).
* ``GET /v1/result/<id>`` -- poll: ``200`` with the result, ``202``
  while pending.  With ``?wait=1[&timeout_ms=...]`` the response is
  held open until completion (or ``202`` once ``timeout_ms`` from the
  poll's arrival has passed; ``400`` unless ``timeout_ms`` is finite,
  >= 0 and at most ``threading.TIMEOUT_MAX`` seconds).  ``?logits=1``
  includes raw logits.  Any id the scheduler issued is answered from
  its ledger (:mod:`repro.serving.ledger`), and delivered **at most
  once**: a second fetch is ``404 gone``; an id never issued, shed at
  admission, or evicted (the 65 536 most recently finished are kept)
  is ``404 unknown``.
* ``GET /healthz`` -- liveness plus registered session names.
* ``GET /stats`` -- :meth:`repro.serving.Scheduler.stats` (queue
  depths, priced backlogs, in-flight batches, per-class deadline-hit
  rates, flush-reason histogram) plus server counters.

The server owns an event-loop thread.  Flushing is the scheduler's own
driver thread (:meth:`Scheduler.start`): the front door starts it
unless it is already running and stops it only if it started it, so
``FrontDoor(scheduler).start()`` is a complete serving process and a
scheduler someone else drives is left alone.  With a driver running
``Scheduler.submit`` only queues and wakes it, so submits run on the
loop itself, and so do held polls, which the ledger wakes when requests
finish; :meth:`FrontDoor.stop` answers each before the loop closes.

:class:`FrontDoorClient` is the matching blocking client (stdlib
``http.client``, keep-alive) used by the tests and the load generator.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import sys
import threading
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.serving.ledger import DELIVERED
from repro.serving.request import DEFAULT_PRIORITY
from repro.serving.retry import RetryPolicy
from repro.serving.scheduler import AdmissionError, check_timeout_ms
from repro.serving.trace import synth_images

__all__ = ["FrontDoor", "FrontDoorClient"]

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            408: "Request Timeout", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Header lines accepted per request (the stdlib ``http.client``'s own
#: ``_MAXHEADERS``); a request with more is refused, not stored.
_MAX_HEADERS = 100

#: Seconds a request's headers and body have to arrive once its request
#: line has: a client that stalls mid-request (slow-loris) gets ``408``
#: and a closed connection instead of holding a task and a socket for
#: good.  The idle wait for the next request line has no such limit.
_READ_DEADLINE_S = 10.0

#: ``Retry-After`` seconds on a 503 (degraded target).  Degraded mode
#: still serves -- in-process, slower -- so a short back-off is right:
#: the client should retry, just not immediately.
_RETRY_AFTER_S = 1


def _json_int(value):
    """Whether a decoded JSON value is an integer: ``true``/``false``
    decode to ``bool``, which ``isinstance(value, int)`` also accepts."""
    return type(value) is int


def _json_number(value):
    """Whether a decoded JSON value is a number a float can hold: not
    ``true``/``false``, and not an integer literal beyond float range
    (which ``math.isfinite`` answers with OverflowError)."""
    return (type(value) is float
            or _json_int(value) and abs(value) <= sys.float_info.max)


def _result_payload(result, include_logits=False):
    """JSON-shape one RequestResult (the wire format of a completion).

    A request the recovery layer failed cleanly (poison quarantine /
    shed after a worker loss) is still *delivered* -- as ``{"status":
    "failed", "error": ...}`` with no predictions; the delivery itself
    succeeds (HTTP 200, at-most-once), only the inference did not.
    """
    if result.failed:
        return {
            "status": "failed",
            "request_id": result.request_id,
            "session": result.session,
            "priority": result.priority,
            "error": result.error,
            "arrival_ms": result.arrival_ms,
            "completed_ms": result.completed_ms,
            "wait_ms": result.wait_ms,
            "deadline_ms": result.deadline_ms,
        }
    payload = {
        "status": "done",
        "request_id": result.request_id,
        "session": result.session,
        "priority": result.priority,
        "num_images": int(result.logits.shape[0]),
        "predictions": result.predictions.tolist(),
        "latency_ms": result.latency_ms.tolist(),
        "arrival_ms": result.arrival_ms,
        "completed_ms": result.completed_ms,
        "wait_ms": result.wait_ms,
        "deadline_ms": result.deadline_ms,
        "deadline_met": bool(result.deadline_met),
        "overshoot_ms": result.overshoot_ms,
    }
    if include_logits:
        payload["logits"] = result.logits.tolist()
    return payload


class _HttpError(Exception):
    """Routed straight to a JSON error response."""

    def __init__(self, status, message, **extra):
        super().__init__(message)
        self.status = status
        self.payload = {"status": "error", "error": message, **extra}


class FrontDoor:
    """Asyncio HTTP front-end over one :class:`Scheduler`.

    Parameters
    ----------
    scheduler: the scheduler to expose (register sessions first).
    host/port: bind address; port 0 picks a free port (read ``.port``
        after :meth:`start`).
    max_body_bytes: reject larger request bodies with ``413``.

    A scheduler that is not running is started with its defaults (and
    stopped by :meth:`stop`); start it first for another poll cadence.
    """

    def __init__(self, scheduler, host="127.0.0.1", port=0, *,
                 max_body_bytes=64 * 1024 * 1024):
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.scheduler = scheduler
        self.host = host
        self.port = int(port)
        self.max_body_bytes = int(max_body_bytes)
        self._thread = None
        self._loop = None
        self._stop_event = None
        self._finished = None        # resolved (and replaced) on each wake
        self._connections = {}       # handler task -> (reader, writer)
        self._startup_error = None
        self._started_scheduler = False
        # Written on the event loop only, so no lock.
        self.counters = {"http_requests": 0, "submitted": 0, "shed": 0,
                         "unavailable": 0, "results_delivered": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout_s=30.0):
        """Bind and serve on a background event-loop thread.

        Returns once the socket is listening (``.port`` is then the
        real bound port) and the scheduler is stepping.  Raises
        whatever the server startup raised.
        """
        if self._thread is not None:
            raise RuntimeError("front door already started")
        self._startup_error = None
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(ready,), daemon=True,
            name="repro-serving-frontdoor")
        self._thread.start()
        if not ready.wait(timeout_s):
            raise RuntimeError("front door startup timed out")
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def stop(self, drain=True):
        """Stop serving; returns the scheduler's drained results.

        Answers every held poll, closes the listening socket, joins the
        event-loop thread, and -- if this front door started the
        scheduler's stepping thread -- stops it too (``drain=True`` runs
        queued and in-flight requests to completion first).  Idempotent.
        """
        if self._thread is None:
            return []
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None
        self._loop = None
        results = []
        if self._started_scheduler:
            self._started_scheduler = False
            results = self.scheduler.stop(drain=drain)
        return results

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop(drain=exc_type is None)

    def _run(self, ready):
        try:
            asyncio.run(self._main(ready))
        except Exception as exc:                  # pragma: no cover
            self._startup_error = exc
            ready.set()

    async def _main(self, ready):
        self._loop = loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._finished = loop.create_future()
        try:
            server = await asyncio.start_server(self._handle, self.host,
                                                self.port)
        except OSError as exc:
            self._startup_error = exc
            ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        if not self.scheduler.running:
            self.scheduler.start()
            self._started_scheduler = True
        ready.set()
        ledger = self.scheduler.ledger
        wake = functools.partial(loop.call_soon_threadsafe, self._wake_polls)
        with ledger.cond:
            ledger.listeners.append(wake)
        await self._stop_event.wait()
        server.close()
        with ledger.cond:
            ledger.listeners.remove(wake)
        # Held polls answer and close, the rest read EOF: none is cancelled.
        self._wake_polls()
        for reader, writer in self._connections.values():
            writer.transport.pause_reading()
            reader.feed_eof()
        if self._connections:
            await asyncio.wait(list(self._connections),
                               timeout=_READ_DEADLINE_S)

    def _wake_polls(self):
        """Have every held poll look at the ledger again (on the loop)."""
        self._finished.set_result(None)
        self._finished = self._loop.create_future()

    # ------------------------------------------------------------------
    # Connection handling (HTTP/1.1 with keep-alive)
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer):
        self._connections[asyncio.current_task()] = reader, writer
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(writer, exc.status, exc.payload,
                                        keep_alive=False)
                    break
                if request is None:
                    break
                method, target, keep_alive, body = request
                self.counters["http_requests"] += 1
                extra_headers = None
                try:
                    response = await self._route(method, target, body)
                    status, payload = response[0], response[1]
                    if len(response) > 2:
                        extra_headers = response[2]
                except _HttpError as exc:
                    status, payload = exc.status, exc.payload
                except Exception as exc:
                    status, payload = 500, {"status": "error",
                                            "error": repr(exc)}
                keep_alive = keep_alive and not self._stop_event.is_set()
                await self._respond(writer, status, payload, keep_alive,
                                    headers=extra_headers)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            del self._connections[asyncio.current_task()]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader):
        """Read one request: ``(method, target, keep_alive, body)``, or
        ``None`` when the client is done with the connection.

        Waits as long as the client likes for a request line, then
        gives the headers and body :data:`_READ_DEADLINE_S` to follow.
        Raises :class:`_HttpError` -- answered, then the connection
        closes -- for a request no client of ours sends: ``408`` past
        the deadline; ``400`` for a request line that is not three
        words, more than :data:`_MAX_HEADERS` header lines, or a line
        over the stream's 64 KiB limit (``readline``'s ``ValueError``);
        ``413`` for an unreadable, negative or oversized body length.
        """
        try:
            request_line = await reader.readline()
            if not request_line or request_line in (b"\r\n", b"\n"):
                return None
            words = request_line.decode("latin1").split()
            if len(words) != 3:
                raise _HttpError(400, "malformed request line")
            return await asyncio.wait_for(self._read_rest(reader, *words),
                                          _READ_DEADLINE_S)
        except asyncio.TimeoutError:
            raise _HttpError(408, "request not received in time") from None
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None

    async def _read_rest(self, reader, method, target, version):
        """The headers and body after a request line (see
        :meth:`_read_request`)."""
        headers = {}
        for _ in range(_MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, f"more than {_MAX_HEADERS} header lines")
        keep_alive = (headers.get(
            "connection", "keep-alive" if version == "HTTP/1.1" else "close")
            .lower() != "close")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > self.max_body_bytes:
            raise _HttpError(413, "bad content length")
        body = await reader.readexactly(length) if length else b""
        return method, target, keep_alive, body

    async def _respond(self, writer, status, payload, keep_alive,
                       headers=None):
        data = json.dumps(payload).encode()
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"{extra}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("latin1") + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, target, body):
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {key: values[-1]
                 for key, values in parse_qs(parts.query).items()}
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok",
                         "sessions": [s.name
                                      for s in self.scheduler.sessions]}
        if path == "/stats" and method == "GET":
            stats = self.scheduler.stats()
            stats["server"] = dict(self.counters)
            # JSON object keys must be strings; priority classes are ints.
            stats["classes"] = {str(cls): entry
                                for cls, entry in stats["classes"].items()}
            return 200, stats
        if path == "/v1/submit":
            if method != "POST":
                raise _HttpError(405, "submit is POST")
            return await self._submit(body)
        if path.startswith("/v1/result/"):
            if method != "GET":
                raise _HttpError(405, "result is GET")
            return await self._result(path[len("/v1/result/"):], query)
        raise _HttpError(404, f"no route for {method} {parts.path}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _parse_images(self, record, model):
        if "images" in record:
            try:
                return np.asarray(record["images"], dtype=np.float64)
            except (TypeError, ValueError):
                raise _HttpError(400, "images must be a numeric "
                                      "(C,H,W) or (n,C,H,W) nested list")
        if "num_images" in record:
            num_images = record["num_images"]
            if not _json_int(num_images) or num_images < 1:
                raise _HttpError(400, "num_images must be an int >= 1")
            seed = record.get("seed", 0)
            if not _json_int(seed) or seed < 0:
                raise _HttpError(400, "seed must be an int >= 0")
            shapes = {s.name: s.image_shape
                      for s in self.scheduler.sessions}
            if model is not None:
                shape = shapes.get(model)
                if shape is None:
                    raise _HttpError(404, f"unknown session {model!r}")
            else:
                unique = set(shapes.values())
                if len(unique) != 1:
                    raise _HttpError(400,
                                     "seed submission is ambiguous with "
                                     "mixed image shapes registered; pin "
                                     "a model")
                shape = unique.pop()
            # The stack is synthesized right here, on the event loop:
            # a few body bytes may ask for no more float64 pixels than
            # an inline body of the allowed size could carry.
            if num_images * math.prod(shape) * 8 > self.max_body_bytes:
                raise _HttpError(413, "num_images asks for a larger "
                                      "stack than max_body_bytes allows "
                                      "inline")
            return synth_images((num_images,) + tuple(shape), seed)
        raise _HttpError(400, "submit needs images or num_images")

    async def _submit(self, body):
        try:
            record = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HttpError(400, "body must be JSON")
        if not isinstance(record, dict):
            raise _HttpError(400, "body must be a JSON object")
        model = record.get("model")
        if model is not None and not isinstance(model, str):
            # A list would reach a session-name dict lookup: a 500.
            raise _HttpError(400, "model must be a string")
        deadline_ms = record.get("deadline_ms")
        priority = record.get("priority")
        if priority is not None and not _json_int(priority):
            # The scheduler's int() would serve 1.9 as class 1 and
            # raise OverflowError (a 500) on Infinity.
            raise _HttpError(400, "priority must be an int")
        if deadline_ms is not None and not _json_number(deadline_ms):
            # The scheduler rejects NaN, inf and <= 0 itself.
            raise _HttpError(400, "deadline_ms must be a number")
        images = self._parse_images(record, model)
        degraded = self._degraded_response(model, priority, images)
        if degraded is not None:
            return degraded
        try:
            request_id = self.scheduler.submit(
                images, deadline_ms=deadline_ms, model=model,
                priority=priority)
        except AdmissionError as exc:
            self.counters["shed"] += 1
            return 429, {"status": "shed", "error": str(exc),
                         "priority": exc.priority,
                         "backlog_ms": exc.backlog_ms,
                         "capacity_ms": exc.capacity_ms}
        except KeyError as exc:
            raise _HttpError(404, str(exc))
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, str(exc))
        self.counters["submitted"] += 1
        return 200, {"status": "queued", "request_id": request_id}

    def _degraded_response(self, model, priority, images):
        """503 + ``Retry-After`` when every target this submission
        could land on is serving degraded (its worker fleet
        permanently lost, flushes running in-process).

        Sheddable classes only: degraded capacity is a fraction of the
        fleet's, so plain traffic is pushed back with an explicit
        retry signal instead of silently piling onto the slow path.
        Premium class-0 submissions are never turned away -- degraded
        mode exists precisely so they keep completing.  Returns
        ``None`` when the submission should proceed.
        """
        try:
            sheddable = (DEFAULT_PRIORITY if priority is None
                         else int(priority)) > 0
        except (TypeError, ValueError):
            return None           # scheduler validation will reject it
        if not sheddable:
            return None
        sessions = self.scheduler.sessions
        if model is not None:
            eligible = [s for s in sessions if s.name == model]
        else:
            eligible = [s for s in sessions
                        if images.shape[1:] == s.image_shape]
        if not eligible or not all(s.degraded for s in eligible):
            return None
        self.counters["unavailable"] += 1
        return (503,
                {"status": "unavailable",
                 "error": "every eligible session is degraded (worker "
                          "fleet lost); retry later or submit as "
                          "priority 0",
                 "retry_after_s": _RETRY_AFTER_S},
                {"Retry-After": str(_RETRY_AFTER_S)})

    async def _result(self, id_text, query):
        try:
            request_id = int(id_text)
        except ValueError:
            raise _HttpError(400, f"request id must be an int, "
                                  f"got {id_text!r}")
        include_logits = query.get("logits", "0") not in ("0", "", "false")
        timeout_ms = 0.0
        if query.get("wait", "0") not in ("0", "", "false"):
            try:
                timeout_ms = check_timeout_ms(
                    float(query.get("timeout_ms", 30_000.0)))
            except ValueError as exc:
                raise _HttpError(400, str(exc))
        deadline = self._loop.time() + timeout_ms / 1e3
        result = None
        try:       # each look: the ledger's take, or why none can come
            while result is None:
                try:
                    result = self.scheduler.wait_result(request_id, 0.0)
                except TimeoutError:
                    left_s = deadline - self._loop.time()
                    if left_s <= 0.0 or self._stop_event.is_set():
                        break
                    await asyncio.wait((self._finished,), timeout=left_s)
        except KeyError:           # no result can ever come for this id
            if self.scheduler.ledger.state(request_id) == DELIVERED:
                raise _HttpError(404, f"result {request_id} already "
                                      f"delivered", gone=True)
            raise _HttpError(404, f"unknown request id {request_id}")
        if result is None:
            return 202, {"status": "pending", "request_id": request_id}
        self.counters["results_delivered"] += 1
        return 200, _result_payload(result, include_logits)


# ----------------------------------------------------------------------
# Blocking client (tests, load generator, benchmark)
# ----------------------------------------------------------------------
class FrontDoorClient:
    """Minimal keep-alive HTTP client for one front door.

    Every call returns ``(status_code, payload_dict)``; transport
    errors (the server may have closed an idle keep-alive socket, or a
    recovering process briefly refused the connect) retry on a fresh
    connection under a bounded jittered-backoff
    :class:`repro.serving.RetryPolicy` -- the same contract the
    scheduler's dispatch retry budget follows.  Not thread-safe -- use
    one client per load-generator thread.
    """

    def __init__(self, host, port, timeout_s=60.0, retry=None):
        import http.client

        self._http_client = http.client
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self.retry = (retry if retry is not None
                      else RetryPolicy(attempts=3, backoff_base_s=0.05,
                                       backoff_max_s=1.0))
        self._conn = None

    def _connection(self):
        if self._conn is None:
            self._conn = self._http_client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def request(self, method, path, body=None):
        payload = (None if body is None
                   else json.dumps(body).encode())
        headers = ({"Content-Type": "application/json"}
                   if payload is not None else {})

        def attempt():
            conn = self._connection()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data.decode())

        return self.retry.call(
            attempt,
            retry_on=(ConnectionError, self._http_client.HTTPException,
                      OSError),
            seed=self.port,      # de-synchronizes clients of one server
            on_retry=lambda _attempt, _exc: self.close())

    # -- endpoint wrappers ------------------------------------------------
    def healthz(self):
        return self.request("GET", "/healthz")

    def stats(self):
        return self.request("GET", "/stats")

    def submit(self, images=None, *, num_images=None, seed=None,
               deadline_ms=None, priority=None, model=None):
        record = {}
        if images is not None:
            record["images"] = np.asarray(images).tolist()
        if num_images is not None:
            record["num_images"] = num_images
        if seed is not None:
            record["seed"] = seed
        if deadline_ms is not None:
            record["deadline_ms"] = deadline_ms
        if priority is not None:
            record["priority"] = priority
        if model is not None:
            record["model"] = model
        return self.request("POST", "/v1/submit", body=record)

    def result(self, request_id, *, wait=False, timeout_ms=None,
               logits=False):
        query = []
        if wait:
            query.append("wait=1")
        if timeout_ms is not None:
            query.append(f"timeout_ms={timeout_ms}")
        if logits:
            query.append("logits=1")
        suffix = ("?" + "&".join(query)) if query else ""
        return self.request("GET", f"/v1/result/{request_id}{suffix}")

    def submit_trace_request(self, trace_request):
        """Submit one :class:`repro.serving.trace.TraceRequest` by seed
        (the load-generator path: no pixels on the wire)."""
        return self.submit(num_images=trace_request.num_images,
                           seed=trace_request.seed,
                           deadline_ms=trace_request.deadline_ms,
                           priority=trace_request.priority,
                           model=trace_request.model)
