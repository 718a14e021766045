"""``http_open``: an open-loop Poisson load against the front door.

The generator is one process with two threads on two keep-alive
connections: a sender that posts each request at its scheduled instant
(bodies are encoded before the schedule starts) and a collector that
long-polls the results in submission order.  A request's latency runs
from the instant it was *due* to the receipt of its result, so a stall
in the generator or the server charges every request it delays; how
late the generator itself ran is reported alongside.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import select
import socket
import subprocess
import sys
import threading
import time

import numpy as np

import hostenv
import layers
import models
from http_server import PRIORITY_TIERS
from repro.engine import InferenceSession
from repro.serving import FrontDoorClient, RetryPolicy
from repro.serving.trace import synth_images
from stats import percentile
from workloads import _require, agreement

RATE_PER_S = 80            # frozen; a multiple of 4 (kinds) and 5 (classes)
SERVER = os.path.join(hostenv.SUITE_DIR, "http_server.py")
IMAGE_SHAPE = (3, models.IMAGE_SIZE, models.IMAGE_SIZE)


def _client(port):
    """The repository's own blocking client, without its retries: a
    dropped connection has to show as a failed operation, not as a slow
    one."""
    return FrontDoorClient("127.0.0.1", port, timeout_s=30,
                           retry=RetryPolicy(attempts=1))


class _Pipeline:
    """The sender's connection: requests go out at their scheduled
    instants whether or not earlier responses have come back (HTTP/1.1
    pipelining), so a stalled server is still offered the full load --
    a blocking client would quietly turn the open loop into a closed
    one.  Responses are read, in order, while waiting for the next
    instant."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.awaiting = []            # requests sent, response not yet read

    def close(self):
        self.sock.close()

    def run(self, plan, deliver):
        """Send ``plan`` on schedule; ``deliver(request)`` once its
        submit response has been read (or is known never to come)."""
        error = "no submit response within 30 s"
        try:
            for request in plan:
                while True:
                    wait = request["due"] - time.perf_counter()
                    if wait <= 0:
                        break
                    self._read(wait, deliver)
                request["sent"] = time.perf_counter()
                self.sock.sendall(request["wire"])
                self.awaiting.append(request)
            stop = time.perf_counter() + 30.0
            while self.awaiting and time.perf_counter() < stop:
                self._read(1.0, deliver)
        except OSError as exc:
            error = repr(exc)
        now = time.perf_counter()
        for request in plan:
            if "submitted" not in request:
                request.setdefault("sent", now)
                request.update(submitted=now, error=error)
                deliver(request)

    def _read(self, timeout, deliver):
        ready, _, _ = select.select([self.sock], [], [], timeout)
        if not ready:
            return
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the submit connection")
        self.buffer += data
        while self.awaiting:
            head, separator, rest = self.buffer.partition(b"\r\n\r\n")
            if not separator:
                return
            lines = head.decode("latin1").split("\r\n")
            length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                          if line.lower().startswith("content-length:"))
            if len(rest) < length:
                return
            self.buffer = rest[length:]
            request = self.awaiting.pop(0)
            request["submitted"] = time.perf_counter()
            request["submit_status"] = int(lines[0].split()[1])
            request["request_id"] = json.loads(rest[:length]).get(
                "request_id")
            deliver(request)


def _wire(body):
    """A complete ``POST /v1/submit`` request, ready to send."""
    return (b"POST /v1/submit HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


def make_schedule(seed, seconds, images):
    """Seeded arrivals at ``RATE_PER_S`` over ``seconds``: one dict per
    request with its due offset, class, kind and encoded request.

    Each second holds exactly ``RATE_PER_S`` arrivals at uniform random
    instants -- a Poisson process conditioned on its count -- and the
    exact class and kind mix in random order.  At the scale that decides
    queueing against the 25 ms batch window the arrivals are as bursty
    as Poisson ones; what the conditioning removes is the seed-to-seed
    difference in *how much* work a run offers, which would otherwise
    show up as spread in every per-image and per-second number.
    """
    rng = np.random.default_rng(seed)
    per_second = RATE_PER_S
    classes = [0] * (per_second // 5) + [1] * (per_second - per_second // 5)
    kinds = ["seed1", "seed1", "seed4", "inline"] * (per_second // 4)
    plan = []
    for second in range(int(np.ceil(seconds))):
        dues = second + np.sort(rng.random(per_second))
        for due, priority, kind in zip(dues, rng.permutation(classes),
                                       rng.permutation(kinds)):
            if due >= seconds:
                break
            record = {"priority": int(priority)}
            if kind == "inline":
                image = images[int(rng.integers(len(images)))]
                record["images"] = np.round(image, 4).tolist()
                num_images = 1
            else:
                num_images = 1 if kind == "seed1" else 4
                record["num_images"] = num_images
                record["seed"] = int(rng.integers(1 << 31))
            plan.append({"due": float(due), "priority": int(priority),
                         "kind": str(kind), "num_images": num_images,
                         "image_seed": record.get("seed"),
                         "wire": _wire(json.dumps(record).encode())})
    return plan


class HttpOpen:
    name = "http_open"

    open_loop = True
    rebuild_for_trace = True      # the wrappers live in the server process

    def __init__(self, seed):
        self.seed = seed
        self.images = models.make_images(64, seed)
        self.server = None
        self.dump_path = None
        self.requests = []

    # -- the program: a server process ---------------------------------
    def build(self, trace=False):
        self.extra_spans, self.span_tables = [], {}
        command = [sys.executable, SERVER]
        if trace:
            self.dump_path = hostenv.out_path("http_server_dump.json")
            command += ["--trace", "1", "--dump", self.dump_path]
        self.server = subprocess.Popen(command, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line[1])
        # Warm up to the first result: the fastpath compiles lazily.
        with _client(self.port) as client:
            _, queued = client.submit(num_images=1, seed=0, priority=0)
            _, self.first = client.result(queued["request_id"], wait=True,
                                          logits=True)

    def close(self):
        if self.server is None:
            return
        server, self.server = self.server, None
        try:
            server.stdin.close()
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        finally:
            server.stdout.close()

    def pids(self):
        """The program is the server process; the load generator's own
        CPU and memory are not the program's."""
        return [self.server.pid]

    def verify(self):
        logits = np.asarray(self.first.get("logits", []))
        _require(self.first.get("status") == "done"
                 and logits.shape == (1, models.NUM_CLASSES)
                 and np.isfinite(logits).all(),
                 f"first HTTP result is not a finished inference: "
                 f"{self.first.get('status')!r}")

    # -- the load ------------------------------------------------------
    def measure(self, warmup_s, seconds, mark, tracer=None):
        plan = make_schedule(self.seed, warmup_s + seconds, self.images)
        sender, collector = _Pipeline(self.port), _client(self.port)
        handoff = queue.SimpleQueue()
        origin = time.perf_counter() + 0.05
        for request in plan:
            request["due"] += origin

        def send():
            try:
                sender.run(plan, handoff.put)
            finally:
                handoff.put(None)

        def collect():
            while True:
                request = handoff.get()
                if request is None:
                    return
                if request.get("request_id") is None:
                    continue
                request["asked"] = time.perf_counter()
                try:
                    request["result_status"], request["result"] = (
                        collector.result(request["request_id"], wait=True,
                                         timeout_ms=10000, logits=True))
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    request["error"] = repr(exc)
                request["received"] = time.perf_counter()

        threads = [threading.Thread(target=send, name="suite-sender"),
                   threading.Thread(target=collect, name="suite-collector")]
        try:
            for thread in threads:
                thread.start()
            phase_start = origin + warmup_s
            time.sleep(max(0.0, phase_start - time.perf_counter()))
            mark()
            time.sleep(max(0.0, phase_start + seconds - time.perf_counter()))
            mark()
            for thread in threads:
                thread.join()
        finally:
            sender.close()
            collector.close()
        self.requests = [r for r in plan if r["due"] >= phase_start]
        self.phase = (phase_start, seconds)
        self.records = [self._record(r) for r in self.requests]
        return phase_start, self.records

    @staticmethod
    def _record(request):
        """``(due, received, status, images, limit_ms)`` of one request."""
        limit = PRIORITY_TIERS[request["priority"]]
        end = request.get("received", request["submitted"])
        if request.get("submit_status") == 429:
            status = "shed"
        elif "error" in request or request.get("submit_status") != 200:
            status = "failed"
        else:
            result = request.get("result", {})
            logits = np.asarray(result.get("logits", []), dtype=float)
            done = (request.get("result_status") == 200
                    and result.get("status") == "done"
                    and logits.shape == (request["num_images"],
                                         models.NUM_CLASSES)
                    and bool(np.isfinite(logits).all()))
            status = "ok" if done else "failed"
        return (request["due"], end, status, request["num_images"], limit)

    def verify_end(self):
        sent = len(self.requests)
        tally = {"ok": 0, "shed": 0, "failed": 0}
        for record in self.records:
            tally[record[2]] += 1
        _require(sent == sum(tally.values()) and sent > 0,
                 f"sent {sent} != ok + shed + failed {tally}")
        by_seed = [r for r in self.requests
                   if r["image_seed"] is not None and "result" in r][:32]
        _require(by_seed, "no by-seed request completed")
        session = InferenceSession(models.build_model(models.PRUNED),
                                   batch_size=models.BATCH,
                                   backend="fastpath", dtype=np.float32)
        ours = np.concatenate([np.asarray(r["result"]["logits"])
                               for r in by_seed])
        reference = np.concatenate([
            session.submit(synth_images((r["num_images"],) + IMAGE_SHAPE,
                                        r["image_seed"])).logits
            for r in by_seed])
        share = agreement(ours, reference, atol=1e-4)
        _require(share >= 0.9,
                 f"only {share:.2f} of the first by-seed results match an "
                 f"in-process run")

    # -- layers --------------------------------------------------------
    def install(self, tracer):
        """Nothing to wrap here: the server wraps its own instances, and
        the client's spans are built from the request records."""

    def generator_metrics(self):
        late = [(r["sent"] - r["due"]) * 1e3 for r in self.requests]
        return {
            "serving.trace.generator_late_ms_p99": percentile(late, 99),
            "serving.trace.offered_per_s": len(self.requests) / self.phase[1],
        }

    def _client_spans(self, tracer, flushes):
        """One root span per request (due -> received), from the
        generator's own timestamps: the two client calls under it, and
        the queue wait and flush the server reported for it."""
        flush_of = {rid: flush for flush in flushes
                    for rid in flush["request_ids"]}
        for index, request in enumerate(self.requests):
            end = request.get("received", request["submitted"])
            root = tracer.record("op", request["due"], end, op_id=index)
            tracer.record("serving.http.submit", request["sent"],
                          request["submitted"], parent=root, op_id=index)
            if "asked" in request:
                tracer.record("serving.http.result", request["asked"],
                              request["received"], parent=root, op_id=index)
            flush = flush_of.get(request.get("request_id"))
            arrival = request.get("result", {}).get("arrival_ms")
            if flush and arrival is not None:
                # SystemClock is time.monotonic: the perf_counter base.
                tracer.record("serving.queue.wait", arrival / 1e3,
                              flush["start"], parent=root, op_id=index)
                tracer.record("serving.scheduler.flush", flush["start"],
                              flush["end"], parent=root, op_id=index)

    def layer_metrics(self, tracer, phase_seconds):
        """The server's half of the trace arrives in its dump once the
        server process has exited; the client's half is built here."""
        self.close()
        with open(self.dump_path) as handle:
            dump = json.load(handle)
        self._client_spans(tracer, dump["flushes"])
        # Layer means use the server's whole traced life (its boundary
        # counts cannot be cut to the phase); only the busy share is
        # taken over the measured phase itself.
        server_spans = dump["spans"]
        model = models.build_model(models.PRUNED)
        metrics = self.generator_metrics()
        metrics.update(layers.engine_metrics(
            server_spans, dump["engine"], model,
            plan_us=dump["probes"]["engine.bucketing.plan_us_per_call"]))
        metrics.update(layers.kernel_probes(
            dump["engine"], model.config, "fastpath", np.float32,
            dump["engine"]["calls"]))
        metrics.update(layers.serving_metrics(server_spans, dump["serving"],
                                              phase_seconds))
        for name in ("cost.estimate_us_per_call",
                     "serving.router.route_us_per_request"):
            metrics[name] = dump["probes"][name]
        metrics.update(self._http_metrics(dump["flushes"]))
        start, seconds = self.phase
        busy = sum(s["end"] - s["start"] for s in server_spans
                   if s["name"] in layers.ENGINE_ENTRY
                   and start <= s["start"] < start + seconds)
        metrics["engine.session.busy_share"] = busy / phase_seconds
        self.extra_spans = dump["spans"]
        self.span_tables = {
            "ops": [{"op_id": index, "request_id": r.get("request_id"),
                     "kind": r["kind"], "priority": r["priority"]}
                    for index, r in enumerate(self.requests)],
            "flushes": dump["flushes"]}
        return metrics

    def extra_detail(self):
        return {"generator": self.generator_metrics()}

    def waterfall(self, spans):
        """Median of each consecutive stage of a request's life; the
        stages partition ``[due, received]`` exactly."""
        flush_of = {rid: flush for flush in self.span_tables["flushes"]
                    for rid in flush["request_ids"]}
        stages = {"generator late (due -> sent)": [],
                  "submit: socket + parse + admit (sent -> queued)": [],
                  "queue wait (queued -> flush start)": [],
                  "flush: engine exec (flush start -> end)": [],
                  "deliver: wake long-poll + socket (flush end -> received)":
                      []}
        for request in self.requests:
            flush = flush_of.get(request.get("request_id"))
            arrival = request.get("result", {}).get("arrival_ms")
            if not flush or arrival is None:
                continue
            marks = [request["due"], request["sent"], arrival / 1e3,
                     flush["start"], flush["end"], request["received"]]
            for name, lo, hi in zip(stages, marks, marks[1:]):
                stages[name].append((hi - lo) * 1e3)
        return [(name, percentile(values, 50))
                for name, values in stages.items() if values]

    def _http_metrics(self, flushes):
        flush_of = {rid: flush for flush in flushes
                    for rid in flush["request_ids"]}
        rtt = {"seed": [], "inline": []}
        result_rtt, overhead, body_bytes = [], [], []
        statuses = {"429": 0, "5xx": 0}
        for request in self.requests:
            body_bytes.append(len(request["wire"]))
            status = request.get("submit_status", 0)
            statuses["429"] += status == 429
            statuses["5xx"] += status >= 500
            kind = "inline" if request["kind"] == "inline" else "seed"
            rtt[kind].append((request["submitted"] - request["sent"]) * 1e3)
            result = request.get("result")
            flush = flush_of.get(request.get("request_id"))
            if not result or result.get("status") != "done" or not flush:
                continue
            # The result is ready when its flush ends; what follows is
            # waking the long-poll, serialising and the socket.
            result_rtt.append((request["received"]
                               - max(flush["end"], request["asked"])) * 1e3)
            latency = (request["received"] - request["due"]) * 1e3
            overhead.append(latency - result["wait_ms"]
                            - (flush["end"] - flush["start"]) * 1e3)
        metrics = {
            "serving.http.body_bytes_per_request": float(np.mean(body_bytes)),
            "serving.http.requests": len(self.requests),
            "serving.http.status_429": statuses["429"],
            "serving.http.status_5xx": statuses["5xx"],
        }
        for metric, values in (
                ("serving.http.submit_rtt_ms_p50_seed", rtt["seed"]),
                ("serving.http.submit_rtt_ms_p50_inline", rtt["inline"]),
                ("serving.http.result_rtt_ms_p50", result_rtt),
                ("serving.http.overhead_ms_p50", overhead)):
            if values:
                metrics[metric] = percentile(values, 50)
        return metrics
