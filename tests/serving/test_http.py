"""The HTTP front door: endpoints, error paths, its bounds (read
deadline, connection cap, body budget), and an end-to-end two-tier
replay over real sockets.

These tests run the real asyncio server on a loopback port with the
real system clock; timing assertions are therefore kept coarse
(generous deadlines, rate thresholds) while the exact-timing versions
of the same behaviors live under the virtual clock in
``test_admission.py``.
"""

import os
import re
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serving import (FrontDoor, FrontDoorClient, HighestFidelityRouter,
                           Scheduler, replay, two_tier_trace)
from tests.serving.harness import hold_whole_window

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture()
def front_door(mild_model):
    scheduler = Scheduler(batch_window_ms=5.0)
    scheduler.register("default", mild_model)
    door = FrontDoor(scheduler)
    with door:
        with FrontDoorClient("127.0.0.1", door.port) as client:
            yield door, client


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"


def connect(port, timeout_s=10.0):
    return socket.create_connection(("127.0.0.1", port), timeout=timeout_s)


def read_response(sock):
    """Read one whole response from a keep-alive socket; its status."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"closed after {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    while len(body) < length:
        body += sock.recv(65536)
    assert len(body) == length
    return int(head.split()[1])


def wait_until(condition, timeout_s=5.0):
    """Poll ``condition`` until it holds; the seconds it took."""
    start = time.monotonic()
    while not condition():
        assert time.monotonic() - start < timeout_s, "condition never held"
        time.sleep(0.005)
    return time.monotonic() - start


def in_flight(door):
    """Body bytes the front door holds (``dict.copy`` is one step under
    the GIL, so the event loop cannot change the dict mid-sum)."""
    return sum(door._bodies.copy().values())


def raw_exchange(port, payload, timeout_s=10.0):
    """Send raw bytes on a fresh connection; return everything the
    server answers until it closes."""
    with connect(port, timeout_s) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestEndpoints:
    def test_healthz(self, front_door):
        _, client = front_door
        status, payload = client.healthz()
        assert status == 200
        assert payload == {"status": "ok", "sessions": ["default"]}

    def test_submit_then_poll(self, front_door, tiny_dataset):
        _, client = front_door
        status, payload = client.submit(tiny_dataset.images[:2])
        assert status == 200
        assert payload["status"] == "queued"
        request_id = payload["request_id"]
        status, result = client.result(request_id, wait=True,
                                       timeout_ms=10_000)
        assert status == 200
        assert result["status"] == "done"
        assert result["request_id"] == request_id
        assert result["session"] == "default"
        assert result["num_images"] == 2
        assert len(result["predictions"]) == 2
        assert len(result["latency_ms"]) == 2
        assert result["completed_ms"] >= result["arrival_ms"]
        assert "logits" not in result

    def test_result_is_delivered_at_most_once(self, front_door,
                                              tiny_dataset):
        _, client = front_door
        _, payload = client.submit(tiny_dataset.images[:1])
        request_id = payload["request_id"]
        status, _ = client.result(request_id, wait=True, timeout_ms=10_000)
        assert status == 200
        status, payload = client.result(request_id)
        assert status == 404
        assert payload["gone"] is True

    def test_delivered_id_memory_is_bounded(self, front_door, tiny_dataset,
                                            monkeypatch):
        """The server remembers only the newest deliveries: older ids
        answer ``unknown`` instead of ``gone``, never a second payload."""
        window = 3
        monkeypatch.setattr("repro.serving.ledger._TERMINAL_WINDOW", window)
        door, client = front_door
        ids = []
        for _ in range(window + 2):
            _, payload = client.submit(tiny_dataset.images[:1])
            ids.append(payload["request_id"])
            status, _ = client.result(ids[-1], wait=True, timeout_ms=10_000)
            assert status == 200
            assert len(door.scheduler.ledger._entries) <= window
        status, newest = client.result(ids[-1])
        assert status == 404 and newest["gone"] is True
        status, oldest = client.result(ids[0])
        assert status == 404 and "gone" not in oldest
        assert "unknown request id" in oldest["error"]
        for request_id in ids:
            status, payload = client.result(request_id, wait=True,
                                            timeout_ms=50)
            assert status == 404 and "predictions" not in payload

    def test_uncollected_id_memory_is_bounded(self, front_door,
                                              tiny_dataset, monkeypatch):
        """Results nobody fetches do not pile up: the ledger forgets
        the oldest finished ids, which then answer ``unknown``."""
        window = 3
        monkeypatch.setattr("repro.serving.ledger._TERMINAL_WINDOW", window)
        door, client = front_door
        ids = []
        for _ in range(window + 2):
            _, payload = client.submit(tiny_dataset.images[:1])
            ids.append(payload["request_id"])
            assert door.scheduler.stats()["pending_results"] <= window
        deadline = time.monotonic() + 10.0                # all finished
        while any(door.scheduler.ledger.state(i) in ("queued", "in_flight")
                  for i in ids):
            assert time.monotonic() < deadline
            time.sleep(0.005)
        for request_id in ids[:2]:                        # evicted
            status, payload = client.result(request_id, wait=True,
                                            timeout_ms=50)
            assert status == 404 and "gone" not in payload
            assert "unknown request id" in payload["error"]
        for request_id in ids[2:]:                        # still served
            status, payload = client.result(request_id, wait=True,
                                            timeout_ms=10_000)
            assert status == 200 and payload["status"] == "done"
        assert door.scheduler.stats()["pending_results"] == 0

    def test_long_poll_on_a_result_the_scheduler_evicted(
            self, front_door, tiny_dataset, monkeypatch):
        """A long-poll on an id the ledger evicted uncollected answers
        ``unknown`` at once instead of ``pending`` for ever."""
        monkeypatch.setattr("repro.serving.ledger._TERMINAL_WINDOW", 1)
        door, client = front_door
        ids = []
        for _ in range(2):
            _, payload = client.submit(tiny_dataset.images[:1])
            ids.append(payload["request_id"])
        status, _ = client.result(ids[1], wait=True, timeout_ms=10_000)
        assert status == 200                   # second done => first evicted
        assert door.scheduler.ledger.state(ids[0]) is None
        start = time.monotonic()
        for wait in (True, False):
            status, payload = client.result(ids[0], wait=wait,
                                            timeout_ms=20_000)
            assert status == 404 and "unknown" in payload["error"]
        assert time.monotonic() - start < 5.0

    def test_held_polls_do_not_block_other_polls(self, mild_model,
                                                 aggressive_model,
                                                 tiny_dataset):
        """A held poll waits on the event loop, not on a thread: with 40
        polls held on ``a`` requests, a poll on a ``b`` request answers
        as soon as ``b`` flushes, and no thread is started for any of
        them."""
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("a", mild_model)
        scheduler.register("b", aggressive_model)
        image = tiny_dataset.images[:1]
        with FrontDoor(scheduler) as door:
            scheduler.stop(drain=True)          # nothing runs unless flushed
            with FrontDoorClient("127.0.0.1", door.port) as client:
                held = [client.submit(image, model="a")[1]["request_id"]
                        for _ in range(40)]
                target = client.submit(image, model="b")[1]["request_id"]
            baseline = set(threading.enumerate())
            answered = {}

            def poll(request_id):
                with FrontDoorClient("127.0.0.1", door.port) as client:
                    status, _ = client.result(request_id, wait=True,
                                              timeout_ms=20_000)
                answered[request_id] = (status, time.monotonic())

            def start_polls(ids):
                expected = door.counters["http_requests"] + len(ids)
                threads = [threading.Thread(target=poll, args=(i,))
                           for i in ids]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 10.0
                while door.counters["http_requests"] < expected:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                time.sleep(0.1)                 # each poll reaches its wait
                return threads

            pollers = start_polls(held) + start_polls([target])
            started = [thread.name for thread in threading.enumerate()
                       if thread not in baseline and thread not in pollers]
            scheduler.flush(model="b")
            flushed = time.monotonic()
            pollers[-1].join(timeout=5.0)
            status, at = answered.get(target, (None, float("inf")))
            scheduler.flush(model="a")
            for thread in pollers:
                thread.join(timeout=10.0)
        assert status == 200 and at - flushed < 0.5
        assert started == []
        assert {answered[i][0] for i in held} == {200}

    def test_wait_timeout_reports_pending(self, front_door, mild_model,
                                          tiny_dataset):
        door, client = front_door
        # A request that cannot complete within the wait: submit against
        # a paused scheduler by stopping the stepping thread first.
        door.scheduler.stop(drain=True)
        _, payload = client.submit(tiny_dataset.images[:1])
        request_id = payload["request_id"]
        status, pending = client.result(request_id, wait=True,
                                        timeout_ms=50)
        assert status == 202
        assert pending == {"status": "pending", "request_id": request_id}
        # Non-wait poll agrees.
        status, pending = client.result(request_id)
        assert status == 202
        door.scheduler.start(poll_ms=0.5)
        door._started_scheduler = True      # let teardown stop it again
        status, result = client.result(request_id, wait=True,
                                       timeout_ms=10_000)
        assert status == 200 and result["status"] == "done"

    def test_long_poll_timeout_runs_from_arrival(self, mild_model,
                                                 tiny_dataset):
        """``timeout_ms`` counts from when the poll arrives: two
        concurrent 1 s polls on a request that never runs both answer
        ``pending`` near 1 s, neither after 2 s."""
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("default", mild_model)
        with FrontDoor(scheduler) as door:
            scheduler.stop(drain=True)          # nothing completes now
            with FrontDoorClient("127.0.0.1", door.port) as client:
                _, payload = client.submit(tiny_dataset.images[:1])
            outcomes = []

            def poll():
                with FrontDoorClient("127.0.0.1", door.port) as client:
                    start = time.monotonic()
                    status, _ = client.result(payload["request_id"],
                                              wait=True, timeout_ms=1000)
                    outcomes.append((status, time.monotonic() - start))

            threads = [threading.Thread(target=poll) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert [status for status, _ in outcomes] == [202, 202]
        assert max(elapsed for _, elapsed in outcomes) < 1.6

    def test_seed_submission_is_deterministic(self, front_door):
        """`{"num_images", "seed"}` synthesizes the same pixels every
        time (the replayable-trace contract): identical seeds produce
        bit-identical logits across submissions, different seeds don't."""
        _, client = front_door
        logits = []
        for seed in (123, 123, 124):
            _, payload = client.submit(num_images=2, seed=seed)
            status, result = client.result(payload["request_id"],
                                           wait=True, timeout_ms=10_000,
                                           logits=True)
            assert status == 200
            logits.append(np.asarray(result["logits"]))
        np.testing.assert_array_equal(logits[0], logits[1])
        assert not np.array_equal(logits[0], logits[2])

    def test_stats_shape(self, front_door, tiny_dataset):
        _, client = front_door
        _, payload = client.submit(tiny_dataset.images[:1], priority=0)
        client.result(payload["request_id"], wait=True, timeout_ms=10_000)
        status, stats = client.stats()
        assert status == 200
        session = stats["sessions"]["default"]
        for key in ("queued_requests", "queued_images",
                    "priced_backlog_ms", "in_flight_batches", "backend",
                    "fidelity", "workers"):
            assert key in session
        assert "recovery" not in session          # in-process target
        assert stats["classes"]["0"]["submitted"] == 1
        assert stats["classes"]["0"]["completed"] == 1
        assert stats["classes"]["0"]["delivered"] == 1
        assert set(stats["server"]) == {"http_requests", "unavailable"}
        assert stats["server"]["http_requests"] >= 3
        assert stats["server"]["unavailable"] == 0


class TestErrorPaths:
    def test_unknown_route_and_methods(self, front_door):
        _, client = front_door
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("GET", "/v1/submit")[0] == 405
        assert client.request("POST", "/v1/result/0")[0] == 405

    def test_malformed_submit_bodies(self, front_door):
        _, client = front_door
        status, payload = client.request("POST", "/v1/submit", body={})
        assert (status, payload["status"]) == (400, "error")
        assert client.request("POST", "/v1/submit",
                              body={"images": "nope"})[0] == 400
        assert client.request("POST", "/v1/submit",
                              body={"num_images": 0})[0] == 400
        assert client.request("POST", "/v1/submit",
                              body={"num_images": 1,
                                    "model": "missing"})[0] == 404
        assert client.request("POST", "/v1/submit",
                              body={"num_images": 1,
                                    "priority": -3})[0] == 400

    @pytest.mark.parametrize("body", [
        {"num_images": 1, "seed": 0, "deadline_ms": float("nan")},
        {"num_images": 1, "seed": 0, "priority": float("inf")},
        {"num_images": True, "seed": 0},
        {"num_images": 1, "seed": 0, "priority": 1.9},
        {"num_images": 1, "seed": 0, "deadline_ms": True},
        {"num_images": 1, "seed": 0, "deadline_ms": 10 ** 400},
        {"num_images": 1, "seed": 1, "model": ["m"]},
        {"images": np.zeros((1, 3, 16, 16)).tolist(), "model": ["m"]},
    ], ids=["nan-deadline", "inf-priority", "bool-count",
            "fractional-priority", "bool-deadline", "huge-deadline",
            "list-model", "list-model-inline"])
    def test_malformed_numbers_are_a_400(self, front_door, body):
        """``json.loads`` accepts ``NaN``, ``Infinity``, ``true`` and
        integers beyond float range where a number belongs.  Taken as
        they come, a NaN deadline queues as a certain miss, ``true`` as
        a 1 ms deadline, priority 1.9 serves as class 1, and the others
        end in a 500; each must be a 400 with nothing queued."""
        door, client = front_door
        status, payload = client.request("POST", "/v1/submit", body=body)
        assert (status, payload["status"]) == (400, "error")
        assert door.scheduler.pending_requests() == 0
        assert door.scheduler.ledger.classes() == {}

    @pytest.mark.parametrize("timeout_ms", ["nan", "inf", "-1", "1e308"])
    def test_unusable_long_poll_timeout_is_a_400(self, front_door,
                                                 timeout_ms):
        """A NaN ``timeout_ms`` held a poll until the result existed,
        whatever the deadline; ``inf`` and ``1e308`` overflowed the
        wait's deadline into a 500.  Each is a 400 now, and the
        request is still there to collect."""
        door, client = front_door
        _, payload = client.request("POST", "/v1/submit",
                                    body={"num_images": 1, "seed": 0})
        request_id = payload["request_id"]
        status, payload = client.request(
            "GET", f"/v1/result/{request_id}?wait=1&timeout_ms={timeout_ms}")
        assert (status, payload["status"]) == (400, "error")
        assert "timeout_ms" in payload["error"]
        status, _ = client.result(request_id, wait=True, timeout_ms=10_000)
        assert status == 200

    def test_bad_result_ids(self, front_door):
        _, client = front_door
        assert client.request("GET", "/v1/result/abc")[0] == 400
        assert client.request("GET", "/v1/result/999")[0] == 404

    def test_wrong_shape_images_rejected(self, front_door):
        _, client = front_door
        status, payload = client.submit(np.zeros((1, 2, 4, 4)))
        assert status == 400

    def test_nan_pixels_rejected_without_hurting_neighbours(
            self, mild_model, tiny_dataset):
        """``json.loads`` accepts the ``NaN`` literal.  On an int8
        target a queued NaN image used to fail its whole flush, kill
        the stepping thread and with it every later request; now it is
        a 400 and the request queued just before it still completes."""
        scheduler = Scheduler(batch_window_ms=50.0)
        scheduler.register("default", mild_model, backend="int8")
        image = np.array(tiny_dataset.images[:1])
        poisoned = image.copy()
        poisoned[0, 0, 0, 0] = np.nan
        with FrontDoor(scheduler) as door:
            with FrontDoorClient("127.0.0.1", door.port) as client:
                status, good = client.submit(image)
                assert status == 200
                status, payload = client.request(
                    "POST", "/v1/submit", body={"images": poisoned.tolist()})
                assert (status, payload["status"]) == (400, "error")
                assert "finite" in payload["error"]
                status, payload = client.result(good["request_id"],
                                                wait=True, timeout_ms=20000)
                assert (status, payload["status"]) == (200, "done")
                status, later = client.submit(image)    # still serving
                assert status == 200
                assert client.result(later["request_id"], wait=True,
                                     timeout_ms=20000)[0] == 200
        assert scheduler.pending_requests() == 0

    def test_oversized_body_rejected(self, mild_model, monkeypatch):
        monkeypatch.setattr("repro.serving.http._BODY_BUDGET_BYTES", 256)
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("default", mild_model)
        with FrontDoor(scheduler) as door:
            with FrontDoorClient("127.0.0.1", door.port) as client:
                status, payload = client.submit(np.zeros((1, 3, 16, 16)))
                assert status == 413

    def test_seed_stack_is_bounded_like_an_inline_body(self, mild_model,
                                                       tiny_dataset,
                                                       monkeypatch):
        """A 33-byte body may not make the event loop synthesize more
        pixels than an inline body could carry: 413, nothing queued,
        and the next request is served as usual."""
        per_image = 3 * 16 * 16 * 8                   # float64 bytes
        monkeypatch.setattr("repro.serving.http._BODY_BUDGET_BYTES",
                            4 * per_image)
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("default", mild_model)
        with FrontDoor(scheduler) as door:
            with FrontDoorClient("127.0.0.1", door.port) as client:
                status, payload = client.request(
                    "POST", "/v1/submit",
                    body={"num_images": 20000, "seed": 1})
                assert (status, payload["status"]) == (413, "error")
                assert client.submit(num_images=5, seed=1)[0] == 413
                assert scheduler.pending_requests() == 0
                assert scheduler.ledger.classes() == {}
                status, queued = client.submit(num_images=4, seed=1)
                assert status == 200                  # exactly at the bound
                status, payload = client.result(queued["request_id"],
                                                wait=True, timeout_ms=20000)
                assert (status, payload["num_images"]) == (200, 4)

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, None, True])
    def test_bad_seed_is_a_400(self, front_door, seed):
        _, client = front_door
        status, payload = client.request(
            "POST", "/v1/submit", body={"num_images": 1, "seed": seed})
        assert (status, payload["status"]) == (400, "error")
        assert "seed" in payload["error"]

    def test_header_flood_refused(self, front_door):
        """The server stores at most 100 header lines of a request; the
        101st ends the connection with a 400 (it used to keep reading,
        and keep every name, for as long as the client kept sending)."""
        door, client = front_door
        flood = b"".join(b"X-Flood-%d: 1\r\n" % i for i in range(101))
        answer = raw_exchange(door.port,
                              b"GET /healthz HTTP/1.1\r\n" + flood)
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"header lines" in answer
        assert client.healthz()[0] == 200             # still serving

    def test_overlong_header_line_refused(self, front_door):
        """A line past the stream reader's 64 KiB limit is a 400, not
        an unhandled ``ValueError`` that drops the connection mute."""
        door, client = front_door
        answer = raw_exchange(door.port,
                              b"GET /healthz HTTP/1.1\r\n"
                              + b"a" * (64 * 1024 + 1))
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert client.healthz()[0] == 200

    @pytest.mark.parametrize("stalled", [
        b"POST /v1/submit HTTP/1.1\r\nContent-Type: appl",
        b"POST /v1/submit HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"num",
    ], ids=["half_a_head", "short_body"])
    def test_stalled_request_times_out(self, front_door, monkeypatch,
                                       stalled):
        """Slow-loris: a request that stops arriving after its request
        line gets a 408 and a closed connection once the read deadline
        passes, and holds nothing that other clients need meanwhile."""
        monkeypatch.setattr("repro.serving.http._READ_DEADLINE_S", 0.2)
        door, client = front_door
        start = time.monotonic()
        with socket.create_connection(("127.0.0.1", door.port),
                                      timeout=5.0) as sock:
            sock.sendall(stalled)
            assert client.healthz()[0] == 200         # served meanwhile
            chunks = []
            while chunk := sock.recv(65536):          # until the close
                chunks.append(chunk)
        assert time.monotonic() - start < 1.0
        answer = b"".join(chunks)
        assert answer.startswith(b"HTTP/1.1 408 ")
        assert b"Connection: close" in answer
        assert client.healthz()[0] == 200

    def test_double_start_rejected(self, front_door):
        door, _ = front_door
        with pytest.raises(RuntimeError):
            door.start()

    def test_stop_is_idempotent(self, mild_model):
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("default", mild_model)
        door = FrontDoor(scheduler).start()
        door.stop()
        assert door.stop() == []            # second stop: clean no-op
        assert not scheduler.running        # managed thread came down


class TestStop:
    # A server whose one poll is held on a request that never runs (the
    # driver is stopped) when stop() is called.
    SERVER = textwrap.dedent("""
        import threading, time
        import numpy as np
        from repro.core import HeatViT
        from repro.serving import FrontDoor, FrontDoorClient, Scheduler
        from repro.vit import VisionTransformer, ViTConfig

        config = ViTConfig(name="stop", image_size=16, patch_size=4,
                           embed_dim=24, depth=4, num_heads=3,
                           num_classes=4)
        model = HeatViT(VisionTransformer(config,
                                          rng=np.random.default_rng(7)),
                        {2: 0.8}, rng=np.random.default_rng(11))
        model.eval()
        scheduler = Scheduler(batch_window_ms=5.0)
        scheduler.register("default", model)
        door = FrontDoor(scheduler).start()
        scheduler.stop(drain=False)
        with FrontDoorClient("127.0.0.1", door.port) as client:
            _, payload = client.submit(num_images=1, seed=0)
        answers = []

        def poll():
            with FrontDoorClient("127.0.0.1", door.port) as client:
                answers.append(client.result(payload["request_id"],
                                             wait=True, timeout_ms=30000))

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        while door.counters["http_requests"] < 2:
            time.sleep(0.005)
        time.sleep(0.2)
        print(time.monotonic(), flush=True)
        door.stop()
        poller.join(timeout=5.0)
        print(answers, flush=True)
        print([t.name for t in threading.enumerate()], flush=True)
    """)

    def test_stop_answers_a_held_poll_and_lets_the_process_exit(self):
        """stop() answers a held poll ``202`` and closes it before the
        loop closes: no thread stays blocked on the poll's 30 s timeout
        (the process exits at once), and nothing is logged."""
        child = subprocess.run(
            [sys.executable, "-c", self.SERVER], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120)
        exited = time.monotonic()
        assert child.returncode == 0, child.stderr
        stopped, answers, threads = child.stdout.splitlines()
        assert exited - float(stopped) < 5.0
        assert answers == str([(202, {"status": "pending",
                                      "request_id": 0})])
        assert "frontdoor" not in threads
        assert "Traceback" not in child.stderr, child.stderr


class TestConcurrentClients:
    def test_parallel_submit_and_wait(self, front_door, tiny_dataset):
        """Many clients with held-open waits at once: held polls and
        keep-alive handling must not serialize or drop anyone."""
        door, _ = front_door
        outcomes = {}

        def one(worker):
            with FrontDoorClient("127.0.0.1", door.port) as client:
                _, payload = client.submit(num_images=1, seed=worker)
                status, result = client.result(payload["request_id"],
                                               wait=True, timeout_ms=20_000)
                outcomes[worker] = (status, result["status"])

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == {i: (200, "done") for i in range(8)}


class TestTwoTierOverHttp:
    def test_bursty_two_tier_replay(self, mild_model, aggressive_model):
        """The acceptance run, over real sockets: a bursty two-tier
        trace replayed through the load generator; class 0 keeps its
        (generous, real-clock) deadlines while admission control
        degrades and sheds class 1."""
        # Sized to stay overloaded even on a slow box: the batch window
        # (200 ms) far exceeds any realistic burst-submission span, so
        # backlog accumulates across bursts no matter how slowly the
        # client drips them in, while the premium tier keeps >= 150 ms
        # of deadline headroom (window flush at +200 ms vs 400 ms SLO).
        # The whole-window hold IS the overload generator: at the priced
        # hold a fast host drains each burst as it arrives (4-9 shed).
        scheduler = hold_whole_window(Scheduler(
            batch_window_ms=200.0, router=HighestFidelityRouter(),
            deadline_margin_ms=150.0,
            priority_tiers={0: 400.0, 1: 2000.0}))
        mild = scheduler.register("mild", mild_model)
        scheduler.register("aggressive", aggressive_model)
        scheduler.admission_capacity_ms = mild.batch_cost_ms(4)
        trace = two_tier_trace(duration_ms=240.0, premium_period_ms=20.0,
                               bulk_burst_size=20, bulk_burst_period_ms=60.0,
                               seed=9)
        with FrontDoor(scheduler) as door:
            with FrontDoorClient("127.0.0.1", door.port) as client:
                outcomes = replay(trace, client.submit_trace_request)
                queued, shed = [], []
                for request, outcome in outcomes:
                    status, payload = outcome
                    if status == 200:
                        queued.append((request, payload["request_id"]))
                    else:
                        assert status == 429
                        assert payload["status"] == "shed"
                        assert request.priority == 1    # never class 0
                        shed.append(request)
                results = {}
                for request, request_id in queued:
                    status, result = client.result(request_id, wait=True,
                                                   timeout_ms=30_000)
                    assert status == 200
                    results[request_id] = (request, result)
                _, stats = client.stats()
        # Overload really happened and was admission-controlled.
        assert shed, "burst sizing no longer trips admission control"
        assert stats["classes"]["1"]["refused"] == len(shed)
        assert stats["classes"]["1"]["degraded"] > 0
        assert stats["classes"]["1"]["shed"] == 0     # nothing recovered
        # Every admitted request completed; premium all admitted.
        premium = [(req, res) for req, res in results.values()
                   if req.priority == 0]
        assert len(premium) == 12
        hits = sum(res["deadline_met"] for _, res in premium)
        assert hits / len(premium) >= 0.95
        # Degraded bulk really ran on the cheaper operating point.
        bulk_sessions = {res["session"] for req, res in results.values()
                        if req.priority == 1}
        assert "aggressive" in bulk_sessions


class TestBounds:
    """The front door's bounds, over real sockets: every wait on a client
    ends at the read deadline, connections are capped, and request bodies
    in flight share one byte budget.  The constants are patched small;
    tens of sockets at most."""

    def test_connection_past_the_cap_is_refused(self, front_door,
                                                monkeypatch):
        """With a cap of N, connection N + 1 gets 503 + Retry-After and
        EOF without sending a byte, the first N are still served, and a
        slot freed by a close is taken by the next connection."""
        cap = 8
        monkeypatch.setattr("repro.serving.http._MAX_CONNECTIONS", cap)
        door, client = front_door
        socks = [connect(door.port) for _ in range(cap)]
        try:
            for sock in socks:
                sock.sendall(HEALTHZ)
                assert read_response(sock) == 200
            answer = raw_exchange(door.port, b"")
            assert answer.startswith(b"HTTP/1.1 503 ")
            assert b"\r\nRetry-After: 1\r\n" in answer
            assert b"Connection: close" in answer
            assert door.counters["unavailable"] == 1
            for sock in socks:                        # still served
                sock.sendall(HEALTHZ)
                assert read_response(sock) == 200
            socks.pop().close()
            wait_until(lambda: len(door._connections) == cap - 1)
            assert client.healthz()[0] == 200         # the freed slot
            assert raw_exchange(door.port, b"").startswith(b"HTTP/1.1 503 ")
            assert door.counters["unavailable"] == 2
        finally:
            for sock in socks:
                sock.close()

    @pytest.mark.parametrize("asked_first", [False, True],
                             ids=["fresh", "keep_alive"])
    def test_idle_connection_is_closed_without_a_word(
            self, front_door, monkeypatch, asked_first):
        """A connection with no request under way is closed at the read
        deadline, fresh or after an answered request, and gets no bytes
        back: an unasked-for 408 would read as the next answer."""
        deadline_s = 0.3
        monkeypatch.setattr("repro.serving.http._READ_DEADLINE_S", deadline_s)
        door, client = front_door
        with connect(door.port) as sock:
            if asked_first:
                sock.sendall(HEALTHZ)
                assert read_response(sock) == 200
            start = time.monotonic()
            assert sock.recv(65536) == b""            # EOF, nothing else
            idle_s = time.monotonic() - start
        assert deadline_s / 2 < idle_s < deadline_s + 1.5
        wait_until(lambda: not door._connections)
        assert door.counters["http_requests"] == int(asked_first)
        assert client.healthz()[0] == 200

    @pytest.mark.parametrize("pipelined, last", [
        (2000, b""),
        (60, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"),
    ], ids=["in_drain", "in_close"])
    def test_client_that_never_reads_is_closed_at_the_deadline(
            self, front_door, monkeypatch, pipelined, last):
        """A client that pipelines requests and never reads a response
        parks the handler once the socket buffers are full: in a drain
        (2000 answers), or in the close after ``Connection: close`` (60
        answers, under the transport's 64 KiB high-water mark).  The
        deadline aborts the connection instead of holding it for good.
        Both ends' socket buffers are shrunk, so a few KiB fill them."""
        deadline_s = 0.5
        monkeypatch.setattr("repro.serving.http._READ_DEADLINE_S", deadline_s)
        door, client = front_door
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            sock.connect(("127.0.0.1", door.port))
            wait_until(lambda: len(door._connections) == 1)
            [(_, writer)] = list(door._connections.values())
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.sendall(b"GET /stats HTTP/1.1\r\n\r\n" * pipelined + last)
            held_s = wait_until(lambda: not door._connections)
            assert deadline_s < held_s < deadline_s + 3.0
            answered = door.counters["http_requests"]
            assert answered <= pipelined + 1
            received = b"".join(iter(lambda: sock.recv(65536), b""))
            # Aborted, not closed: the answers still buffered are dropped.
            assert received.count(b"HTTP/1.1 200 ") < answered
        finally:
            sock.close()
        assert door._bodies == {}
        assert client.healthz()[0] == 200

    def test_body_budget_is_shared_by_every_connection(self, front_door,
                                                        monkeypatch):
        """Slow bodies reserve their Content-Length: the one that would
        push the total past the budget gets 503 + Retry-After and a
        close, the total never exceeds the budget, and it returns to 0
        after a 408, a reset mid-body and a normal request."""
        budget = 8 * 1024               # one 3x16x16 seeded image: 6 KiB
        monkeypatch.setattr("repro.serving.http._BODY_BUDGET_BYTES", budget)
        monkeypatch.setattr("repro.serving.http._READ_DEADLINE_S", 1.5)
        door, client = front_door
        readings = []

        def slow_body(length):
            sock = connect(door.port)
            sock.sendall(b"POST /v1/submit HTTP/1.1\r\nContent-Length: %d"
                         b"\r\n\r\n{\"num" % length)
            return sock

        def settles_at(total):
            wait_until(lambda: readings.append(in_flight(door))
                       or readings[-1] == total)

        stalled = slow_body(5000)
        settles_at(5000)
        reset = slow_body(3000)
        settles_at(8000)
        try:
            with connect(door.port) as sock:          # 8000 + 500 > 8192
                sock.sendall(b"POST /v1/submit HTTP/1.1\r\n"
                             b"Content-Length: 500\r\n\r\n")
                answer = b"".join(iter(lambda: sock.recv(65536), b""))
            assert answer.startswith(b"HTTP/1.1 503 ")
            assert b"\r\nRetry-After: 1\r\n" in answer
            assert b"body budget" in answer
            assert door.counters["unavailable"] == 1
            settles_at(8000)
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                             struct.pack("ii", 1, 0))
            reset.close()                             # RST mid-body
            settles_at(5000)
            answer = b"".join(iter(lambda: stalled.recv(65536), b""))
            assert answer.startswith(b"HTTP/1.1 408 ")
            settles_at(0)
        finally:
            reset.close()
            stalled.close()
        status, queued = client.request(
            "POST", "/v1/submit", body={"num_images": 1, "seed": 3,
                                        "pad": "x" * 7000})
        assert status == 200                          # fits the whole budget
        assert client.result(queued["request_id"], wait=True,
                             timeout_ms=20_000)[0] == 200
        wait_until(lambda: not door._bodies)          # released once answered
        assert max(readings) <= budget

    def test_default_client_retries_past_an_idle_close(self, front_door,
                                                       monkeypatch):
        """The server closes an idle keep-alive socket at the deadline;
        ``FrontDoorClient``'s default retry reconnects and gets 200."""
        monkeypatch.setattr("repro.serving.http._READ_DEADLINE_S", 0.2)
        door, client = front_door
        assert client.healthz()[0] == 200
        wait_until(lambda: not door._connections)     # closed while idle
        assert client.healthz()[0] == 200
        assert client.stats()[1]["server"]["http_requests"] == 3
