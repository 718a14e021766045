"""The program under test for ``http_open``: a ``FrontDoor`` over an
in-process fastpath engine, in a process of its own.

Protocol with the bench process: prints ``READY <port>`` once the
socket listens, serves until its stdin reaches EOF, then stops the
front door and exits.  With ``--trace 1`` it installs the suite's
wrappers around the scheduler, queue and engine instances it built and
writes spans, boundary counts and probe results to ``--dump`` on the
way out.
"""

from __future__ import annotations

import argparse
import json
import sys

import hostenv

BATCH_WINDOW_MS = 25.0
PRIORITY_TIERS = {0: 150.0, 1: 400.0}


def _label_flushes(spans, events):
    """Pair the k-th flush execution with the k-th ``FlushEvent`` (both
    happen in order under the scheduler's step lock) and name each
    stepping span after the flush it ran."""
    by_id = {span["id"]: span for span in spans}
    runs = sorted((s for s in spans
                   if s["name"] == "engine.session.submit_many"),
                  key=lambda s: s["end"])
    flushes = []
    for index, (run, event) in enumerate(zip(runs, events)):
        root = run
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if root["name"] == "serving.scheduler.step":
            root["op_id"][0] = f"f{index}"
        flushes.append({"op_id": root["op_id"][0],
                        "request_ids": list(event.request_ids),
                        "reason": event.reason,
                        "num_images": event.num_images,
                        "start": run["start"], "end": run["end"]})
    return flushes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", default=None)
    args = parser.parse_args(argv)
    hostenv.prepare()

    import numpy as np

    import layers
    import models
    from repro.serving import FrontDoor, Scheduler
    from spans import Tracer

    model = models.build_model(models.PRUNED)
    scheduler = Scheduler(batch_window_ms=BATCH_WINDOW_MS,
                          priority_tiers=PRIORITY_TIERS)
    served = scheduler.register("pruned", model, backend="fastpath",
                                dtype=np.float32)
    tracer = finish = None
    if args.trace:
        tracer = Tracer(prefix="s")
        engine = layers.new_engine_counters()
        serving = layers.new_serving_counters()
        finish_serving = layers.install_scheduler(
            tracer, scheduler, served, serving, step=True,
            label_submit=lambda request_id: f"r{request_id}")
        finish_engine = layers.install_engine(
            tracer, served.session, engine, entry="submit_many")

        def finish():
            finish_serving()
            finish_engine()

    door = FrontDoor(scheduler)
    door.start()
    print(f"READY {door.port}", flush=True)
    sys.stdin.read()                      # serve until the bench hangs up
    door.stop()
    scheduler.shutdown()
    if tracer is not None:
        tracer.restore()
        finish()
        flushes = _label_flushes(tracer.spans, scheduler.events)
        image = np.zeros(served.image_shape)
        dump = {
            "spans": tracer.export(),
            "engine": engine,
            "serving": serving,
            "flushes": flushes,
            "probes": {
                "cost.estimate_us_per_call": layers.probe_cost_estimate(
                    served.session, serving["flush_images"]),
                "serving.router.route_us_per_request": layers.probe_router(
                    scheduler, image),
                "engine.bucketing.plan_us_per_call": (
                    layers.probe_plan_buckets(served.session,
                                              engine["stage_lengths"])),
            },
        }
        with open(args.dump, "w") as handle:
            json.dump(dump, handle)


if __name__ == "__main__":
    main()
