"""The repository's benchmark: one command, four workloads.

Driver contract (one workload, one run, one JSON line last)::

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

Whole suite, each workload in a fresh interpreter, end-to-end run then
traced run, every metric printed by name with its unit::

    python3 benchmarks/suite/run.py [--seed N] [--smoke] [--history]
    python3 benchmarks/suite/run.py --aa K        # writes AA_REPORT.md

``--trace 0`` measures with nothing installed and reports the
end-to-end metrics; ``--trace 1`` is a separate run that installs the
suite's wrappers around each layer's public functions, reports the
per-layer metrics and writes the spans to ``out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# As a script the suite's directory already leads sys.path; as
# ``python -m benchmarks.suite.run`` it does not.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog                                              # noqa: E402
import hostenv                                              # noqa: E402

BUILDS = 5            # cold set-ups per run; setup_s is their median
WARMUP_S = 3.0
CONTRACT = os.path.join(hostenv.REPO_ROOT, "BENCHMARK.json")


def load_contract():
    with open(CONTRACT) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# End-to-end metrics from operation records
# ----------------------------------------------------------------------
def end_to_end(records, phase_start, seconds, setups, cpu_s, rss_mb):
    """The eight end-to-end numbers of one measured phase.

    Timings and throughput are medians over the five windows of the
    per-window statistic; shares and CPU are taken over the whole phase
    (they are counts, which a noisy neighbour cannot inflate).
    """
    from stats import (MIN_OPS_FOR_WINDOW_P90, NUM_WINDOWS,
                       median_over_windows, percentile, window_index)

    window_s = seconds / NUM_WINDOWS
    images_in = [0] * NUM_WINDOWS
    latencies_in = [[] for _ in range(NUM_WINDOWS)]
    latencies, within, failed, images_done = [], 0, 0, 0
    for start, end, status, images, limit_ms in records:
        if status == "failed":
            failed += 1
        if status != "ok":
            continue
        latency = (end - start) * 1e3
        latencies.append(latency)
        images_done += images
        started_in = window_index(start, phase_start, seconds)
        if started_in is not None:
            latencies_in[started_in].append(latency)
        if latency <= limit_ms:
            within += 1
            # Credit the images to the windows the operation ran in, in
            # proportion to its overlap with each: counting whole
            # 32-image operations at their end would quantise a window's
            # rate in steps of one operation (~1.5 % here).
            for window in range(NUM_WINDOWS):
                lo = phase_start + window * window_s
                overlap = min(end, lo + window_s) - max(start, lo)
                if overlap > 0:
                    images_in[window] += images * overlap / (end - start)
    attempted = len(records)
    if not latencies:
        raise RuntimeError("no operation completed in the measured phase")
    if min(len(w) for w in latencies_in) >= MIN_OPS_FOR_WINDOW_P90:
        p90 = median_over_windows([percentile(w, 90) for w in latencies_in])
    else:
        p90 = percentile(latencies, 90)
    metrics = {
        "setup_s": statistics.median(setups),
        "images_per_s": median_over_windows(
            [count / window_s for count in images_in]),
        "latency_ms_p50": median_over_windows(
            [percentile(w, 50) if w else None for w in latencies_in]),
        "latency_ms_p90": p90,
        "within_limit_share": within / attempted,
        "failed_share": failed / attempted,
        "cpu_ms_per_image": cpu_s * 1e3 / images_done,
        "peak_rss_mb": rss_mb,
    }
    counts = {"attempted": attempted, "succeeded": len(latencies),
              "failed": failed,
              "shed": sum(1 for r in records if r[2] == "shed"),
              "ops_per_window": [len(w) for w in latencies_in],
              "images_per_s_per_window": [n / window_s for n in images_in],
              "latency_ms_p50_per_window": [
                  percentile(w, 50) if w else None for w in latencies_in],
              "latency_ms_p90_per_window": [
                  percentile(w, 90) if w else None for w in latencies_in]}
    return metrics, counts


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def make_workload(name, seed):
    from http_load import HttpOpen
    from workloads import CLOSED_LOOPS

    classes = {cls.name: cls for cls in CLOSED_LOOPS + (HttpOpen,)}
    return classes[name](seed)


def measured_phase(workload, warmup_s, seconds, tracer=None):
    """Run one phase; returns records plus the CPU the program's
    processes burnt between the phase's two ends."""
    cpu = []
    pids = workload.pids()
    phase_start, records = workload.measure(
        warmup_s, seconds, lambda: cpu.append(hostenv.cpu_seconds(pids)),
        tracer)
    return phase_start, records, cpu[1] - cpu[0], hostenv.peak_rss_mb(pids)


def run_end_to_end(workload, seconds, builds, warmup_s):
    setups = []
    for build in range(builds):
        if build:
            workload.close()
        start = time.perf_counter()
        workload.build()
        setups.append(time.perf_counter() - start)
    phase_start, records, cpu_s, rss_mb = measured_phase(
        workload, warmup_s, seconds)
    # The strict checks run last: their float64 references allocate far
    # more than the program does, and the peak resident set read above
    # is a high-water mark over the process's whole life.
    workload.verify()
    workload.verify_end()
    metrics, counts = end_to_end(records, phase_start, seconds, setups,
                                 cpu_s, rss_mb)
    return metrics, {"counts": counts, "setups_s": setups,
                     **workload.extra_detail()}


def run_traced(workload, seconds, warmup_s):
    """A short untraced reference phase, then the traced phase on the
    same inputs; the gap between their throughputs is what tracing
    costs."""
    from spans import Tracer, unattributed_share

    reference_s, traced_s = 0.3 * seconds, 0.5 * seconds
    workload.build()
    workload.verify()
    phase_start, records, cpu_s, rss_mb = measured_phase(
        workload, warmup_s, reference_s)
    reference, _ = end_to_end(records, phase_start, reference_s, [0.0],
                              cpu_s, rss_mb)
    if workload.rebuild_for_trace:
        workload.close()
        workload.build(trace=True)
    tracer = Tracer()
    workload.install(tracer)
    try:
        # A program already warm from the reference phase goes straight
        # into the traced one, so every span belongs to an operation.
        phase_start, records, cpu_s, rss_mb = measured_phase(
            workload, 1.0 if workload.rebuild_for_trace else 0.0,
            traced_s, tracer)
    finally:
        tracer.restore()
    workload.verify_end()
    traced, counts = end_to_end(records, phase_start, traced_s, [0.0],
                                cpu_s, rss_mb)
    layer = workload.layer_metrics(tracer, traced_s)
    spans = tracer.export()
    layer["trace.unattributed_share"] = unattributed_share(spans)
    if workload.open_loop:
        # The schedule fixes an open loop's throughput; what tracing
        # costs there shows as CPU per image.
        layer["trace.overhead_share"] = (
            traced["cpu_ms_per_image"] / reference["cpu_ms_per_image"] - 1.0)
    else:
        layer["trace.overhead_share"] = (
            1.0 - traced["images_per_s"] / reference["images_per_s"])
    # End-to-end numbers the contract cannot bound (catalog.py says
    # why) ride here, as the client of the traced run saw them.
    for name in ("failed_share", "latency_ms_p90", "peak_rss_mb"):
        layer[f"client.{name}"] = traced[name]
    detail = {"counts": counts, "traced_end_to_end": traced,
              "reference_end_to_end": reference,
              "waterfall": workload.waterfall(spans),
              "wrapped_after_restore": tracer.wrapped}
    path = hostenv.out_path(f"spans-{workload.name}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload.name,
                   "spans": spans + list(workload.extra_spans),
                   **workload.span_tables}, handle)
    detail["span_file"] = os.path.relpath(path, hostenv.REPO_ROOT)
    return layer, detail


def run_one(args, contract):
    """The driver's entry: one workload, one run, the contract line."""
    from workloads import CheckFailed

    workload = make_workload(args.workload, args.seed)
    builds = 1 if args.smoke else BUILDS
    warmup_s = 1.0 if args.smoke else WARMUP_S
    declared = contract["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            measured, detail = run_traced(workload, args.seconds, warmup_s)
        else:
            measured, detail = run_end_to_end(workload, args.seconds,
                                              builds, warmup_s)
    except CheckFailed as failure:
        print(f"OUTPUT CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    finally:
        workload.close()
    for name, value in measured.items():
        print(f"{args.workload:20s} {name:48s} {value:14.6g} "
              f"{catalog.UNITS[name]}")
    counts = detail["counts"]
    print(f"{args.workload:20s} attempted={counts['attempted']} "
          f"succeeded={counts['succeeded']} failed={counts['failed']} "
          f"shed={counts['shed']}")
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "host": hostenv.fingerprint(),
                       "metrics": measured, "detail": detail}, handle)
    # A layer the workload bypasses has no value; the contract wants
    # every declared per-layer metric on every line, so those read 0.
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"], "failed": counts["failed"],
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in declared}}))
    return 0


# ----------------------------------------------------------------------
# The whole suite, each workload in its own interpreter
# ----------------------------------------------------------------------
def run_child(workload, seed, seconds, trace, smoke):
    out = hostenv.out_path(f"result-{workload}-trace{trace}.json")
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--json-out", out] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    if done.returncode:
        raise SystemExit(f"{workload} (trace {trace}) exited with "
                         f"{done.returncode}")
    with open(out) as handle:
        return json.load(handle)


def run_suite(args, contract):
    import report

    names = catalog.WORKLOADS
    if args.aa:
        runs = {name: [] for name in names}
        for repeat in range(args.aa):
            for name in names:
                runs[name].append(run_child(
                    name, args.seed + repeat, args.seconds, 0, args.smoke))
        path = report.write_aa_report(runs, contract, args)
        print(f"wrote {os.path.relpath(path, hostenv.REPO_ROOT)}")
        return 0
    results = {}
    for name in names:
        results[name] = {
            "end_to_end": run_child(name, args.seed, args.seconds, 0,
                                    args.smoke),
            "layers": run_child(name, args.seed, args.seconds, 1,
                                args.smoke)}
    print(report.summary(results))
    path = hostenv.out_path("suite.json")
    with open(path, "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "host": hostenv.fingerprint(), "results": results},
                  handle, indent=1)
    print(f"wrote {os.path.relpath(path, hostenv.REPO_ROOT)}")
    if args.history:
        print(f"appended to {report.append_history(results, args)}")
    return 0


def main(argv=None):
    hostenv.prepare()
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase "
                             f"(default {contract['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", default=None,
                        help="also write the run's full detail here")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s windows, one build: a shape check, "
                             "not a measurement")
    parser.add_argument("--aa", type=int, default=0, metavar="K",
                        help="run the end-to-end suite K times on K "
                             "seeds and write AA_REPORT.md")
    parser.add_argument("--history", action="store_true",
                        help="append the headline numbers to "
                             "history.jsonl")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 10.0 if args.smoke else float(contract["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return (run_one if args.workload else run_suite)(args, contract)


if __name__ == "__main__":
    sys.exit(main())
