"""What the suite prints and commits: the summary table, the A/A
repeatability report the bounds were set from, and the history row."""

from __future__ import annotations

import datetime
import json
import os
import statistics

import catalog
import hostenv
from stats import iqr_over_median

AA_REPORT = os.path.join(hostenv.SUITE_DIR, "AA_REPORT.md")
HISTORY = os.path.join(hostenv.SUITE_DIR, "history.jsonl")
# The eight headline numbers of a workload.
HEADLINE = tuple(catalog.END_TO_END)


def _fmt(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def summary(results):
    """Every metric of a suite run by name, with its unit."""
    lines = []
    for workload, result in results.items():
        lines.append(f"\n== {workload} ==")
        counts = result["end_to_end"]["detail"]["counts"]
        lines.append(f"  attempted={counts['attempted']} "
                     f"succeeded={counts['succeeded']} "
                     f"failed={counts['failed']} shed={counts['shed']}")
        for section in ("end_to_end", "layers"):
            for name, value in result[section]["metrics"].items():
                lines.append(f"  {name:52s} {_fmt(value):>12s} "
                             f"{catalog.UNITS[name]}")
        lines.append("  -- waterfall (ms per operation) --")
        for stage, ms in result["layers"]["detail"]["waterfall"]:
            lines.append(f"  {stage:60s} {ms:9.3f}")
    return "\n".join(lines)


def append_history(results, args):
    """One compact row per recorded suite run: host fingerprint plus
    the headline numbers, so the trajectory lives in git."""
    row = {"date": datetime.date.today().isoformat(),
           "seed": args.seed, "seconds": args.seconds,
           "host": hostenv.fingerprint(),
           "headline": {
               workload: {name: result["end_to_end"]["metrics"][name]
                          for name in HEADLINE}
               for workload, result in results.items()}}
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(row) + "\n")
    return os.path.relpath(HISTORY, hostenv.REPO_ROOT)


def _worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def aa_rows(runs, contract):
    """Per workload x end-to-end metric: the K values and the
    statistics the bounds are judged by.  A pair the contract does not
    enrol (workload or metric left out of ``BENCHMARK.json``) is listed
    all the same, so the reason it was left out stays visible."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    enrolled = {w["name"] for w in contract["workloads"]}
    rows = []
    for workload, results in runs.items():
        for name, (_, better) in catalog.END_TO_END.items():
            values = [r["metrics"][name] for r in results]
            middle = statistics.median(values)
            spread = iqr_over_median(values) if middle else 0.0
            # Two interleaved sets of runs on the same tree, as the
            # driver compares a parent with an identical change.
            set_a, set_b = values[0::2], values[1::2]
            gap = (abs(_worse_by(statistics.median(set_a),
                                 statistics.median(set_b), better))
                   if set_a and set_b else 0.0)
            bound = bounds.get(name) if workload in enrolled else None
            if bound is None:
                verdict = "not enrolled"
            elif bound < 2 * gap:
                verdict = "BOUND < 2x GAP"
            elif name == "setup_s":        # its spread is not judged
                verdict = "ok"
            elif spread > bound:
                verdict = "SPREAD > BOUND"
            else:
                verdict = "steady" if spread <= bound / 3 else "ok"
            rows.append({"workload": workload, "metric": name,
                         "values": values, "median": middle,
                         "iqr_over_median": spread,
                         "range_over_median": ((max(values) - min(values))
                                               / abs(middle) if middle
                                               else 0.0),
                         "ab_gap": gap, "bound": bound, "verdict": verdict})
    return rows


def write_aa_report(runs, contract, args):
    rows = aa_rows(runs, contract)
    host = hostenv.fingerprint()
    k = len(next(iter(runs.values())))
    lines = [
        "# A/A repeatability report",
        "",
        f"`run.py --aa {k} --seed {args.seed} --seconds {args.seconds:g}`"
        f" on {datetime.date.today().isoformat()}, commit "
        f"`{host['git_commit'][:12]}`: the end-to-end run of every "
        f"workload, {k} times on unchanged code, run *i* with seed "
        f"{args.seed} + *i* (the driver varies the seed the same way).",
        "",
        f"Host: {host['nproc']} x {host['cpu_model']}, python "
        f"{host['python']}, numpy {host['numpy']}, {host['blas']}, "
        f"threads {host['thread_env']}.",
        "",
        "Columns: **IQR/med** is the distance between the first and third "
        "quartile (`statistics.quantiles(values, n=4)`) as a share of the "
        "median -- the spread the driver holds against the bound. "
        "**range/med** is the largest gap between any two runs. **A/B "
        "gap** is how much worse the median of the odd runs is than the "
        "median of the even runs (or the reverse): two sets of runs of the "
        "same code. A bound must be at least the IQR/med and at least "
        "twice the A/B gap; `steady` means the spread is also under a "
        "third of the bound. `not enrolled` rows are workloads or metrics "
        "the suite measures but `BENCHMARK.json` leaves out of the "
        "driver's contract (README, \"Bounds\").",
        "",
        "| workload | metric | median | IQR/med | range/med | A/B gap | "
        "bound | verdict |",
        "|---|---|---:|---:|---:|---:|---:|---|",
    ]
    for row in rows:
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['median']:.5g} "
            f"| {row['iqr_over_median']:.4f} | "
            f"{row['range_over_median']:.4f} | {row['ab_gap']:.4f} | "
            f"{'--' if row['bound'] is None else format(row['bound'], '.2f')}"
            f" | {row['verdict']} |")
    lines += ["", "## Values", ""]
    for row in rows:
        values = ", ".join(f"{v:.5g}" for v in row["values"])
        lines.append(f"- `{row['workload']}/{row['metric']}`: {values}")
    lines.append("")
    with open(AA_REPORT, "w") as handle:
        handle.write("\n".join(lines))
    with open(hostenv.out_path("aa.json"), "w") as handle:
        json.dump({"rows": rows, "runs": runs}, handle, indent=1)
    return AA_REPORT
