"""Self-test of the benchmark suite (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/suite -q

One ``--smoke`` pass of the whole suite (2 s windows, ~2 minutes) feeds
most of the assertions; they check the *shape* of what the suite
emits, never a timing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import hostenv

hostenv.prepare()

import numpy as np                                          # noqa: E402

import catalog                                              # noqa: E402
from spans import Tracer                                    # noqa: E402

RUN = os.path.join(hostenv.SUITE_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(hostenv.REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke():
    done = subprocess.run([sys.executable, RUN, "--smoke", "--seed", "7"],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(os.path.join(hostenv.OUT_DIR, "suite.json")) as handle:
        return json.load(handle)


def test_contract_file_is_within_the_drivers_limits(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])


def test_contract_enrols_a_subset_of_the_catalogue(contract):
    assert {w["name"] for w in contract["workloads"]} <= set(
        catalog.WORKLOADS)
    for key, table in (("end_to_end", catalog.END_TO_END),
                       ("per_layer", catalog.PER_LAYER)):
        for metric in contract[key]:
            assert table[metric["name"]] == (metric["unit"],
                                             metric["better"])
    assert len(catalog.WORKLOADS) <= 8 and len(catalog.END_TO_END) <= 16
    assert len(catalog.PER_LAYER) <= 128
    assert all(NAME.match(name) for name in
               list(catalog.WORKLOADS) + list(catalog.UNITS))


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_carries_exactly_the_declared_metrics(contract, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "offline_dense_int8", "--seed",
         "3", "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    declared = contract["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = line["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0


def test_every_workload_reports_the_eight_end_to_end_metrics(smoke):
    assert list(smoke["results"]) == list(catalog.WORKLOADS)
    for result in smoke["results"].values():
        run = result["end_to_end"]
        assert set(run["metrics"]) == set(catalog.END_TO_END)
        counts = run["detail"]["counts"]
        assert counts["attempted"] == (counts["succeeded"] + counts["failed"]
                                       + counts["shed"])
        assert counts["failed"] == 0
        assert len(counts["ops_per_window"]) == 5
        assert run["seed"] == 7 and run["host"]["nproc"] >= 1
        assert run["host"]["thread_env"] == {
            var: "1" for var in hostenv.THREAD_VARS}


def test_layer_metrics_are_declared_and_layers_stay_apart(smoke):
    declared = set(catalog.PER_LAYER)
    layers = {name: set(result["layers"]["metrics"])
              for name, result in smoke["results"].items()}
    for name, metrics in layers.items():
        assert metrics <= declared, metrics - declared
        assert {"trace.unattributed_share",
                "trace.overhead_share"} <= metrics
    for name in ("offline_pruned_f32", "offline_dense_int8"):
        assert not any(m.startswith("serving.") for m in layers[name])
    assert not any(m.startswith("serving.http.")
                   for m in layers["pool_burst"])
    assert any(m.startswith("serving.worker.") for m in layers["pool_burst"])
    assert not any(m.startswith("serving.worker.")
                   for m in layers["http_open"])
    dense = smoke["results"]["offline_dense_int8"]["layers"]["metrics"]
    assert dense["engine.bucketing.buckets_per_stage_mean"] == 1
    assert dense["engine.bucketing.padded_token_share"] == 0
    assert "engine.fastpath.selector_ms_per_call" not in dense
    assert not any(".kernels." in m for m in dense)
    assert any(".qkernels." in m for m in dense)
    pruned = smoke["results"]["offline_pruned_f32"]["layers"]["metrics"]
    assert not any(".qkernels." in m for m in pruned)
    assert pruned["engine.fastpath.selector_ms_per_call"] > 0


def test_spans_of_one_operation_share_an_id_and_nest(smoke):
    for name, result in smoke["results"].items():
        detail = result["layers"]["detail"]
        assert detail["wrapped_after_restore"] == []
        with open(os.path.join(hostenv.REPO_ROOT,
                               detail["span_file"])) as handle:
            spans = json.load(handle)["spans"]
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        roots = [s for s in spans if s["name"] == "op"]
        assert len({s["op_id"] for s in roots}) == len(roots)
        for span in spans:
            assert set(span) == {"id", "name", "start", "end", "parent",
                                 "op_id"}
            assert NAME.match(span["name"])
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                continue
            parent = by_id[span["parent"]]
            assert span["op_id"] == parent["op_id"], (name, span, parent)
            assert span["start"] >= parent["start"] - 1e-6, (name, span)
            assert span["end"] <= parent["end"] + 1e-6, (name, span)


def test_restore_leaves_the_program_unwrapped():
    """After a traced run the program executes its own code again: no
    instance attribute the tracer set survives ``restore``."""
    import layers
    from workloads import OfflinePrunedF32

    workload = OfflinePrunedF32(seed=5)
    workload.build()
    session = workload.session
    targets = (session, session.executor, session.executor.compiled)
    before = [set(vars(obj)) for obj in targets]
    untraced = session.submit(workload.batches[1]).logits

    tracer = Tracer()
    workload.install(tracer)
    wrapped = tracer.wrapped
    assert "submit" in vars(session) and len(wrapped) == 8
    root = tracer.begin("op", op_id=0)
    traced = session.submit(workload.batches[1]).logits
    tracer.end(root)
    tracer.restore()

    assert tracer.wrapped == []
    for obj, names in zip(targets, before):
        assert set(vars(obj)) == names
        assert not any(attr in vars(obj) for kind, attr in wrapped
                       if kind == type(obj).__name__)
    assert session.submit.__func__ is type(session).submit
    assert np.array_equal(traced, untraced)
    names = {span["name"] for span in tracer.export()}
    assert {"op", "engine.session.submit", "engine.executor.run",
            "engine.fastpath.run_block",
            "engine.fastpath.select_ragged"} <= names
    assert workload.counters["calls"] == 1
    assert layers.engine_metrics(tracer.export(), workload.counters,
                                 workload.model)["engine.session.calls"] == 1


def test_without_the_program_the_benchmark_refuses(tmp_path):
    """In a directory holding only BENCHMARK.json and the suite's files
    there is nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(hostenv.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(hostenv.SUITE_DIR, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "offline_pruned_f32", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
