"""Smoke test of the end-to-end benchmark (not part of tier-1's ``testpaths``).

Run as ``python -m pytest benchmarks/e2e -q``: two ``--smoke`` runs of
``run.py`` over all four workloads, one per mode, in well under 15 s.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import declared  # noqa: E402


def _run(trace: int, out: pathlib.Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(0, tmp_path_factory.mktemp("e2e") / "untraced.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "traced.json"
    return _run(1, out), json.loads(out.read_text())["runs"][-1]


def test_benchmark_json_matches_the_declarations():
    on_disk = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert on_disk == declared.benchmark_json(on_disk["run_seconds"])


def test_untraced_run_prints_exactly_the_end_to_end_metrics(untraced):
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert set(untraced["metrics"]) == set(declared.WORKLOADS)
    for workload, metrics in untraced["metrics"].items():
        assert {n: m["unit"] for n, m in metrics.items()} == declared.E2E_UNITS
        for name, metric in metrics.items():
            if workload not in declared.E2E_APPLIES[name]:
                assert metric["value"] == declared.NA_VALUE, (workload, name)
            elif name != "max_rate_ok":  # at smoke size no rate step need pass
                assert metric["value"] > 0, (workload, name)


def test_traced_run_prints_exactly_the_per_layer_metrics(traced):
    result, record = traced
    assert result["correct"] and result["failed"] == 0
    for workload, metrics in result["metrics"].items():
        assert {n: m["unit"] for n, m in metrics.items()} == declared.LAYER_UNITS
        measured = record["workloads"][workload]["per_layer"]
        applicable = {n for n, applies in declared.LAYER_APPLIES.items() if workload in applies}
        assert set(measured) == applicable, set(measured) ^ applicable
        assert record["workloads"][workload]["trace"]["missing_targets"] == []


def test_record_carries_provenance(traced):
    provenance = traced[1]["provenance"]
    for key in ("git_sha", "git_dirty", "cpu_model", "nproc", "python", "numpy", "compiler",
                "native_available", "kernel_choice", "seed", "thread_env"):
        assert key in provenance
    assert set(provenance["thread_env"].values()) == {"1"}


def test_every_span_has_its_parent_and_an_op(traced):
    for workload in declared.WORKLOADS:
        trace = json.loads((HERE / "results" / f"{workload}.trace.json").read_text())
        spans = [event["args"] for event in trace["traceEvents"]]
        assert spans, workload
        ids = {span["id"] for span in spans}
        for event, span in zip(trace["traceEvents"], spans):
            assert span["parent"] == -1 or span["parent"] in ids, (workload, event["name"])
            assert {"op", "layer", "start_s", "end_s"} <= set(span)
            assert event["name"] and event["cat"] == span["layer"]
