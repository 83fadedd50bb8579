"""One end-to-end benchmark for the coded storage stack.

Usage::

    python3 benchmarks/e2e/run.py --workload <name>|all --seed N [--seconds S]
        [--trace [0|1]] [--smoke] [--out PATH] [--check-determinism]

Drives RS(4,3) / Pyramid(4,2,1) / Galloper(4,2,1) — equal 1.75x overhead —
through public functions only, on four workloads (``bulk_io``,
``striped_io``, ``serve_zipf``, ``serve_chaos``), prints every metric by name
with its unit, checks every byte it reads back and exits non-zero on a
correctness failure.  End-to-end metrics are measured with tracing off;
``--trace`` (or ``--trace 1``) measures again under the benchmark's own span
recorder and prints the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

See README.md in this directory for the metric glossary and the workloads.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

# One process, one thread: set before numpy (and its BLAS) is imported.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
# The native kernel tier compiles on first use; keep its build inside the checkout.
os.environ.setdefault("REPRO_NATIVE_CACHE", str(REPO_ROOT / ".bench_build" / "repro-native"))

if not (REPO_ROOT / "src" / "repro" / "__init__.py").exists():
    print(f"run.py: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(REPO_ROOT / "src"))

import declared  # noqa: E402
import io_workloads as iow  # noqa: E402
import serve_workloads as srv  # noqa: E402
from common import Failures  # noqa: E402
from stats import provenance  # noqa: E402

from repro.gf import native_available  # noqa: E402

native_available()  # load (or compile) the native backend now, so it is part of set-up
IMPORT_S = time.perf_counter() - _T_START

RESULTS_DIR = HERE / "results"
DEFAULT_SECONDS = 20.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def write_trace(workload: str, recorder) -> dict:
    """Write the Chrome-trace artefact; returns what the record says about the traced run."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{workload}.trace.json"
    path.write_text(json.dumps(recorder.chrome_trace()))
    return {
        "file": str(path.relative_to(REPO_ROOT)), "spans_recorded": recorder.calls,
        "spans_kept": len(recorder.spans), "missing_targets": recorder.missing,
    }


# ------------------------------------------------------------ *_io workloads


def run_io(workload: str, args) -> dict:
    spec = (iow.SMOKE_SPECS if args.smoke else iow.SPECS)[workload]
    failures = Failures()
    codes, payload, offsets, setup, construct = iow.set_up(spec, args.seed, failures)
    record: dict = {
        "workload": workload, "spec": vars(spec) | {"payload_bytes": spec.payload_bytes},
        "setup": {"import_s": IMPORT_S, "repeated": setup},
    }
    budget = 0.0 if args.smoke else args.seconds
    if not args.trace:
        measured = iow.measure(spec, codes, payload, offsets, budget, failures)
        end_to_end, record["spread"] = iow.end_to_end(spec, measured)
        record["measured"] = measured
    else:
        untraced = iow.measure(spec, codes, payload, offsets, budget * iow.TRACE_PHASE_SHARE, failures)
        ladders = {name: iow.ladder_for_code(spec, codes[name], payload) for name in declared.CODE_NAMES}
        recorder, traced = iow.run_traced(spec, codes, payload, offsets, budget * iow.TRACE_PHASE_SHARE, failures)
        end_to_end, record["spread"] = iow.end_to_end(spec, untraced)
        per_layer = {}
        per_layer.update(iow.ladder_metrics(spec, ladders, untraced))
        per_layer.update(iow.per_code_metrics(spec, untraced, construct))
        per_layer.update(iow.count_metrics(spec, untraced))
        per_layer.update(iow.traced_metrics(recorder, untraced, traced))
        record.update({
            "measured": untraced, "traced": traced, "per_layer": per_layer,
            "trace": write_trace(workload, recorder),
        })
    end_to_end["setup_s"] = IMPORT_S + setup["median"]
    end_to_end["peak_rss_MB"] = peak_rss_mb()
    record["end_to_end"] = end_to_end
    return finish(record, failures)


# --------------------------------------------------------- serve_* workloads


def run_serve(workload: str, args) -> dict:
    failures = Failures()
    zipf = workload == "serve_zipf"
    if zipf:
        spec = srv.SMOKE_ZIPF if args.smoke else srv.ZIPF
    else:
        spec = srv.SMOKE_CHAOS if args.smoke else srv.CHAOS
    t0 = time.perf_counter()
    catalog = srv.make_catalog(spec.cluster, args.seed)
    catalog_s = time.perf_counter() - t0

    def run_pass(replication: int, recorder=None, **kwargs):
        if zipf:
            return srv.zipf_pass(spec, catalog, args.seed, replication, failures, recorder=recorder, **kwargs)
        return srv.chaos_pass(spec, catalog, args.seed, replication, failures, recorder=recorder)

    # A pass is a fixed schedule and their number is fixed, so results do not depend on --seconds.
    passes = [run_pass(i) for i in range(1 if args.trace else srv.REPLICATIONS)]
    cells = passes[0]
    lag = max(c["generator_lag_s"] for p in passes for c in srv.flat_cells(p))
    if lag > 1e-9:
        failures.fail(f"load generator ran {lag * 1e3:.6f} sim ms late")

    end_to_end = srv.zipf_end_to_end(passes) if zipf else srv.chaos_end_to_end(passes)
    rps = [srv.rps_wall(srv.flat_cells(p)) for p in passes]
    end_to_end["serve_rps_wall"] = srv.rps_wall([c for p in passes for c in srv.flat_cells(p)])
    populate = srv.populate_summary(passes)
    end_to_end["setup_s"] = IMPORT_S + catalog_s + populate["seconds"]
    record: dict = {
        "workload": workload,
        "spec": {k: v for k, v in vars(spec).items() if k != "cluster"} | {"cluster": vars(spec.cluster)},
        "placement_seed": srv.PLACEMENT_SEED,
        "setup": {"import_s": IMPORT_S, "catalog_s": catalog_s, "populate": populate},
        "replications": len(passes), "rps_wall_per_replication": rps,
        # In a cell, *_s fields are sim seconds, except wall_s and populate_wall_s.
        "cells": [{name: {str(label): c for label, c in per.items()} for name, per in p.items()} for p in passes],
    }
    if args.trace:
        reference = {
            name: per[declared.REFERENCE_RATE if zipf else srv.CHAOS_CELL] for name, per in cells.items()
        }
        per_layer = srv.serving_layer_metrics(cells, reference)
        kwargs = {"rates": (declared.REFERENCE_RATE,)} if zipf else {}
        recorder, traced = srv.traced_pass(lambda rec: run_pass(0, rec, **kwargs), failures)
        difference = srv.first_difference(traced, cells)
        if difference:
            failures.fail(f"tracing changed a sim-clock result: {difference}")
        per_layer.update(srv.traced_metrics(recorder, list(reference.values()), srv.flat_cells(traced)))
        record.update({"per_layer": per_layer, "trace": write_trace(workload, recorder)})
    end_to_end["peak_rss_MB"] = peak_rss_mb()
    record["end_to_end"] = end_to_end
    return finish(record, failures)


# ------------------------------------------------------------------ output


def finish(record: dict, failures: Failures) -> dict:
    record.update({
        "ops_attempted": failures.attempted, "ops_failed": failures.failed,
        "ops_incorrect": failures.incorrect, "failure_reasons": failures.reasons,
    })
    return record


def _finite(value) -> float:
    # A latency percentile is inf when that share of requests failed; JSON has no inf.
    value = float(value)
    return value if value == value and abs(value) != float("inf") else 1e12


def result_metrics(record: dict, trace: bool) -> dict:
    """Every declared metric of the mode, as the driver wants it: a number each, on every workload."""
    workload = record["workload"]
    out = {}
    if trace:
        measured = record.get("per_layer", {})
        for name, unit, _, applies in declared.PER_LAYER:
            value = measured.get(name) if workload in applies else None
            out[name] = {"value": _finite(value) if value is not None else 0.0, "unit": unit}
    else:
        measured = record["end_to_end"]
        for name, unit, _, _, applies in declared.END_TO_END:
            value = measured.get(name) if workload in applies else None
            out[name] = {"value": _finite(value) if value is not None else declared.NA_VALUE, "unit": unit}
    return out


def print_record(record: dict, trace: bool) -> None:
    workload = record["workload"]
    print(f"== {workload}: {record['ops_attempted']} ops attempted, {record['ops_failed']} failed")
    for reason in record["failure_reasons"]:
        print(f"   FAILED: {reason}")
    rows = [(n, u, a, record["end_to_end"]) for n, u, _, _, a in declared.END_TO_END]
    if trace:
        rows += [(n, u, a, record.get("per_layer", {})) for n, u, _, a in declared.PER_LAYER]
    for name, unit, applies, source in rows:
        if workload not in applies:
            continue
        value = source.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"   {name:<52} {shown:>14} {unit}")
    if "measured" in record:
        reps = record["measured"]["repetitions"]
        print(f"   ({reps} repetitions per code; minimum, median and quartiles are in the --out record)")
    if "trace" in record:
        t = record["trace"]
        print(f"   trace: {t['file']} ({t['spans_kept']} of {t['spans_recorded']} spans kept)")
        if t["missing_targets"]:
            print(f"   trace targets not found (their metrics read null): {', '.join(t['missing_targets'])}")


def append_run(path: pathlib.Path, run: dict) -> None:
    """``--out`` keeps a list of runs, so compare.py can see the spread between invocations."""
    runs = []
    if path.exists():
        runs = json.loads(path.read_text()).get("runs", [])
    runs.append(run)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


# ------------------------------------------------------- determinism check


@contextmanager
def kernel_choice(choice: str | None):
    """Run a block under ``REPRO_KERNEL=<choice>`` (read at plan construction), then put it back."""
    saved = os.environ.get("REPRO_KERNEL")
    if choice is not None:
        os.environ["REPRO_KERNEL"] = choice
    try:
        yield
    finally:
        os.environ.pop("REPRO_KERNEL", None)
        if saved is not None:
            os.environ["REPRO_KERNEL"] = saved


def check_determinism(seed: int) -> int:
    """Both serving workloads at smoke size: twice as is, once under REPRO_KERNEL=table."""
    status = 0
    for workload in declared.SERVE_WORKLOADS:
        zipf = workload == "serve_zipf"
        spec = srv.SMOKE_ZIPF if zipf else srv.SMOKE_CHAOS
        catalog = srv.make_catalog(spec.cluster, seed)
        run = srv.zipf_pass if zipf else srv.chaos_pass
        runs = {}
        for label, kernel in (("first", None), ("second", None), ("table kernels", "table")):
            with kernel_choice(kernel):
                runs[label] = run(spec, catalog, seed, 0, Failures())
        for label in ("second", "table kernels"):
            difference = srv.first_difference(runs["first"], runs[label])
            if difference:
                status = 1
                print(f"{workload}: first run vs {label}: MISMATCH at {difference}")
            else:
                print(f"{workload}: first run vs {label}: every sim-clock metric and count identical")
    return status


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*declared.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1, help="derives every generated input")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: measure under the span recorder and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for test_smoke.py")
    parser.add_argument("--out", type=pathlib.Path, help="append the full record of this run to a JSON file")
    parser.add_argument("--check-determinism", action="store_true",
                        help="rerun the serving workloads at smoke size and require identical sim-clock results")
    args = parser.parse_args(argv)
    if args.check_determinism:
        return check_determinism(args.seed)

    names = declared.WORKLOADS if args.workload == "all" else (args.workload,)
    began = time.perf_counter()
    records = {}
    for name in names:
        records[name] = (run_io if name in declared.IO_WORKLOADS else run_serve)(name, args)
        print_record(records[name], bool(args.trace))
    wall = time.perf_counter() - began
    print(f"total wall time {wall:.1f} s (plus {IMPORT_S:.2f} s import and native load)")

    if args.out:
        append_run(args.out, {
            "provenance": provenance(args.seed, args.seconds, args.smoke), "trace": args.trace,
            "wall_s": wall, "workloads": records,
        })
    correct = all(r["ops_incorrect"] == 0 for r in records.values())
    result = {
        "correct": correct,
        "attempted": sum(r["ops_attempted"] for r in records.values()),
        "failed": sum(r["ops_failed"] for r in records.values()),
    }
    if len(names) == 1:
        result["metrics"] = result_metrics(records[names[0]], bool(args.trace))
    else:  # not the driver's form: one block of metrics per workload
        result["metrics"] = {name: result_metrics(r, bool(args.trace)) for name, r in records.items()}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
