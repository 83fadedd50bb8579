"""Compare two sets of benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --out`` (each holds
one or more runs; run the benchmark several times with the same ``--out`` to
collect a set).  Per workload and end-to-end metric this prints both medians,
B over A with its base, the spread between the runs of each side and a
verdict for B against A:

* ``improved`` / ``regressed`` — the medians differ by more than the metric's
  bound, in the good or the bad direction;
* ``unchanged`` — they differ by no more than the bound;
* ``unresolved`` — the spread between one side's own runs (quartile distance
  over median) is wider than the bound, so the difference cannot be told
  from noise, unless every run of one side beats every run of the other.
  A side with a single run is judged by the spread between that run's own
  repetitions, which the record carries for wall-clock metrics.

A metric with bound 0 (exact counts, seeded sim-clock results) must be equal.
Per-layer metrics, which have no bound, are listed with their ratio only.
Exits 1 if any metric regressed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

import declared

BOUNDS = {name: (better, bound) for name, _, better, bound, _ in declared.END_TO_END}


def load_runs(path: str) -> list[dict]:
    data = json.loads(pathlib.Path(path).read_text())
    return data["runs"] if "runs" in data else [data]


def collect(runs: list[dict], section: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` for one section of the records."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for workload, record in run["workloads"].items():
            for metric, value in (record.get(section) or {}).items():
                if value is not None:
                    out.setdefault(workload, {}).setdefault(metric, []).append(float(value))
    return out


def spread(values: list[float], within_run: list[float]) -> float:
    """Quartile distance over median between one side's runs; for a single run, between its repetitions."""
    if len(values) < 2:
        return within_run[0] if within_run else 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], noise: float, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base, new = statistics.median(a), statistics.median(b)
    gain = sign * (new - base) / abs(base) if base else sign * (new - base)
    if gain == 0:
        return "unchanged"
    separated = len(a) > 1 and len(b) > 1 and (
        all(sign * (y - x) > 0 for x in a for y in b) or all(sign * (y - x) < 0 for x in a for y in b)
    )
    if noise > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    return "improved" if gain > bound else "unchanged"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    runs_a, runs_b = load_runs(args[0]), load_runs(args[1])
    print(f"A = {args[0]} ({len(runs_a)} runs)   B = {args[1]} ({len(runs_b)} runs)")
    regressed = 0
    within_a, within_b = collect(runs_a, "spread"), collect(runs_b, "spread")
    for section in ("end_to_end", "per_layer"):
        side_a, side_b = collect(runs_a, section), collect(runs_b, section)
        for workload in declared.WORKLOADS:
            metrics = [m for m in side_a.get(workload, {}) if m in side_b.get(workload, {})]
            if not metrics:
                continue
            print(f"== {workload} ({section})")
            for metric in metrics:
                a, b = side_a[workload][metric], side_b[workload][metric]
                base, new = statistics.median(a), statistics.median(b)
                ratio = f"{new / base:8.4f}" if base else "     n/a"
                spread_a = spread(a, within_a.get(workload, {}).get(metric, []))
                spread_b = spread(b, within_b.get(workload, {}).get(metric, []))
                line = (
                    f"   {metric:<52} A {base:12.6g}  B {new:12.6g}  B/A {ratio} (base A)"
                    f"  spread A {spread_a:6.2%} B {spread_b:6.2%}"
                )
                if section == "end_to_end" and metric in BOUNDS:
                    better, bound = BOUNDS[metric]
                    outcome = verdict(a, b, max(spread_a, spread_b), better, bound)
                    regressed += outcome == "regressed"
                    line += f"  bound {bound:.2f} ({better} is better): {outcome}"
                print(line)
    print(f"{regressed} end-to-end metric(s) regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
