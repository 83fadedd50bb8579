"""Chaos campaign runner: writes the BENCH_chaos.json trajectory file.

Runs the seeded gray-failure campaign from :mod:`repro.bench.chaos` —
crash traces composed with flaky, gray, spiky and silently-corrupting
servers, driven against RS/Pyramid/Galloper files with repairs — and
appends one run record to ``BENCH_chaos.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/run_chaos.py [--out PATH]
        [--schedules N] [--seed S] [--checkpoints C]

The campaign is seeded and bit-reproducible, so the committed file is
also its own gate: a run whose ``metrics`` or ``degraded_read_overhead``
differ from the latest committed run of the same ``(schedules,
base_seed, checkpoints)`` exits nonzero and names the fields that moved.
A change that means to move them commits the file this run wrote.

Headline fields (also printed):

* ``mismatches`` — reads that returned wrong bytes (must be 0; the
  campaign exits nonzero otherwise).
* ``unavailable`` — reads that stayed undecodable through all retries.
* ``degraded_read_overhead`` — per-code mean chaos read latency over the
  clean-cluster baseline.
* the resilience counters (``retries``, ``hedged_reads``,
  ``breaker_opens``, ``reconstructions``, ...) aggregated across the
  whole campaign, each counted by the campaign's own filesystems.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.bench.chaos import run_campaign

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(schedules: int, base_seed: int, checkpoints: int) -> dict:
    t0 = time.perf_counter()
    record = run_campaign(schedules=schedules, base_seed=base_seed, checkpoints=checkpoints)
    record["wall_seconds"] = round(time.perf_counter() - t0, 2)
    record["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    record["python"] = platform.python_version()
    record["numpy"] = np.__version__
    return record


CAMPAIGN_KEY = ("schedules", "base_seed", "checkpoints")


def _load_runs(path: pathlib.Path) -> list[dict]:
    try:
        return json.loads(path.read_text()).get("runs", [])
    except (OSError, json.JSONDecodeError, AttributeError):
        return []


def _overheads(record: dict) -> dict[str, float]:
    return {code: stats["degraded_read_overhead"] for code, stats in record["per_code"].items()}


def drift(record: dict, committed: list[dict]) -> list[str] | None:
    """Fields of ``record`` that differ from its latest committed twin.

    ``None`` when no committed run shares the campaign's parameters.
    """
    twins = [r for r in committed if all(r.get(k) == record[k] for k in CAMPAIGN_KEY)]
    if not twins:
        return None
    was = {**twins[-1]["metrics"], **_overheads(twins[-1])}
    now = {**record["metrics"], **_overheads(record)}
    return [
        f"{name}: {was.get(name)} -> {now.get(name)}"
        for name in sorted(was.keys() | now.keys())
        if was.get(name) != now.get(name)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_chaos.json",
        help="trajectory file to append the run to",
    )
    parser.add_argument("--schedules", type=int, default=50, help="seeded schedules per code")
    parser.add_argument("--seed", type=int, default=2018, help="base seed (schedule i uses seed+i)")
    parser.add_argument("--checkpoints", type=int, default=8, help="read-back checkpoints per schedule")
    args = parser.parse_args(argv)

    record = run(args.schedules, args.seed, args.checkpoints)
    moved = drift(record, _load_runs(REPO_ROOT / "BENCH_chaos.json"))
    history = _load_runs(args.out)
    history.append(record)
    payload = {
        "mismatches": record["mismatches"],
        "unavailable": record["unavailable"],
        "reads": record["reads"],
        "metrics": record["metrics"],
        "degraded_read_overhead": _overheads(record),
        "runs": history,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.out}")
    print(
        f"  {record['reads']} reads over {record['schedules']} schedules x "
        f"{len(record['codes'])} codes in {record['wall_seconds']}s"
    )
    print(f"  mismatches: {record['mismatches']}  unavailable: {record['unavailable']}")
    for name, value in record["metrics"].items():
        print(f"  {name:>22}: {value:.0f}")
    for code, stats in record["per_code"].items():
        print(f"  {code:>15}: degraded-read overhead {stats['degraded_read_overhead']:.0f}x baseline")

    if record["mismatches"]:
        print("FAILED: byte mismatches under chaos", file=sys.stderr)
        return 1
    if moved is None:
        print("  no committed run of this campaign to compare with")
    elif moved:
        print("FAILED: the seeded campaign no longer reproduces its committed run:", file=sys.stderr)
        for line in moved:
            print(f"  {line}", file=sys.stderr)
        return 1
    else:
        print("  reproduces the committed run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
