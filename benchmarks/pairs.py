"""Alternating parent / change pairs of the end-to-end benchmark, judged by ``compare.py``.

Usage::

    python3 benchmarks/pairs.py --parent REV --change REV --workload W --seeds A-B
        [--seconds S] [--workdir DIR]

Clones both revisions from this repository into a work directory (a local
``git clone``, nothing is fetched), then for each seed runs
``benchmarks/e2e/run.py --workload W --seed N --out`` once in each clone,
the parent first on even-numbered pairs and the change first on odd ones.
Each side runs from its own fresh clone, so neither measures a long-lived
working tree, and each clone is warmed first, untimed: its bytecode is
compiled and its native library built where ``run.py`` loads it from, so the
first timed run does not pay for either in ``setup_s``.  Prints the gain
test per end-to-end metric (each side's median and quartiles, change over
parent, the pairs the change is ahead / behind / tied in, and whether the
rule for claiming a gain holds: at least ``MIN_PAIRS`` pairs, ahead in at
least nine tenths of them, medians apart by more than the parent's quartile
distance; with fewer pairs it says so instead of judging), then
``compare.py parent.json change.json`` (whose exit status it returns), and
last, per seed, the deterministic leaves that differ between the two
records: every declared metric whose unit is not a wall-clock one
(``WALL_UNITS``), ``eff.*`` and ``bench.*`` excluded — the counts and
sim-clock values the seed alone decides.  The records stay in ``--workdir``
(a new temporary directory by default) for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
E2E = pathlib.Path("benchmarks") / "e2e"

#: Units of wall-clock measurements.  A metric in any other unit is a count,
#: a ratio of counts or a sim-clock value: equal seeds give equal values.
WALL_UNITS = frozenset({"s", "ms", "MB", "MB/s", "kops/s", "req/s", "1/s"})

#: Fewer pairs than this support no claim: three of three ahead would pass
#: the nine-tenths rule by chance one time in eight.
MIN_PAIRS = 10


def seed_range(text: str) -> list[int]:
    """``"1001-1010"`` -> ``[1001, ..., 1010]``; a single number is one seed."""
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def clone(rev: str, into: pathlib.Path) -> str:
    """A fresh clone of this repository at ``rev``; returns the commit checked out."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(REPO), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", rev], check=True)
    return subprocess.run(
        ["git", "-C", str(into), "rev-parse", "--short", "HEAD"], check=True, capture_output=True, text=True
    ).stdout.strip()


def warm(checkout: pathlib.Path) -> None:
    """Compile ``checkout``'s bytecode and build its native library, as the
    first ``run.py`` there would inside its timed set-up (the library goes
    where ``run.py`` puts it unless ``REPRO_NATIVE_CACHE`` says otherwise)."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    env.setdefault("REPRO_NATIVE_CACHE", str(checkout / ".bench_build" / "repro-native"))
    code = (
        "import compileall; compileall.compile_dir('src', quiet=1); compileall.compile_dir('benchmarks/e2e', quiet=1); "
        "from repro.gf import native_available; native_available()"
    )
    subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env, check=True)


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float | None, out: pathlib.Path) -> None:
    cmd = [sys.executable, str(E2E / "run.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run.py failed in {checkout} (seed {seed}, exit {proc.returncode})")


def _declared(checkout: pathlib.Path):
    sys.path.insert(0, str(checkout / E2E))
    import declared

    return declared


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, cut as ``compare.py`` and the records cut them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def gain_test(runs_a: list[dict], runs_b: list[dict], workload: str, directions: dict[str, str]) -> list[dict]:
    """The gain test per end-to-end metric both sides carry.

    ``directions`` maps a metric to ``"higher"`` or ``"lower"`` (is better).
    A row holds each side's ``(q1, median, q3)``, ``ratio`` = change median
    over parent median, the pairs the change is ``ahead`` / ``behind`` /
    ``tied`` in, and ``gain``: whether the rule for claiming a gain holds —
    at least :data:`MIN_PAIRS` pairs, ahead in at least nine tenths of them
    (ties count for neither), and the medians apart, in the better
    direction, by more than the distance between the parent's quartiles.
    """
    rows = []
    for metric, direction in directions.items():
        pairs = [
            (a["workloads"][workload]["end_to_end"].get(metric), b["workloads"][workload]["end_to_end"].get(metric))
            for a, b in zip(runs_a, runs_b)
        ]
        pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
        if not pairs:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        ahead = sum(sign * (y - x) > 0 for x, y in pairs)
        behind = sum(sign * (y - x) < 0 for x, y in pairs)
        parent, change = quartiles([x for x, _ in pairs]), quartiles([y for _, y in pairs])
        rows.append({
            "metric": metric,
            "parent": parent,
            "change": change,
            "ratio": change[1] / parent[1] if parent[1] else None,
            "ahead": ahead,
            "behind": behind,
            "tied": len(pairs) - ahead - behind,
            "gain": len(pairs) >= MIN_PAIRS
            and 10 * ahead >= 9 * len(pairs)
            and sign * (change[1] - parent[1]) > parent[2] - parent[0],
        })
    return rows


def print_gain_test(rows: list[dict], pairs: int, workload: str) -> None:
    print(f"== gain test ({pairs} pairs), change against parent, {workload}: median [q1 .. q3]")
    for row in rows:
        (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
        ratio = f"{row['ratio']:7.3f}" if row["ratio"] is not None else "    n/a"
        count = row["ahead"] + row["behind"] + row["tied"]
        if count < MIN_PAIRS:
            verdict = f"too few pairs for a claim ({count} < {MIN_PAIRS})"
        else:
            verdict = "gain rule holds" if row["gain"] else "no gain"
        print(
            f"   {row['metric']:<20} parent {pm:10.5g} [{pq1:.5g} .. {pq3:.5g}]"
            f"  change {cm:10.5g} [{cq1:.5g} .. {cq3:.5g}]  change/parent {ratio}"
            f"  ahead {row['ahead']:2d} behind {row['behind']:2d} tied {row['tied']:2d}"
            f"  {verdict}"
        )


def deterministic_leaves(declared) -> dict[str, str]:
    """Declared metric -> the record section holding it, for every metric
    the seed alone decides (``eff.*`` and ``bench.*`` are wall-clock shares)."""
    leaves = {name: "end_to_end" for name, unit, *_ in declared.END_TO_END if unit not in WALL_UNITS}
    leaves.update({name: "per_layer" for name, unit, *_ in declared.PER_LAYER if unit not in WALL_UNITS})
    return {name: section for name, section in leaves.items() if not name.startswith(("eff.", "bench."))}


def leaf_differences(parent: pathlib.Path, change: pathlib.Path, workload: str, checkout: pathlib.Path) -> None:
    """Per seed: the deterministic leaves the two records disagree on.

    A leaf neither record carries (a per-layer metric of an untraced run)
    is not compared; one that only one of them carries differs.
    """
    leaves = deterministic_leaves(_declared(checkout))
    runs_a = json.loads(parent.read_text())["runs"]
    runs_b = json.loads(change.read_text())["runs"]
    print(f"== deterministic leaves, change against parent, {workload}")
    for a, b in zip(runs_a, runs_b):
        was, now = a["workloads"][workload], b["workloads"][workload]
        values = {
            name: (was.get(section, {}).get(name), now.get(section, {}).get(name))
            for name, section in leaves.items()
        }
        values = {name: pair for name, pair in values.items() if pair != (None, None)}
        moved = {name: pair for name, pair in values.items() if pair[0] != pair[1]}
        if not values:
            verdict = "no deterministic leaf in either record (an untraced *_io run has none)"
        elif moved:
            verdict = f"{len(moved)} of {len(values)} differ"
        else:
            verdict = f"all {len(values)} identical"
        print(f"   seed {b['provenance']['seed']}: {verdict}")
        for name, (x, y) in moved.items():
            print(f"      {name:<52} {x} -> {y}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision measured as the base (A)")
    parser.add_argument("--change", required=True, help="revision measured against it (B)")
    parser.add_argument("--workload", required=True, help="one run.py workload (not 'all')")
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B: one pair per seed")
    parser.add_argument("--seconds", type=float, help="passed to run.py (its default otherwise)")
    parser.add_argument("--workdir", type=pathlib.Path, help="a directory without earlier clones, for the clones and records (default: a new temp dir)")
    args = parser.parse_args(argv)

    work = args.workdir or pathlib.Path(tempfile.mkdtemp(prefix="pairs-"))
    work.mkdir(parents=True, exist_ok=True)
    sides = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        checkout = work / side
        sha = clone(rev, checkout)
        warm(checkout)
        record = work / f"{side}.json"
        record.unlink(missing_ok=True)
        sides[side] = (checkout, record)
        print(f"{side}: {rev} = {sha} in {checkout}")
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            checkout, record = sides[side]
            run_once(checkout, args.workload, seed, args.seconds, record)
        print(f"pair {index + 1}/{len(args.seeds)}: seed {seed}, {order[0]} first", flush=True)

    (_, parent_json), (change_dir, change_json) = sides["parent"], sides["change"]
    directions = {name: direction for name, _, direction, _, _ in _declared(change_dir).END_TO_END}
    runs_a = json.loads(parent_json.read_text())["runs"]
    runs_b = json.loads(change_json.read_text())["runs"]
    print_gain_test(gain_test(runs_a, runs_b, args.workload, directions), len(runs_a), args.workload)
    sys.stdout.flush()
    status = subprocess.run(
        [sys.executable, str(change_dir / E2E / "compare.py"), str(parent_json), str(change_json)],
        cwd=change_dir / E2E,
    ).returncode
    leaf_differences(parent_json, change_json, args.workload, change_dir)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
