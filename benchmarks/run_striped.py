"""Striped-pipeline benchmark runner: writes the BENCH_striped.json trajectory.

Measures what the batched multi-stripe pipeline buys over per-group
calls into the codes layer on a 64-group striped file, for the three
code families:

* **encode** — a loop of per-group ``code.encode`` calls vs one
  :func:`repro.storage.pipeline.batch_encode` over the same grids.
* **bulk repair** — rebuilding the same lost block of every group one
  ``code.reconstruct`` at a time vs one
  :func:`repro.storage.pipeline.batch_reconstruct` fused apply.

Byte-exact equivalence between the batched and per-group results is
asserted inside the timed run — a speedup that changes the bytes would
be a bug, not a result.  The stripes are sized so each per-group product
stays under the kernels' small-product threshold (the regime striped
files actually occupy: many small groups), which is precisely where
fusing groups moves the arithmetic onto the packed gather path.

End-to-end ``StripedFileSystem`` write/read/degraded-read/repair-server
timings ride along as absolute seconds: the storage layer has one
(batched) path, so the pipeline-level ratios above, against the codes
layer's per-group methods, are the headline for batching.  The
whole-file reads (best of
``READ_REPS`` on a fresh filesystem, the codes alternated call by call)
feed two more headlines, ``galloper_read_vs_rs`` and
``galloper_degraded_read_vs_rs``: how many times longer a Galloper file
takes to read than a Reed-Solomon one, failure-free and with one server
down.  At this shape — blocks of 140-170 bytes, pure call overhead —
Galloper's floor is the ratio of range reads per group (7 against 4);
lower is better.

Usage::

    PYTHONPATH=src python benchmarks/run_striped.py [--quick] [--out PATH]

``--quick`` shrinks the workload for CI smoke runs and only requires
``batch_*`` >= the per-group loop; a full run additionally requires the >=3x
acceptance bar on at least two of the three codes.  Exit status is
nonzero when the requirement fails.
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

from repro.cluster.topology import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.gf.kernels import SMALL_PRODUCT_ELEMS
from repro.storage import (
    DistributedFileSystem,
    RepairManager,
    StripedFileSystem,
    pipeline,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Top-level metrics of the trajectory file (what ``check_regression.py`` gates).
HEADLINE_KEYS = (
    "min_encode_speedup",
    "min_repair_speedup",
    "codes_at_3x",
    "galloper_read_vs_rs",
    "galloper_degraded_read_vs_rs",
)

#: Repetitions of each end-to-end whole-file read (fastest one is recorded).
READ_REPS = 21

CODES = {
    "rs": lambda: ReedSolomonCode(4, 2),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
}


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _stripe_width(code) -> int:
    """Widest stripe keeping one group's encode on the small-product path."""
    return max(4, (SMALL_PRODUCT_ELEMS - 1) // (code.n * code.N))


def bench_pipeline(name: str, code_factory, groups: int, reps: int) -> dict:
    """Per-group loop vs fused batch, byte-exact, for one code."""
    code = code_factory()
    stripe = _stripe_width(code)
    rng = np.random.default_rng(7)
    grids = [
        rng.integers(0, code.gf.order, size=(code.data_stripe_total, stripe)).astype(
            code.gf.dtype
        )
        for _ in range(groups)
    ]
    # Ragged tail: the last group is half-width, as in a real striped file.
    grids[-1] = grids[-1][:, : max(1, stripe // 2)].copy()

    # Warm the plan caches so both sides time the kernels, not the planner.
    code.compile_encode()
    per_group_blocks = [code.encode(g) for g in grids]
    batched_blocks = pipeline.batch_encode(code, grids)
    for a, b in zip(per_group_blocks, batched_blocks):
        assert np.array_equal(a, b), f"{name}: batched encode diverged from per-group"

    t_encode_loop = _best_of(lambda: [code.encode(g) for g in grids], reps)
    t_encode_batch = _best_of(lambda: pipeline.batch_encode(code, grids), reps)

    # Bulk repair: every group lost block 0 (the repair-storm shape).
    target = 0
    plan = code.repair_plan(target)
    availables = [
        {h: blocks[h] for h in plan.helpers} for blocks in per_group_blocks
    ]
    per_group_rebuilt = [
        code.reconstruct(target, available, plan)[0] for available in availables
    ]
    batched_rebuilt = pipeline.batch_reconstruct(code, target, plan.helpers, availables)
    for a, b, blocks in zip(per_group_rebuilt, batched_rebuilt, per_group_blocks):
        assert np.array_equal(a, b), f"{name}: batched repair diverged from per-group"
        assert np.array_equal(a, blocks[target]), f"{name}: repair did not rebuild block 0"

    t_repair_loop = _best_of(
        lambda: [code.reconstruct(target, a, plan)[0] for a in availables], reps
    )
    t_repair_batch = _best_of(
        lambda: pipeline.batch_reconstruct(code, target, plan.helpers, availables), reps
    )

    payload_mb = sum(g.nbytes for g in grids) / (1 << 20)
    return {
        "code": name,
        "groups": groups,
        "stripe": stripe,
        "encode_speedup": t_encode_loop / t_encode_batch,
        "repair_speedup": t_repair_loop / t_repair_batch,
        "encode_per_group_mb_s": payload_mb / t_encode_loop,
        "encode_batched_mb_s": payload_mb / t_encode_batch,
        "repair_per_group_s": t_repair_loop,
        "repair_batched_s": t_repair_batch,
    }


def _time_reads(stacks: dict) -> dict[str, float]:
    """Best-of-``READ_REPS`` whole-file read per code, byte-checked first.

    The codes are alternated call by call, so a slow phase of the box
    hits all of them alike and the cross-code ratios stay comparable.
    """
    best = dict.fromkeys(stacks, float("inf"))
    for name, (_, _, sfs, payload) in stacks.items():
        assert sfs.read_file("bench") == payload, f"{name}: read mismatch"
    for _ in range(READ_REPS):
        for name, (_, _, sfs, _) in stacks.items():
            t0 = time.perf_counter()
            sfs.read_file("bench")
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def bench_end_to_end(groups: int) -> list[dict]:
    """Full StripedFileSystem write/read/degraded-read/repair timings, one row per code."""
    rows = {name: {"code": name, "groups": groups} for name in CODES}
    stacks = {}
    for name, code_factory in CODES.items():
        probe = code_factory()
        stripe = _stripe_width(probe)
        block_bytes = probe.N * stripe * probe.gf.dtype.itemsize
        group_payload = probe.data_stripe_total * stripe * probe.gf.dtype.itemsize
        payload = np.random.default_rng(11).integers(
            0, 256, size=groups * group_payload - group_payload // 2, dtype=np.uint8
        ).tobytes()
        cluster = Cluster.homogeneous(max(30, 3 * probe.n))
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        t0 = time.perf_counter()
        sfs.write_file("bench", payload, code_factory, max_block_bytes=block_bytes)
        rows[name]["write_batched_s"] = time.perf_counter() - t0
        stacks[name] = (cluster, dfs, sfs, payload)

    for name, seconds in _time_reads(stacks).items():
        rows[name]["read_batched_s"] = seconds
    victims = {}
    for name, (cluster, dfs, _, _) in stacks.items():
        victims[name] = dfs.file("bench#g0000").server_of(0)
        cluster.fail(victims[name])
    for name, seconds in _time_reads(stacks).items():
        rows[name]["degraded_read_batched_s"] = seconds

    for name, (_, dfs, sfs, payload) in stacks.items():
        repair = RepairManager(dfs)
        t0 = time.perf_counter()
        repair.repair_server(victims[name])
        rows[name]["repair_server_batched_s"] = time.perf_counter() - t0
        assert sfs.read_file("bench") == payload, f"{name}: post-repair read mismatch"
    return list(rows.values())


def run(quick: bool) -> dict:
    groups = 16 if quick else 64
    reps = 3 if quick else 7
    rows = [bench_pipeline(n, f, groups, reps) for n, f in CODES.items()]
    e2e = bench_end_to_end(groups)
    reads = {row["code"]: row for row in e2e}
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quick": quick,
        "groups": groups,
        # Headline metrics: worst and best fused-pipeline speedups.
        "min_encode_speedup": min(r["encode_speedup"] for r in rows),
        "min_repair_speedup": min(r["repair_speedup"] for r in rows),
        "codes_at_3x": sum(
            1 for r in rows if r["encode_speedup"] >= 3.0 and r["repair_speedup"] >= 3.0
        ),
        # Time ratios, lower is better: the paper's code against the baseline.
        "galloper_read_vs_rs": reads["galloper"]["read_batched_s"] / reads["rs"]["read_batched_s"],
        "galloper_degraded_read_vs_rs": (
            reads["galloper"]["degraded_read_batched_s"] / reads["rs"]["degraded_read_batched_s"]
        ),
        "pipeline": rows,
        "end_to_end": e2e,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_striped.json",
        help="trajectory file to append the run to",
    )
    args = parser.parse_args(argv)

    record = run(args.quick)
    history: list[dict] = []
    previous: dict = {}
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
            history = previous.get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            previous, history = {}, []
    history.append(record)
    if args.quick and previous.get("min_encode_speedup") is not None:
        # Quick runs use a smaller workload whose speedups are not
        # comparable to the full bench; append to the trajectory (the
        # regression gate reads the latest quick run from there) but
        # keep the full-run headline metrics at the top level.
        headline = {k: previous[k] for k in HEADLINE_KEYS if k in previous}
    else:
        headline = {k: record[k] for k in HEADLINE_KEYS}
    payload = {**headline, "runs": history}
    args.out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"wrote {args.out}")
    for row in record["pipeline"]:
        print(
            f"  {row['code']:>9}: encode {row['encode_speedup']:5.2f}x "
            f"({row['encode_per_group_mb_s']:6.1f} -> {row['encode_batched_mb_s']:7.1f} MB/s)"
            f"  bulk repair {row['repair_speedup']:5.2f}x"
        )
    for row in record["end_to_end"]:
        print(
            f"  {row['code']:>9} end-to-end: write {row['write_batched_s']:.3f}s, "
            f"repair server {row['repair_server_batched_s']:.3f}s, "
            f"read {row['read_batched_s'] * 1e3:.2f} ms, "
            f"degraded read {row['degraded_read_batched_s'] * 1e3:.2f} ms"
        )
    print(
        f"  galloper vs rs: read {record['galloper_read_vs_rs']:.2f}x, "
        f"degraded read {record['galloper_degraded_read_vs_rs']:.2f}x (time ratios, lower is better)"
    )

    if record["min_encode_speedup"] < 1.0 or record["min_repair_speedup"] < 1.0:
        print("FAIL: batched pipeline slower than a loop of per-group codes-layer calls", file=sys.stderr)
        return 1
    if not args.quick and record["codes_at_3x"] < 2:
        print(
            "FAIL: need >=3x encode and bulk-repair speedups on at least two codes",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
