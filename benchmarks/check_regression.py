"""CI regression gate: fresh benchmark run vs committed baselines.

Compares a fresh (quick) benchmark run against the headline metrics
recorded in ``BENCH_kernels.json`` / ``BENCH_striped.json`` at the
repository root.  All headline metrics are machine-independent *speedup
ratios* (batched vs per-group, warm vs cold cache), so the gate is
stable across CI runner generations — a 25% tolerance absorbs scheduler
noise while a real pipeline regression (a dropped fusion, a cache
bypass) shows up as a 2-5x collapse.

Two kinds of failure:

* **Regression** — a fresh headline ratio fell more than ``tolerance``
  below the committed baseline value.
* **Floor violation** — a ratio dropped below its absolute floor
  (``FLOORS``), regardless of what the baseline says; the batched
  pipeline must stay >= 2x no matter how stale the baseline is.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py --quick
    PYTHONPATH=src python benchmarks/check_regression.py --only kernels
    # testing hooks: compare pre-computed result files instead of running
    python benchmarks/check_regression.py --fresh-kernels k.json --fresh-striped s.json

Exit status 0 when every metric holds, 1 on any regression or floor
violation, 2 on usage/baseline errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Headline metrics per benchmark file: all dimensionless speedup ratios.
HEADLINE = {
    "kernels": (
        "plan_cache_speedup",
        "gf16_kernel_speedup",
        "gf16_encode_speedup",
        "xor_encode_speedup",
        "xor_repair_speedup",
        "native_wide_speedup",
        "native_wide_gbps",
        "crc32_native_gbps",
        "crc32_native_vs_zlib_1mib",
        "crc32_native_vs_zlib_2kib",
    ),
    # Batched-pipeline speedups, plus how many times longer a Galloper
    # file takes to read than a Reed-Solomon one (whole file, clean and
    # with one server down): time ratios, lower is better.
    "striped": (
        "min_encode_speedup",
        "min_repair_speedup",
        "galloper_read_vs_rs",
        "galloper_degraded_read_vs_rs",
    ),
    # Durability campaign: agreement with the analytic Markov model plus
    # the placement / locality orderings the reliability story rests on.
    # (pyramid_vs_rs_nines_gain is recorded but not gated — at equal
    # overhead the MDS code legitimately wins raw nines.)
    "reliability": (
        "analytic_agreement",
        "rack_placement_nines_gain",
        "spread_placement_nines_gain",
        "locality_repair_ratio",
        "locality_risk_ratio",
    ),
    # Serving gateway under Zipf traffic: latency SLOs (lower is
    # better), cache effectiveness and chaos availability.  The
    # galloper-vs-rs tail gain is the load-spreading story; chaos p99 is
    # recorded per code but gated only for Galloper (the code whose
    # serving behaviour this repo is about).
    "serving": (
        "p50_zipf_galloper",
        "p99_zipf_rs",
        "p99_zipf_galloper",
        "p99_chaos_galloper",
        "galloper_vs_rs_p99_gain",
        "cache_hit_ratio",
        "availability_chaos",
    ),
}

BASELINES = {
    "kernels": REPO_ROOT / "BENCH_kernels.json",
    "striped": REPO_ROOT / "BENCH_striped.json",
    "reliability": REPO_ROOT / "BENCH_reliability.json",
    "serving": REPO_ROOT / "BENCH_serving.json",
}

#: Metrics where *smaller* is healthier (latency percentiles, time
#: ratios): the regression test is inverted — a fresh value more than
#: ``tolerance`` *above* the baseline fails, and :data:`CEILINGS` bound
#: them absolutely the way :data:`FLOORS` bounds speedups.
LOWER_IS_BETTER = frozenset({
    "p50_zipf_galloper",
    "p99_zipf_rs",
    "p99_zipf_galloper",
    "p99_chaos_galloper",
    "galloper_read_vs_rs",
    "galloper_degraded_read_vs_rs",
})

#: Native-tier metrics exist only where a C toolchain (or a cached build
#: artifact) does.  When either the baseline or the fresh run reports
#: ``native_available: false`` these are skipped rather than failed —
#: the whole suite must stay green on compiler-less hosts.
#: The CRC-32 kernel additionally needs PCLMUL (``native_crc32_available``):
#: an ARM host builds the library without it and skips only those.
NATIVE_CRC32_METRICS = frozenset({
    "crc32_native_gbps",
    "crc32_native_vs_zlib_1mib",
    "crc32_native_vs_zlib_2kib",
})
NATIVE_METRICS = frozenset({"native_wide_speedup", "native_wide_gbps"}) | NATIVE_CRC32_METRICS

#: Per-family tolerance overrides.  Reliability headline values are loss
#: statistics over seeded Monte-Carlo campaigns: deterministic for a
#: given seed, but a legitimate change to the event stream (new failure
#: type, reordered draws) shifts them more than a timing ratio shifts —
#: the wider band still catches sign flips and structural collapses.
TOLERANCES = {"reliability": 0.5, "serving": 0.5}

#: Absolute floors: the batched pipeline's speedups must stay >= 2x even
#: if someone commits a slower baseline.
FLOORS = {
    "min_encode_speedup": 2.0,
    "min_repair_speedup": 2.0,
    "plan_cache_speedup": 2.0,
    "gf16_kernel_speedup": 2.0,
    # Acceptance bar for the XOR-schedule tier: >= 1.5x over the table
    # kernel on a GF(2^8) encode shape (measured ~6x; repair ~20x).
    "xor_encode_speedup": 1.5,
    "xor_repair_speedup": 2.0,
    # Acceptance bar for the native (generated-C) tier: >= 2x over the
    # best numpy tier on wide-stripe (k >= 50) encode, and an *absolute*
    # payload-throughput floor — the first machine-dependent floor in
    # this file, deliberately: the tier exists to deliver ISA-L-class
    # GB/s, and 1.0 GB/s is ~3x under what the AVX2 kernel measures on a
    # single 2020s x86 core, so only a real collapse (scalar fallback,
    # broken blocking) trips it.  Both skip on no-toolchain hosts.
    "native_wide_speedup": 2.0,
    "native_wide_gbps": 1.0,
    # The carry-less-multiply CRC-32 must at least halve what a block
    # store pays `zlib` to checksum 1 MiB rows (measured ~4x), and a store
    # with it bound must read one 2 KiB row no slower than a store
    # without: that is the guard for small verified reads (striped
    # extents, the serving path), where the call into the library costs
    # more than the kernel saves and the store therefore stays on `zlib`.
    # 0.9, not 1.0: the two sides then run the same code but for one size
    # test (0.97 measured), and two timings of the same code differ by
    # that much on a shared box.
    "crc32_native_vs_zlib_1mib": 2.0,
    "crc32_native_vs_zlib_2kib": 0.9,
    # Reliability campaign floors (full sweeps only): the simulator must
    # stay within ~3x of the analytic MTTDL on the validation config,
    # topology-aware placement must keep beating random under rack
    # failures, and locality must keep saving repair traffic and
    # shrinking the degraded window.
    "analytic_agreement": 0.30,
    "rack_placement_nines_gain": 0.05,
    "spread_placement_nines_gain": 0.05,
    "locality_repair_ratio": 1.3,
    "locality_risk_ratio": 1.05,
    # Serving gate (full sweeps only): the hot-stripe cache must keep
    # absorbing the Zipf head, chaos must not dent availability, and
    # Galloper's spread layout must *win* the clean-Zipf tail from RS at
    # equal overhead — the paper's thesis as a served system.  1.66 was
    # recorded once the gateway served rows instead of blocks (1.08
    # before); the floor sits the usual 25% under that, so a gateway
    # that falls back to one IO per stripe or whole-block hedges (gain
    # ~1.0-1.1) fails even against a baseline re-recorded to hide it.
    "cache_hit_ratio": 0.3,
    "availability_chaos": 0.99,
    "galloper_vs_rs_p99_gain": 1.25,
}

#: Absolute ceilings for lower-is-better metrics (sim seconds for the
#: latencies), applied on full sweeps like :data:`FLOORS`.  Generous:
#: the gate is the baseline comparison; ceilings only catch collapse (a
#: hedge storm or a queueing bug inflating the tail by orders of
#: magnitude).
CEILINGS = {
    "p50_zipf_galloper": 0.05,
    "p99_zipf_rs": 0.25,
    "p99_zipf_galloper": 0.25,
    "p99_chaos_galloper": 1.0,
    # Galloper's whole-file read makes 7 range reads per group against
    # Reed-Solomon's 4, so 1.75 is the floor of the first ratio (the
    # reads are what a small group's time is made of: assembling the
    # bytes costs the two codes about the same); a per-stripe read loop
    # (28 calls) or a full decode where a local repair would do put them
    # at 4-6.  Both are *time ratios*: they also rise when Reed-Solomon
    # gets faster, which is why the gate prints the two times behind
    # each (:func:`read_times`).
    "galloper_read_vs_rs": 2.5,
    "galloper_degraded_read_vs_rs": 3.0,
}

#: The ``end_to_end`` field each read-time ratio divides, Galloper's over
#: Reed-Solomon's.
RATIO_TIMES = {
    "galloper_read_vs_rs": "read_batched_s",
    "galloper_degraded_read_vs_rs": "degraded_read_batched_s",
}


def read_times(record: dict, metric: str) -> str:
    """``galloper X ms / rs Y ms``: the numerator and denominator of a read-time ratio.

    A ratio alone cannot say which side moved.  The times are in the
    record's ``end_to_end`` rows; the top level of a trajectory file has
    none, and its headline is the latest full run's.
    """
    rows = record.get("end_to_end")
    if rows is None:
        full = [run for run in record.get("runs", []) if not run.get("quick")]
        rows = full[-1].get("end_to_end", []) if full else []
    seconds = {row.get("code"): row.get(RATIO_TIMES[metric]) for row in rows}
    if seconds.get("galloper") is None or seconds.get("rs") is None:
        return "times not recorded"
    return f"galloper {seconds['galloper'] * 1e3:.3f} ms / rs {seconds['rs'] * 1e3:.3f} ms"


def compare(
    name: str, baseline: dict, fresh: dict, tolerance: float = 0.25, floors: bool = True
) -> list[str]:
    """Return human-readable failure lines (empty = metrics hold).

    ``floors=False`` skips the absolute >=2x checks — used for quick
    smoke workloads, whose tiny group counts never reach the fused
    pipeline's steady-state speedups.

    Native-tier metrics (:data:`NATIVE_METRICS`) are compared only when
    both records were measured with a native backend; a run on a
    compiler-less host records ``native_available: false`` and is
    neither penalised for the missing metrics nor allowed to hide a
    regression behind them (availability itself is printed by ``main``).
    The CRC-32 ones among them likewise need ``native_crc32_available``
    on both sides.
    """
    skip = frozenset()
    if not (baseline.get("native_available", False) and fresh.get("native_available", False)):
        skip = NATIVE_METRICS
    elif not (baseline.get("native_crc32_available", False)
              and fresh.get("native_crc32_available", False)):
        skip = NATIVE_CRC32_METRICS
    failures: list[str] = []
    for metric in HEADLINE[name]:
        if metric in skip:
            continue
        if metric not in baseline:
            failures.append(
                f"{name}: baseline {BASELINES[name].name} is missing headline metric "
                f"{metric!r} — re-record it with `python benchmarks/run_{name}.py`"
            )
            continue
        if metric not in fresh:
            failures.append(f"{name}: fresh run is missing headline metric {metric!r}")
            continue
        try:
            base = float(baseline[metric])
            got = float(fresh[metric])
        except (TypeError, ValueError):
            failures.append(
                f"{name}.{metric}: non-numeric value "
                f"(baseline {baseline[metric]!r}, fresh {fresh[metric]!r})"
            )
            continue
        if metric in LOWER_IS_BETTER:
            allowed = base * (1.0 + tolerance)
            if got > allowed:
                failures.append(
                    f"{name}.{metric}: {got:.4f} > {allowed:.4f} "
                    f"(baseline {base:.4f}, tolerance {tolerance:.0%}, lower is better)"
                )
            ceiling = CEILINGS.get(metric)
            if floors and ceiling is not None and got > ceiling:
                failures.append(
                    f"{name}.{metric}: {got:.4f} above absolute ceiling {ceiling:.3f}"
                )
            continue
        allowed = base * (1.0 - tolerance)
        if got < allowed:
            failures.append(
                f"{name}.{metric}: {got:.3f} < {allowed:.3f} "
                f"(baseline {base:.3f}, tolerance {tolerance:.0%})"
            )
        floor = FLOORS.get(metric)
        if floors and floor is not None and got < floor:
            failures.append(f"{name}.{metric}: {got:.3f} below absolute floor {floor:g}x")
    return failures


def baseline_record(name: str, data: dict, quick: bool) -> dict | None:
    """Pick the baseline record a fresh run should be compared against.

    The trajectory files carry full-run metrics at the top level; quick
    runs (smaller payloads / group counts) reach structurally different
    speedups, so a quick fresh run must compare against the latest
    recorded *quick* run in the history, not the full baseline.  Returns
    ``None`` when no matching baseline exists.
    """
    if not quick:
        return data
    for run in reversed(data.get("runs", [])):
        if run.get("quick"):
            return run
    return None


def measure_kernels(quick: bool) -> dict:
    """Run the kernel benchmark in-process and return its record."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import run_kernels
    finally:
        sys.path.pop(0)
    return run_kernels.run(quick)


def measure_striped(quick: bool) -> dict:
    """Run the striped-pipeline benchmark in-process and return its record."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import run_striped
    finally:
        sys.path.pop(0)
    return run_striped.run(quick)


def measure_reliability(quick: bool) -> dict:
    """Run the durability campaign in-process and return its record."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import run_reliability
    finally:
        sys.path.pop(0)
    return run_reliability.run(quick, seed=2026)


def measure_serving(quick: bool) -> dict:
    """Run the serving sweep in-process and return its record."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import run_serving
    finally:
        sys.path.pop(0)
    return run_serving.run(quick, seed=2026)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: missing file {path}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="fractional drop below baseline that counts as a regression (default 0.25)",
    )
    parser.add_argument("--quick", action="store_true", help="small CI smoke workloads")
    parser.add_argument(
        "--only", choices=sorted(HEADLINE), help="gate just one benchmark family"
    )
    parser.add_argument(
        "--fresh-kernels", type=Path,
        help="use a pre-computed kernels result file instead of benchmarking",
    )
    parser.add_argument(
        "--fresh-striped", type=Path,
        help="use a pre-computed striped result file instead of benchmarking",
    )
    parser.add_argument(
        "--fresh-reliability", type=Path,
        help="use a pre-computed reliability result file instead of benchmarking",
    )
    parser.add_argument(
        "--fresh-serving", type=Path,
        help="use a pre-computed serving result file instead of benchmarking",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    families = [args.only] if args.only else sorted(HEADLINE)
    failures: list[str] = []
    for name in families:
        baseline = baseline_record(name, _load(BASELINES[name]), args.quick)
        if baseline is None:
            raise SystemExit(
                f"error: {BASELINES[name].name} has no quick baseline run; record one with "
                f"`PYTHONPATH=src python benchmarks/run_{name}.py --quick`"
            )
        precomputed = {
            "kernels": args.fresh_kernels,
            "striped": args.fresh_striped,
            "reliability": args.fresh_reliability,
            "serving": args.fresh_serving,
        }[name]
        measure = {
            "kernels": measure_kernels,
            "striped": measure_striped,
            "reliability": measure_reliability,
            "serving": measure_serving,
        }[name]
        fresh = _load(precomputed) if precomputed else measure(args.quick)
        if precomputed and args.quick:
            # A trajectory file carries the full-run headline at its top
            # level; when gating in quick mode, compare quick-vs-quick by
            # pulling the latest quick record from its history.
            fresh = baseline_record(name, fresh, quick=True) or fresh
        tolerance = TOLERANCES.get(name, args.tolerance)
        fails = compare(name, baseline, fresh, tolerance=tolerance, floors=not args.quick)
        failures.extend(fails)
        for metric in HEADLINE[name]:
            base = baseline.get(metric)
            got = fresh.get(metric)
            if isinstance(base, (int, float)) and isinstance(got, (int, float)):
                print(f"{name}.{metric}: fresh {got:.4f} vs baseline {base:.4f}")
                if metric in RATIO_TIMES:
                    print(f"    fresh {read_times(fresh, metric)}; baseline {read_times(baseline, metric)}")
    if failures:
        print("\nREGRESSION GATE FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
