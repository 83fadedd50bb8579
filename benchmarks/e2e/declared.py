"""The benchmark's declared surface: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repo root carries the same lists; ``test_smoke.py``
checks the two agree, so a metric cannot be printed without being declared
or declared without being printed.
"""

from __future__ import annotations

CODE_NAMES = ("rs", "pyramid", "galloper")
IO_OPS = ("write", "read", "degraded_read", "repair", "extent_read")
RATE_STEPS = (750, 1500, 2250)
REFERENCE_RATE = 1500

IO_WORKLOADS = ("bulk_io", "striped_io")
SERVE_WORKLOADS = ("serve_zipf", "serve_chaos")
WORKLOADS = IO_WORKLOADS + SERVE_WORKLOADS

#: What the driver-facing result line carries for an end-to-end metric that
#: does not apply to the workload (the contract wants every declared metric
#: on every workload, as a non-zero number).  The full record written by
#: ``--out`` omits such a metric and the printed table shows ``n/a``.
NA_VALUE = 1.0

WORKLOAD_WHY = {
    "bulk_io": (
        "write/read/degraded read/repair of few large blocks: bytes moved dominate, so gf kernels, "
        "block-store CRC/copies and filesystem buffers do the work (paper Fig. 7/8 regime)"
    ),
    "striped_io": (
        "same cycle over hundreds of 16 KiB-block groups plus 4 KiB extents: per-call cost in codes, "
        "pipeline fusing and striped/filesystem bookkeeping dominates, kernels are noise"
    ),
    "serve_zipf": (
        "open-loop Poisson 8 KiB reads, Zipf(1.1), failure-free, three fixed rates bracketing Galloper's knee: "
        "sim dispatch, cache, coalescer and per-server FIFO do the work"
    ),
    "serve_chaos": (
        "closed-loop clients with diurnal load, flash crowd, gray server, latency spikes, a crash and repair "
        "as a tenant: resilient client, hedging, degraded reads and QoS carry the run"
    ),
}

# (name, unit, better, bound, workloads it applies to)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, WORKLOADS),
    ("peak_rss_MB", "MB", "lower", 0.10, WORKLOADS),
    ("write_MBps", "MB/s", "higher", 0.25, IO_WORKLOADS),
    ("read_MBps", "MB/s", "higher", 0.25, IO_WORKLOADS),
    ("degraded_read_MBps", "MB/s", "higher", 0.25, IO_WORKLOADS),
    ("repair_MBps", "MB/s", "higher", 0.25, IO_WORKLOADS),
    ("extent_read_kops", "kops/s", "higher", 0.25, ("striped_io",)),
    ("serve_rps_wall", "req/s", "higher", 0.25, SERVE_WORKLOADS),
    ("p99_sim_ms", "sim_ms", "lower", 0.25, ("serve_zipf",)),
    ("p99_gain_vs_rs", "ratio", "higher", 0.25, ("serve_zipf",)),
    ("max_rate_ok", "req/s/server", "higher", 0.0, ("serve_zipf",)),
    ("repair_done_sim_s", "sim_s", "lower", 0.25, ("serve_chaos",)),
)

IO_LAYERS_BY_OP = {
    "write": ("gf", "codes", "storage.pipeline", "storage.blockstore", "storage.filesystem", "storage.striped"),
    "read": ("storage.blockstore", "storage.resilient", "storage.filesystem", "storage.striped"),
    "degraded_read": (
        "gf", "codes", "storage.pipeline", "storage.blockstore", "storage.resilient",
        "storage.filesystem", "storage.striped",
    ),
    "repair": (
        "gf", "codes", "storage.pipeline", "storage.blockstore", "storage.resilient",
        "storage.filesystem", "storage.repair",
    ),
    "extent_read": ("storage.blockstore", "storage.resilient", "storage.filesystem", "storage.striped"),
}
SERVE_LAYERS = (
    "gf", "codes", "storage.blockstore", "storage.resilient", "storage.metrics",
    "serving.cache", "serving.coalesce", "serving.qos", "sim.schedule",
)
KERNEL_TIERS = ("copy", "direct-small", "packed-full", "packed-split", "xor", "native", "native-xor")
LADDER_RUNGS = ("gf.apply_", "codes.", "storage.pipeline.batch_")
LADDER_STEPS = ("encode", "decode", "reconstruct")


def _per_layer() -> tuple[tuple[str, str, str, tuple[str, ...]], ...]:
    """(name, unit, better, workloads it applies to) for every per-layer metric."""
    out: list[tuple[str, str, str, tuple[str, ...]]] = []
    io, serve, striped, chaos = IO_WORKLOADS, SERVE_WORKLOADS, ("striped_io",), ("serve_chaos",)

    # Ladder: each rung timed directly on the workload's own grids and blocks, tracing off.
    for rung in LADDER_RUNGS:
        for what in LADDER_STEPS:
            out.append((f"{rung}{what}_MBps", "MB/s", "higher", io))
    out.append(("storage.blockstore.put_MBps", "MB/s", "higher", io))
    out.append(("storage.resilient.get_MBps", "MB/s", "higher", io))
    for op in ("write", "read", "degraded_read", "repair"):
        out.append((f"eff.{op}", "ratio", "higher", io))

    # Per-code split of the end-to-end operations.
    for code in CODE_NAMES:
        for op in IO_OPS:
            if op == "extent_read":
                out.append((f"code.{code}.extent_read_kops", "kops/s", "higher", striped))
            else:
                out.append((f"code.{code}.{op}_MBps", "MB/s", "higher", io))
        out.append((f"codes.construct_ms.{code}", "ms", "lower", WORKLOADS))

    # Exact counts on *_io: these repeat exactly from run to run.
    for tier in KERNEL_TIERS:
        out.append((f"gf.tier_bytes_share.{tier}", "ratio", "higher", io))
    out.append(("codes.plan_cache_hit_ratio", "ratio", "higher", io))
    out.append(("storage.bytes_stored_per_user_byte", "ratio", "lower", io))
    out.append(("storage.disk_bytes_read_per_user_byte.degraded_read", "ratio", "lower", io))
    out.append(("storage.disk_bytes_read_per_user_byte.repair", "ratio", "lower", io))
    out.append(("storage.bytes_copied_per_user_byte", "ratio", "lower", io))
    out.append(("storage.zero_copy_share", "ratio", "higher", io))
    out.append(("storage.repair.blocks_rebuilt", "count", "higher", io))

    # Traced self time on *_io, per repetition, summed over the three codes.
    for op, layers in IO_LAYERS_BY_OP.items():
        applies = striped if op == "extent_read" else io
        for layer in layers:
            out.append((f"self_ms.{layer}.{op}", "ms", "lower", applies))
    out.append(("bench.trace_overhead_share", "ratio", "lower", WORKLOADS))

    # Serving, per code.
    for code in CODE_NAMES:
        for rate in RATE_STEPS:
            out.append((f"serving.p99_sim_ms.{code}.r{rate}", "sim_ms", "lower", ("serve_zipf",)))
        out.append((f"serving.cache_hit_ratio.{code}", "ratio", "higher", serve))
        out.append((f"serving.disk_ios_per_request.{code}", "ratio", "lower", serve))
        out.append((f"serving.disk_busy_cv.{code}", "ratio", "lower", serve))
        out.append((f"serving.rps_wall.{code}", "req/s", "higher", serve))
        out.append((f"serving.repair_done_sim_s.{code}", "sim_s", "lower", chaos))
    # Demoted from end-to-end on serve_chaos: across seeds they vary by more than any bound allows.
    out.append(("serving.p99_sim_ms.galloper.chaos", "sim_ms", "lower", chaos))
    out.append(("serving.p99_sim_ms.rs.chaos", "sim_ms", "lower", chaos))

    # Serving, over all three codes.
    out.append(("sim.events_per_request", "count", "lower", serve))
    out.append(("sim.events_per_wall_s", "1/s", "higher", serve))
    out.append(("serving.coalesced_share", "ratio", "higher", serve))
    out.append(("serving.hedges_fired", "count", "lower", serve))
    out.append(("serving.hedge_win_share", "ratio", "higher", serve))
    out.append(("serving.degraded_reads", "count", "lower", serve))
    out.append(("serving.qos.throttle_waits", "count", "lower", serve))
    out.append(("storage.resilient.retries", "count", "lower", serve))
    out.append(("storage.resilient.timeouts", "count", "lower", serve))
    out.append(("storage.resilient.client_hedged_reads", "count", "lower", serve))
    out.append(("serving.repair_blocks_rebuilt", "count", "higher", chaos))
    out.append(("serving.populate_ms_per_file", "ms", "lower", serve))
    out.append(("serving.disk_util_max", "ratio", "lower", serve))
    out.append(("serving.disk_wait_p99_sim_ms", "sim_ms", "lower", serve))
    out.append(("serving.p999_sim_ms", "sim_ms", "lower", serve))
    out.append(("bench.generator_lag_sim_ms", "sim_ms", "lower", serve))

    # Traced self time on serve_*: synchronous public calls under the coroutines.
    for layer in SERVE_LAYERS:
        out.append((f"self_s.{layer}.serve", "s", "lower", serve))
    out.append(("self_s.sim.dispatch_and_glue.serve", "s", "lower", serve))
    return tuple(out)


PER_LAYER = _per_layer()

E2E_UNITS = {name: unit for name, unit, _, _, _ in END_TO_END}
E2E_APPLIES = {name: applies for name, _, _, _, applies in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
LAYER_APPLIES = {name: applies for name, _, _, applies in PER_LAYER}


def benchmark_json(run_seconds: int) -> dict:
    """The exact content of ``BENCHMARK.json`` (``run.py --print-benchmark-json``)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
