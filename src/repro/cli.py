"""Command-line interface: ``python -m repro <command>``.

Brings the library to the shell the way a storage tool would be used:

* ``info``    — describe a code: layout, weights, locality, durability.
* ``encode``  — encode a local file into per-block files + a manifest.
* ``decode``  — recover the original file from (a subset of) block files.
* ``repair``  — rebuild one missing block file from the survivors.
* ``analyze`` — reliability / availability report for a code.
* ``serve``   — drive a multi-tenant Zipf workload through the serving
  gateway (optionally with chaos and a Chrome-trace export).
* ``figures`` — regenerate the paper's experiment tables.
* ``stats``   — run a seeded striped workload (batched write, read,
  server failure + bulk repair) and dump the coding-plan cache and
  batched-pipeline counters as JSON.

The on-disk layout written by ``encode`` is one ``block_XXX.bin`` per
coded block plus ``manifest.json`` holding the code parameters (including
exact rational weights), so ``decode``/``repair`` reconstruct the exact
same generator.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import DecodingError, ErasureCode
from repro.core import GalloperCode

MANIFEST_NAME = "manifest.json"


class CLIError(Exception):
    """User-facing CLI failure."""


# --------------------------------------------------------------- code setup


def _parse_performances(text: str | None) -> list[float] | None:
    if not text:
        return None
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CLIError(f"bad --performances value {text!r}: {exc}") from None


def build_code(args) -> ErasureCode:
    """Construct a code from CLI arguments."""
    kind = args.code
    if kind == "rs":
        return ReedSolomonCode(args.k, args.g)
    if kind == "pyramid":
        return PyramidCode(args.k, args.l, args.g, all_symbol=args.all_symbol)
    if kind == "galloper":
        return GalloperCode(
            args.k,
            args.l,
            args.g,
            performances=_parse_performances(getattr(args, "performances", None)),
            all_symbol=args.all_symbol,
        )
    raise CLIError(f"unknown code {kind!r}")


def _add_code_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--code", choices=("galloper", "pyramid", "rs"), default="galloper")
    parser.add_argument("--k", type=int, default=4, help="data blocks (default 4)")
    parser.add_argument("--l", type=int, default=2, help="local parity blocks (default 2)")
    parser.add_argument("--g", type=int, default=1, help="global parity blocks (default 1)")
    parser.add_argument(
        "--all-symbol", action="store_true", help="all-symbol locality (extra GP-group parity)"
    )
    parser.add_argument(
        "--performances",
        help="comma-separated server performance vector for Galloper weights",
    )


# ------------------------------------------------------------------ manifest


def code_to_manifest(code: ErasureCode, original_size: int, stripe_size: int) -> dict:
    entry = {
        "original_size": original_size,
        "stripe_size": stripe_size,
        "n": code.n,
        "N": code.N,
        "k": code.k,
    }
    if isinstance(code, GalloperCode):
        entry["code"] = "galloper"
        entry["l"] = code.l
        entry["g"] = code.g
        entry["all_symbol"] = code.structure.all_symbol
        entry["weights"] = [str(w) for w in code.weights]
    elif isinstance(code, PyramidCode):
        entry["code"] = "pyramid"
        entry["l"] = code.l
        entry["g"] = code.g
        entry["all_symbol"] = code.structure.all_symbol
    elif isinstance(code, ReedSolomonCode):
        entry["code"] = "rs"
        entry["r"] = code.r
    else:
        raise CLIError(f"cannot serialize code {type(code).__name__}")
    return entry


def code_from_manifest(manifest: dict) -> ErasureCode:
    kind = manifest["code"]
    if kind == "rs":
        return ReedSolomonCode(manifest["k"], manifest["r"])
    if kind == "pyramid":
        return PyramidCode(
            manifest["k"], manifest["l"], manifest["g"], all_symbol=manifest.get("all_symbol", False)
        )
    if kind == "galloper":
        return GalloperCode(
            manifest["k"],
            manifest["l"],
            manifest["g"],
            weights=[Fraction(w) for w in manifest["weights"]],
            all_symbol=manifest.get("all_symbol", False),
        )
    raise CLIError(f"manifest names unknown code {kind!r}")


def _read_manifest(directory: Path) -> dict:
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise CLIError(f"no {MANIFEST_NAME} in {directory}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    if not isinstance(manifest, dict) or not {"code", "stripe_size", "original_size"} <= manifest.keys():
        raise CLIError(f"{path} is not a block manifest")
    return manifest


def _block_path(directory: Path, block: int) -> Path:
    return directory / f"block_{block:03d}.bin"


# ------------------------------------------------------------------ commands


def cmd_info(args, out=None) -> int:
    out = out or sys.stdout
    code = build_code(args)
    st = getattr(code, "structure", None)
    print(f"{code!r}", file=out)
    print(f"  blocks           : {code.n} ({code.N} stripes each)", file=out)
    print(f"  storage overhead : {code.storage_overhead():.3f}x", file=out)
    if st is not None:
        print(f"  failure tolerance: any {st.failure_tolerance()} blocks", file=out)
    print(f"  data parallelism : {code.parallelism()} / {code.n} servers", file=out)
    for info in code.block_infos:
        bar = "#" * info.data_stripes + "." * (info.total_stripes - info.data_stripes)
        plan = code.repair_plan(info.index)
        print(
            f"  block {info.index:>2} [{bar}] {info.role:<13} "
            f"data {info.data_stripes}/{info.total_stripes}, repair reads {plan.blocks_read}",
            file=out,
        )
    return 0


def cmd_encode(args, out=None) -> int:
    out = out or sys.stdout
    src = Path(args.input)
    if not src.exists():
        raise CLIError(f"input file {src} not found")
    dest = Path(args.output_dir)
    dest.mkdir(parents=True, exist_ok=True)
    code = build_code(args)

    payload = np.frombuffer(src.read_bytes(), dtype=np.uint8)
    total = code.data_stripe_total
    original_size = payload.size
    padded = max(total, int(np.ceil(original_size / total) * total))
    if padded != original_size:
        payload = np.concatenate([payload, np.zeros(padded - original_size, dtype=np.uint8)])
    grid = payload.reshape(total, padded // total)
    blocks = code.encode(grid)
    for b in range(code.n):
        _block_path(dest, b).write_bytes(blocks[b].tobytes())
    manifest = code_to_manifest(code, original_size, grid.shape[1])
    (dest / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    print(
        f"encoded {original_size} bytes -> {code.n} blocks of "
        f"{code.N * grid.shape[1]} bytes in {dest}",
        file=out,
    )
    return 0


def _load_blocks(directory: Path, code: ErasureCode, stripe_size: int, exclude: set[int]):
    available = {}
    for b in range(code.n):
        if b in exclude:
            continue
        path = _block_path(directory, b)
        if not path.exists():
            continue
        raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
        if raw.size != code.N * stripe_size:
            raise CLIError(
                f"{path} holds {raw.size} bytes, the manifest says {code.N * stripe_size}"
            )
        available[b] = raw.reshape(code.N, stripe_size)
    return available


def cmd_decode(args, out=None) -> int:
    out = out or sys.stdout
    directory = Path(args.block_dir)
    manifest = _read_manifest(directory)
    code = code_from_manifest(manifest)
    exclude = {int(x) for x in args.exclude.split(",")} if args.exclude else set()
    available = _load_blocks(directory, code, manifest["stripe_size"], exclude)
    grid = code.decode(available)
    flat = grid.reshape(-1)[: manifest["original_size"]]
    Path(args.output).write_bytes(flat.astype(np.uint8).tobytes())
    print(
        f"decoded {manifest['original_size']} bytes from {len(available)} blocks "
        f"-> {args.output}",
        file=out,
    )
    return 0


def cmd_repair(args, out=None) -> int:
    out = out or sys.stdout
    directory = Path(args.block_dir)
    manifest = _read_manifest(directory)
    code = code_from_manifest(manifest)
    target = args.block
    if not 0 <= target < code.n:
        raise CLIError(f"block {target} out of range (code has {code.n} blocks)")
    available = _load_blocks(directory, code, manifest["stripe_size"], exclude={target})
    failed = {b for b in range(code.n) if b not in available}
    plan = code.repair_plan(target, failed)
    rebuilt, plan = code.reconstruct(target, available, plan)
    _block_path(directory, target).write_bytes(rebuilt.tobytes())
    print(
        f"rebuilt block {target} from blocks {list(plan.helpers)} "
        f"({plan.bytes_read(rebuilt.nbytes)} bytes read)",
        file=out,
    )
    return 0


def cmd_analyze(args, out=None) -> int:
    out = out or sys.stdout
    from repro.analysis import (
        annual_repair_traffic_bytes,
        availability,
        average_repair_reads,
        durability_nines,
        mttdl_years,
        survival_profile,
    )

    code = build_code(args)
    profile = survival_profile(code)
    print(f"{code!r}", file=out)
    print(f"  guaranteed tolerance : {profile.guaranteed_tolerance()} failures", file=out)
    for j in range(1, len(profile.survivable)):
        frac = profile.survival_fraction(j)
        print(f"  survive {j} failures   : {frac:.4%}", file=out)
    print(f"  MTTDL                : {mttdl_years(code):.3e} years "
          f"({durability_nines(code):.1f} nines)", file=out)
    print(f"  avg repair reads     : {average_repair_reads(code):.2f} blocks", file=out)
    print(f"  repair traffic       : {annual_repair_traffic_bytes(code) / (1 << 30):.2f} GiB/yr/stripe",
          file=out)
    rep = availability(code, args.p)
    print(f"  availability (p={args.p}) : normal {rep.normal_read:.6f}, "
          f"degraded {rep.degraded_read:.6f}, lost {rep.unavailable:.2e}", file=out)
    print(f"  expected map servers : {rep.expected_parallelism:.2f} / {code.n}", file=out)
    return 0


def run_striped_stats(code_factory, groups: int = 16, block_bytes: int = 4096, seed: int = 0) -> dict:
    """Seeded in-memory striped workload; returns the stats payload.

    Writes a ~``groups``-group striped file (with a ragged tail) through
    the batched pipeline, reads it back, fails the server holding the
    first group's block 0, bulk-repairs it, and reports the shared
    code's plan-cache counters plus the filesystem metrics.  Importable
    by benchmarks and tests; ``repro stats`` prints it as JSON.
    ``derived.zero_copy_fraction`` is the share of written and read-back
    payload bytes that moved as views (1.0 over GF(2^8), ragged tail
    included); the rest were widened or narrowed between bytes and a
    wider field's symbols — the only copy ``bytes_copied`` counts.
    """
    from repro.cluster.topology import Cluster
    from repro.gf import kernel_bytes_info, kernel_selection_info, reset_kernel_selection
    from repro.storage import DistributedFileSystem, RepairManager, StripedFileSystem
    from repro.storage.striped import group_name

    # Zero the process-wide tier counters so the payload reflects this
    # workload alone (deterministic across repeated invocations).
    reset_kernel_selection()
    probe = code_factory()
    itemsize = probe.gf.dtype.itemsize
    stripe = max(1, block_bytes // (probe.N * itemsize))
    group_payload = probe.data_stripe_total * stripe * itemsize
    size = groups * group_payload - group_payload // 2  # force a ragged tail
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    cluster = Cluster.homogeneous(max(30, 3 * probe.n))
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    meta = sfs.write_file("stats", payload, code_factory, max_block_bytes=block_bytes)
    if sfs.read_file("stats") != payload:
        raise CLIError("stats workload read-back mismatch")
    first = dfs.file(group_name("stats", 0))
    code = first.code

    victim = first.server_of(0)
    cluster.fail(victim)
    repaired = RepairManager(dfs).repair_server(victim)
    if sfs.read_file("stats") != payload:
        raise CLIError("stats workload read-back mismatch after repair")

    cache = code.plan_cache_info()
    lookups = cache["hits"] + cache["misses"]
    dfs.metrics.set_gauge("plan_cache_hit_ratio", cache["hits"] / lookups if lookups else 0.0)
    snap = dfs.metrics.snapshot()
    applies = snap.get("batch_applies", 0)
    zero = snap.get("bytes_moved_zero_copy", 0)
    copied = snap.get("bytes_copied", 0)
    return {
        "code": repr(code),
        "groups": meta.group_count,
        "payload_bytes": size,
        "blocks_rebuilt": repaired.blocks_rebuilt,
        "plan_cache": cache,
        "kernel_selection": kernel_selection_info(),
        "kernel_bytes": kernel_bytes_info(),
        "metrics": snap,
        "metrics_all": dfs.metrics.snapshot_all(),
        "serving": run_serving_stats(code_factory, seed=seed),
        "derived": {
            "groups_per_apply": snap.get("batch_groups", 0) / applies if applies else 0.0,
            "zero_copy_fraction": zero / (zero + copied) if zero + copied else 0.0,
        },
    }


def run_serving_stats(code_factory, clients: int = 64, seed: int = 0) -> dict:
    """Small seeded serving workload; returns the gateway counters.

    Same stable-schema contract as the striped section: every counter
    key is present for every code family, so dashboards diffing
    ``repro stats`` output across codes see value changes, not schema
    changes.
    """
    from repro.cluster.placement import RandomPlacement
    from repro.cluster.topology import Cluster
    from repro.serving import (
        GatewayConfig,
        ServingGateway,
        WorkloadGenerator,
        WorkloadSpec,
        populate,
    )
    from repro.storage import DistributedFileSystem

    spec = WorkloadSpec(
        tenants=("alpha", "beta"),
        files_per_tenant=8,
        clients=clients,
        requests_per_client=2,
        read_size=2048,
        file_size=16384,
        think_time=0.01,
        seed=seed,
    )
    cluster = Cluster.homogeneous(20)
    dfs = DistributedFileSystem(cluster)
    gateway = ServingGateway(dfs, config=GatewayConfig(tenant_limits={"repair": 4}))
    populate(gateway, spec, code_factory, placement=RandomPlacement(seed=seed))
    result = WorkloadGenerator(spec).run(gateway)
    payload = dict(gateway.counters())
    payload["requests"] = len(result.latencies)
    payload["failures"] = result.failures
    payload["p99"] = result.percentile(99)
    payload["cache_hit_ratio"] = gateway.cache.hit_ratio()
    return payload


def cmd_stats(args, out=None) -> int:
    out = out or sys.stdout
    result = run_striped_stats(
        lambda: build_code(args),
        groups=args.groups,
        block_bytes=args.block_bytes,
        seed=args.seed,
    )
    print(json.dumps(result, indent=2), file=out)
    return 0


def cmd_serve(args, out=None) -> int:
    """Drive a Zipf workload through the serving gateway; print JSON."""
    out = out or sys.stdout
    import contextlib

    from repro.cluster.placement import RandomPlacement
    from repro.cluster.topology import Cluster
    from repro.faults.model import FaultModel, GraySlowdown, LatencySpikes
    from repro.obs import Tracer, use_tracer
    from repro.serving import (
        FlashCrowd,
        GatewayConfig,
        ServingGateway,
        WorkloadGenerator,
        WorkloadSpec,
        populate,
    )
    from repro.storage import DistributedFileSystem

    fault_model = None
    if args.chaos:
        fault_model = FaultModel(
            GraySlowdown(servers=frozenset({1}), extra_latency=0.08),
            LatencySpikes(rate=0.002, latency=0.05),
            seed=args.seed,
        )
    spec = WorkloadSpec(
        tenants=tuple(args.tenants.split(",")),
        files_per_tenant=args.files,
        clients=args.clients,
        requests_per_client=args.requests,
        read_size=args.read_size,
        file_size=args.file_size,
        zipf_s=args.zipf,
        think_time=args.think,
        diurnal_amplitude=0.4,
        diurnal_period=4.0,
        flash_crowd=FlashCrowd(start=2.0, end=4.0, fraction=0.5) if args.flash_crowd else None,
        seed=args.seed,
    )
    cluster = Cluster.homogeneous(args.servers)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    gateway = ServingGateway(
        dfs,
        config=GatewayConfig(
            hedge_threshold=0.005,
            max_inflight_per_tenant=spec.clients,
            tenant_limits={"repair": 4},
        ),
    )
    populate(gateway, spec, lambda: build_code(args), placement=RandomPlacement(seed=args.seed))
    if args.chaos:
        # Mid-run crash: reconstruction competes with foreground reads
        # through the same tenant throttle and disk queues.
        def crash() -> None:
            cluster.fail(0)
            gateway.loop.create_task(gateway.repair_server(0), name="repair")

        gateway.loop.sim.schedule(2.0, crash, name="crash")

    tracer = Tracer() if args.trace else None
    with use_tracer(tracer) if tracer else contextlib.nullcontext():
        result = WorkloadGenerator(spec).run(gateway)
    summary = {
        "code": repr(build_code(args)),
        "scenario": "chaos" if args.chaos else "zipf",
        "clients": spec.clients,
        "requests": len(result.latencies),
        "failures": result.failures,
        "availability": result.availability(),
        "p50": result.percentile(50),
        "p95": result.percentile(95),
        "p99": result.percentile(99),
        "sim_duration": result.duration,
        "cache_hit_ratio": gateway.cache.hit_ratio(),
        "counters": gateway.counters(),
    }
    print(json.dumps(summary, indent=2), file=out)
    if tracer is not None:
        tracer.export(args.trace)
        print(f"wrote {len(tracer.spans)} spans to {args.trace}", file=out)
        print("open in https://ui.perfetto.dev or chrome://tracing", file=out)
    return 0


# ------------------------------------------------------------- observability


def run_traced_striped(code_factory, groups: int = 8, block_bytes: int = 4096, seed: int = 0) -> dict:
    """Seeded striped workload exercising every traced path.

    Ordered so the span tree covers the full block lifecycle: batched
    write (encode → place → store), clean read, server failure, a
    **degraded** read off the surviving blocks, bulk repair, and a final
    verify read.  Returns summary facts for the CLI to print; run it
    under :func:`repro.obs.use_tracer` to capture the trace.
    """
    from repro.cluster.topology import Cluster
    from repro.storage import DistributedFileSystem, RepairManager, StripedFileSystem
    from repro.storage.striped import group_name

    probe = code_factory()
    itemsize = probe.gf.dtype.itemsize
    stripe = max(1, block_bytes // (probe.N * itemsize))
    group_payload = probe.data_stripe_total * stripe * itemsize
    size = groups * group_payload - group_payload // 2
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()

    cluster = Cluster.homogeneous(max(30, 3 * probe.n))
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    meta = sfs.write_file("traced", payload, code_factory, max_block_bytes=block_bytes)
    if sfs.read_file("traced") != payload:
        raise CLIError("traced workload clean read mismatch")
    victim = dfs.file(group_name("traced", 0)).server_of(0)
    cluster.fail(victim)
    if sfs.read_file("traced") != payload:
        raise CLIError("traced workload degraded read mismatch")
    repaired = RepairManager(dfs).repair_server(victim)
    if sfs.read_file("traced") != payload:
        raise CLIError("traced workload post-repair read mismatch")
    return {
        "groups": meta.group_count,
        "payload_bytes": size,
        "victim": victim,
        "blocks_rebuilt": repaired.blocks_rebuilt,
        "degraded_reads": dfs.metrics.snapshot().get("degraded_reads", 0),
    }


def run_traced_mapreduce(groups: int = 4, block_bytes: int = 4096, seed: int = 0) -> dict:
    """Seeded wordcount over a striped Galloper file, for ``repro trace``."""
    from repro.cluster.topology import Cluster
    from repro.core import GalloperCode
    from repro.mapreduce.job import JobSpec
    from repro.mapreduce.runtime import MapReduceRuntime
    from repro.storage import DistributedFileSystem, StripedFileSystem
    from repro.storage.striped import StripedInputFormat

    rng = np.random.default_rng(seed)
    words = [b"stripe", b"parity", b"repair", b"locality"]
    text = b" ".join(words[i] for i in rng.integers(0, len(words), size=groups * 512)) + b"\n"

    cluster = Cluster.homogeneous(30)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    sfs.write_file("words", text, lambda: GalloperCode(4, 2, 1), max_block_bytes=block_bytes)

    def mapper(record: bytes):
        for w in record.split():
            yield w.decode(), 1

    spec = JobSpec(name="wordcount", input_file="words", mapper=mapper,
                   reducer=lambda key, values: sum(values))
    result = MapReduceRuntime(sfs).run(spec, StripedInputFormat())
    return {
        "job": result.job,
        "tasks": len(result.tasks),
        "job_time": result.job_time,
        "distinct_words": len(result.output or ()),
    }


def cmd_trace(args, out=None) -> int:
    out = out or sys.stdout
    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        if args.workload == "striped":
            summary = run_traced_striped(
                lambda: build_code(args),
                groups=args.groups,
                block_bytes=args.block_bytes,
                seed=args.seed,
            )
        else:
            summary = run_traced_mapreduce(
                groups=args.groups, block_bytes=args.block_bytes, seed=args.seed
            )
    tracer.export(args.out)
    print(f"wrote {len(tracer.spans)} spans to {args.out}", file=out)
    print("open in https://ui.perfetto.dev or chrome://tracing", file=out)
    for cat, count in tracer.categories().items():
        print(f"  {cat or 'default':<18} {count:>6} spans", file=out)
    print(json.dumps(summary, indent=2), file=out)
    return 0


def cmd_metrics(args, out=None) -> int:
    out = out or sys.stdout
    from repro.obs import profiled

    with profiled() as profiler:
        result = run_striped_stats(
            lambda: build_code(args),
            groups=args.groups,
            block_bytes=args.block_bytes,
            seed=args.seed,
        )
    payload = {
        "code": result["code"],
        "metrics": result["metrics_all"],
        "plan_cache": result["plan_cache"],
        "kernel_profile": profiler.snapshot(),
        "derived": result["derived"],
    }
    print(json.dumps(payload, indent=2), file=out)
    return 0


FIGURES = {
    "fig1": "fig1_locality",
    "fig2": "fig2_parallelism",
    "fig7a": "fig7_encoding",
    "fig7b": "fig7_decoding",
    "fig8": "fig8_reconstruction",
    "fig9": "fig9_mapreduce",
    "fig10": "fig10_heterogeneous",
    "allsymbol": "extension_all_symbol_locality",
    "reliability": "extension_reliability",
    "storm": "extension_recovery_storm",
    "degraded": "extension_degraded_read",
    "updates": "extension_update_cost",
    "campaign": "extension_durability_campaign",
    "speculation": "extension_speculation",
    "racks": "extension_rack_traffic",
    "placement": "ablation_group_placement",
    "weights": "ablation_weight_assignment",
    "rotation": "ablation_rotation_wakeups",
}


def cmd_reliability(args, out=None) -> int:
    """Years-scale durability campaign (code x placement x lifetime)."""
    out = out or sys.stdout
    from repro.reliability import run_reliability_campaign

    record = run_reliability_campaign(quick=not args.full, seed=args.seed)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}", file=out)
    summary = {
        "configs": len(record["configs"]),
        "codes": record["codes"],
        "placements": record["placements"],
        "lifetimes": record["lifetimes"],
        "analytic_agreement": record["analytic_agreement"],
        "rack_placement_nines_gain": record["rack_placement_nines_gain"],
        "spread_placement_nines_gain": record["spread_placement_nines_gain"],
        "locality_repair_ratio": record["locality_repair_ratio"],
        "locality_risk_ratio": record["locality_risk_ratio"],
        "pyramid_vs_rs_nines_gain": record["pyramid_vs_rs_nines_gain"],
        "nines": {
            f"{c['code']}/{c['placement']}/{c['lifetime']}": round(c["nines"], 3)
            for c in record["configs"]
        },
    }
    print(json.dumps(summary, indent=2), file=out)
    return 0


def cmd_figures(args, out=None) -> int:
    out = out or sys.stdout
    import repro.bench as bench

    wanted = args.only.split(",") if args.only else list(FIGURES)
    for name in wanted:
        if name not in FIGURES:
            raise CLIError(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
        fn = getattr(bench, FIGURES[name])
        kwargs = {}
        if name in ("fig7a", "fig7b", "fig8"):
            kwargs["block_bytes"] = args.block_mb << 20
        table = fn(**kwargs)
        print(table.render(), file=out)
        print(file=out)
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Galloper codes (ICDCS 2018) — encode, repair and analyze",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a code's layout and repair costs")
    _add_code_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("encode", help="encode a local file into block files")
    p.add_argument("input")
    p.add_argument("output_dir")
    _add_code_args(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover the original file from block files")
    p.add_argument("block_dir")
    p.add_argument("output")
    p.add_argument("--exclude", help="comma-separated block ids to ignore (simulate loss)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("repair", help="rebuild one missing block file")
    p.add_argument("block_dir")
    p.add_argument("block", type=int)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("analyze", help="reliability / availability report")
    _add_code_args(p)
    p.add_argument("--p", type=float, default=0.01, help="per-server unavailability (default 0.01)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("figures", help="regenerate the paper's experiment tables")
    p.add_argument("--only", help="comma-separated figure ids (e.g. fig9,fig10)")
    p.add_argument("--block-mb", type=int, default=2, help="block MB for timing figures")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "reliability", help="years-scale durability campaign (codes x placements x lifetimes)"
    )
    p.add_argument("--full", action="store_true", help="full sweep (minutes) instead of quick")
    p.add_argument("--seed", type=int, default=2026, help="campaign seed (default 2026)")
    p.add_argument("--out", help="write the full campaign record as JSON to this path")
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("serve", help="multi-tenant Zipf workload through the serving gateway")
    _add_code_args(p)
    p.add_argument("--clients", type=int, default=500, help="closed-loop clients (default 500)")
    p.add_argument("--requests", type=int, default=3, help="reads per client (default 3)")
    p.add_argument("--tenants", default="alpha,beta", help="comma-separated tenant names")
    p.add_argument("--files", type=int, default=32, help="files per tenant (default 32)")
    p.add_argument("--read-size", type=int, default=4096, help="bytes per read (default 4096)")
    p.add_argument("--file-size", type=int, default=65536, help="bytes per file (default 65536)")
    p.add_argument("--zipf", type=float, default=1.1, help="Zipf exponent (default 1.1)")
    p.add_argument("--think", type=float, default=0.5, help="mean think time seconds (default 0.5)")
    p.add_argument("--servers", type=int, default=20, help="cluster size (default 20)")
    p.add_argument(
        "--chaos", action="store_true",
        help="gray server + latency spikes + mid-run crash with concurrent repair",
    )
    p.add_argument("--flash-crowd", action="store_true", help="hot-key episode at t=2..4s")
    p.add_argument("--trace", help="export a Chrome-trace JSON of the run to this path")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("stats", help="batched-pipeline and plan-cache stats for a seeded workload")
    _add_code_args(p)
    p.add_argument("--groups", type=int, default=16, help="stripe groups to write (default 16)")
    p.add_argument("--block-bytes", type=int, default=4096, help="block size cap (default 4096)")
    p.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trace", help="run a seeded workload under the tracer, export Chrome-trace JSON")
    p.add_argument(
        "workload", choices=("striped", "mapreduce"),
        help="striped: write/degraded-read/repair; mapreduce: wordcount over a striped file",
    )
    _add_code_args(p)
    p.add_argument("--out", default="trace.json", help="output trace path (default trace.json)")
    p.add_argument("--groups", type=int, default=8, help="stripe groups (default 8)")
    p.add_argument("--block-bytes", type=int, default=4096, help="block size cap (default 4096)")
    p.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("metrics", help="histograms, gauges, and kernel profile for a seeded workload")
    _add_code_args(p)
    p.add_argument("--groups", type=int, default=16, help="stripe groups to write (default 16)")
    p.add_argument("--block-bytes", type=int, default=4096, help="block size cap (default 4096)")
    p.add_argument("--seed", type=int, default=0, help="payload RNG seed")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, DecodingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
