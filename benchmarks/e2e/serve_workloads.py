"""``serve_zipf`` and ``serve_chaos``: the gateway under generated load.

The benchmark brings its own catalog and load generators: the seed derives
payloads, arrival times, file choices, offsets, think times and the fault
model's seed, and the gateway only ever sees ``put`` and ``read`` calls.  The
client coroutines compare every response with the generated payload.

A *cell* is one (code, scenario) run on a fresh cluster, filesystem, catalog
and gateway.  Sim-clock results of a cell are a pure function of the seed.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from common import CODE_FACTORIES, Failures
from declared import CODE_NAMES, RATE_STEPS, REFERENCE_RATE, SERVE_LAYERS
from layers import serve_targets
from spans import BACKGROUND, ROOT_LAYER, SpanRecorder
from stats import nearest_rank, summarize

from repro.cluster.placement import RandomPlacement
from repro.cluster.topology import Cluster
from repro.faults.model import FaultModel, GraySlowdown, LatencySpikes
from repro.serving import GatewayConfig, ServingError, ServingGateway
from repro.sim.aio import SimLoop
from repro.storage import DistributedFileSystem

#: Which servers hold which blocks is cluster configuration, not traffic: it
#: is drawn once from this constant, not from ``--seed``.  With seed-dependent
#: placement serve_chaos's p99 is bimodal (2 ms, or 13 s when the flash-crowd
#: key lands behind the gray server), which no bound can gate.
PLACEMENT_SEED = 7
P99_LIMIT_S = 0.010
#: An untraced run is this many passes, each with its own arrival, choice and
#: fault streams drawn from the seed; sim-clock end-to-end metrics average
#: over them, which takes the seed-to-seed spread of a p99 from 13-18 % to
#: what the bound can hold.  Fixed, so that results depend on the seed alone.
REPLICATIONS = 2
CHAOS_CELL = "chaos"
GROWTH_LIMIT = 2.0


@dataclass(frozen=True)
class ClusterSpec:
    tenants: tuple[str, ...]
    files_per_tenant: int
    file_bytes: int
    read_bytes: int
    servers: int
    cache_bytes: int
    zipf_s: float = 1.1

    def key(self, index: int) -> str:
        return f"f{index:04d}"


@dataclass(frozen=True)
class ZipfSpec:
    """Open loop: ``requests`` Poisson arrivals per cell, the first ``warmup`` discarded."""

    cluster: ClusterSpec
    requests: int
    warmup: int


@dataclass(frozen=True)
class ChaosSpec:
    """Closed loop: each client waits for its reply, thinks, and asks again."""

    cluster: ClusterSpec
    clients: int
    reads_per_client: int
    think_s: float
    diurnal_amplitude: float
    diurnal_period_s: float
    flash_start_s: float
    flash_end_s: float
    flash_fraction: float
    flash_file: int
    gray_server: int
    gray_extra_s: float
    spike_rate: float
    spike_s: float
    crash_server: int
    crash_at_s: float
    repair_limit: int


# serve_zipf runs the issue's system at half scale (10 servers, 2 tenants,
# 12 MiB cache instead of 20 / 4 / 24 MiB): per-server arrival rates, load per
# file, blocks per server and cache-to-catalog ratio are as specified, and the
# cold-start transient ends near request 4 000 instead of 8 000, which is
# what lets nine cells fit the time cap.  See README.md.
ZIPF = ZipfSpec(
    cluster=ClusterSpec(
        tenants=("alpha", "beta"), files_per_tenant=64, file_bytes=256 << 10, read_bytes=8 << 10,
        servers=10, cache_bytes=12 << 20,
    ),
    requests=10_000, warmup=5_000,
)
CHAOS = ChaosSpec(
    cluster=ClusterSpec(
        tenants=("alpha", "beta", "gamma", "delta"), files_per_tenant=64, file_bytes=256 << 10,
        read_bytes=8 << 10, servers=20, cache_bytes=24 << 20,
    ),
    clients=10_000, reads_per_client=2, think_s=1.0, diurnal_amplitude=0.4, diurnal_period_s=2.0,
    flash_start_s=1.0, flash_end_s=2.0, flash_fraction=0.5, flash_file=37,
    gray_server=1, gray_extra_s=0.08, spike_rate=0.002, spike_s=0.05,
    crash_server=0, crash_at_s=1.0, repair_limit=4,
)
_SMOKE_CLUSTER = ClusterSpec(
    tenants=("alpha", "beta"), files_per_tenant=8, file_bytes=64 << 10, read_bytes=8 << 10,
    servers=10, cache_bytes=256 << 10,
)
SMOKE_ZIPF = ZipfSpec(cluster=_SMOKE_CLUSTER, requests=300, warmup=150)
SMOKE_CHAOS = ChaosSpec(
    cluster=_SMOKE_CLUSTER, clients=100, reads_per_client=2, think_s=0.2, diurnal_amplitude=0.4,
    diurnal_period_s=0.4, flash_start_s=0.2, flash_end_s=0.4, flash_fraction=0.5, flash_file=3,
    gray_server=1, gray_extra_s=0.08, spike_rate=0.002, spike_s=0.05,
    crash_server=0, crash_at_s=0.2, repair_limit=4,
)


def make_catalog(spec: ClusterSpec, seed: int) -> dict[tuple[str, int], bytes]:
    """Every tenant's files, kept in memory so each response can be checked."""
    rng = np.random.default_rng([seed, 2])
    count = len(spec.tenants) * spec.files_per_tenant
    raw = rng.integers(0, 256, size=count * spec.file_bytes, dtype=np.uint8).tobytes()
    keys = [(t, i) for t in spec.tenants for i in range(spec.files_per_tenant)]
    return {key: raw[n * spec.file_bytes : (n + 1) * spec.file_bytes] for n, key in enumerate(keys)}


def zipf_choices(rng: np.random.Generator, items: int, s: float, count: int) -> np.ndarray:
    """``count`` indices with ``p_i`` proportional to ``1 / (i + 1)^s``."""
    pmf = np.arange(1, items + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(pmf / pmf.sum())
    return np.searchsorted(cdf, rng.random(count), side="right").clip(0, items - 1)


@dataclass
class Cell:
    """A fresh cluster, filesystem, catalog and gateway for one code."""

    cluster: Cluster
    dfs: DistributedFileSystem
    gateway: ServingGateway
    populate_s: float
    construct_ms: float


def build_cell(spec: ClusterSpec, code_name: str, catalog: dict, fault_model=None, repair_limit: int = 4) -> Cell:
    cluster = Cluster.homogeneous(spec.servers)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    stripe_bytes = -(-spec.file_bytes // CODE_FACTORIES[code_name]().data_stripe_total)
    gateway = ServingGateway(
        dfs,
        config=GatewayConfig(
            # A byte budget, so every code caches the same amount of data.
            cache_entries=max(8, spec.cache_bytes // stripe_bytes),
            # As benchmarks/run_serving.py: hedge near the clean p99, no cap on foreground tenants.
            hedge_threshold=0.005,
            max_inflight_per_tenant=1 << 30,
            tenant_limits={"repair": repair_limit},
        ),
    )
    placement = RandomPlacement(seed=PLACEMENT_SEED)
    construct = []
    t0 = time.perf_counter()
    for (tenant, index), payload in catalog.items():
        t1 = time.perf_counter()
        code = CODE_FACTORIES[code_name]()  # one code object per file, as repro.serving.populate does
        construct.append(time.perf_counter() - t1)
        gateway.put(tenant, spec.key(index), payload, code=code, placement=placement)
    populate_s = time.perf_counter() - t0
    return Cell(cluster, dfs, gateway, populate_s, summarize(construct)["median"] * 1e3)


def _window_stats(cell: Cell, requests: int, window_s: float, events: int) -> dict:
    """Counts over the measured window (the registry was reset when it opened)."""
    metrics = cell.dfs.metrics
    counters = metrics.snapshot()
    overhead = cell.gateway.config.request_overhead
    reads = metrics.by_server("blocks_read")
    service = metrics.by_server("read_latency")
    busy = [
        service.get(s.server_id, 0.0) + reads.get(s.server_id, 0.0) * overhead
        for s in cell.cluster
        if not s.failed
    ]
    mean_busy = sum(busy) / len(busy)
    spread = math.sqrt(sum((b - mean_busy) ** 2 for b in busy) / len(busy))
    return {
        "counters": counters,
        "cache_hit_ratio": cell.gateway.cache.hit_ratio(),
        "disk_ios_per_request": counters.get("blocks_read", 0.0) / requests,
        "disk_busy_cv": spread / mean_busy if mean_busy else 0.0,
        "disk_util_max": max(busy) / window_s if window_s > 0 else 0.0,
        "disk_wait_p99_s": metrics.histogram("serving_disk_wait_s").percentile(99),
        "events_window": events,
    }


def _latency_stats(latencies: np.ndarray) -> dict:
    """Percentiles in arrival order's own terms; a failed request is ``inf`` and misses any limit."""
    ordered = np.sort(latencies)
    fifth = max(1, len(latencies) // 5)
    first, last = latencies[:fifth], latencies[-fifth:]
    return {
        "samples": int(len(latencies)),
        "p50_s": nearest_rank(ordered, 50),
        "p99_s": nearest_rank(ordered, 99),
        "p999_s": nearest_rank(ordered, 99.9),
        "growth": float(last.mean() / first.mean()) if first.mean() > 0 else 1.0,
    }


def _cell_result(
    cell: Cell, code_name: str, latencies: np.ndarray, measured_from: int, wall_s: float,
    window_s: float, events_window: int, generator_lag_s: float,
) -> dict:
    """What every cell reports: latency and window statistics, wall time, set-up cost."""
    sim = cell.gateway.loop.sim
    measured = latencies[measured_from:]
    out = _latency_stats(measured)
    out.update(_window_stats(cell, len(measured), window_s, events_window))
    out.update({
        "code": code_name, "wall_s": wall_s, "completed": len(latencies),
        "events": sim.events_processed, "failed": int(np.isinf(latencies).sum()),
        "generator_lag_s": generator_lag_s, "sim_end_s": sim.now,
        "populate_wall_s": cell.populate_s, "construct_ms": cell.construct_ms, "files": len(cell.dfs.list_files()),
    })
    return out


def _run_loop(cell: Cell, code_name: str, recorder: SpanRecorder | None) -> float:
    """``loop.run()`` to completion, timed; under the recorder it is the root span of the run."""
    with (recorder.op("serve", code_name, per_request=True) if recorder else nullcontext()):
        t0 = time.perf_counter()
        cell.gateway.loop.run()
        return time.perf_counter() - t0


def run_zipf_cell(
    spec: ZipfSpec, code_name: str, rate: int, catalog: dict, seed: int, replication: int, failures: Failures,
    recorder: SpanRecorder | None = None,
) -> dict:
    """Open-loop Poisson arrivals at ``rate`` requests/s per server from a cold start."""
    cs = spec.cluster
    cell = build_cell(cs, code_name, catalog)
    loop = cell.gateway.loop
    total = spec.requests
    # The same draws for every code and rate: only the time scale changes with the rate.
    rng = np.random.default_rng([seed, 3, replication])
    due = np.cumsum(rng.exponential(1.0 / (rate * cs.servers), size=total))
    tenants = rng.integers(0, len(cs.tenants), size=total)
    files = zipf_choices(rng, cs.files_per_tenant, cs.zipf_s, total)
    offsets = rng.integers(0, cs.file_bytes - cs.read_bytes, size=total)
    latencies = np.full(total, np.inf)
    state = {"lag": 0.0, "events_at_window": 0, "window_start": 0.0}
    mark = recorder.begin_request if recorder else None

    async def request(i: int):
        if mark:
            mark(i)
        tenant, index, offset = cs.tenants[tenants[i]], int(files[i]), int(offsets[i])
        failures.attempt()
        try:
            data = await cell.gateway.read(tenant, cs.key(index), offset, cs.read_bytes)
        except ServingError as exc:
            # Below the knee a refused request is a defect; past it, overload may refuse.
            failures.fail(f"{code_name} r{rate}: {exc}", incorrect=rate <= REFERENCE_RATE)
            return
        if data != catalog[(tenant, index)][offset : offset + cs.read_bytes]:
            failures.fail(f"{code_name} r{rate}: request {i} returned wrong bytes")
            return
        latencies[i] = loop.now - due[i]  # timed from when the request was due

    async def generator():
        for i in range(total):
            await loop.sleep_until(float(due[i]))
            state["lag"] = max(state["lag"], loop.now - float(due[i]))
            if i == spec.warmup:
                cell.dfs.metrics.reset()
                state["events_at_window"] = loop.sim.events_processed
                state["window_start"] = loop.now
            loop.create_task(request(i), name="request")

    loop.create_task(generator(), name="generator")
    wall_s = _run_loop(cell, code_name, recorder)
    out = _cell_result(
        cell, code_name, latencies, spec.warmup, wall_s, float(due[-1]) - state["window_start"],
        loop.sim.events_processed - state["events_at_window"], state["lag"],
    )
    out["rate"] = rate
    out["rate_ok"] = out["failed"] == 0 and out["p99_s"] <= P99_LIMIT_S and out["growth"] <= GROWTH_LIMIT
    return out


def run_chaos_cell(
    spec: ChaosSpec, code_name: str, catalog: dict, seed: int, replication: int, failures: Failures,
    recorder: SpanRecorder | None = None,
) -> dict:
    """Closed-loop clients through a gray server, latency spikes, a flash crowd, a crash and its repair."""
    cs = spec.cluster
    fault_model = FaultModel(
        GraySlowdown(servers=frozenset({spec.gray_server}), extra_latency=spec.gray_extra_s),
        LatencySpikes(rate=spec.spike_rate, latency=spec.spike_s),
        seed=seed * REPLICATIONS + replication,
    )
    cell = build_cell(cs, code_name, catalog, fault_model, spec.repair_limit)
    gateway, loop = cell.gateway, cell.gateway.loop
    expected_rebuilt = sum(
        len(cell.dfs.file(name).blocks_on_server(spec.crash_server)) for name in cell.dfs.list_files()
    )
    total = spec.clients * spec.reads_per_client
    rng = np.random.default_rng([seed, 4, replication])
    files = zipf_choices(rng, cs.files_per_tenant, cs.zipf_s, total)
    offsets = rng.integers(0, cs.file_bytes - cs.read_bytes, size=total)
    thinks = rng.exponential(spec.think_s, size=total)
    defects = rng.random(total)
    starts = rng.random(spec.clients) * spec.think_s
    latencies = np.full(total, np.inf)
    repair: dict = {}
    mark = recorder.begin_request if recorder else None

    def think_scale(now: float) -> float:
        # Load peaks mid-cycle: think time shrinks while the sinusoid is high.
        load = 1.0 + spec.diurnal_amplitude * math.sin(2 * math.pi * now / spec.diurnal_period_s)
        return 1.0 / max(load, 1e-6)

    async def client(c: int):
        own_tenant = cs.tenants[c % len(cs.tenants)]
        await loop.sleep(float(starts[c]))
        for r in range(spec.reads_per_client):
            i = c * spec.reads_per_client + r
            await loop.sleep(float(thinks[i]) * think_scale(loop.now))
            if mark:
                mark(i)
            tenant, index, offset = own_tenant, int(files[i]), int(offsets[i])
            if spec.flash_start_s <= loop.now < spec.flash_end_s and defects[i] < spec.flash_fraction:
                tenant, index = cs.tenants[0], spec.flash_file  # the flash crowd is on one object
            t0 = loop.now
            failures.attempt()
            try:
                data = await gateway.read(tenant, cs.key(index), offset, cs.read_bytes)
            except ServingError as exc:
                failures.fail(f"{code_name} chaos: {exc}", incorrect=False)
                continue
            if data != catalog[(tenant, index)][offset : offset + cs.read_bytes]:
                failures.fail(f"{code_name} chaos: request {i} returned wrong bytes")
                continue
            latencies[i] = loop.now - t0

    async def repair_task():
        if mark:
            mark(BACKGROUND)
        repair["rebuilt"] = await gateway.repair_server(spec.crash_server)
        repair["done_s"] = loop.now - spec.crash_at_s

    def crash() -> None:
        cell.cluster.fail(spec.crash_server)
        loop.create_task(repair_task(), name="repair")

    loop.sim.schedule(spec.crash_at_s, crash, name="crash")
    for c in range(spec.clients):
        loop.create_task(client(c), name="client")
    wall_s = _run_loop(cell, code_name, recorder)

    failures.attempt()
    if repair.get("rebuilt") != expected_rebuilt:
        failures.fail(f"{code_name} chaos: rebuilt {repair.get('rebuilt')} blocks, placement says {expected_rebuilt}")
    out = _cell_result(cell, code_name, latencies, 0, wall_s, loop.now, loop.sim.events_processed, 0.0)
    out.update({
        "repair_done_s": repair.get("done_s"), "blocks_rebuilt": repair.get("rebuilt"),
        "blocks_expected": expected_rebuilt,
    })
    return out


# ------------------------------------------------------------------- passes


def zipf_pass(
    spec: ZipfSpec, catalog: dict, seed: int, replication: int, failures: Failures, rates=RATE_STEPS, recorder=None,
) -> dict:
    """Every (code, rate) cell once: ``cells[code][rate]``."""
    cells: dict = {}
    for name in CODE_NAMES:
        for rate in rates:
            gc.collect()
            cells.setdefault(name, {})[rate] = run_zipf_cell(
                spec, name, rate, catalog, seed, replication, failures, recorder
            )
    return cells


def chaos_pass(spec: ChaosSpec, catalog: dict, seed: int, replication: int, failures: Failures, recorder=None) -> dict:
    """Every code's chaos cell once: ``cells[code]["chaos"]``."""
    cells = {}
    for name in CODE_NAMES:
        gc.collect()
        cells[name] = {CHAOS_CELL: run_chaos_cell(spec, name, catalog, seed, replication, failures, recorder)}
    return cells


SIM_KEYS = (
    "samples", "p50_s", "p99_s", "p999_s", "growth", "counters", "cache_hit_ratio", "disk_ios_per_request",
    "disk_busy_cv", "disk_util_max", "disk_wait_p99_s", "events_window", "events", "failed", "sim_end_s",
    "repair_done_s", "blocks_rebuilt",
)


def sim_view(cell: dict) -> dict:
    """The part of a cell that must be bit-identical across reruns of one seed."""
    return {key: cell[key] for key in SIM_KEYS if key in cell}


def flat_cells(cells: dict) -> list[dict]:
    return [cell for per_code in cells.values() for cell in per_code.values()]


def first_difference(a: dict, b: dict) -> str | None:
    """The first sim-clock field on which two passes over the same seed disagree."""
    for name, per_code in a.items():
        for label, cell in per_code.items():
            left, right = sim_view(cell), sim_view(b[name][label])
            for field in left:
                if left[field] != right[field]:
                    return f"{name}.{label}.{field}: {left[field]!r} != {right[field]!r}"
    return None


def populate_summary(passes: list[dict]) -> dict:
    """Catalog set-up cost: per code the median over its cells in every pass, summed over the codes."""
    per_code = {}
    for name in CODE_NAMES:
        per_code[name] = summarize([c["populate_wall_s"] for cells in passes for c in cells[name].values()])
    files = flat_cells(passes[0])[0]["files"]
    return {
        "per_code": per_code,
        "seconds": sum(s["median"] for s in per_code.values()),
        "ms_per_file": sum(s["median"] for s in per_code.values()) / (len(per_code) * files) * 1e3,
    }


def rps_wall(cells: list[dict]) -> float:
    return sum(c["completed"] for c in cells) / sum(c["wall_s"] for c in cells)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def zipf_end_to_end(passes: list[dict]) -> dict:
    """Sim-clock end-to-end metrics over the replications (``serve_rps_wall`` is added by run.py)."""
    galloper = _mean(cells["galloper"][REFERENCE_RATE]["p99_s"] for cells in passes)
    rs = _mean(cells["rs"][REFERENCE_RATE]["p99_s"] for cells in passes)
    passed = [rate for rate in RATE_STEPS if all(cells["galloper"][rate]["rate_ok"] for cells in passes)]
    return {
        "p99_sim_ms": galloper * 1e3,
        "p99_gain_vs_rs": rs / galloper,
        "max_rate_ok": float(max(passed, default=0)),
    }


def chaos_end_to_end(passes: list[dict]) -> dict:
    return {"repair_done_sim_s": _mean(cells["galloper"][CHAOS_CELL]["repair_done_s"] for cells in passes)}


def serving_layer_metrics(cells: dict, reference: dict[str, dict]) -> dict:
    """Per-layer metrics of a serving pass; ``reference`` maps each code to the cell its gauges come from.

    Counts are summed over the reference cells of the three codes; sim-clock
    gauges that are not per code are Galloper's.
    """
    out = {}
    every = flat_cells(cells)
    for name in CODE_NAMES:
        cell = reference[name]
        out[f"serving.cache_hit_ratio.{name}"] = cell["cache_hit_ratio"]
        out[f"serving.disk_ios_per_request.{name}"] = cell["disk_ios_per_request"]
        out[f"serving.disk_busy_cv.{name}"] = cell["disk_busy_cv"]
        own = list(cells[name].values())
        out[f"serving.rps_wall.{name}"] = rps_wall(own)
        out[f"codes.construct_ms.{name}"] = summarize([c["construct_ms"] for c in own])["median"]
        if cell.get("repair_done_s") is not None:
            out[f"serving.repair_done_sim_s.{name}"] = cell["repair_done_s"]
        if "rate" in cell:
            for rate, at_rate in cells[name].items():
                out[f"serving.p99_sim_ms.{name}.r{rate}"] = at_rate["p99_s"] * 1e3
        elif name != "pyramid":  # 128 per-layer metrics is the cap; Pyramid's is in the --out record
            out[f"serving.p99_sim_ms.{name}.chaos"] = cell["p99_s"] * 1e3

    def count(counter: str) -> float:
        return float(sum(c["counters"].get(counter, 0.0) for c in reference.values()))

    requests = sum(c["samples"] for c in reference.values())
    misses = count("serving_cache_misses")
    fired = count("serving_hedges_fired")
    galloper = reference["galloper"]
    out.update({
        "sim.events_per_request": sum(c["events_window"] for c in reference.values()) / requests,
        "sim.events_per_wall_s": sum(c["events"] for c in every) / sum(c["wall_s"] for c in every),
        "serving.coalesced_share": count("serving_coalesced_reads") / misses if misses else 0.0,
        "serving.hedges_fired": fired,
        "serving.hedge_win_share": count("serving_hedges_won") / fired if fired else 0.0,
        "serving.degraded_reads": count("serving_degraded_reads"),
        "serving.qos.throttle_waits": count("tenant_throttle_waits"),
        "storage.resilient.retries": count("retries"),
        "storage.resilient.timeouts": count("read_timeouts"),
        "storage.resilient.client_hedged_reads": count("hedged_reads"),
        "serving.populate_ms_per_file": populate_summary([cells])["ms_per_file"],
        "serving.disk_util_max": galloper["disk_util_max"],
        "serving.disk_wait_p99_sim_ms": galloper["disk_wait_p99_s"] * 1e3,
        "serving.p999_sim_ms": galloper["p999_s"] * 1e3,
        "bench.generator_lag_sim_ms": max(c["generator_lag_s"] for c in every) * 1e3,
    })
    if galloper.get("blocks_rebuilt") is not None:
        out["serving.repair_blocks_rebuilt"] = float(sum(c["blocks_rebuilt"] or 0 for c in reference.values()))
    return out


def traced_pass(run_pass, failures: Failures) -> tuple[SpanRecorder, dict]:
    """One pass under the span recorder; the wrappers are removed afterwards."""
    recorder = SpanRecorder()
    recorder.install(serve_targets())
    recorder.install_task_tagging(SimLoop)
    try:
        cells = run_pass(recorder)
    finally:
        recorder.uninstall()
    error = recorder.conservation_error("serve")
    if error > 0.02:
        failures.fail(f"traced self times miss loop.run() wall time by {error:.1%}")
    return recorder, cells


def traced_metrics(recorder: SpanRecorder, untraced: list[dict], traced: list[dict]) -> dict:
    """Self seconds per layer over the traced pass, and what tracing cost on the same cells."""
    out = {f"self_s.{layer}.serve": recorder.layer_self_s(layer, "serve") for layer in SERVE_LAYERS}
    out["self_s.sim.dispatch_and_glue.serve"] = recorder.layer_self_s(ROOT_LAYER, "serve")
    out["bench.trace_overhead_share"] = sum(c["wall_s"] for c in traced) / sum(c["wall_s"] for c in untraced) - 1.0
    return out
