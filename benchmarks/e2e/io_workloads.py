"""``bulk_io`` and ``striped_io``: write -> read -> degraded read -> repair cycles.

One repetition builds a fresh cluster and filesystem for one code, writes the
payload with ``StripedFileSystem.write_file``, reads it back, (``striped_io``)
reads random extents, fails the server that holds block 0 of group 0, reads
the file degraded, rebuilds the server with
``RepairManager.repair_server(batch=True)`` and reads once more.  Every byte
read back is compared with the generated payload and the rebuilt-block count
with the count computed from the placement.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass

import numpy as np
from common import CODE_FACTORIES, Failures
from declared import CODE_NAMES, IO_LAYERS_BY_OP, IO_OPS, KERNEL_TIERS, LADDER_RUNGS, LADDER_STEPS
from layers import io_targets
from spans import SpanRecorder
from stats import BEST, summarize

from repro.cluster.topology import Cluster
from repro.gf import kernel_bytes_info
from repro.storage import (
    BlockStore,
    DistributedFileSystem,
    RepairManager,
    ResilientBlockClient,
    StripedFileSystem,
    pipeline,
)

K = 4
FILE_NAME = "bench"
SETUP_REPEATS = 3
#: Share of ``--seconds`` the untraced and the traced phase of a ``--trace`` run may each use;
#: the ladder between them takes about the rest.
TRACE_PHASE_SHARE = 0.4


@dataclass(frozen=True)
class IoSpec:
    """Sizes of one ``*_io`` workload.

    ``block_bytes`` is a multiple of 7, so ``k * block_bytes`` divides into
    ``k * N`` equal stripes for N = 1 (RS, Pyramid) and N = 7 (Galloper) alike
    and the three codes cut the payload into the same groups.
    """

    groups: int
    tail_bytes: int
    block_bytes: int
    servers: int
    extents: int
    extent_bytes: int
    min_reps: int
    ladder_repeats: int

    @property
    def group_payload(self) -> int:
        return K * self.block_bytes

    @property
    def payload_bytes(self) -> int:
        return self.groups * self.group_payload + self.tail_bytes


def _blocks(nominal: int) -> int:
    return nominal // 7 * 7


SPECS = {
    "bulk_io": IoSpec(groups=2, tail_bytes=0, block_bytes=_blocks(1 << 20), servers=12,
                      extents=0, extent_bytes=0, min_reps=3, ladder_repeats=15),
    "striped_io": IoSpec(groups=128, tail_bytes=37_001, block_bytes=_blocks(16 << 10), servers=30,
                         extents=500, extent_bytes=4096, min_reps=3, ladder_repeats=15),
}
SMOKE_SPECS = {
    "bulk_io": IoSpec(groups=2, tail_bytes=0, block_bytes=_blocks(256 << 10), servers=12,
                      extents=0, extent_bytes=0, min_reps=2, ladder_repeats=2),
    "striped_io": IoSpec(groups=24, tail_bytes=3_001, block_bytes=_blocks(16 << 10), servers=30,
                         extents=50, extent_bytes=4096, min_reps=2, ladder_repeats=2),
}


def make_payload(spec: IoSpec, seed: int) -> tuple[bytes, np.ndarray]:
    """The payload and the extent offsets, both from the seed."""
    rng = np.random.default_rng([seed, 1])
    payload = rng.integers(0, 256, size=spec.payload_bytes, dtype=np.uint8).tobytes()
    if spec.extents:
        offsets = rng.integers(0, spec.payload_bytes - spec.extent_bytes, size=spec.extents)
    else:
        offsets = np.zeros(0, dtype=np.int64)
    return payload, offsets


def run_cycle(
    spec: IoSpec, code_name: str, code, payload: bytes, offsets, failures: Failures,
    recorder: SpanRecorder | None = None,
) -> tuple[dict, dict] | None:
    """One repetition for one code on fresh state.

    Returns ``(seconds per op, exact counts)``, or ``None`` when an operation
    raised (counted in ``failures``).
    """
    cluster = Cluster.homogeneous(spec.servers)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    seconds: dict[str, float] = {}
    kernel_before = kernel_bytes_info()
    plans_before = code.plan_cache_info()

    def timed(op: str, fn):
        failures.attempt()
        if recorder is None:
            t0 = time.perf_counter()
            out = fn()
            seconds[op] = time.perf_counter() - t0
        else:
            with recorder.op(op, code_name) as root:
                out = fn()
            seconds[op] = root["seconds"]
        return out

    def check(what: str, data: bytes, expected: bytes) -> None:
        if data != expected:
            failures.fail(f"{code_name}: {what} returned wrong bytes")

    try:
        timed("write", lambda: sfs.write_file(FILE_NAME, payload, lambda: code, max_block_bytes=spec.block_bytes))
        written = dfs.metrics.total("disk_bytes_written")
        check("read_file", timed("read", lambda: sfs.read_file(FILE_NAME)), payload)
        if spec.extents:
            size = spec.extent_bytes
            failures.attempt(spec.extents - 1)
            got = timed("extent_read", lambda: [sfs.read_bytes(FILE_NAME, int(o), size) for o in offsets])
            wrong = sum(1 for o, data in zip(offsets, got) if data != payload[int(o) : int(o) + size])
            if wrong:
                failures.fail(f"{code_name}: {wrong} extents returned wrong bytes", count=wrong)

        first_group = dfs.file(sfs.file(FILE_NAME).group_names()[0])
        victim = first_group.server_of(0)
        lost = [
            (name, block)
            for name in dfs.list_files()
            for block in dfs.file(name).blocks_on_server(victim)
        ]
        cluster.fail(victim)

        before = dfs.metrics.snapshot()
        check("degraded read_file", timed("degraded_read", lambda: sfs.read_file(FILE_NAME)), payload)
        after_degraded = dfs.metrics.snapshot()
        report = timed("repair", lambda: RepairManager(dfs).repair_server(victim, batch=True))
        after_repair = dfs.metrics.snapshot()
        if report.blocks_rebuilt != len(lost) or len(lost) < 2:
            failures.fail(f"{code_name}: rebuilt {report.blocks_rebuilt} blocks, placement says {len(lost)}")
        kernel_after = kernel_bytes_info()
        plans_after = code.plan_cache_info()
        failures.attempt()
        check("post-repair read_file", sfs.read_file(FILE_NAME), payload)
    except Exception:  # noqa: BLE001 - an op that raises is a failed op, recorded with its traceback
        failures.fail(f"{code_name}: {traceback.format_exc(limit=3)}")
        return None

    counts = {
        "kernel_bytes": {t: kernel_after.get(t, 0) - kernel_before.get(t, 0) for t in KERNEL_TIERS},
        "plan_hits": plans_after["hits"] - plans_before["hits"],
        "plan_misses": plans_after["misses"] - plans_before["misses"],
        "stored_bytes": written,
        "degraded_disk_bytes_read": after_degraded.get("disk_bytes_read", 0.0) - before.get("disk_bytes_read", 0.0),
        "repair_disk_bytes_read": (
            after_repair.get("disk_bytes_read", 0.0) - after_degraded.get("disk_bytes_read", 0.0)
        ),
        "bytes_copied": after_repair.get("bytes_copied", 0.0),
        "bytes_zero_copy": after_repair.get("bytes_moved_zero_copy", 0.0),
        "blocks_rebuilt": report.blocks_rebuilt,
        "rebuilt_bytes": sum(r.bytes_written for r in report.reports),
        "victim": victim,
        "decoded_user_bytes": _decoded_user_bytes(dfs, lost, code),
    }
    return seconds, counts


def _decoded_user_bytes(dfs, lost, code) -> int:
    """User bytes of the groups whose lost block held original data (those need a decode)."""
    total = 0
    for name, block in lost:
        if code.block_infos[block].data_stripes:
            total += dfs.file(name).original_size
    return total


def set_up(spec: IoSpec, seed: int, failures: Failures) -> tuple[dict, bytes, np.ndarray, dict, dict]:
    """Payload generation, code construction and one warm-up repetition, timed.

    Repeated ``SETUP_REPEATS`` times so ``setup_s`` is a median; the last
    set-up's codes (plan caches warm) are the ones measured.
    """
    durations, construct_ms = [], {name: [] for name in CODE_NAMES}
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        payload, offsets = make_payload(spec, seed)
        codes = {}
        for name in CODE_NAMES:
            t1 = time.perf_counter()
            codes[name] = CODE_FACTORIES[name]()
            construct_ms[name].append((time.perf_counter() - t1) * 1e3)
        for name in CODE_NAMES:
            run_cycle(spec, name, codes[name], payload, offsets, failures)
        durations.append(time.perf_counter() - t0)
    construct = {name: summarize(v) for name, v in construct_ms.items()}
    return codes, payload, offsets, summarize(durations), construct


def measure(
    spec: IoSpec, codes: dict, payload: bytes, offsets, budget_s: float, failures: Failures,
    recorder: SpanRecorder | None = None,
) -> dict:
    """Repeat the cycle, codes interleaved, until the time budget is spent."""
    samples = {name: {op: [] for op in IO_OPS} for name in CODE_NAMES}
    counts: dict[str, dict] = {}
    counts_repeat = True
    deadline = time.perf_counter() + budget_s
    reps = 0
    while reps < spec.min_reps or time.perf_counter() < deadline:
        for name in CODE_NAMES:
            gc.collect()
            result = run_cycle(spec, name, codes[name], payload, offsets, failures, recorder)
            if result is None:
                continue
            seconds, cycle_counts = result
            for op, value in seconds.items():
                samples[name][op].append(value)
            if name in counts and counts[name] != cycle_counts:
                counts_repeat = False
            counts[name] = cycle_counts
        reps += 1
    if not counts_repeat:
        failures.fail("exact counts differed between repetitions")
    ops = {
        name: {op: summarize(values) for op, values in per_op.items() if values}
        for name, per_op in samples.items()
    }
    return {"repetitions": reps, "ops": ops, "counts": counts}


def op_amount(spec: IoSpec, measured: dict, code_name: str, op: str) -> float:
    """What one repetition of ``op`` moves: bytes, or extents for ``extent_read``."""
    if op == "extent_read":
        return float(spec.extents)
    if op == "repair":
        return float(measured["counts"][code_name]["rebuilt_bytes"])
    return float(spec.payload_bytes)


def cross_code(spec: IoSpec, measured: dict, op: str) -> float | None:
    """``sum(amount) / sum(best seconds)`` over the codes, or ``None`` if the op did not run.

    The cost of the three-code comparison every figure in this repo makes:
    the slowest code dominates.
    """
    pairs = [
        (op_amount(spec, measured, name, op), measured["ops"][name][op][BEST])
        for name in CODE_NAMES
        if op in measured["ops"].get(name, {})
    ]
    if len(pairs) != len(CODE_NAMES):
        return None
    return sum(a for a, _ in pairs) / sum(s for _, s in pairs)


def metric_of(op: str) -> str:
    return "extent_read_kops" if op == "extent_read" else f"{op}_MBps"


def end_to_end(spec: IoSpec, measured: dict) -> tuple[dict, dict]:
    """The end-to-end throughput metrics (MB = 10^6 bytes) and each one's spread between repetitions."""
    values, spreads = {}, {}
    for op in IO_OPS:
        value = cross_code(spec, measured, op)
        if value is None:
            continue
        values[metric_of(op)] = value / (1e3 if op == "extent_read" else 1e6)
        summaries = [measured["ops"][name][op] for name in CODE_NAMES]
        spreads[metric_of(op)] = sum(s["q3"] - s["q1"] for s in summaries) / sum(s["median"] for s in summaries)
    return values, spreads


# ------------------------------------------------------------------- ladder


def _best_seconds(fn, repeats: int) -> float:
    fn()  # untimed: plan compilation and table builds belong to set-up
    gc.collect()
    values = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        values.append(time.perf_counter() - t0)
    return min(values)


def ladder_for_code(spec: IoSpec, code, payload: bytes) -> dict:
    """Seconds and bytes of each rung, timed directly on this workload's full groups."""
    total = code.data_stripe_total
    stripe = spec.group_payload // total
    grids = list(
        np.frombuffer(payload, dtype=np.uint8)[: spec.groups * spec.group_payload].reshape(spec.groups, total, stripe)
    )
    blocks = pipeline.batch_encode(code, grids)
    user = float(spec.groups * spec.group_payload)
    block_bytes = float(blocks[0][0].nbytes)
    survivors = tuple(range(1, code.n))
    plan = code.repair_plan(0)
    helpers = plan.helpers
    decode_in = [{b: group[b] for b in survivors} for group in blocks]
    repair_in = [{h: group[h] for h in helpers} for group in blocks]

    dp = code.compile_decode(survivors)
    decode_segments = [
        np.concatenate([group[b].reshape(code.N, -1) for b in dp.ids], axis=0)[dp.rows] for group in blocks
    ]
    rebuild = code.compile_reconstruct(0, helpers)
    repair_segments = [
        np.concatenate([group[h].reshape(code.N, -1) for h in helpers], axis=0) for group in blocks
    ]
    encode_plan = code.compile_encode()

    cluster = Cluster.homogeneous(spec.servers)
    store = BlockStore(cluster)
    client = ResilientBlockClient(store)
    placed = [
        ((g * code.n + b) % spec.servers, f"g{g}", b, group[b])
        for g, group in enumerate(blocks)
        for b in range(code.n)
    ]

    def put_all():
        for server, name, block, data in placed:
            store.put(server, name, block, data)

    def get_all():
        for server, name, block, _ in placed:
            client.get(server, name, block)

    def best(fn) -> float:
        return _best_seconds(fn, spec.ladder_repeats)

    rebuilt = block_bytes * spec.groups
    stored = block_bytes * len(placed)
    return {
        "gf.apply_encode": (user, best(lambda: [encode_plan.apply(g) for g in grids])),
        "codes.encode": (user, best(lambda: [code.encode(g) for g in grids])),
        "storage.pipeline.batch_encode": (user, best(lambda: pipeline.batch_encode(code, grids))),
        "gf.apply_decode": (user, best(lambda: [dp.plan.apply(s) for s in decode_segments])),
        "codes.decode": (user, best(lambda: [code.decode(a) for a in decode_in])),
        "storage.pipeline.batch_decode": (user, best(lambda: pipeline.batch_decode(code, decode_in))),
        "gf.apply_reconstruct": (rebuilt, best(lambda: [rebuild.apply(s) for s in repair_segments])),
        "codes.reconstruct": (rebuilt, best(lambda: [code.reconstruct(0, a, plan) for a in repair_in])),
        "storage.pipeline.batch_reconstruct": (
            rebuilt, best(lambda: pipeline.batch_reconstruct(code, 0, helpers, repair_in)),
        ),
        "storage.blockstore.put": (stored, best(put_all)),
        "storage.resilient.get": (stored, best(get_all)),
    }


def ladder_metrics(spec: IoSpec, ladders: dict, measured: dict) -> dict:
    """Cross-code rung throughputs, and each end-to-end op over its floor in the ladder.

    An op's floor is the time the bottom rungs (kernel apply, block-store
    put, resilient get) need for the bytes that op has to move.
    """
    out = {}
    rungs = [f"{rung}{step}" for rung in LADDER_RUNGS for step in LADDER_STEPS]
    for rung in rungs + ["storage.blockstore.put", "storage.resilient.get"]:
        amount = sum(ladders[c][rung][0] for c in CODE_NAMES)
        seconds = sum(ladders[c][rung][1] for c in CODE_NAMES)
        out[f"{rung}_MBps"] = amount / seconds / 1e6

    def per_byte(code_name: str, rung: str) -> float:
        amount, seconds = ladders[code_name][rung]
        return seconds / amount

    floors = {op: 0.0 for op in ("write", "read", "degraded_read", "repair")}
    walls = dict(floors)
    for name in CODE_NAMES:
        counts = measured["counts"][name]
        user = float(spec.payload_bytes)
        get, put = per_byte(name, "storage.resilient.get"), per_byte(name, "storage.blockstore.put")
        floors["write"] += user * per_byte(name, "gf.apply_encode") + counts["stored_bytes"] * put
        floors["read"] += user * get
        floors["degraded_read"] += (
            user * get + counts["decoded_user_bytes"] * per_byte(name, "gf.apply_decode")
        )
        floors["repair"] += (
            counts["repair_disk_bytes_read"] * get
            + counts["rebuilt_bytes"] * (per_byte(name, "gf.apply_reconstruct") + put)
        )
        for op in walls:
            walls[op] += measured["ops"][name][op][BEST]
    for op, floor in floors.items():
        out[f"eff.{op}"] = floor / walls[op]
    return out


# ------------------------------------------------------------ per-layer view


def count_metrics(spec: IoSpec, measured: dict) -> dict:
    """The exact counts of one repetition, summed over the three codes."""
    counts = list(measured["counts"].values())

    def total(key: str) -> float:
        return float(sum(c[key] for c in counts))

    user = float(spec.payload_bytes * len(counts))
    out = {}
    kernel_total = sum(sum(c["kernel_bytes"].values()) for c in counts)
    for tier in KERNEL_TIERS:
        tier_bytes = sum(c["kernel_bytes"][tier] for c in counts)
        out[f"gf.tier_bytes_share.{tier}"] = tier_bytes / kernel_total if kernel_total else 0.0
    lookups = total("plan_hits") + total("plan_misses")
    moved = total("bytes_zero_copy") + total("bytes_copied")
    out["codes.plan_cache_hit_ratio"] = total("plan_hits") / lookups if lookups else 0.0
    out["storage.bytes_stored_per_user_byte"] = total("stored_bytes") / user
    out["storage.disk_bytes_read_per_user_byte.degraded_read"] = total("degraded_disk_bytes_read") / user
    out["storage.disk_bytes_read_per_user_byte.repair"] = total("repair_disk_bytes_read") / total("rebuilt_bytes")
    out["storage.bytes_copied_per_user_byte"] = total("bytes_copied") / user
    out["storage.zero_copy_share"] = total("bytes_zero_copy") / moved if moved else 0.0
    out["storage.repair.blocks_rebuilt"] = total("blocks_rebuilt")
    return out


def per_code_metrics(spec: IoSpec, measured: dict, construct: dict) -> dict:
    out = {}
    for name in CODE_NAMES:
        for op, summary in measured["ops"].get(name, {}).items():
            value = op_amount(spec, measured, name, op) / summary[BEST]
            out[f"code.{name}.{metric_of(op)}"] = value / (1e3 if op == "extent_read" else 1e6)
        out[f"codes.construct_ms.{name}"] = construct[name]["median"]
    return out


def traced_metrics(recorder: SpanRecorder, untraced: dict, traced: dict) -> dict:
    """Per-layer self time per repetition (three codes summed) and the tracing overhead."""
    out = {}
    reps = traced["repetitions"]
    for op, layers in IO_LAYERS_BY_OP.items():
        if not recorder.op_count.get(op):
            continue
        for layer in layers:
            out[f"self_ms.{layer}.{op}"] = recorder.layer_self_s(layer, op) * 1e3 / reps

    def wall(measured: dict) -> float:
        return sum(s[BEST] for per_op in measured["ops"].values() for s in per_op.values())

    out["bench.trace_overhead_share"] = wall(traced) / wall(untraced) - 1.0
    return out


def run_traced(spec: IoSpec, codes: dict, payload: bytes, offsets, budget_s: float, failures: Failures):
    """The measurement repeated under the span recorder; wrappers are removed afterwards."""
    recorder = SpanRecorder()
    recorder.install(io_targets())
    try:
        traced = measure(spec, codes, payload, offsets, budget_s, failures, recorder)
    finally:
        recorder.uninstall()
    worst = max((recorder.conservation_error(op) for op in recorder.op_count), default=0.0)
    if worst > 0.02:
        failures.fail(f"traced self times miss the op wall time by {worst:.1%}")
    return recorder, traced
