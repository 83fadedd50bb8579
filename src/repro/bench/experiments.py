"""Reproductions of every figure in the paper's evaluation (Sec. VII).

Each function regenerates one figure's data and returns a
:class:`~repro.bench.harness.Table`; ``benchmarks/`` wraps them in pytest
and EXPERIMENTS.md records paper-vs-measured.  Absolute times differ from
the paper (numpy vs ISA-L C++, simulator vs a 30-node EC2 cluster); the
assertions in the benches check the paper's *shapes*: orderings, ratios
and crossovers.

Scaling note: the paper uses 45 MB blocks for coding micro-benchmarks and
450 MB blocks for Hadoop jobs.  The micro-benchmarks here default to
smaller blocks so a full sweep stays interactive; pass ``block_bytes`` to
match the paper exactly.  The MapReduce experiments are simulated-time
and use the paper's sizes natively.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from repro.bench.harness import Table, saving, time_call
from repro.cluster import Cluster, RoundRobinPlacement
from repro.codes import (
    CarouselCode,
    PyramidCode,
    ReedSolomonCode,
    ReplicationCode,
    RotatedPyramidCode,
)
from repro.core import GalloperCode, assign_weights
from repro.core.weights import solve_throttle_lp
from repro.codes.structure import LRCStructure
from repro.gf import CodingPlan, random_symbols
from repro.mapreduce import (
    CostModel,
    DataBlockInputFormat,
    GalloperInputFormat,
    MapReduceRuntime,
)
from repro.mapreduce.workloads import terasort_job, wordcount_job
from repro.storage import DistributedFileSystem

MB = 1 << 20

#: Paper's coding micro-benchmark parameters (Sec. VII-A).
PAPER_K_VALUES = (4, 6, 8, 10, 12)
PAPER_MICRO_BLOCK = 45 * MB
PAPER_JOB_BLOCK = 450 * MB


def _codes_for_k(k: int):
    """The paper's three contenders at a given k (all tolerate 2 failures)."""
    return {
        "rs": ReedSolomonCode(k, 2),
        "pyramid": PyramidCode(k, 2, 1),
        "galloper": GalloperCode(k, 2, 1),
    }


def _data_for(code, block_bytes: int, seed: int = 0) -> np.ndarray:
    """A (k*N, S) stripe grid sized so every stored block is block_bytes."""
    stripe = max(1, block_bytes // code.N)
    return random_symbols(code.gf, (code.data_stripe_total, stripe), seed=seed)


# --------------------------------------------------------------------- Fig 7


def fig7_encoding(k_values=PAPER_K_VALUES, block_bytes: int = 4 * MB, repeats: int = 3) -> Table:
    """Fig. 7a: encoding time vs k for RS / Pyramid / Galloper."""
    table = Table(
        title="Fig 7a — encoding time (s)",
        columns=("k", "rs", "pyramid", "galloper"),
    )
    for k in k_values:
        row = {"k": k}
        for name, code in _codes_for_k(k).items():
            data = _data_for(code, block_bytes, seed=k)
            row[name] = time_call(lambda c=code, d=data: c.encode(d), repeats)
        table.add(**row)
    table.note(f"block size {block_bytes // MB} MB; paper uses 45 MB on c4.4xlarge + ISA-L")
    return table


def _post_loss_ids(name: str, code) -> list[int]:
    """Block ids used to decode after losing one data block (paper's Fig. 7b
    setup: k-1 data-role blocks plus one parity-role block)."""
    if name == "rs":
        return list(range(1, code.k)) + [code.k]  # drop data block 0, add parity
    st = code.structure
    drop = st.data_blocks()[0]
    local = st.group_members(0)[-1]
    return [b for b in st.data_blocks() if b != drop] + [local]


def fig7_decoding(k_values=PAPER_K_VALUES, block_bytes: int = 4 * MB, repeats: int = 3) -> Table:
    """Fig. 7b: decode the original data from k blocks after losing one.

    Following the paper: one data block is removed and the same set of
    blocks (k-1 data-role blocks plus one parity-role block) is used for
    all three codes.
    """
    table = Table(
        title="Fig 7b — decoding time (s)",
        columns=("k", "rs", "pyramid", "galloper"),
    )
    for k in k_values:
        row = {"k": k}
        for name, code in _codes_for_k(k).items():
            data = _data_for(code, block_bytes, seed=k)
            blocks = code.encode(data)
            available = {b: blocks[b] for b in _post_loss_ids(name, code)}
            row[name] = time_call(lambda c=code, a=available: c.decode(a), repeats)
        table.add(**row)
    table.note("decode from k-1 data blocks + 1 parity block, as the paper")
    return table


# --------------------------------------------------------------------- Fig 8


def fig8_reconstruction(block_bytes: int = 8 * MB, repeats: int = 3) -> Table:
    """Fig. 8: per-block reconstruction time and disk I/O, (4,2)/(4,2,1).

    Blocks 1-6 (data + local parity) repair locally under Pyramid and
    Galloper; block 7 (global parity) costs a k-block read everywhere.
    Reed-Solomon has only 6 blocks; its row for block 7 is blank.
    """
    table = Table(
        title="Fig 8 — reconstruction time (s) and disk I/O (MB)",
        columns=(
            "block",
            "rs_time",
            "pyramid_time",
            "galloper_time",
            "rs_io",
            "pyramid_io",
            "galloper_io",
        ),
    )
    codes = _codes_for_k(4)
    encoded = {}
    for name, code in codes.items():
        data = _data_for(code, block_bytes, seed=17)
        encoded[name] = (code, code.encode(data))
    for target in range(7):
        row: dict = {"block": target + 1}
        for name in ("rs", "pyramid", "galloper"):
            code, blocks = encoded[name]
            if target >= code.n:
                row[f"{name}_time"] = float("nan")
                row[f"{name}_io"] = float("nan")
                continue
            available = {b: blocks[b] for b in range(code.n) if b != target}
            plan = code.repair_plan(target)
            row[f"{name}_io"] = plan.bytes_read(block_bytes) / MB
            row[f"{name}_time"] = time_call(
                lambda c=code, t=target, a=available, p=plan: c.reconstruct(t, a, p), repeats
            )
        table.add(**row)
    table.note(f"block size {block_bytes // MB} MB; paper uses 45 MB blocks")
    return table


# ----------------------------------------------------------------- Fig 1 / 2


def fig1_locality(block_mb: int = 45) -> Table:
    """Fig. 1: blocks read to repair one data block, RS vs locally repairable."""
    table = Table(
        title="Fig 1 — repair reads for one lost data block",
        columns=("code", "blocks_read", "disk_io_mb", "storage_overhead"),
    )
    for name, code in (
        ("rs(4,2)", ReedSolomonCode(4, 2)),
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
        ("replication(x3)", ReplicationCode(4, 3)),
    ):
        plan = code.repair_plan(0)
        table.add(
            code=name,
            blocks_read=plan.blocks_read,
            disk_io_mb=plan.bytes_read(block_mb * MB) / MB,
            storage_overhead=code.storage_overhead(),
        )
    return table


def fig2_parallelism() -> Table:
    """Fig. 2: servers able to run map tasks, per code (k=4, l=2, g=1)."""
    table = Table(
        title="Fig 2 — data parallelism (servers holding original data)",
        columns=("code", "parallel_servers", "total_servers", "max_data_fraction"),
    )
    for name, code in (
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
        ("carousel(4,2)", CarouselCode(4, 2)),
        ("rotated(4,2,1)", RotatedPyramidCode(4, 2, 1)),
        ("rs(4,2)", ReedSolomonCode(4, 2)),
    ):
        fractions = [i.data_fraction for i in code.block_infos]
        table.add(
            code=name,
            parallel_servers=code.parallelism(),
            total_servers=code.n,
            max_data_fraction=max(fractions),
        )
    return table


# --------------------------------------------------------------------- Fig 9


def fig9_mapreduce(
    num_servers: int = 30,
    block_bytes: int = PAPER_JOB_BLOCK,
    num_reducers: int = 8,
) -> Table:
    """Fig. 9: terasort and wordcount over Pyramid vs Galloper (k=4,l=2,g=1).

    Simulated time on a homogeneous cluster; each of the 7 coded blocks
    holds ``block_bytes`` as in the paper (450 MB), so the Pyramid file
    exposes 4 x 450 MB of map work on 4 servers while the Galloper file
    exposes the same bytes spread over 7 servers.
    """
    table = Table(
        title="Fig 9 — Hadoop jobs, Pyramid vs Galloper (seconds)",
        columns=("benchmark", "code", "map", "reduce", "job"),
    )
    cluster = Cluster.homogeneous(num_servers)
    dfs = DistributedFileSystem(cluster)
    file_bytes = 4 * block_bytes
    dfs.write_virtual_file("pyr", file_bytes, code=PyramidCode(4, 2, 1), placement=RoundRobinPlacement())
    dfs.write_virtual_file(
        "gall", file_bytes, code=GalloperCode(4, 2, 1), placement=RoundRobinPlacement(offset=7)
    )
    runtime = MapReduceRuntime(dfs, execute=False)
    jobs = {
        "terasort": lambda f: terasort_job(f, num_reducers),
        "wordcount": lambda f: wordcount_job(f, num_reducers),
    }
    for bench, make_job in jobs.items():
        for code_name, file_name, fmt in (
            ("pyramid", "pyr", DataBlockInputFormat()),
            ("galloper", "gall", GalloperInputFormat()),
        ):
            res = runtime.run(make_job(file_name), fmt)
            table.add(
                benchmark=bench,
                code=code_name,
                map=res.avg_map_time,
                reduce=res.reduce_phase_time,
                job=res.job_time,
            )
    for bench in jobs:
        rows = {r["code"]: r for r in table.rows if r["benchmark"] == bench}
        table.note(
            f"{bench}: map saving {saving(rows['pyramid']['map'], rows['galloper']['map']):.1f}%, "
            f"job saving {saving(rows['pyramid']['job'], rows['galloper']['job']):.1f}% "
            "(paper: 31.5-40.1% map, 30.4-36.4% job, bound 42.9%)"
        )
    return table


# -------------------------------------------------------------------- Fig 10


def fig10_heterogeneous(
    slow_speed: float = 0.4,
    num_fast: int = 4,
    num_slow: int = 3,
    block_bytes: int = PAPER_JOB_BLOCK,
    num_reducers: int = 8,
) -> Table:
    """Fig. 10: map completion time on slow vs fast servers.

    The paper throttles some servers' CPU to 40% and compares Galloper
    codes built with homogeneous weights against weights from the
    performance LP.  With heterogeneity-aware weights the slow servers
    hold proportionally less original data and the two server classes
    finish together.
    """
    speeds = [1.0] * num_fast + [slow_speed] * num_slow
    cluster = Cluster.heterogeneous(speeds)
    dfs = DistributedFileSystem(cluster)
    file_bytes = 4 * block_bytes

    dfs.write_virtual_file("homo", file_bytes, code=GalloperCode(4, 2, 1))
    dfs.write_virtual_file(
        "hetero",
        file_bytes,
        code_factory=lambda perf: GalloperCode(4, 2, 1, performances=perf),
    )
    runtime = MapReduceRuntime(dfs, execute=False)

    table = Table(
        title="Fig 10 — avg map task time by server class (s)",
        columns=("weights", "slow_servers", "fast_servers", "map_phase"),
    )
    results = {}
    for label, fmt_file in (("homogeneous", "homo"), ("heterogeneous", "hetero")):
        res = runtime.run(wordcount_job(fmt_file, num_reducers), GalloperInputFormat())
        by_server = res.map_times_by_server()
        slow = [t for sid, ts in by_server.items() for t in ts if cluster.server(sid).cpu_speed < 1.0]
        fast = [t for sid, ts in by_server.items() for t in ts if cluster.server(sid).cpu_speed >= 1.0]
        results[label] = res
        table.add(
            weights=label,
            slow_servers=sum(slow) / len(slow) if slow else 0.0,
            fast_servers=sum(fast) / len(fast) if fast else 0.0,
            map_phase=res.map_phase_time,
        )
    overall = saving(results["homogeneous"].map_phase_time, results["heterogeneous"].map_phase_time)
    table.note(f"overall map-phase saving {overall:.1f}% (paper: 32.6%)")
    return table


# ------------------------------------------------------------------ ablations


def ablation_weight_assignment() -> Table:
    """Heterogeneity-aware weights vs uniform (Carousel-style) weights.

    The metric is the map makespan in units of block-scans: server ``i``
    processes a ``w_i`` fraction of its block at speed ``p_i``, so the
    phase ends at ``max_i w_i / p_i``.  Uniform weights ignore performance
    and the slowest server dominates; the LP-derived weights equalize
    per-server finish times up to the ``w_i <= 1`` capacity limit.
    """
    table = Table(
        title="Ablation — weight policy, map makespan (block-scans)",
        columns=("performances", "aware", "uniform", "saving_pct"),
    )
    cases = [
        [1, 1, 1, 1, 0.4, 0.4, 0.4],
        [1, 1, 1, 1, 1, 1, 0.1],
        [2, 2, 1, 1, 1, 0.5, 0.5],
        [1, 1, 1, 1, 1, 1, 1],
    ]
    st = LRCStructure(4, 2, 1)
    uniform = [Fraction(st.k, st.n)] * st.n
    for perf in cases:
        aware = assign_weights(st, perf).weights
        aware_mk = max(float(w) / p for w, p in zip(aware, perf))
        uni_mk = max(float(w) / p for w, p in zip(uniform, perf))
        table.add(
            performances=str(perf),
            aware=aware_mk,
            uniform=uni_mk,
            saving_pct=saving(uni_mk, aware_mk),
        )
    return table


def ablation_rotation_wakeups() -> Table:
    """Sec. III-D: rotated striping wakes (almost) every server on repair."""
    table = Table(
        title="Ablation — servers woken per repair (archival wake-up cost)",
        columns=("code", "servers_woken", "blocks_of_io"),
    )
    for name, code in (
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
        ("rotated(4,2,1)", RotatedPyramidCode(4, 2, 1)),
        ("carousel(4,2)", CarouselCode(4, 2)),
    ):
        plan = code.repair_plan(0)
        table.add(
            code=name,
            servers_woken=plan.blocks_read,
            blocks_of_io=sum(plan.read_fractions.values()),
        )
    return table


def extension_all_symbol_locality(block_mb: int = 45) -> Table:
    """The paper's future work, measured: all-symbol locality.

    Adding one XOR parity over the global parities gives them locality g.
    The table shows per-role repair I/O and the storage price, for
    (4, 2, 2) codes.
    """
    table = Table(
        title="Extension — all-symbol locality (k=4, l=2, g=2)",
        columns=("code", "data_repair_mb", "gp_repair_mb", "storage_overhead", "parallel"),
    )
    for name, code in (
        ("galloper", GalloperCode(4, 2, 2)),
        ("galloper+allsym", GalloperCode(4, 2, 2, all_symbol=True)),
        ("pyramid", PyramidCode(4, 2, 2)),
        ("pyramid+allsym", PyramidCode(4, 2, 2, all_symbol=True)),
    ):
        gp = code.structure.global_parity_blocks()[0]
        table.add(
            code=name,
            data_repair_mb=code.repair_plan(0).bytes_read(block_mb * MB) / MB,
            gp_repair_mb=code.repair_plan(gp).bytes_read(block_mb * MB) / MB,
            storage_overhead=code.storage_overhead(),
            parallel=code.parallelism(),
        )
    table.note("the GP-group parity cuts global-parity repair I/O from k to g blocks")
    return table


def ablation_group_placement() -> Table:
    """Group composition matters: snake-dealt vs fast-first placement.

    The Sec. V-B LP throttles a group whose servers are collectively too
    fast (``w_ig <= 1``).  Dealing speed-ranked servers across groups
    (GroupAwarePlacement) equalizes group sums and recovers fully
    proportional weights; the fast-first ordering concentrates fast
    servers in one group and pays for it in makespan.
    """
    from repro.cluster import Cluster, GroupAwarePlacement, PerformanceAwarePlacement

    table = Table(
        title="Ablation — placement vs group constraints (map makespan, block-scans)",
        columns=("speeds", "fast_first", "group_aware", "saving_pct"),
    )
    st = LRCStructure(4, 2, 1)
    for speeds in (
        [1, 1, 1, 1, 0.4, 0.4, 0.4],
        [2, 2, 1, 1, 1, 1, 1],
        [1, 1, 1, 0.5, 0.5, 0.5, 0.25],
    ):
        cluster = Cluster.heterogeneous(speeds)
        results = {}
        for label, policy in (
            ("fast_first", PerformanceAwarePlacement()),
            ("group_aware", GroupAwarePlacement(st)),
        ):
            placement = policy.place(cluster, st.n)
            perf = cluster.performance_vector(placement)
            weights = assign_weights(st, perf).weights
            results[label] = max(float(w) / p for w, p in zip(weights, perf))
        table.add(
            speeds=str(speeds),
            fast_first=results["fast_first"],
            group_aware=results["group_aware"],
            saving_pct=saving(results["fast_first"], results["group_aware"]),
        )
    return table


def extension_reliability() -> Table:
    """Durability and availability analysis across codes (Markov MTTDL).

    Not a paper figure — the operational consequence of Figs. 1/8: faster
    (local) repairs shrink the window in which further failures are
    fatal, so the LRCs out-survive Reed-Solomon at lower repair traffic.
    """
    from repro.analysis import (
        annual_repair_traffic_bytes,
        availability,
        average_repair_reads,
        mttdl_years,
    )

    table = Table(
        title="Extension — durability and availability",
        columns=("code", "mttdl_years", "repair_reads", "traffic_gb_yr", "avail_p1pct", "parallel"),
    )
    for name, code in (
        ("rs(4,2)", ReedSolomonCode(4, 2)),
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
        ("galloper(4,2,2)+as", GalloperCode(4, 2, 2, all_symbol=True)),
        ("replication(x3)", ReplicationCode(4, 3)),
    ):
        rep = availability(code, 0.01)
        table.add(
            code=name,
            mttdl_years=mttdl_years(code),
            repair_reads=average_repair_reads(code),
            traffic_gb_yr=annual_repair_traffic_bytes(code) / (1 << 30),
            avail_p1pct=rep.available,
            parallel=rep.expected_parallelism,
        )
    table.note("MTTDL from the absorbing-CTMC model; availability at 1% transient server downtime")
    return table


def extension_recovery_storm(
    lost_blocks: int = 60, num_servers: int = 20, seed: int = 3
) -> Table:
    """Whole-server recovery under disk contention (event-driven sim).

    Not a paper figure — the cluster-level consequence of repair
    locality: after a server death, all its stripes repair concurrently,
    and the codes' byte counts from Fig. 8 turn into wall-clock recovery
    windows and per-server read hotspots.
    """
    from repro.storage.recovery import simulate_server_recovery

    table = Table(
        title="Extension — server-recovery storm (event-driven simulation)",
        columns=("code", "makespan_s", "mean_repair_s", "bytes_read_gb", "hotspot_mb"),
    )
    for name, code in (
        ("rs(4,2)", ReedSolomonCode(4, 2)),
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
        ("replication(x3)", ReplicationCode(4, 3)),
    ):
        o = simulate_server_recovery(code, lost_blocks, num_servers, seed=seed)
        table.add(
            code=name,
            makespan_s=o.makespan,
            mean_repair_s=o.mean_repair_time,
            bytes_read_gb=o.bytes_read / (1 << 30),
            hotspot_mb=o.max_server_load / (1 << 20),
        )
    table.note(f"{lost_blocks} lost blocks, {num_servers} servers, 64 MB blocks, 100 MB/s disks")
    return table


def extension_degraded_read(payload_kb: int = 256) -> Table:
    """Read amplification of whole-file reads under 0/1/2 server failures.

    A healthy read touches only original-data stripes (1.0x).  Once a
    server is down, the filesystem decodes around it, reading surviving
    blocks — parity included.  The table reports bytes read relative to
    the file size, per code and failure count.
    """
    from repro.cluster import Cluster
    from repro.storage import DistributedFileSystem

    table = Table(
        title="Extension — degraded-read amplification (bytes read / file size)",
        columns=("code", "healthy", "one_failure", "two_failures"),
    )
    payload = np.random.default_rng(11).integers(0, 256, payload_kb * 1024, dtype=np.uint8)
    for name, make in (
        ("rs(4,2)", lambda: ReedSolomonCode(4, 2)),
        ("pyramid(4,2,1)", lambda: PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", lambda: GalloperCode(4, 2, 1)),
        ("carousel(4,2)", lambda: CarouselCode(4, 2)),
    ):
        row = {"code": name}
        for label, failures in (("healthy", 0), ("one_failure", 1), ("two_failures", 2)):
            cluster = Cluster.homogeneous(12)
            dfs = DistributedFileSystem(cluster)
            ef = dfs.write_file("f", payload, code=make())
            for b in range(failures):
                cluster.fail(ef.server_of(b))
            dfs.metrics.reset()
            dfs.read_file("f")
            row[label] = dfs.metrics.total("disk_bytes_read") / (payload_kb * 1024)
        table.add(**row)
    table.note(
        "one lost block is rebuilt from its repair helpers (the k/l group mates for "
        "Pyramid/Galloper, k blocks otherwise); several lost blocks decode from a greedy "
        "minimal decodable subset; both on top of the direct reads of the surviving data"
    )
    return table


def extension_update_cost() -> Table:
    """Write amplification of small in-place updates, per code.

    The flip side of parallelism-aware striping: remapped parity stripes
    mix more file stripes, so a one-stripe write touches slightly more
    servers under Galloper than under Pyramid.  Exact counts from the
    generator columns.
    """
    from repro.codes.update import update_cost

    table = Table(
        title="Extension — update write amplification (per file-stripe write)",
        columns=("code", "avg_stripes", "avg_blocks", "max_blocks"),
    )
    for name, code in (
        ("rs(4,2)", ReedSolomonCode(4, 2)),
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
        ("carousel(4,2)", CarouselCode(4, 2)),
        ("galloper(4,2,2)+as", GalloperCode(4, 2, 2, all_symbol=True)),
    ):
        c = update_cost(code)
        table.add(code=name, **c)
    table.note("avg_blocks = distinct servers written per one-stripe update")
    return table


def extension_durability_campaign(trials: int = 200, seed: int = 7) -> Table:
    """Monte Carlo durability vs the analytic Markov MTTDL.

    Uses deliberately flaky hardware (100 h MTBF, 1 MB/s repair) so
    losses are observable; the empirical estimator should agree with the
    CTMC model within a small factor.
    """
    from repro.analysis import ReliabilityParameters, mttdl_hours
    from repro.analysis.campaign import simulate_durability

    flaky = ReliabilityParameters(
        disk_mtbf_hours=100, repair_bandwidth=1 << 20, block_size_bytes=256 << 20
    )
    table = Table(
        title="Extension — Monte Carlo durability vs Markov model (flaky hardware)",
        columns=("code", "losses", "loss_prob", "empirical_mttdl_h", "analytic_mttdl_h"),
    )
    for name, code in (
        ("rs(4,2)", ReedSolomonCode(4, 2)),
        ("pyramid(4,2,1)", PyramidCode(4, 2, 1)),
        ("galloper(4,2,1)", GalloperCode(4, 2, 1)),
    ):
        res = simulate_durability(code, flaky, trials=trials, horizon_years=2, seed=seed)
        table.add(
            code=name,
            losses=res.losses,
            loss_prob=res.loss_probability,
            empirical_mttdl_h=res.empirical_mttdl_hours,
            analytic_mttdl_h=mttdl_hours(code, flaky),
        )
    table.note(f"{trials} trials x 2 simulated years; MTBF 100 h, 1 MB/s repair bandwidth")
    return table


def extension_speculation(
    slow_speed: float = 0.4, block_bytes: int = PAPER_JOB_BLOCK
) -> Table:
    """Speculative execution vs heterogeneity-aware weights.

    The paper's related work argues that scheduler-level straggler
    mitigation (Zaharia et al. [35]) "does not consider how data are
    stored".  This experiment makes that concrete: Hadoop-style backup
    tasks recover part of the straggler penalty of uniform weights at the
    cost of duplicated work, while performance-matched Galloper weights
    remove the stragglers at the data layout level — no wasted copies.
    """
    from repro.cluster import Cluster
    from repro.storage import DistributedFileSystem

    speeds = [1.0] * 4 + [slow_speed] * 3
    cluster = Cluster.heterogeneous(speeds)
    dfs = DistributedFileSystem(cluster)
    file_bytes = 4 * block_bytes
    dfs.write_virtual_file("uniform", file_bytes, code=GalloperCode(4, 2, 1))
    dfs.write_virtual_file(
        "aware", file_bytes, code_factory=lambda p: GalloperCode(4, 2, 1, performances=p)
    )
    table = Table(
        title="Extension — speculation vs heterogeneity-aware weights",
        columns=("weights", "speculation", "map_phase_s", "backup_copies"),
    )
    for file_name, spec in (
        ("uniform", False),
        ("uniform", True),
        ("aware", False),
        ("aware", True),
    ):
        runtime = MapReduceRuntime(dfs, execute=False, speculative=spec)
        res = runtime.run(wordcount_job(file_name, 8), GalloperInputFormat())
        table.add(
            weights=file_name,
            speculation=spec,
            map_phase_s=res.map_phase_time,
            backup_copies=res.speculative_copies,
        )
    table.note("aware weights beat speculation on makespan and waste zero duplicate work")
    return table


def extension_rack_traffic(payload_kb: int = 128) -> Table:
    """Cross-rack repair traffic: rack-aware LRC layout vs scattered RS.

    Repair groups placed one-per-rack keep group-local repairs entirely
    inside the rack; only global-parity repairs touch the aggregation
    network.  Reed-Solomon, with no groups to exploit, pays cross-rack
    for nearly every helper byte.  The sweep fails every server that
    holds a block, one at a time, and sums the repair traffic.
    """
    from repro.cluster import Cluster, RackAwarePlacement, RoundRobinPlacement
    from repro.codes import LRCStructure
    from repro.storage import DistributedFileSystem, RepairManager

    table = Table(
        title="Extension — cross-rack repair traffic (per full failure sweep)",
        columns=("code", "bytes_read_kb", "cross_rack_kb", "cross_fraction"),
    )
    payload = np.random.default_rng(13).integers(0, 256, payload_kb * 1024, dtype=np.uint8)
    cases = [
        ("rs(4,2) scattered", lambda: ReedSolomonCode(4, 2), None),
        ("pyramid(4,2,1) rack-aware", lambda: PyramidCode(4, 2, 1), LRCStructure(4, 2, 1)),
        ("galloper(4,2,1) rack-aware", lambda: GalloperCode(4, 2, 1), LRCStructure(4, 2, 1)),
        (
            "galloper(4,2,2)+as rack-aware",
            lambda: GalloperCode(4, 2, 2, all_symbol=True),
            LRCStructure(4, 2, 2, all_symbol=True),
        ),
    ]
    for name, make, st in cases:
        cluster = Cluster.racked(4, 4)
        dfs = DistributedFileSystem(cluster)
        placement = RackAwarePlacement(st) if st is not None else RoundRobinPlacement()
        ef = dfs.write_file("f", payload, code=make(), placement=placement)
        rm = RepairManager(dfs)
        total = cross = 0
        for block in range(ef.code.n):
            victim = ef.server_of(block)
            cluster.fail(victim)
            report = rm.repair_block("f", block)
            total += report.bytes_read
            cross += report.cross_rack_bytes
            cluster.recover(victim)
            dfs.store.drop(victim, "f", block)
            # Move the block back to its original home for a clean sweep.
            rebuilt = dfs.store.get(report.target_server, "f", block)
            dfs.store.drop(report.target_server, "f", block)
            dfs.store.put(victim, "f", block, rebuilt)
            ef.placement[block] = victim
        table.add(
            code=name,
            bytes_read_kb=total / 1024,
            cross_rack_kb=cross / 1024,
            cross_fraction=cross / total if total else 0.0,
        )
    table.note("4 racks x 4 servers; every block failed once; repairs via RepairManager")
    return table


# ------------------------------------------------------------ kernel benches


def kernel_throughput(
    k: int = 6, l: int = 2, g: int = 2, block_bytes: int = 1 * MB, repeats: int = 3
) -> Table:
    """Encode / decode / reconstruct throughput of the compiled-plan kernels.

    MB/s of original payload for the three contenders at ``(k, l, g)``.
    Decode and reconstruction run warm (plans cached), which is the steady
    state of a serving system; :func:`plan_cache_speedup` isolates the
    cold/warm gap.
    """
    table = Table(
        title="Kernel throughput (MB/s)",
        columns=("code", "encode_mb_s", "decode_mb_s", "reconstruct_mb_s"),
    )
    codes = {
        "rs": ReedSolomonCode(k, l + g),
        "pyramid": PyramidCode(k, l, g),
        "galloper": GalloperCode(k, l, g),
    }
    for name, code in codes.items():
        data = _data_for(code, block_bytes, seed=5)
        payload_mb = data.nbytes / MB
        enc_t = time_call(lambda c=code, d=data: c.encode(d), repeats)
        blocks = code.encode(data)
        available = {b: blocks[b] for b in _post_loss_ids(name, code)}
        dec_t = time_call(lambda c=code, a=available: c.decode(a), repeats)
        target = 0
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        plan = code.repair_plan(target)
        rec_t = time_call(lambda c=code, a=avail, p=plan: c.reconstruct(target, a, p), repeats)
        block_mb = blocks[target].nbytes / MB
        table.add(
            code=name,
            encode_mb_s=payload_mb / enc_t,
            decode_mb_s=payload_mb / dec_t,
            reconstruct_mb_s=block_mb / rec_t,
        )
    table.note(f"(k={k}, l={l}, g={g}), block {block_bytes // 1024} KiB, warm plan cache")
    return table


def plan_cache_speedup(
    k: int = 6, l: int = 2, g: int = 2, block_bytes: int = 16 * 1024, repeats: int = 5
) -> Table:
    """Repeated same-pattern reconstruction: cold plans vs the LRU cache.

    Cold clears the plan cache before every call, so each reconstruction
    pays for ``express_rows`` (Gauss-Jordan) and table compilation; warm
    reuses the compiled plan — the repair-storm steady state.
    """
    table = Table(
        title="Plan cache — repeated same-pattern reconstruction",
        columns=("code", "cold_s", "warm_s", "speedup"),
    )
    codes = {
        "rs": ReedSolomonCode(k, l + g),
        "pyramid": PyramidCode(k, l, g),
        "galloper": GalloperCode(k, l, g),
    }
    for name, code in codes.items():
        data = _data_for(code, block_bytes, seed=23)
        blocks = code.encode(data)
        target = 0
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        plan = code.repair_plan(target)

        def cold(c=code, a=avail, p=plan):
            c.clear_plan_cache()
            c.reconstruct(target, a, p)

        cold_t = time_call(cold, repeats)
        warm_t = time_call(lambda c=code, a=avail, p=plan: c.reconstruct(target, a, p), repeats)
        table.add(code=name, cold_s=cold_t, warm_s=warm_t, speedup=cold_t / warm_t)
    table.note(f"(k={k}, l={l}, g={g}), block {block_bytes // 1024} KiB, best of {repeats}")
    return table


def _interleaved_best(fast, slow, repeats: int) -> tuple[float, float]:
    """Best-of timing with the two kernels alternated call-by-call.

    Timing each side in its own window lets a transient slowdown (another
    tenant, a frequency dip) land entirely on one kernel and skew the ratio;
    alternating spreads any burst across both measurements.
    """
    fast_t = slow_t = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fast()
        t1 = time.perf_counter()
        slow()
        t2 = time.perf_counter()
        fast_t = min(fast_t, t1 - t0)
        slow_t = min(slow_t, t2 - t1)
    return fast_t, slow_t


def gf16_kernel_speedup(
    k: int = 6, r: int = 4, block_bytes: int = 1 * MB, repeats: int = 7
) -> Table:
    """GF(2^16) encode: packed gather tables vs the seed log/antilog loop.

    The seed kernel fell back to per-coefficient ``axpy`` with log/antilog
    arithmetic (and int64 temporaries) for fields wider than 8 bits; the
    packed kernel gathers four pre-multiplied output lanes per ``uint64``
    table entry.

    Two comparisons are reported.  ``rs encode`` is the end-to-end encode:
    both sides get the systematic rows nearly free (plan: row copies; seed:
    the ``c == 1`` XOR shortcut in ``axpy``), and the normalized Cauchy
    parity also contains a row of unit coefficients, so the ratio is diluted
    by work the fallback never did.  ``dense kernel`` measures the parity
    sub-matrix with every unit coefficient re-scaled away — the arithmetic
    the log/antilog fallback actually pays for, and the number comparable to
    ISA-L's table-lookup-vs-log speedups.
    """
    from repro.gf import GF65536, mat_data_product, mat_data_product_reference

    table = Table(
        title="GF(2^16) encode — packed gather tables vs log/antilog fallback",
        columns=("comparison", "kernel", "time_s", "mb_s", "speedup"),
    )
    code = ReedSolomonCode(k, r, gf=GF65536)
    data = _data_for(code, block_bytes // 2, seed=31)  # uint16 symbols
    payload_mb = data.nbytes / MB
    code.encode(data)  # build tables once; steady state is what we measure
    fast_t, slow_t = _interleaved_best(
        lambda: code.encode(data),
        lambda: mat_data_product_reference(code.gf, code.generator, data),
        repeats,
    )
    table.add(
        comparison="rs encode",
        kernel="log/antilog (seed)",
        time_s=slow_t,
        mb_s=payload_mb / slow_t,
        speedup=1.0,
    )
    table.add(
        comparison="rs encode",
        kernel="packed tables",
        time_s=fast_t,
        mb_s=payload_mb / fast_t,
        speedup=slow_t / fast_t,
    )

    # Dense-parity comparison: scale each parity row by a non-unit constant
    # (a pure relabeling of the parity symbols — the code is unchanged) so
    # neither side gets the c == 1 shortcut anywhere.
    gf = code.gf
    parity = code.generator[k * code.N :].copy()
    for i in range(parity.shape[0]):
        scale = gf.mul(2, i + 2) or 2
        nz = parity[i] != 0
        parity[i, nz] = [gf.mul(int(scale), int(c)) for c in parity[i, nz]]
    dense_plan = CodingPlan(gf, parity)
    dense_plan.apply(data)  # build tables
    fast_d, slow_d = _interleaved_best(
        lambda: dense_plan.apply(data),
        lambda: mat_data_product_reference(gf, parity, data),
        repeats,
    )
    table.add(
        comparison="dense kernel",
        kernel="log/antilog (seed)",
        time_s=slow_d,
        mb_s=payload_mb / slow_d,
        speedup=1.0,
    )
    table.add(
        comparison="dense kernel",
        kernel="packed tables",
        time_s=fast_d,
        mb_s=payload_mb / fast_d,
        speedup=slow_d / fast_d,
    )
    table.note(f"rs(k={k}, r={r}) over GF(2^16), payload {payload_mb:.1f} MB of uint16 symbols")
    return table


def xor_schedule_speedup(block_bytes: int = 1 * MB, repeats: int = 7) -> Table:
    """XOR-schedule tier vs the packed table kernel, across plan shapes.

    Each row times the same coding product with ``kernel="xor"`` and
    ``kernel="table"`` forced (interleaved best-of), asserting the two
    tiers byte-identical against each other and the seed reference
    inside the run.  The ``auto`` column reports what the unforced
    heuristic picks for that shape — ``xor`` for the XOR-heavy plans the
    tier exists for (single-parity encode, Pyramid/Galloper local
    repair, whose coefficients are 0/1 or all-ones), ``packed-*`` for
    dense Cauchy matrices where the honest answer is that the schedule
    loses and the fallback is correct.
    """
    from repro.gf import (
        GF65536,
        XorSchedule,
        bitmatrix_density,
        mat_data_product_reference,
    )

    table = Table(
        title="XOR-schedule tier vs packed tables",
        columns=(
            "shape", "field", "auto", "density", "xors", "raw_xors",
            "table_s", "xor_s", "speedup",
        ),
    )

    def contest(shape: str, gf, coeffs, data) -> None:
        coeffs = np.asarray(coeffs)
        tab = CodingPlan(gf, coeffs, kernel="table")
        xor = CodingPlan(gf, coeffs, kernel="xor")
        auto = CodingPlan(gf, coeffs)
        want = tab.apply(data)
        if not np.array_equal(want, xor.apply(data)) or not np.array_equal(
            want, mat_data_product_reference(gf, coeffs, data)
        ):
            raise AssertionError(f"kernel tiers disagree on {shape}")
        out_t, out_x = np.empty_like(want), np.empty_like(want)
        xor_t, tab_t = _interleaved_best(
            lambda: xor.apply(data, out=out_x),
            lambda: tab.apply(data, out=out_t),
            repeats,
        )
        stats = XorSchedule.compile(gf, coeffs).stats
        table.add(
            shape=shape,
            field=f"GF(2^{gf.q})",
            auto=auto.kernel,
            density=round(bitmatrix_density(gf, coeffs), 4),
            xors=stats["xors"],
            raw_xors=stats["raw_xors"],
            table_s=tab_t,
            xor_s=xor_t,
            speedup=tab_t / xor_t,
        )

    rs = ReedSolomonCode(10, 1)
    contest("rs(10,1) encode", rs.gf, rs.generator, _data_for(rs, block_bytes, seed=41))

    gal = GalloperCode(4, 2, 1)
    helpers = gal.repair_plan(0).helpers
    repair = gal.compile_reconstruct(0, helpers)
    gal_data = random_symbols(gal.gf, (repair.n, block_bytes // gal.N), seed=43)
    contest("galloper(4,2,1) local repair", gal.gf, repair.coeffs, gal_data)

    pyr = PyramidCode(4, 2, 1)
    p_helpers = pyr.repair_plan(0).helpers
    p_repair = pyr.compile_reconstruct(0, p_helpers)
    pyr_data = random_symbols(pyr.gf, (p_repair.n, block_bytes // pyr.N), seed=47)
    contest("pyramid(4,2,1) local repair", pyr.gf, p_repair.coeffs, pyr_data)

    # Honest dense row: a Cauchy generator's companion expansion is ~half
    # ones, so the schedule loses and auto must stay on the tables.
    contest(
        "galloper(4,2,1) encode", gal.gf, gal.generator,
        _data_for(gal, block_bytes, seed=53),
    )

    rs16 = ReedSolomonCode(10, 1, gf=GF65536)
    contest(
        "rs(10,1) encode", rs16.gf, rs16.generator,
        _data_for(rs16, block_bytes // 2, seed=59),
    )

    table.note(f"payload ~{block_bytes // MB} MB per data row set, best of {repeats}, interleaved")
    return table


def wide_stripe_throughput(
    k_values=(50, 100), r: int = 4, block_bytes: int = 1 * MB, repeats: int = 5
) -> Table:
    """Wide-stripe (k >= 50) encode: native tier vs the best numpy tier.

    The regime the native tier exists for — "Making Wide Stripes
    Practical" -style codes where the per-(coefficient, data row) gather
    cost dominates encode.  Each row times a full RS(k, r) GF(2^8)
    encode through three forced plans (``table``, ``xor``, ``native``,
    byte-equality asserted against the seed reference inside the run)
    and reports the native tier's absolute GB/s of original payload plus
    its speedup over whichever numpy tier won.  On a host with no C
    toolchain the native columns are NaN and the numpy columns still
    record, so downstream consumers key off
    :func:`repro.gf.native_available`.
    """
    from repro.gf import mat_data_product_reference, native_available

    table = Table(
        title="Wide-stripe encode — native tier vs best numpy tier (GB/s)",
        columns=(
            "k", "payload_mb", "numpy_kernel", "numpy_s", "numpy_gb_s",
            "native_s", "native_gb_s", "native_speedup",
        ),
    )
    have_native = native_available()
    for k in k_values:
        code = ReedSolomonCode(k, r)
        data = _data_for(code, block_bytes, seed=61 + k)
        gen = code.generator
        tab = CodingPlan(code.gf, gen, kernel="table")
        xor = CodingPlan(code.gf, gen, kernel="xor")
        want = tab.apply(data)
        if not np.array_equal(want, mat_data_product_reference(code.gf, gen, data)):
            raise AssertionError(f"table tier wrong at k={k}")
        if not np.array_equal(want, xor.apply(data)):
            raise AssertionError(f"xor tier disagrees at k={k}")
        out_a, out_b = np.empty_like(want), np.empty_like(want)
        xor_t, tab_t = _interleaved_best(
            lambda x=xor, o=out_a: x.apply(data, out=o),
            lambda t=tab, o=out_b: t.apply(data, out=o),
            repeats,
        )
        numpy_t = min(tab_t, xor_t)
        numpy_kernel = tab.kernel if tab_t <= xor_t else xor.kernel
        row = {
            "k": k,
            "payload_mb": data.nbytes / MB,
            "numpy_kernel": numpy_kernel,
            "numpy_s": numpy_t,
            "numpy_gb_s": data.nbytes / numpy_t / 1e9,
            "native_s": float("nan"),
            "native_gb_s": float("nan"),
            "native_speedup": float("nan"),
        }
        if have_native:
            nat = CodingPlan(code.gf, gen, kernel="native")
            if not np.array_equal(want, nat.apply(data)):
                raise AssertionError(f"native tier disagrees at k={k}")
            out_n = np.empty_like(want)
            nat_t, _ = _interleaved_best(
                lambda n=nat, o=out_n: n.apply(data, out=o),
                lambda t=tab, o=out_b: t.apply(data, out=o),
                repeats,
            )
            row["native_s"] = nat_t
            row["native_gb_s"] = data.nbytes / nat_t / 1e9
            row["native_speedup"] = numpy_t / nat_t
        table.add(**row)
    table.note(
        f"rs(k, {r}) over GF(2^8), payload {block_bytes // MB} MB per data row set, "
        f"best of {repeats}, interleaved; native backend "
        f"{'available' if have_native else 'UNAVAILABLE (numpy only)'}"
    )
    return table


def ablation_construction_cost(k_values=(4, 8, 12)) -> Table:
    """Construction (generator build) time: the price of symbol remapping."""
    table = Table(
        title="Ablation — code construction time (s)",
        columns=("k", "pyramid", "galloper_uniform", "galloper_hetero"),
    )
    for k in k_values:
        t0 = time.perf_counter()
        PyramidCode(k, 2, 1)
        t1 = time.perf_counter()
        GalloperCode(k, 2, 1)
        t2 = time.perf_counter()
        perf = [1.0] * (k + 2) + [0.4]
        GalloperCode(k, 2, 1, performances=perf)
        t3 = time.perf_counter()
        table.add(k=k, pyramid=t1 - t0, galloper_uniform=t2 - t1, galloper_hetero=t3 - t2)
    return table
