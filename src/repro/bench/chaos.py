"""End-to-end chaos campaign: byte-exactness under seeded fault schedules.

A campaign runs many :class:`~repro.faults.schedule.ChaosSchedule`
scenarios — crash/recover traces composed with flaky, gray, spiky and
corrupting servers — against a live filesystem per code family, reading
the file back at checkpoints throughout the scenario and repairing
crash-lost blocks as it goes.  Every read must be byte-identical to the
original payload (degraded decodes, retries, hedges and breaker
fast-fails included) or fail loudly with a
:class:`~repro.codes.base.DecodingError`; silently wrong bytes are a
campaign failure.

The campaign also measures the *latency cost* of resilience: the mean
simulated read time under chaos over the clean-cluster baseline.  Every
counter in the record is one the campaign's own filesystem produced;
its repairs run one after another, so nothing here throttles them (the
gateway's repair tenant and the reliability simulator are where repairs
are concurrent — ``docs/ROBUSTNESS.md``).

``benchmarks/run_chaos.py`` wraps :func:`run_campaign` into the
``BENCH_chaos.json`` trajectory file; the ``chaos``-marked smoke test
runs a small fixed-seed slice of it in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import DecodingError
from repro.core import GalloperCode
from repro.faults import ChaosSchedule, generate_schedules
from repro.storage import DistributedFileSystem, FileSystemError, RepairManager

#: Servers per campaign cluster — enough spares to re-home every block of
#: the widest code (n = 7) after repeated crashes.
NUM_SERVERS = 10

#: The code families under test: the RS baseline plus both locally
#: repairable constructions the paper compares.
CAMPAIGN_CODES = [
    ("rs(4,2)", lambda: ReedSolomonCode(4, 2)),
    ("pyramid(4,2,1)", lambda: PyramidCode(4, 2, 1)),
    ("galloper(4,2,1)", lambda: GalloperCode(4, 2, 1)),
]

#: Simulated seconds each schedule runs for.
HORIZON = 30.0

#: Bytes of the one file each run writes and reads back.
PAYLOAD_BYTES = 12_000

#: Read attempts per checkpoint, and the sim seconds the clock advances
#: after each one that cannot decode.
RETRY_ROUNDS = 8
RETRY_STEP = 2.0


def _payload(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=PAYLOAD_BYTES, dtype=np.uint8).tobytes()


@dataclass
class ScheduleResult:
    """One (schedule, code) run."""

    seed: int
    code: str
    reads: int = 0
    mismatches: int = 0
    unavailable: int = 0
    crashes_applied: int = 0
    repair_failures: int = 0
    read_latencies: list[float] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def mean_read_latency(self) -> float:
        return sum(self.read_latencies) / len(self.read_latencies) if self.read_latencies else 0.0


def baseline_read_latency(make_code) -> float:
    """Simulated ``read_file`` time on a clean, fault-free cluster."""
    cluster = Cluster.homogeneous(NUM_SERVERS)
    dfs = DistributedFileSystem(cluster)
    dfs.write_file("chaos", _payload(0), code=make_code())
    t0 = dfs.clock.now
    dfs.read_file("chaos")
    return dfs.clock.now - t0


def run_schedule(
    schedule: ChaosSchedule,
    code_name: str,
    make_code,
    *,
    checkpoints: int = 8,
) -> ScheduleResult:
    """Drive one schedule against one code; returns the run's accounting.

    At each checkpoint the whole file is read back and compared against
    the original payload, then crash-lost blocks are repaired.  A read
    that cannot decode (too many simultaneous exclusions) is retried a
    few times with the clock advanced — breakers half-open, fault windows
    close — before being counted ``unavailable``.
    """
    cluster = Cluster.homogeneous(NUM_SERVERS)
    dfs = DistributedFileSystem(cluster, fault_model=schedule.fault_model())
    payload = _payload(schedule.seed)
    dfs.write_file("chaos", payload, code=make_code())
    runner = schedule.runner()
    repair = RepairManager(dfs)
    result = ScheduleResult(seed=schedule.seed, code=code_name)

    step = schedule.horizon / checkpoints
    for i in range(checkpoints):
        target = (i + 1) * step
        if dfs.clock.now < target:
            dfs.clock.advance(target - dfs.clock.now)
        runner.advance_to(cluster, dfs.clock.now)

        t0 = dfs.clock.now
        data = None
        for _ in range(RETRY_ROUNDS):
            runner.advance_to(cluster, dfs.clock.now)
            try:
                data = dfs.read_file("chaos")
                break
            except DecodingError:
                dfs.clock.advance(RETRY_STEP)
        result.reads += 1
        result.read_latencies.append(dfs.clock.now - t0)
        if data is None:
            result.unavailable += 1
        elif data != payload:
            result.mismatches += 1

        try:
            repair.repair_all()
        except (FileSystemError, DecodingError):
            result.repair_failures += 1

    runner.advance_to(cluster, schedule.horizon * 10)
    result.crashes_applied = sum(1 for _, kind, _ in runner.applied if kind == "crash")

    result.metrics = dfs.metrics.snapshot()
    return result


def run_campaign(
    *,
    schedules: int = 50,
    base_seed: int = 2018,
    checkpoints: int = 8,
) -> dict:
    """Run the full campaign; returns the aggregate record.

    The record's headline fields are the acceptance criteria of the
    resilience layer: ``mismatches`` must be 0, and the ``retries`` /
    ``hedged_reads`` / ``breaker_opens`` / ``degraded_reads`` /
    ``reconstructions`` totals must all be nonzero (each fault class was
    actually exercised).
    """
    plans = generate_schedules(range(NUM_SERVERS), schedules, base_seed=base_seed, horizon=HORIZON)
    totals: dict[str, float] = {}
    per_code: dict[str, dict] = {}
    runs: list[ScheduleResult] = []

    for code_name, make_code in CAMPAIGN_CODES:
        baseline = baseline_read_latency(make_code)
        latencies: list[float] = []
        for schedule in plans:
            r = run_schedule(schedule, code_name, make_code, checkpoints=checkpoints)
            runs.append(r)
            latencies.append(r.mean_read_latency)
            for name, value in r.metrics.items():
                totals[name] = totals.get(name, 0.0) + value
        mean_latency = sum(latencies) / len(latencies)
        per_code[code_name] = {
            "baseline_read_latency": baseline,
            "mean_chaos_read_latency": mean_latency,
            "degraded_read_overhead": mean_latency / baseline if baseline else float("inf"),
            "mismatches": sum(r.mismatches for r in runs if r.code == code_name),
            "unavailable": sum(r.unavailable for r in runs if r.code == code_name),
        }

    interesting = (
        "retries",
        "hedged_reads",
        "hedged_wins",
        "read_timeouts",
        "breaker_opens",
        "breaker_fastfails",
        "decode_replans",
        "repair_replans",
        "transient_read_errors",
        "checksum_failures",
        "degraded_reads",
        "reconstructions",
    )
    return {
        "schedules": schedules,
        "base_seed": base_seed,
        "checkpoints": checkpoints,
        "horizon": HORIZON,
        "codes": [name for name, _ in CAMPAIGN_CODES],
        "runs": len(runs),
        "reads": sum(r.reads for r in runs),
        "mismatches": sum(r.mismatches for r in runs),
        "unavailable": sum(r.unavailable for r in runs),
        "crashes_applied": sum(r.crashes_applied for r in runs),
        "repair_failures": sum(r.repair_failures for r in runs),
        "metrics": {name: totals.get(name, 0.0) for name in interesting},
        "per_code": per_code,
    }
