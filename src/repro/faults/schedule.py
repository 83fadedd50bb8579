"""Seeded chaos schedules: crash traces composed with transient faults.

A :class:`ChaosSchedule` is everything one campaign run injects into a
cluster: a bounded crash/recover trace (built on
:func:`~repro.cluster.failure.poisson_failure_trace`) plus a set of
:class:`~repro.faults.model.FaultComponent` behaviours (flaky servers,
gray slowdowns, background error/spike/corruption rates).  Schedules are
pure functions of their seed, so a campaign of N schedules is exactly
reproducible from N integers — the property the chaos CI job asserts.

The crash trace is pruned so that at most ``MAX_CONCURRENT_CRASHES``
servers are ever down at once, a bound every code under test survives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.failure import FailureEvent, poisson_failure_trace
from repro.cluster.topology import Cluster
from repro.faults.model import (
    FaultComponent,
    FaultModel,
    GraySlowdown,
    LatencySpikes,
    SilentCorruption,
    TransientErrors,
)

#: Per-server mean time between crashes and mean time to recover (s).
MTBF = 60.0
MTTR = 10.0
#: Servers down at once, at most (the crash trace is pruned to it).
MAX_CONCURRENT_CRASHES = 1
#: Servers that get a high-error window, and its error rate.
FLAKY_SERVERS = 1
FLAKY_ERROR_RATE = 0.85
#: Servers that get an up-but-slow window, and its extra latency (s).
GRAY_SERVERS = 1
GRAY_LATENCY = 0.08
#: Cluster-wide background rates for the whole horizon.
ERROR_RATE = 0.08
SPIKE_RATE = 0.05
SPIKE_LATENCY = 0.06
CORRUPTION_RATE = 0.02


def bound_concurrent_crashes(events: list[FailureEvent], limit: int) -> list[FailureEvent]:
    """Drop crash events that would exceed ``limit`` simultaneous failures."""
    kept: list[FailureEvent] = []
    active: list[float] = []  # recover times of in-flight crashes (inf = never)
    for ev in sorted(events, key=lambda e: e.time):
        active = [r for r in active if r > ev.time]
        if len(active) >= limit:
            continue
        kept.append(ev)
        active.append(float("inf") if ev.recover_at is None else ev.recover_at)
    return kept


@dataclass(frozen=True)
class ChaosSchedule:
    """One seeded campaign scenario.

    Attributes:
        seed: the integer the whole schedule derives from.
        horizon: length of the scenario in simulated seconds.
        crashes: crash/recover trace, already concurrency-bounded.
        components: transient-fault behaviours for the
            :class:`~repro.faults.model.FaultModel`.
    """

    seed: int
    horizon: float
    crashes: tuple[FailureEvent, ...]
    components: tuple[FaultComponent, ...]

    def fault_model(self) -> FaultModel:
        """A fresh seeded model for this schedule's transient faults."""
        return FaultModel(*self.components, seed=self.seed)

    def runner(self) -> "ChaosRunner":
        return ChaosRunner(self)


@dataclass
class ChaosRunner:
    """Stateful applier of a schedule's crash trace to a live cluster.

    Synchronous campaigns poll :meth:`advance_to` as their virtual clock
    moves; every crash/recover event with ``time <= now`` is applied once,
    in order.  Events targeting servers already in the desired state are
    skipped (a crash may race a repair that already replaced the server).
    """

    schedule: ChaosSchedule
    _timeline: list[tuple[float, str, int]] = field(init=False)
    _cursor: int = field(init=False, default=0)

    def __post_init__(self):
        timeline: list[tuple[float, str, int]] = []
        for ev in self.schedule.crashes:
            timeline.append((ev.time, "crash", ev.server_id))
            if ev.recover_at is not None:
                timeline.append((ev.recover_at, "recover", ev.server_id))
        timeline.sort()
        self._timeline = timeline
        self.applied: list[tuple[float, str, int]] = []

    def advance_to(self, cluster: Cluster, now: float) -> list[tuple[float, str, int]]:
        """Apply all due events; returns the ones that took effect."""
        fired: list[tuple[float, str, int]] = []
        while self._cursor < len(self._timeline) and self._timeline[self._cursor][0] <= now:
            t, kind, sid = self._timeline[self._cursor]
            self._cursor += 1
            srv = cluster.server(sid)
            if kind == "crash" and not srv.failed:
                cluster.fail(sid)
            elif kind == "recover" and srv.failed:
                cluster.recover(sid)
            else:
                continue
            fired.append((t, kind, sid))
        self.applied.extend(fired)
        return fired

    @property
    def pending(self) -> int:
        return len(self._timeline) - self._cursor


def generate_schedule(server_ids, seed: int, *, horizon: float = 30.0) -> ChaosSchedule:
    """Derive one schedule from a seed.

    The background rates apply cluster-wide for the whole horizon; on top,
    ``FLAKY_SERVERS`` random servers get a high-error window (the burst
    that trips circuit breakers) and ``GRAY_SERVERS`` get an up-but-slow
    window (the hedging trigger).  Windows land in the middle half of the
    horizon so campaigns see clean, faulty, and recovered phases.
    """
    server_ids = list(server_ids)
    rng = random.Random(seed)
    crashes = bound_concurrent_crashes(
        poisson_failure_trace(server_ids, horizon, MTBF, seed=rng.randrange(1 << 30), mttr=MTTR),
        MAX_CONCURRENT_CRASHES,
    )

    components: list[FaultComponent] = [
        TransientErrors(rate=ERROR_RATE),
        LatencySpikes(rate=SPIKE_RATE, latency=SPIKE_LATENCY),
        SilentCorruption(rate=CORRUPTION_RATE),
    ]

    targets = rng.sample(server_ids, min(len(server_ids), FLAKY_SERVERS + GRAY_SERVERS))
    for sid in targets[:FLAKY_SERVERS]:
        start = rng.uniform(0.1 * horizon, 0.4 * horizon)
        components.append(
            TransientErrors(
                rate=FLAKY_ERROR_RATE,
                servers=frozenset({sid}),
                start=start,
                until=start + rng.uniform(0.2 * horizon, 0.4 * horizon),
            )
        )
    for sid in targets[FLAKY_SERVERS:]:
        start = rng.uniform(0.1 * horizon, 0.4 * horizon)
        components.append(
            GraySlowdown(
                extra_latency=GRAY_LATENCY,
                servers=frozenset({sid}),
                start=start,
                until=start + rng.uniform(0.2 * horizon, 0.4 * horizon),
            )
        )

    return ChaosSchedule(seed=seed, horizon=horizon, crashes=tuple(crashes), components=tuple(components))


def generate_schedules(server_ids, count: int, base_seed: int = 0, **kwargs) -> list[ChaosSchedule]:
    """``count`` schedules with consecutive derived seeds."""
    return [generate_schedule(server_ids, base_seed + i, **kwargs) for i in range(count)]
