"""Failure traces.

Commodity-hardware clusters fail constantly (paper Sec. I); the repair
pipeline and the degraded-read path are exercised by injecting crashes.
This module generates Poisson-process crash traces for simulated
campaigns; a trace is applied by scheduling ``cluster.fail`` /
``cluster.recover`` on the simulation
(:class:`~repro.faults.schedule.ChaosRunner` does it for chaos schedules).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled crash (and optional recovery)."""

    time: float
    server_id: int
    recover_at: float | None = None


def poisson_failure_trace(
    server_ids,
    horizon: float,
    mtbf: float,
    seed: int = 0,
    mttr: float | None = None,
) -> list[FailureEvent]:
    """Generate a deterministic Poisson crash trace.

    Args:
        server_ids: servers eligible to fail.
        horizon: trace length in seconds.
        mtbf: per-server mean time between failures.
        seed: RNG seed (traces are reproducible).
        mttr: mean time to recover; ``None`` leaves servers down, so each
            server fails at most once — a permanent failure terminates
            that server's trace.

    Returns:
        Events sorted by time.
    """
    rng = random.Random(seed)
    events: list[FailureEvent] = []
    for sid in server_ids:
        t = rng.expovariate(1.0 / mtbf)
        while t < horizon:
            rec = None if mttr is None else t + rng.expovariate(1.0 / mttr)
            events.append(FailureEvent(time=t, server_id=sid, recover_at=rec))
            if rec is None:
                # Permanently down: a dead server cannot crash again.
                break
            t = rec + rng.expovariate(1.0 / mtbf)
    events.sort(key=lambda e: e.time)
    return events
