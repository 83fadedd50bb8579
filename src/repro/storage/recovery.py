"""Event-driven simulation of whole-server recovery ("reconstruction storm").

When a server dies, *every* stripe with a block on it must repair at
once, and the repairs compete for the surviving servers' disk bandwidth.
This is where repair locality pays off twice: a locally repairable code
reads fewer bytes per repair *and* spreads those reads over small,
mostly-disjoint helper sets, so the storm drains faster.

The simulation places each lost stripe's surviving blocks on random
distinct servers (seeded), asks the code for its repair plan, enqueues
the helper reads on per-server disk pipes
(:class:`~repro.sim.resources.ThroughputResource`), and completes a
repair when its slowest read plus the rebuilt block's write finish.  The
makespan of the storm is the cluster's window of reduced redundancy —
the quantity that drives the MTTDL difference measured in
:mod:`repro.analysis.reliability`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.codes.base import ErasureCode
from repro.sim.engine import Simulation
from repro.sim.resources import ThroughputResource

MB = 1 << 20


@dataclass
class RecoveryOutcome:
    """Result of one simulated server-recovery storm.

    Attributes:
        makespan: time until the last lost block is rebuilt (seconds).
        repair_times: completion time of each block repair.
        bytes_read: total helper bytes read.
        bytes_read_by_server: per-helper-server read volume.
        max_server_load: largest per-server read volume (the hotspot).
    """

    makespan: float
    repair_times: list[float] = field(default_factory=list)
    bytes_read: int = 0
    bytes_read_by_server: dict[int, int] = field(default_factory=dict)

    @property
    def max_server_load(self) -> int:
        return max(self.bytes_read_by_server.values(), default=0)

    @property
    def mean_repair_time(self) -> float:
        return sum(self.repair_times) / len(self.repair_times) if self.repair_times else 0.0


def simulate_server_recovery(
    code: ErasureCode,
    lost_blocks: int,
    num_servers: int,
    block_bytes: int = 64 * MB,
    disk_bandwidth: float = 100 * MB,
    seed: int = 0,
) -> RecoveryOutcome:
    """Simulate rebuilding ``lost_blocks`` stripes after one server failure.

    Each lost stripe loses a rotating block index (so data, local-parity
    and global-parity repairs all occur in proportion), and its surviving
    blocks sit on ``code.n - 1`` distinct servers sampled from the
    ``num_servers - 1`` survivors.  Rebuilt blocks are written round-robin
    across the survivors.

    Returns the storm's timing and load profile.
    """
    if num_servers <= code.n:
        raise ValueError(f"need more than {code.n} servers, got {num_servers}")
    rng = random.Random(seed)
    sim = Simulation()
    survivors = list(range(num_servers - 1))  # server num_servers-1 failed
    disks = {s: ThroughputResource(sim, disk_bandwidth, name=f"disk{s}") for s in survivors}

    outcome = RecoveryOutcome(makespan=0.0)
    pending: dict[int, int] = {}  # repair id -> outstanding reads
    finish: dict[int, float] = {}

    for i in range(lost_blocks):
        target_block = i % code.n
        plan = code.repair_plan(target_block)
        # Place the stripe's surviving blocks on distinct survivor servers.
        holders = rng.sample(survivors, code.n - 1)
        other_blocks = [b for b in range(code.n) if b != target_block]
        server_of = dict(zip(other_blocks, holders))
        writer = survivors[i % len(survivors)]

        def on_read_done(t: float, _rid=i, _writer=writer) -> None:
            pending[_rid] -= 1
            if pending[_rid] == 0:
                # All inputs present: write the rebuilt block.
                disks[_writer].transfer(
                    block_bytes,
                    lambda wt: finish.__setitem__(_rid, wt),
                    name=f"write{_rid}",
                )

        pending[i] = len(plan.helpers)
        fractions = plan.read_fractions
        for helper in plan.helpers:
            nbytes = int(fractions[helper] * block_bytes)
            server = server_of[helper]
            outcome.bytes_read += nbytes
            outcome.bytes_read_by_server[server] = (
                outcome.bytes_read_by_server.get(server, 0) + nbytes
            )
            disks[server].transfer(nbytes, on_read_done, name=f"read{i}")

    sim.run()
    outcome.repair_times = [finish[i] for i in sorted(finish)]
    outcome.makespan = max(outcome.repair_times, default=0.0)
    return outcome
