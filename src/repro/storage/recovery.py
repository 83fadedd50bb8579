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
from collections import deque
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
        repairs_throttled: helper reads deferred by admission control
            (0 when the storm runs unthrottled).
    """

    makespan: float
    repair_times: list[float] = field(default_factory=list)
    bytes_read: int = 0
    bytes_read_by_server: dict[int, int] = field(default_factory=dict)
    repairs_throttled: int = 0

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
    max_repair_reads_per_server: int | None = None,
    batch_groups: int = 1,
    seek_time: float = 0.0,
) -> RecoveryOutcome:
    """Simulate rebuilding ``lost_blocks`` stripes after one server failure.

    Each lost stripe loses a rotating block index (so data, local-parity
    and global-parity repairs all occur in proportion), and its surviving
    blocks sit on ``code.n - 1`` distinct servers sampled from the
    ``num_servers - 1`` survivors.  Rebuilt blocks are written round-robin
    across the survivors.

    ``max_repair_reads_per_server`` enables admission control: at most
    that many repair reads may be queued on one server's disk at a time;
    excess reads wait their turn (counted in ``repairs_throttled``), so a
    storm leaves disk time for foreground traffic instead of burying
    every spindle under the full repair backlog at t=0.

    ``batch_groups`` models the batched repair pipeline: up to that many
    repairs of the *same* lost block index coalesce into one batch, and
    within a batch all reads hitting the same helper server merge into a
    single sequential transfer paying ``seek_time`` once instead of once
    per repair.  ``seek_time`` is the fixed per-request disk occupancy
    (seek + request setup) in seconds; block writes always pay it.  The
    defaults (``batch_groups=1, seek_time=0.0``) reproduce the
    unbatched storm event-for-event.

    Returns the storm's timing and load profile.
    """
    if num_servers <= code.n:
        raise ValueError(f"need more than {code.n} servers, got {num_servers}")
    if batch_groups < 1:
        raise ValueError("batch_groups must be >= 1")
    if seek_time < 0:
        raise ValueError("seek_time must be >= 0")
    rng = random.Random(seed)
    sim = Simulation()
    survivors = list(range(num_servers - 1))  # server num_servers-1 failed
    disks = {s: ThroughputResource(sim, disk_bandwidth, name=f"disk{s}") for s in survivors}

    outcome = RecoveryOutcome(makespan=0.0)
    pending: dict[int, int] = {}  # repair id -> outstanding transfers
    finish: dict[int, float] = {}

    # Admission control: per-server in-flight read counts and FIFO wait
    # queues.  A completed read admits the next deferred one.
    inflight: dict[int, int] = {s: 0 for s in survivors}
    deferred: dict[int, deque] = {s: deque() for s in survivors}

    def submit_read(server: int, nbytes: int, cb, name: str) -> None:
        if max_repair_reads_per_server is not None and inflight[server] >= max_repair_reads_per_server:
            outcome.repairs_throttled += 1
            deferred[server].append((nbytes, cb, name))
            return
        inflight[server] += 1

        def done(t: float, _server=server, _cb=cb) -> None:
            inflight[_server] -= 1
            if deferred[_server]:
                nb, next_cb, nm = deferred[_server].popleft()
                submit_read(_server, nb, next_cb, nm)
            _cb(t)

        disks[server].transfer(nbytes, done, name=name, delay=seek_time)

    def flush_batch(members: list[tuple[int, list[tuple[int, int]], int]]) -> None:
        """Submit one batch: same-server reads merge into one transfer."""
        agg: dict[int, int] = {}
        for _, reads, _ in members:
            for server, nbytes in reads:
                agg[server] = agg.get(server, 0) + nbytes
        batch_id = members[0][0]
        pending[batch_id] = len(agg)

        def on_read_done(t: float) -> None:
            pending[batch_id] -= 1
            if pending[batch_id] == 0:
                # All inputs present: write every rebuilt block of the batch.
                for rid, _, write_server in members:
                    disks[write_server].transfer(
                        block_bytes,
                        lambda wt, _rid=rid: finish.__setitem__(_rid, wt),
                        name=f"write{rid}",
                        delay=seek_time,
                    )

        for server, nbytes in agg.items():
            submit_read(server, nbytes, on_read_done, name=f"read{batch_id}")

    batches: dict[int, list[tuple[int, list[tuple[int, int]], int]]] = {}
    for i in range(lost_blocks):
        target_block = i % code.n
        plan = code.repair_plan(target_block)
        # Place the stripe's surviving blocks on distinct survivor servers.
        holders = rng.sample(survivors, code.n - 1)
        other_blocks = [b for b in range(code.n) if b != target_block]
        server_of = dict(zip(other_blocks, holders))
        writer = survivors[i % len(survivors)]

        reads = []
        fractions = plan.read_fractions
        for helper in plan.helpers:
            nbytes = int(fractions[helper] * block_bytes)
            server = server_of[helper]
            outcome.bytes_read += nbytes
            outcome.bytes_read_by_server[server] = (
                outcome.bytes_read_by_server.get(server, 0) + nbytes
            )
            reads.append((server, nbytes))

        batches.setdefault(target_block, []).append((i, reads, writer))
        if len(batches[target_block]) >= batch_groups:
            flush_batch(batches.pop(target_block))
    for target_block in sorted(batches):
        flush_batch(batches[target_block])

    sim.run()
    outcome.repair_times = [finish[i] for i in sorted(finish)]
    outcome.makespan = max(outcome.repair_times, default=0.0)
    return outcome
