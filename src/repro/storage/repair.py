"""Reconstruction of lost blocks (the repair pipeline).

When a server dies, every block it held must be rebuilt on a replacement.
The repair manager asks each file's code for a
:class:`~repro.codes.base.RepairPlan` — locally repairable codes answer
with their small group (low disk I/O, the point of Fig. 1b/Fig. 8) —
reads the helpers, reconstructs, writes the block to a live server, and
returns byte-exact accounting plus an analytic time estimate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.topology import Cluster, Server
from repro.codes.base import DecodingError, RepairPlan
from repro.obs.trace import get_tracer
from repro.storage import pipeline
from repro.storage.blockstore import BlockUnavailableError
from repro.storage.filesystem import DistributedFileSystem, EncodedFile, FileSystemError
from repro.storage.metrics import MetricsRegistry

#: Decode throughput of one baseline CPU, bytes/second.  Only relative
#: magnitudes matter in the benches; this anchors time estimates.
DECODE_RATE = 400 * (1 << 20)

#: How many times one block rebuild may re-plan around an unreadable
#: helper before giving up.
MAX_HELPER_REPLANS = 8


class LeaseTable:
    """Expiring token leases keyed by an arbitrary hashable.

    The primitive under both repair admission control (keys = helper
    server ids, synchronous clock-advancing waits) and the serving
    gateway's per-tenant QoS throttle (keys = tenant names, coroutine
    waits on the sim loop).  A lease is a bare expiry timestamp; holders
    may also release early by handle, which the serving path uses when a
    request finishes ahead of its estimate.

    Admission asks ``count`` once per request, so nothing here walks the
    live leases: each key keeps its expiries in a heap beside the
    ``handle -> expiry`` dict, expired leases are popped off its top, and
    a lease released early leaves its heap entry behind until that entry
    surfaces.  Every lease is pushed and popped once: O(log n) amortised.
    """

    def __init__(self):
        #: key -> (live ``handle -> expiry`` in grant order, heap of
        #: ``(expiry, handle)`` holding every live lease and some dead ones).
        self._leases: dict[object, tuple[dict[int, float], list[tuple[float, int]]]] = {}
        self._next_handle = 0

    def _live(self, key, now: float) -> dict[int, float]:
        """Live leases on ``key``, after dropping those expired by ``now``."""
        entry = self._leases.get(key)
        if entry is None:
            return {}
        held, heap = entry
        while heap and heap[0][0] <= now:
            held.pop(heapq.heappop(heap)[1], None)
        return held

    def active(self, key, now: float) -> list[float]:
        """Expiries of live leases on ``key``, pruning the expired."""
        return list(self._live(key, now).values())

    def count(self, key, now: float) -> int:
        return len(self._live(key, now))

    def earliest(self, key, now: float) -> float | None:
        """Soonest expiry among live leases on ``key`` (None when free)."""
        held = self._live(key, now)
        if not held:
            return None
        heap = self._leases[key][1]
        while heap[0][1] not in held:  # released early
            heapq.heappop(heap)
        return heap[0][0]

    def grant(self, key, expiry: float) -> int:
        """Record a lease on ``key`` until ``expiry``; returns a handle."""
        self._next_handle += 1
        entry = self._leases.get(key)
        if entry is None:
            entry = self._leases[key] = ({}, [])
        held, heap = entry
        held[self._next_handle] = expiry
        heapq.heappush(heap, (expiry, self._next_handle))
        return self._next_handle

    def release(self, key, handle: int) -> None:
        """Return a lease before its expiry (idempotent)."""
        entry = self._leases.get(key)
        if entry is not None:
            entry[0].pop(handle, None)


class RepairAdmissionController:
    """Token-based throttle bounding concurrent repair reads per server.

    A reconstruction storm turns every surviving server into a repair
    helper at once; without admission control those reads starve
    foreground traffic.  Each repair leases one token per helper server
    for the repair's estimated duration; when a server's tokens are
    exhausted the repair *waits* (advancing the shared clock to the
    earliest lease expiry) instead of piling on — counted in the
    ``repairs_throttled`` metric.  The cap is per server, so a storm
    degrades into bounded waves rather than an unbounded burst.

    Its user is the reliability simulator, whose repairs overlap.
    :class:`RepairManager` reads one helper after another on the clock
    each read advances, so a lease taken there has always expired by the
    next rebuild and it takes none.
    """

    def __init__(
        self,
        clock,
        max_inflight_per_server: int = 4,
        metrics: MetricsRegistry | None = None,
    ):
        if max_inflight_per_server < 1:
            raise ValueError("max_inflight_per_server must be >= 1")
        self.clock = clock
        self.max_inflight_per_server = max_inflight_per_server
        self.metrics = metrics or MetricsRegistry()
        self._leases = LeaseTable()
        self.waits = 0

    def _active(self, server_id: int) -> list[float]:
        return self._leases.active(server_id, self.clock.now)

    def inflight(self, server_id: int) -> int:
        """Repair-read leases currently held on one server."""
        return len(self._active(server_id))

    def acquire(self, server_durations: dict[int, float]) -> float:
        """Lease one token per server for the given durations.

        Blocks (in simulated time) until every server has a free token;
        returns the clock time the leases were granted.
        """
        submitted = self.clock.now
        if server_durations:
            self.metrics.observe(
                "repair_inflight",
                max(float(self.inflight(sid)) for sid in server_durations),
            )
        throttled = False
        while True:
            contended = [
                min(self._active(sid))
                for sid in server_durations
                if len(self._active(sid)) >= self.max_inflight_per_server
            ]
            if not contended:
                break
            if not throttled:
                throttled = True
                self.waits += 1
                self.metrics.add("repairs_throttled", 1)
            self.clock.advance(min(contended) - self.clock.now)
        now = self.clock.now
        self.metrics.observe("repair_wait_s", now - submitted)
        if throttled:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.sim_span(
                    "repair.throttle_wait", "repair", submitted, now,
                    servers=sorted(server_durations),
                )
        for sid, duration in server_durations.items():
            self._leases.grant(sid, now + duration)
        return now


@dataclass
class RepairReport:
    """Accounting for one block reconstruction.

    Attributes:
        file: file name.
        block: rebuilt block id.
        helpers: servers read from.
        bytes_read: total disk bytes read across helpers.
        bytes_read_by_server: per-helper breakdown.
        bytes_written: size of the rebuilt block.
        estimated_time: analytic completion time (parallel helper reads,
            then network transfer, then decode compute, then write).
        target_server: where the block now lives.
    """

    file: str
    block: int
    helpers: tuple[int, ...]
    bytes_read: int
    bytes_read_by_server: dict[int, int]
    bytes_written: int
    estimated_time: float
    target_server: int
    #: Helper bytes that crossed a rack boundary on their way to the
    #: rebuilt block — the aggregation-network cost of the repair.
    cross_rack_bytes: int = 0


@dataclass
class ServerRepairReport:
    """Aggregate of all block repairs after one server failure."""

    server: int
    reports: list[RepairReport] = field(default_factory=list)

    @property
    def bytes_read(self) -> int:
        return sum(r.bytes_read for r in self.reports)

    @property
    def blocks_rebuilt(self) -> int:
        return len(self.reports)

    @property
    def estimated_time(self) -> float:
        return sum(r.estimated_time for r in self.reports)


@dataclass(frozen=True)
class _ServerRanking:
    """How one repair call ranks servers, taken once when the call starts.

    Ranking is by quarantine and circuit-breaker state, which a call asks
    about once per server here instead of once per server per rebuilt
    block.  A helper that turns unreadable during the call is still
    re-planned around, by the rebuild loop that catches its error.

    Attributes:
        targets: live, unquarantined servers, breaker-closed first, then
            by id — the order rebuilt blocks are offered homes in.
        helper_key: per server, the sort key of a helper block stored
            there (avoided servers last, then fastest disk first).
    """

    targets: tuple[Server, ...]
    helper_key: dict[int, tuple[bool, float]]


@dataclass
class _Rebuild:
    """One lost block on its way through :meth:`RepairManager.repair_blocks_bulk`.

    Attributes:
        target_server: where the caller wants the block (``None``: a
            spare picked when it is installed).
        unreadable: blocks no plan may name — the file's dead blocks,
            then every helper whose read failed for this rebuild.
        replans: how many helpers it has re-planned around.
        plan / available / bytes_by_server: the current round's plan,
            the helper stripes read under it and their per-server bytes.
    """

    file: str
    block: int
    target_server: int | None
    ef: EncodedFile
    unreadable: set[int]
    replans: int = 0
    plan: RepairPlan | None = None
    available: dict[int, object] = field(default_factory=dict)
    bytes_by_server: dict[int, int] = field(default_factory=dict)


class RepairManager:
    """Rebuilds lost blocks using each code's repair plan.

    Args:
        dfs: the filesystem to repair.
        prefer_fast_helpers: when the code has freedom in helper choice
            (Reed-Solomon repairs, degraded-group fallbacks), rank helper
            blocks by their server's disk bandwidth so the parallel read
            phase is bounded by a fast disk, not the slowest.  Servers
            with open circuit breakers sort last regardless of speed.

    Attributes:
        quarantine: server ids treated as dead for planning — their
            blocks count as lost, and they are never used as helpers or
            rebuild targets.  The scrubber parks breaker-quarantined
            servers here to route their blocks through repair.
    """

    def __init__(self, dfs: DistributedFileSystem, prefer_fast_helpers: bool = True):
        self.dfs = dfs
        self.cluster: Cluster = dfs.cluster
        self.prefer_fast_helpers = prefer_fast_helpers
        self.quarantine: set[int] = set()

    def _avoid(self, server_id: int) -> bool:
        """Servers repairs should not lean on: quarantined or breaker-open."""
        return server_id in self.quarantine or self.dfs.health.is_open(server_id)

    def _rank_servers(self) -> _ServerRanking:
        """The ranking every public repair entry point takes once and hands down."""
        is_open = self.dfs.health.is_open
        return _ServerRanking(
            targets=tuple(
                sorted(
                    (s for s in self.cluster.alive() if s.server_id not in self.quarantine),
                    key=lambda s: (is_open(s.server_id), s.server_id),
                )
            ),
            helper_key={
                s.server_id: (self._avoid(s.server_id), -s.disk_bandwidth) for s in self.cluster
            },
        )

    def _preference(self, ef: EncodedFile, ranking: _ServerRanking) -> list[int] | None:
        if not self.prefer_fast_helpers:
            return None
        placement, key = ef.placement, ranking.helper_key
        return sorted(placement, key=lambda b: key[placement[b]])

    def _dead_blocks(self, ef: EncodedFile) -> set[int]:
        """Blocks to rebuild: unreadable, or parked on a quarantined server."""
        return set(self.dfs._unreadable_blocks(ef)) | {
            b for b, server in ef.placement.items() if server in self.quarantine
        }

    def repair_block(self, file_name: str, block: int, target_server: int | None = None) -> RepairReport:
        """Rebuild one block and install it on a live server.

        Raises:
            FileSystemError: when no live server can host the block (the
                standard one-block-per-server rule is enforced).
        """
        return self.repair_blocks_bulk([(file_name, block, target_server)])[0]

    def repair_blocks_bulk(self, targets: list[tuple]) -> list[RepairReport]:
        """Rebuild many lost blocks, fusing same-pattern reconstructions.

        ``targets`` are ``(file, block)`` or ``(file, block, target
        server)`` tuples; without a target server the block goes to a
        spare picked when it is installed.  Every target is planned, then
        targets are grouped by ``(code instance, block index, helper
        set)`` — after one server failure every stripe group of a striped
        file lands in the same bucket — and each bucket's reconstruction
        runs as **one** compiled-plan apply over the column-concatenated
        helper stripes of all its files (ragged stripe widths mix freely).
        Helper reads go through the resilient client; a target one of
        whose helpers exhausts its retries (flaky disk, tripped breaker,
        fresh crash) goes round again with that helper added to its
        unreadable set, up to :data:`MAX_HELPER_REPLANS` times.

        Returns one report per rebuilt block, bucket by bucket.
        """
        ranking = self._rank_servers()
        pending: list[_Rebuild] = []
        for file_name, block, *where in targets:
            ef = self.dfs.file(file_name)
            failed = self._dead_blocks(ef)
            if block not in failed:
                raise FileSystemError(
                    f"block {block} of {file_name!r} is not lost",
                    file=file_name,
                    block=block,
                    cause="not_lost",
                )
            pending.append(_Rebuild(file_name, block, where[0] if where else None, ef, failed))

        tracer = get_tracer()
        reports: list[RepairReport] = []
        with tracer.span(
            "repair.bulk", category="repair", targets=len(targets), clock=self.dfs.clock
        ):
            while pending:
                buckets: dict[tuple[int, int, tuple[int, ...]], list[_Rebuild]] = {}
                for job in pending:
                    try:
                        plan = job.ef.code.repair_plan(
                            job.block, job.unreadable, preference=self._preference(job.ef, ranking)
                        )
                    except DecodingError as exc:
                        raise FileSystemError(
                            f"no helper set can rebuild block {job.block} of {job.file!r} "
                            f"(unreadable blocks: {sorted(job.unreadable)})",
                            file=job.file,
                            block=job.block,
                            cause="helpers_exhausted",
                        ) from exc
                    job.plan = plan
                    buckets.setdefault((id(job.ef.code), job.block, plan.helpers), []).append(job)
                pending = []
                for (_, block, helpers), jobs in buckets.items():
                    with tracer.span(
                        "repair.bucket", category="repair", block=block,
                        files=len(jobs), helpers=list(helpers), clock=self.dfs.clock,
                    ):
                        ready: list[_Rebuild] = []
                        with tracer.span(
                            "repair.helper_reads", category="repair", clock=self.dfs.clock
                        ):
                            # Equal plans name equal rows: asked once per bucket.
                            reads = jobs[0].plan.helper_rows.reads(0, jobs[0].ef.code.N)
                            for job in jobs:
                                (ready if self._read_helpers(job, reads) else pending).append(job)
                        if not ready:
                            continue
                        # Reconstruction goes through the code's compiled-plan
                        # cache: one compile serves every member of the bucket
                        # and every later bucket of the same pattern.  Surface
                        # cache effectiveness through the filesystem metrics.
                        code = ready[0].ef.code
                        hits_before = code.plan_cache_info()["hits"]
                        with tracer.span("repair.decode", category="repair", files=len(ready)):
                            rebuilt = pipeline.batch_reconstruct(
                                code, block, helpers,
                                [job.available for job in ready], metrics=self.dfs.metrics,
                            )
                        self.dfs.metrics.add(
                            "plan_cache_hits", code.plan_cache_info()["hits"] - hits_before
                        )
                        for job, built in zip(ready, rebuilt):
                            reports.append(self._install_rebuilt(job, built, ranking))
        return reports

    def _read_helpers(self, job: _Rebuild, reads) -> bool:
        """Read ``reads``, the helper rows ``job.plan`` names; ``False`` to re-plan.

        A helper named whole is one block read.  One named in part (the
        rotated baseline) is one row read per run into a zero block: the
        rows left zero are the ones the reconstruction has zero
        coefficients for.  ``job.bytes_by_server`` is what the reads
        returned.  A helper that cannot be read joins ``job.unreadable``
        for the next round's plan.

        Raises:
            FileSystemError: after :data:`MAX_HELPER_REPLANS` re-plans.
        """
        ef, N = job.ef, job.ef.code.N
        job.available, job.bytes_by_server = {}, {}
        for h, row0, nrows in reads:
            server = ef.server_of(h)
            try:
                if nrows == N:
                    data = job.available[h] = self.dfs.client.get(server, job.file, h)
                else:
                    data = self.dfs.client.read_rows(server, job.file, h, row0, nrows)
                    if h not in job.available:
                        job.available[h] = np.zeros((N, data.shape[1]), dtype=data.dtype)
                    job.available[h][row0 : row0 + nrows] = data
            except BlockUnavailableError as exc:
                job.unreadable.add(h)
                job.replans += 1
                self.dfs.metrics.add("repair_replans", 1)
                if job.replans > MAX_HELPER_REPLANS:
                    raise FileSystemError(
                        f"repair of block {job.block} of {job.file!r} gave up after "
                        f"{job.replans} helper re-plans",
                        file=job.file,
                        block=job.block,
                        cause="helpers_exhausted",
                    ) from exc
                return False
            job.bytes_by_server[server] = job.bytes_by_server.get(server, 0) + data.nbytes
        return True

    def _install_rebuilt(self, job: _Rebuild, rebuilt, ranking: _ServerRanking) -> RepairReport:
        """Store a rebuilt block, update placement, and build the report."""
        ef, file_name, block = job.ef, job.file, job.block
        bytes_by_server, target_server = job.bytes_by_server, job.target_server
        block_bytes = ef.block_size * ef.code.gf.dtype.itemsize
        if target_server is None:
            old_server = ef.placement.get(block)
            prefer_rack = self.cluster.server(old_server).rack if old_server is not None else None
            target_server = self._pick_target(ef, prefer_rack, ranking)
        tracer = get_tracer()
        with tracer.span(
            "repair.write", category="repair", target=target_server, bytes=block_bytes
        ):
            self.dfs.store.put(target_server, file_name, block, rebuilt)
        ef.placement[block] = target_server
        self.dfs.metrics.add("reconstructions", 1)

        read_times = [
            nbytes / self.cluster.server(s).disk_bandwidth for s, nbytes in bytes_by_server.items()
        ]
        total_read = sum(bytes_by_server.values())
        target = self.cluster.server(target_server)
        est = (
            max(read_times, default=0.0)
            + total_read / target.network_bandwidth
            + total_read / (DECODE_RATE * target.cpu_speed)
            + block_bytes / target.disk_bandwidth
        )
        target_rack = target.rack
        cross_rack = sum(
            nbytes
            for s, nbytes in bytes_by_server.items()
            if self.cluster.server(s).rack != target_rack
        )
        return RepairReport(
            file=file_name,
            block=block,
            helpers=job.plan.helpers,
            bytes_read=total_read,
            bytes_read_by_server=bytes_by_server,
            bytes_written=block_bytes,
            estimated_time=est,
            target_server=target_server,
            cross_rack_bytes=cross_rack,
        )

    def _pick_target(self, ef: EncodedFile, prefer_rack: int | None, ranking: _ServerRanking) -> int:
        """A live unused server, preferring the lost block's old rack so
        rack-aware layouts keep their group-per-rack structure; among
        rack-equals the statistically healthiest server wins (no point
        rebuilding onto a disk the breaker just gave up on)."""
        used = {
            s
            for b, s in ef.placement.items()
            if not self.cluster.server(s).failed and self.dfs.store.holds(s, ef.name, b)
        }
        free = [s for s in ranking.targets if s.server_id not in used]
        if not free:
            raise FileSystemError(
                f"no spare server to host a rebuilt block of {ef.name!r}",
                file=ef.name,
                cause="no_target",
            )
        in_rack = (s for s in free if s.rack == prefer_rack)
        return next(in_rack, free[0]).server_id

    def repair_server(self, server_id: int, batch: bool = True) -> ServerRepairReport:
        """Rebuild every block lost with one server.

        Every lost block across all files is collected first and rebuilt
        in one :meth:`repair_blocks_bulk` call, so striped files sharing a
        code rebuild in fused kernel calls.
        """
        # ``batch`` is unused: benchmarks/e2e/io_workloads.py:157 still
        # passes it, and that file is the yardstick no PR it measures may
        # edit.  The next [benchmark] PR drops the argument there, then here.
        tracer = get_tracer()
        with tracer.span(
            "repair.server", category="repair", server=server_id, clock=self.dfs.clock
        ) as sp:
            gone = self.cluster.server(server_id).failed or server_id in self.quarantine
            lost = [
                (name, b)
                for name in self.dfs.list_files()
                for b in sorted(self.dfs.file(name).blocks_on_server(server_id))
                if gone or not self.dfs.store.holds(server_id, name, b)
            ]
            sp.set(blocks=len(lost))
            return ServerRepairReport(server=server_id, reports=self.repair_blocks_bulk(lost))

    def repair_all(self) -> list[RepairReport]:
        """Sweep the namespace and rebuild everything missing.

        Files are repaired most-at-risk first: a stripe with two dead
        blocks is one failure from the edge of its tolerance, so it jumps
        the queue ahead of stripes missing a single block — the triage
        production repair pipelines perform.  Same-pattern
        reconstructions fuse within each risk tier.
        """
        tiers: dict[int, list[tuple[str, int]]] = {}
        for name in self.dfs.list_files():
            dead = sorted(self._dead_blocks(self.dfs.file(name)))
            if dead:
                tiers.setdefault(-len(dead), []).extend((name, b) for b in dead)
        out: list[RepairReport] = []
        for risk in sorted(tiers):
            out.extend(self.repair_blocks_bulk(tiers[risk]))
        return out
