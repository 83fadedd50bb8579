"""Reconstruction of lost blocks (the repair pipeline).

When a server dies, every block it held must be rebuilt on a replacement.
The repair manager asks each file's code for a
:class:`~repro.codes.base.RepairPlan` — locally repairable codes answer
with their small group (low disk I/O, the point of Fig. 1b/Fig. 8) —
reads the helpers, reconstructs, writes the block to a live server, and
returns byte-exact accounting.  How long a repair takes is measured, not
estimated: the DFS clock advances by each helper read's service time, and
a whole-server rebuild under disk contention runs on the serving
gateway's per-server pipes (``ServingGateway.repair_server``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster, Server
from repro.codes.base import DecodingError, RepairPlan
from repro.obs.trace import get_tracer
from repro.storage import pipeline
from repro.storage.blockstore import BlockUnavailableError
from repro.storage.filesystem import DistributedFileSystem, EncodedFile, FileSystemError
from repro.storage.metrics import MetricsRegistry

#: Decode throughput of one baseline CPU, bytes/second.  Only relative
#: magnitudes matter in the benches; this anchors the serving gateway's
#: decode time.
DECODE_RATE = 400 * (1 << 20)

#: How many times one block rebuild may re-plan around an unreadable
#: helper before giving up.
MAX_HELPER_REPLANS = 8


class LeaseTable:
    """Expiring token leases keyed by an arbitrary hashable.

    The primitive under both repair admission control (keys = helper
    server ids, grants computed from a request instant) and the serving
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
    exhausted the repair is granted later, at the first instant a token
    frees, instead of piling on — counted in the ``repairs_throttled``
    metric.  The cap is per server, so a storm degrades into bounded
    waves rather than an unbounded burst.

    Nothing here waits or owns a clock: :meth:`acquire` is told when the
    request is made and answers when it is granted.  A lease counts
    against its server from the request that takes it until it expires,
    so every lease that may overlap a grant is seen by it, and no server
    ever holds more than ``max_inflight_per_server`` live leases.  That
    needs request instants that never decrease — leases are pruned only
    up to the latest one — and :meth:`acquire` refuses one that does.

    Its user is the reliability simulator, whose repairs overlap.
    :class:`RepairManager` reads one helper after another on the clock
    each read advances, so a lease taken there has always expired by the
    next rebuild and it takes none.
    """

    def __init__(self, max_inflight_per_server: int = 4, metrics: MetricsRegistry | None = None):
        if max_inflight_per_server < 1:
            raise ValueError("max_inflight_per_server must be >= 1")
        self.max_inflight_per_server = max_inflight_per_server
        self.metrics = metrics or MetricsRegistry()
        self._leases = LeaseTable()
        #: The latest request instant; leases are pruned up to it, never past.
        self._now = 0.0
        self.waits = 0

    def inflight(self, server_id: int) -> int:
        """Repair-read leases held on one server at the latest request instant."""
        return self._leases.count(server_id, self._now)

    def acquire(self, now: float, server_durations: dict[int, float]) -> float:
        """Lease one token per server for the given durations.

        ``now`` is the instant of the request.  The grant is the earliest
        instant at or after it at which every named server has a free
        token; each lease runs from the grant for its duration.

        Raises:
            ValueError: when ``now`` is earlier than a previous request.
        """
        if now < self._now:
            raise ValueError(f"request at {now} precedes the previous one at {self._now}")
        self._now = now
        cap = self.max_inflight_per_server
        grant, depth = now, 0
        for sid in server_durations:
            live = sorted(self._leases.active(sid, now))
            depth = max(depth, len(live))
            if len(live) >= cap:  # a token frees once all but cap - 1 have expired
                grant = max(grant, live[len(live) - cap])
        if server_durations:
            self.metrics.observe("repair_inflight", float(depth))
        self.metrics.observe("repair_wait_s", grant - now)
        if grant > now:
            self.waits += 1
            self.metrics.add("repairs_throttled", 1)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.sim_span(
                    "repair.throttle_wait", "repair", now, grant,
                    servers=sorted(server_durations),
                )
        for sid, duration in server_durations.items():
            self._leases.grant(sid, grant + duration)
        return grant


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
        target_server: where the block now lives.
    """

    file: str
    block: int
    helpers: tuple[int, ...]
    bytes_read: int
    bytes_read_by_server: dict[int, int]
    bytes_written: int
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
    def blocks_rebuilt(self) -> int:
        return len(self.reports)


@dataclass(frozen=True)
class _ServerRanking:
    """How one repair call ranks servers, taken once when the call starts.

    Ranking is by circuit-breaker state and disk speed, which a call asks
    about once per server here instead of once per server per rebuilt
    block.  A helper that turns unreadable during the call is still
    re-planned around, by the rebuild loop that catches its error.

    Attributes:
        targets: live servers, breaker-closed first, then by id — the
            order rebuilt blocks are offered homes in.
        helper_key: per server, the sort key of a helper block stored
            there (breaker-open servers last, then fastest disk first).
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
        plan / chunks / bytes_by_server: the current round's plan, the
            helper rows read under it (``plan.helper_rows.reads(0, N)``,
            in order) and their per-server bytes.
    """

    file: str
    block: int
    target_server: int | None
    ef: EncodedFile
    unreadable: set[int]
    replans: int = 0
    plan: RepairPlan | None = None
    chunks: list = field(default_factory=list)
    bytes_by_server: dict[int, int] = field(default_factory=dict)


class RepairManager:
    """Rebuilds lost blocks using each code's repair plan.

    Where the code has freedom in helper choice (Reed-Solomon repairs,
    degraded-group fallbacks), helper blocks are ranked by their server's
    disk bandwidth, so the parallel read phase is bounded by a fast disk,
    not the slowest.  Servers with open circuit breakers sort last
    regardless of speed.

    Args:
        dfs: the filesystem to repair.
    """

    def __init__(self, dfs: DistributedFileSystem):
        self.dfs = dfs
        self.cluster: Cluster = dfs.cluster

    def _rank_servers(self) -> _ServerRanking:
        """The ranking every public repair entry point takes once and hands down."""
        is_open = self.dfs.health.is_open
        return _ServerRanking(
            targets=tuple(
                sorted(self.cluster.alive(), key=lambda s: (is_open(s.server_id), s.server_id))
            ),
            helper_key={
                s.server_id: (is_open(s.server_id), -s.disk_bandwidth) for s in self.cluster
            },
        )

    def _preference(self, ef: EncodedFile, ranking: _ServerRanking) -> list[int]:
        placement, key = ef.placement, ranking.helper_key
        return sorted(placement, key=lambda b: key[placement[b]])

    def repair_block(self, file_name: str, block: int) -> RepairReport:
        """Rebuild one block and install it on a live server.

        Raises:
            FileSystemError: when no live server can host the block: the
                standard one-block-per-server rule is enforced.
        """
        return self.repair_blocks_bulk([(file_name, block)])[0]

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

        Raises:
            FileSystemError: ``cause="no_target"`` for a target server
                that is unknown, down, holds another live block of the
                file or is named for two of its blocks — before any
                helper is read.
        """
        ranking = self._rank_servers()
        pending: list[_Rebuild] = []
        claimed: set[tuple[str, int]] = set()
        for file_name, block, *where in targets:
            ef = self.dfs.file(file_name)
            failed = set(self.dfs._unreadable_blocks(ef))
            if block not in failed:
                raise FileSystemError(
                    f"block {block} of {file_name!r} is not lost",
                    file=file_name,
                    block=block,
                    cause="not_lost",
                )
            target = where[0] if where else None
            if target is not None:
                self._check_target(ef, block, target, claimed)
            pending.append(_Rebuild(file_name, block, target, ef, failed))

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
                                [job.chunks for job in ready], metrics=self.dfs.metrics,
                            )
                        self.dfs.metrics.add(
                            "plan_cache_hits", code.plan_cache_info()["hits"] - hits_before
                        )
                        for job, built in zip(ready, rebuilt):
                            reports.append(self._install_rebuilt(job, built, ranking))
        return reports

    def _read_helpers(self, job: _Rebuild, reads) -> bool:
        """Read ``reads``, the helper rows ``job.plan`` names, into
        ``job.chunks`` in one batch; ``False`` to re-plan.

        The batch stops at the first helper that cannot be read, which
        joins ``job.unreadable`` for the next round's plan.

        Raises:
            FileSystemError: after :data:`MAX_HELPER_REPLANS` re-plans.
        """
        ef = job.ef
        try:
            job.chunks = self.dfs._read_helper_rows(ef, reads)
        except BlockUnavailableError as exc:
            job.unreadable.add(exc.block)
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
        job.bytes_by_server = {}
        for (h, _, _), data in zip(reads, job.chunks):
            server = ef.server_of(h)
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

        target_rack = self.cluster.server(target_server).rack
        cross_rack = sum(
            nbytes
            for s, nbytes in bytes_by_server.items()
            if self.cluster.server(s).rack != target_rack
        )
        return RepairReport(
            file=file_name,
            block=block,
            helpers=job.plan.helpers,
            bytes_read=sum(bytes_by_server.values()),
            bytes_read_by_server=bytes_by_server,
            bytes_written=block_bytes,
            target_server=target_server,
            cross_rack_bytes=cross_rack,
        )

    def _check_target(self, ef: EncodedFile, block: int, server: int, claimed: set) -> None:
        """Refuse an explicit target that would break the one-block-per-server
        rule; ``claimed`` holds the ``(file, server)`` pairs of the batch's
        earlier targets."""
        host = self.cluster.servers.get(server)
        if host is None:
            why = "is not in the cluster"
        elif host.failed:
            why = "is down"
        elif (ef.name, server) in claimed:
            why = "is the target of another of its blocks"
        else:
            held = [
                b for b, s in ef.placement.items()
                if s == server and b != block and self.dfs.store.holds(s, ef.name, b)
            ]
            why = f"holds its block {held[0]}" if held else None
        if why is not None:
            raise FileSystemError(
                f"cannot install block {block} of {ef.name!r} on server {server}: the server {why}",
                file=ef.name,
                block=block,
                server=server,
                cause="no_target",
            )
        claimed.add((ef.name, server))

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
            gone = self.cluster.server(server_id).failed
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
            dead = sorted(self.dfs._unreadable_blocks(self.dfs.file(name)))
            if dead:
                tiers.setdefault(-len(dead), []).extend((name, b) for b in dead)
        out: list[RepairReport] = []
        for risk in sorted(tiers):
            out.extend(self.repair_blocks_bulk(tiers[risk]))
        return out
