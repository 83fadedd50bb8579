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
from repro.codes.base import DecodingError, HelperRows, RepairPlan
from repro.obs.trace import get_tracer
from repro.storage import pipeline
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
        plan: the current round's plan.
    """

    file: str
    block: int
    target_server: int | None
    ef: EncodedFile
    unreadable: frozenset[int]
    replans: int = 0
    plan: RepairPlan | None = None


@dataclass
class _Bucket:
    """The rebuilds of one round that share a code, a lost block index and
    helpers: one compiled plan, one set of row reads, one product.

    Attributes:
        helper_rows: the plan's rows, looked up once for the bucket.
        reads: ``helper_rows.reads(0, N)``, every member's helper reads.
        jobs: the members, in the order they were planned.
    """

    block: int
    helpers: tuple[int, ...]
    helper_rows: HelperRows
    reads: tuple[tuple[int, int, int], ...]
    jobs: list[_Rebuild] = field(default_factory=list)


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

    def _preference(self, ef: EncodedFile, ranking: _ServerRanking) -> tuple[int, ...]:
        placement, key = ef.placement, ranking.helper_key
        return tuple(sorted(placement, key=lambda b: key[placement[b]]))

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
        spare picked when it is installed.  Each file's placement is
        scanned once.  Then the targets go in rounds.  A round plans every
        target (memoised per code, block, unreadable set and helper
        preference) and buckets them by ``(code instance, block index,
        helper set)`` — after one server failure every stripe group of a
        striped file lands in one bucket — and a bucket looks its compiled
        plan up once.  It reads the helper rows of every target in **one**
        client batch, bucket by bucket, target by target; a target's reads
        stop at its first helper that cannot be read (flaky disk, tripped
        breaker, fresh crash), the others' go on.  Each bucket is rebuilt
        by **one** compiled-plan apply over the helper rows of its files
        (ragged widths mix freely), whose native kernel folds the CRC-32 of
        every rebuilt row, and the round stores every rebuilt block in
        **one** store batch, a bucket's blocks as one parent with those
        CRCs.  A target whose reads stopped goes round again with that
        helper unreadable, up to :data:`MAX_HELPER_REPLANS` times.  A round
        that gives up on a target, or finds no spare for one, raises
        before it stores anything.

        Returns one report per rebuilt block, round by round, bucket by
        bucket.

        Raises:
            FileSystemError: ``cause="repeated"`` for a ``(file, block)``
                named twice, ``"not_lost"`` for a block that is not lost,
                ``"no_target"`` for a target server that is unknown, down,
                holds another live block of the file or is named for two of
                its blocks — all before any helper is read.
        """
        ranking = self._rank_servers()
        # Per file: its unreadable blocks, and the servers in use — those of
        # its live blocks, then every target a block of it is installed on.
        scans: dict[str, tuple[frozenset[int], set[int]]] = {}
        pending: list[_Rebuild] = []
        named: set[tuple[str, int]] = set()
        scan_placement = self.dfs.store._scan
        for file_name, block, *where in targets:
            if (file_name, block) in named:
                raise FileSystemError(
                    f"block {block} of {file_name!r} is named twice",
                    file=file_name,
                    block=block,
                    cause="repeated",
                )
            named.add((file_name, block))
            ef = self.dfs.file(file_name)
            scan = scans.get(file_name)
            if scan is None:
                scan = scans[file_name] = scan_placement(file_name, ef.placement)
            if block not in scan[0]:
                raise FileSystemError(
                    f"block {block} of {file_name!r} is not lost",
                    file=file_name,
                    block=block,
                    cause="not_lost",
                )
            target = where[0] if where else None
            if target is not None:
                self._check_target(ef, block, target, scan)
            pending.append(_Rebuild(file_name, block, target, ef, scan[0]))

        tracer = get_tracer()
        metrics = self.dfs.metrics
        plans: dict[tuple, RepairPlan] = {}
        reports: list[RepairReport] = []
        with tracer.span(
            "repair.bulk", category="repair", targets=len(targets), clock=self.dfs.clock
        ):
            while pending:
                preferences: dict[str, tuple[int, ...]] = {}
                buckets: dict[tuple[int, int, tuple[int, ...]], _Bucket] = {}
                for job in pending:
                    code = job.ef.code
                    preference = preferences.get(job.file)
                    if preference is None:
                        preference = preferences[job.file] = self._preference(job.ef, ranking)
                    key = (id(code), job.block, job.unreadable, preference)
                    plan = plans.get(key)
                    if plan is None:
                        try:
                            plan = plans[key] = code.repair_plan(
                                job.block, job.unreadable, preference=preference
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
                    bucket = buckets.get((id(code), job.block, plan.helpers))
                    if bucket is None:
                        helper_rows = code.compile_helper_rows(job.block, plan.helpers)
                        bucket = buckets[id(code), job.block, plan.helpers] = _Bucket(
                            job.block, plan.helpers, helper_rows, helper_rows.reads(0, code.N)
                        )
                    bucket.jobs.append(job)
                pending = []
                with tracer.span("repair.helper_reads", category="repair", clock=self.dfs.clock):
                    got = iter(self.dfs._read_helper_rows(
                        [(job.ef, bucket.reads) for bucket in buckets.values() for job in bucket.jobs]
                    ))
                rebuilt: list[tuple] = []
                for bucket in buckets.values():
                    ready: list[_Rebuild] = []
                    rows: list[list] = []
                    for job in bucket.jobs:
                        chunks = next(got)
                        if chunks and chunks[-1] is None:  # the reads stopped at an unreadable helper
                            failed = next(h for (h, _, _), c in zip(bucket.reads, chunks) if c is None)
                            self._replan(job, failed)
                            pending.append(job)
                        else:
                            ready.append(job)
                            rows.append(chunks)
                    if not ready:
                        continue
                    with tracer.span(
                        "repair.bucket", category="repair", block=bucket.block,
                        files=len(bucket.jobs), helpers=list(bucket.helpers), clock=self.dfs.clock,
                    ):
                        # One compiled plan serves every member of the bucket
                        # (and every later bucket of the same pattern): the
                        # filesystem metrics count each reuse.
                        with tracer.span("repair.decode", category="repair", files=len(ready)):
                            blocks, crcs = pipeline._batch_rebuild_rows(
                                bucket.helper_rows, bucket.block, 0, ready[0].ef.code.N,
                                rows, metrics, crcs=True,
                            )
                        metrics.add("plan_cache_hits", 1)
                    helpers = [h for h, _, _ in bucket.reads]
                    read_by_server = []
                    for job, chunks in zip(ready, rows):
                        placement = job.ef.placement
                        by_server: dict[int, int] = {}
                        for h, piece in zip(helpers, chunks):
                            server = placement[h]
                            by_server[server] = by_server.get(server, 0) + piece.nbytes
                        read_by_server.append(by_server)
                    rebuilt.append((ready, read_by_server, blocks, crcs))
                if rebuilt:
                    reports += self._install(rebuilt, scans, ranking)
        return reports

    def _replan(self, job: _Rebuild, helper: int) -> None:
        """Add an unreadable ``helper`` to ``job``'s unreadable set for its next round.

        Raises:
            FileSystemError: after :data:`MAX_HELPER_REPLANS` re-plans.
        """
        job.unreadable = job.unreadable | {helper}
        job.replans += 1
        self.dfs.metrics.add("repair_replans", 1)
        if job.replans > MAX_HELPER_REPLANS:
            raise FileSystemError(
                f"repair of block {job.block} of {job.file!r} gave up after "
                f"{job.replans} helper re-plans",
                file=job.file,
                block=job.block,
                cause="helpers_exhausted",
            )

    def _install(self, rebuilt, scans: dict, ranking: _ServerRanking) -> list[RepairReport]:
        """Store a round's buckets in one store batch, move their placement
        and build their reports.  ``rebuilt`` holds per bucket ``(jobs,
        helper bytes by server per job, rebuilt blocks, their row CRCs)``;
        a bucket whose CRCs the kernel folded is one parent of the batch.

        A block without a target server goes to a live server its file does
        not use, preferring the lost block's old rack so rack-aware layouts
        keep their group-per-rack structure; among rack-equals the
        statistically healthiest server wins (no point rebuilding onto a
        disk the breaker just gave up on).  Each pick joins its file's
        servers in use (``scans``), so two blocks never share a server.
        """
        servers = self.cluster.servers
        items, parents, crcs = [], [], []
        for jobs, _, blocks, folded in rebuilt:
            for job, data in zip(jobs, blocks):
                target = job.target_server
                if target is None:
                    used = scans[job.file][1]
                    free = (s for s in ranking.targets if s.server_id not in used)
                    first = next(free, None)
                    if first is None:
                        raise FileSystemError(
                            f"no spare server to host a rebuilt block of {job.file!r}",
                            file=job.file,
                            cause="no_target",
                        )
                    rack = servers[job.ef.placement[job.block]].rack
                    if first.rack != rack:
                        first = next((s for s in free if s.rack == rack), first)
                    target = first.server_id
                    used.add(target)
                items.append((target, job.file, job.block, data))
            if folded is None:
                parents += [None] * len(blocks)
                crcs += [None] * len(blocks)
            else:
                parents.append(blocks)
                crcs.append(folded)
        with get_tracer().span(
            "repair.write", category="repair", blocks=len(items), clock=self.dfs.clock
        ):
            self.dfs.store._put_many(items, parents, crcs)
        self.dfs.metrics.add("reconstructions", len(items))
        reports = []
        installed = iter(items)
        for jobs, read_by_server, _, _ in rebuilt:
            for job, by_server, (target, file_name, block, data) in zip(jobs, read_by_server, installed):
                job.ef.placement[block] = target
                target_rack = servers[target].rack
                reports.append(RepairReport(
                    file=file_name,
                    block=block,
                    helpers=job.plan.helpers,
                    bytes_read=sum(by_server.values()),
                    bytes_read_by_server=by_server,
                    bytes_written=data.nbytes,
                    target_server=target,
                    cross_rack_bytes=sum(
                        nbytes for s, nbytes in by_server.items() if servers[s].rack != target_rack
                    ),
                ))
        return reports

    def _check_target(self, ef: EncodedFile, block: int, server: int, scan) -> None:
        """Refuse an explicit target that would break the one-block-per-server
        rule; ``scan`` is the file's ``(unreadable blocks, servers in use)``,
        and the target joins the servers in use."""
        unreadable, used = scan
        host = self.cluster.servers.get(server)
        if host is None:
            why = "is not in the cluster"
        elif host.failed:
            why = "is down"
        elif server in used:
            held = [b for b, s in ef.placement.items() if s == server and b not in unreadable]
            why = f"holds its block {held[0]}" if held else "is the target of another of its blocks"
        else:
            why = None
        if why is not None:
            raise FileSystemError(
                f"cannot install block {block} of {ef.name!r} on server {server}: the server {why}",
                file=ef.name,
                block=block,
                server=server,
                cause="no_target",
            )
        used.add(server)

    def repair_server(self, server_id: int, batch: bool = True) -> ServerRepairReport:
        """Rebuild every block lost with one server.

        Every lost block across all files is collected first and rebuilt
        in one :meth:`repair_blocks_bulk` call.  Its round reads the helper
        rows of every block in one client batch, bucket by bucket (a
        block's reads stop at its first unreadable helper, and it goes
        round again), rebuilds each bucket of same-pattern blocks in one
        fused kernel call and stores every rebuilt block in one store batch.
        """
        # ``batch`` is unused: benchmarks/e2e/io_workloads.py:157 still
        # passes it, and that file is the yardstick no PR it measures may
        # edit.  The next [benchmark] PR drops the argument there, then here.
        tracer = get_tracer()
        with tracer.span(
            "repair.server", category="repair", server=server_id, clock=self.dfs.clock
        ) as sp:
            gone = self.cluster.server(server_id).failed
            lost = sorted(
                (name, b)
                for name, ef in self.dfs.files.items()
                for b, s in ef.placement.items()
                if s == server_id and (gone or not self.dfs.store.holds(server_id, name, b))
            )
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
