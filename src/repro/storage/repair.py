"""Reconstruction of lost blocks (the repair pipeline).

When a server dies, every block it held must be rebuilt on a replacement.
The repair manager asks each file's code for a
:class:`~repro.codes.base.RepairPlan` — locally repairable codes answer
with their small group (low disk I/O, the point of Fig. 1b/Fig. 8) —
has the filesystem's rebuild routine read the helpers and reconstruct
(:meth:`~repro.storage.filesystem.DistributedFileSystem._rebuild`, which
degraded reads use too), re-plans around a helper that could not be
read, writes the blocks to live servers, and returns byte-exact
accounting.  How long a repair takes is measured, not
estimated: the DFS clock advances by each helper read's service time, and
a whole-server rebuild under disk contention runs on the serving
gateway's per-server pipes (``ServingGateway.repair_server``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster, Server
from repro.obs.trace import get_tracer
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
    """

    file: str
    block: int
    target_server: int | None
    ef: EncodedFile
    unreadable: frozenset[int]
    replans: int = 0


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
        target (:meth:`DistributedFileSystem._repair_plan`, memoised per
        code, block, unreadable set and helper preference) and hands every
        block, all its rows, to the filesystem's rebuild routine
        (:meth:`DistributedFileSystem._rebuild`), the one degraded reads
        use: one client batch of helper rows for the round, one fused
        product per bucket of same-pattern blocks — after one server
        failure every stripe group of a striped file lands in one bucket —
        whose native kernel folds the CRC-32 of every rebuilt row.  The
        round stores every rebuilt block in **one** store batch, a bucket's
        blocks as one parent with those CRCs.  A target whose reads stopped
        at an unreadable helper (flaky disk, rot, tripped breaker, fresh
        crash) goes round again with that helper unreadable, up to
        :data:`MAX_HELPER_REPLANS` times.  A round that gives up on a
        target, or finds no spare for one, raises before it stores
        anything.

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

        plans: dict = {}
        reports: list[RepairReport] = []
        with get_tracer().span(
            "repair.bulk", category="repair", targets=len(targets), clock=self.dfs.clock
        ):
            while pending:
                preferences: dict[str, tuple[int, ...]] = {}
                jobs = []
                for job in pending:
                    ef = job.ef
                    preference = preferences.get(job.file)
                    if preference is None:
                        preference = preferences[job.file] = self._preference(ef, ranking)
                    plan = self.dfs._repair_plan(plans, ef.code, job.block, job.unreadable, preference)
                    if plan is None:
                        raise FileSystemError(
                            f"no helper set can rebuild block {job.block} of {job.file!r} "
                            f"(unreadable blocks: {sorted(job.unreadable)})",
                            file=job.file,
                            block=job.block,
                            cause="helpers_exhausted",
                        )
                    jobs.append((ef, plan, 0, ef.code.N, job))
                rebuilt, stopped = self.dfs._rebuild(jobs, crcs=True)
                pending = []
                for (*_, job), helper in stopped:
                    self._replan(job, helper)
                    pending.append(job)
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
        and build their reports.  ``rebuilt`` is what
        :meth:`DistributedFileSystem._rebuild` returned per bucket: a
        bucket whose CRCs the kernel folded is one parent of the batch, and
        a report's bytes are those of the helper rows its block was rebuilt
        from.

        A block without a target server goes to a live server its file does
        not use, preferring the lost block's old rack so rack-aware layouts
        keep their group-per-rack structure; among rack-equals the
        statistically healthiest server wins (no point rebuilding onto a
        disk the breaker just gave up on).  Each pick joins its file's
        servers in use (``scans``), so two blocks never share a server.
        """
        servers = self.cluster.servers
        items, parents, crcs = [], [], []
        for jobs, _, _, blocks, folded in rebuilt:
            for (ef, _, _, _, job), data in zip(jobs, blocks):
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
                    rack = servers[ef.placement[job.block]].rack
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
        for jobs, reads, pieces, _, _ in rebuilt:
            for (ef, plan, _, _, _), rows, (target, file_name, block, data) in zip(jobs, pieces, installed):
                by_server: dict[int, int] = {}
                for (helper, _, _), row in zip(reads, rows):
                    server = ef.placement[helper]
                    by_server[server] = by_server.get(server, 0) + row.nbytes
                ef.placement[block] = target
                target_rack = servers[target].rack
                reports.append(RepairReport(
                    file=file_name,
                    block=block,
                    helpers=plan.helpers,
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
        in one :meth:`repair_blocks_bulk` call.
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
