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

from repro.cluster.topology import Cluster, Server
from repro.codes.base import DecodingError
from repro.obs.trace import get_tracer
from repro.storage import pipeline
from repro.storage.blockstore import BlockUnavailableError
from repro.storage.filesystem import DistributedFileSystem, EncodedFile, FileSystemError
from repro.storage.metrics import MetricsRegistry

#: Decode throughput of one baseline CPU, bytes/second.  Only relative
#: magnitudes matter in the benches; this anchors time estimates.
DECODE_RATE = 400 * (1 << 20)


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
    re-planned around, by the per-block loop that catches its error.

    Attributes:
        targets: live, unquarantined servers, breaker-closed first, then
            by id — the order rebuilt blocks are offered homes in.
        helper_key: per server, the sort key of a helper block stored
            there (avoided servers last, then fastest disk first).
    """

    targets: tuple[Server, ...]
    helper_key: dict[int, tuple[bool, float]]


class RepairManager:
    """Rebuilds lost blocks using each code's repair plan.

    Args:
        dfs: the filesystem to repair.
        prefer_fast_helpers: when the code has freedom in helper choice
            (Reed-Solomon repairs, degraded-group fallbacks), rank helper
            blocks by their server's disk bandwidth so the parallel read
            phase is bounded by a fast disk, not the slowest.  Servers
            with open circuit breakers sort last regardless of speed.
        admission: throttle bounding concurrent repair reads per server;
            default builds one on the filesystem's clock (raise its cap
            to effectively disable throttling).
        max_helper_replans: how many times one block repair may re-plan
            around an unreadable helper before giving up.

    Attributes:
        quarantine: server ids treated as dead for planning — their
            blocks count as lost, and they are never used as helpers or
            rebuild targets.  The scrubber parks breaker-quarantined
            servers here to route their blocks through repair.
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        prefer_fast_helpers: bool = True,
        admission: RepairAdmissionController | None = None,
        max_helper_replans: int = 8,
    ):
        self.dfs = dfs
        self.cluster: Cluster = dfs.cluster
        self.prefer_fast_helpers = prefer_fast_helpers
        self.admission = admission or RepairAdmissionController(dfs.clock, metrics=dfs.metrics)
        self.max_helper_replans = max_helper_replans
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
        dead = set()
        for b, server in ef.placement.items():
            if (
                self.cluster.server(server).failed
                or server in self.quarantine
                or not self.dfs.store.holds(server, ef.name, b)
            ):
                dead.add(b)
        return dead

    def repair_block(self, file_name: str, block: int, target_server: int | None = None) -> RepairReport:
        """Rebuild one block and install it on a live server.

        Raises:
            FileSystemError: when no live server can host the block (the
                standard one-block-per-server rule is enforced).
        """
        return self._repair_block(file_name, block, target_server, self._rank_servers())

    def _repair_block(
        self, file_name: str, block: int, target_server: int | None, ranking: _ServerRanking
    ) -> RepairReport:
        """:meth:`repair_block` under the ranking its caller already took."""
        tracer = get_tracer()
        with tracer.span(
            "repair.block", category="repair", file=file_name, block=block, clock=self.dfs.clock
        ) as sp:
            ef = self.dfs.file(file_name)
            failed = self._dead_blocks(ef)
            if block not in failed:
                raise FileSystemError(
                    f"block {block} of {file_name!r} is not lost",
                    file=file_name,
                    block=block,
                    cause="not_lost",
                )
            block_bytes = ef.block_size * ef.code.gf.dtype.itemsize

            # Helper reads go through the resilient client; a helper whose
            # retries exhaust (flaky disk, tripped breaker, fresh crash) is
            # added to the failed set and the repair re-planned with a
            # different helper set, up to ``max_helper_replans`` times.
            unreadable = set(failed)
            replans = 0
            with tracer.span(
                "repair.helper_reads", category="repair", clock=self.dfs.clock
            ) as read_sp:
                while True:
                    try:
                        plan = ef.code.repair_plan(
                            block, unreadable, preference=self._preference(ef, ranking)
                        )
                    except DecodingError as exc:
                        raise FileSystemError(
                            f"no helper set can rebuild block {block} of {file_name!r} "
                            f"(unreadable blocks: {sorted(unreadable)})",
                            file=file_name,
                            block=block,
                            cause="helpers_exhausted",
                        ) from exc
                    helper_servers = {ef.server_of(h) for h in plan.helpers}
                    fractions = plan.read_fractions
                    self.admission.acquire(
                        {
                            s: sum(
                                fractions[h] * block_bytes
                                for h in plan.helpers
                                if ef.server_of(h) == s
                            )
                            / self.cluster.server(s).disk_bandwidth
                            for s in helper_servers
                        }
                    )
                    available: dict[int, bytes] = {}
                    bytes_by_server: dict[int, int] = {}
                    bad_helper: int | None = None
                    for h in plan.helpers:
                        server = ef.server_of(h)
                        try:
                            available[h] = self.dfs.client.get(server, file_name, h, fractions[h])
                        except BlockUnavailableError as exc:
                            bad_helper = h
                            last_exc = exc
                            break
                        bytes_by_server[server] = bytes_by_server.get(server, 0) + int(
                            fractions[h] * block_bytes
                        )
                    if bad_helper is None:
                        break
                    unreadable.add(bad_helper)
                    replans += 1
                    self.dfs.metrics.add("repair_replans", 1)
                    if replans > self.max_helper_replans:
                        raise FileSystemError(
                            f"repair of block {block} of {file_name!r} gave up after "
                            f"{replans} helper re-plans",
                            file=file_name,
                            block=block,
                            cause="helpers_exhausted",
                        ) from last_exc
                read_sp.set(
                    helpers=list(plan.helpers),
                    replans=replans,
                    bytes=sum(bytes_by_server.values()),
                )

            # Reconstruction goes through the code's compiled-plan cache:
            # repeated failures of the same (target, helpers) pattern — the
            # normal shape of a repair storm — skip the linear algebra and jump
            # straight to the table-gather kernel.  Surface cache effectiveness
            # through the filesystem metrics.
            hits_before = ef.code.plan_cache_info()["hits"]
            with tracer.span("repair.decode", category="repair", helpers=len(plan.helpers)):
                rebuilt, plan = ef.code.reconstruct(block, available, plan)
            self.dfs.metrics.add("plan_cache_hits", ef.code.plan_cache_info()["hits"] - hits_before)

            report = self._install_rebuilt(
                ef, file_name, block, rebuilt, plan, bytes_by_server, target_server, ranking
            )
            sp.set(target=report.target_server, bytes_read=report.bytes_read)
            return report

    def _install_rebuilt(
        self,
        ef: EncodedFile,
        file_name: str,
        block: int,
        rebuilt,
        plan,
        bytes_by_server: dict[int, int],
        target_server: int | None,
        ranking: _ServerRanking,
    ) -> RepairReport:
        """Store a rebuilt block, update placement, and build the report."""
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
            helpers=plan.helpers,
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

    # ------------------------------------------------------------ bulk repair

    def repair_blocks_bulk(self, targets: list[tuple[str, int]]) -> list[RepairReport]:
        """Rebuild many lost blocks, fusing same-pattern reconstructions.

        Targets are grouped by ``(code instance, block index, helper
        set)`` — after one server failure every stripe group of a striped
        file lands in the same bucket — and each bucket's reconstruction
        runs as **one** compiled-plan apply over the column-concatenated
        helper stripes of all its files (ragged stripe widths mix
        freely).  Helper reads, admission control, placement updates and
        per-block reports are unchanged; a block whose helper reads fail
        falls back to :meth:`repair_block`, which re-plans around the bad
        helper.

        Returns one report per rebuilt block, bucket by bucket.
        """
        ranking = self._rank_servers()
        buckets: dict[tuple[int, int, tuple[int, ...]], list[tuple[str, int, EncodedFile, object]]] = {}
        fallback: list[tuple[str, int]] = []
        for file_name, block in targets:
            ef = self.dfs.file(file_name)
            failed = self._dead_blocks(ef)
            if block not in failed:
                raise FileSystemError(
                    f"block {block} of {file_name!r} is not lost",
                    file=file_name,
                    block=block,
                    cause="not_lost",
                )
            try:
                plan = ef.code.repair_plan(
                    block, set(failed), preference=self._preference(ef, ranking)
                )
            except DecodingError as exc:
                raise FileSystemError(
                    f"no helper set can rebuild block {block} of {file_name!r} "
                    f"(unreadable blocks: {sorted(failed)})",
                    file=file_name,
                    block=block,
                    cause="helpers_exhausted",
                ) from exc
            key = (id(ef.code), block, plan.helpers)
            buckets.setdefault(key, []).append((file_name, block, ef, plan))

        tracer = get_tracer()
        reports: list[RepairReport] = []
        with tracer.span(
            "repair.bulk", category="repair", targets=len(targets),
            buckets=len(buckets), clock=self.dfs.clock,
        ):
            for (_, block, helpers), entries in buckets.items():
                with tracer.span(
                    "repair.bucket", category="repair", block=block,
                    files=len(entries), helpers=list(helpers), clock=self.dfs.clock,
                ):
                    block_bytes = entries[0][2].block_size * entries[0][2].code.gf.dtype.itemsize
                    # One code, target and helper set per bucket: one set of fractions.
                    fractions = entries[0][3].read_fractions
                    availables = []
                    accounting = []
                    ready = []
                    with tracer.span(
                        "repair.helper_reads", category="repair", clock=self.dfs.clock
                    ):
                        for file_name, _, ef, plan in entries:
                            helper_servers = {ef.server_of(h) for h in plan.helpers}
                            self.admission.acquire(
                                {
                                    s: sum(
                                        fractions[h] * block_bytes
                                        for h in plan.helpers
                                        if ef.server_of(h) == s
                                    )
                                    / self.cluster.server(s).disk_bandwidth
                                    for s in helper_servers
                                }
                            )
                            available: dict[int, object] = {}
                            bytes_by_server: dict[int, int] = {}
                            try:
                                for h in plan.helpers:
                                    server = ef.server_of(h)
                                    available[h] = self.dfs.client.get(
                                        server, file_name, h, fractions[h]
                                    )
                                    bytes_by_server[server] = bytes_by_server.get(server, 0) + int(
                                        fractions[h] * block_bytes
                                    )
                            except BlockUnavailableError:
                                # The per-block path owns the re-planning loop.
                                fallback.append((file_name, block))
                                continue
                            availables.append(available)
                            accounting.append(bytes_by_server)
                            ready.append((file_name, ef, plan))
                    if not ready:
                        continue
                    code = ready[0][1].code
                    hits_before = code.plan_cache_info()["hits"]
                    with tracer.span("repair.decode", category="repair", files=len(ready)):
                        rebuilt = pipeline.batch_reconstruct(
                            code, block, helpers, availables, metrics=self.dfs.metrics
                        )
                    self.dfs.metrics.add(
                        "plan_cache_hits", code.plan_cache_info()["hits"] - hits_before
                    )
                    for (file_name, ef, plan), built, bytes_by_server in zip(
                        ready, rebuilt, accounting
                    ):
                        reports.append(
                            self._install_rebuilt(
                                ef, file_name, block, built, plan, bytes_by_server, None, ranking
                            )
                        )
        for file_name, block in fallback:
            reports.append(self._repair_block(file_name, block, None, ranking))
        return reports

    def repair_server(self, server_id: int, batch: bool = False) -> ServerRepairReport:
        """Rebuild every block lost with one server.

        With ``batch=True`` every lost block across all files is
        collected first and routed through :meth:`repair_blocks_bulk`, so
        striped files sharing a code rebuild in fused kernel calls; the
        default repairs file by file (the seed path).
        """
        tracer = get_tracer()
        with tracer.span(
            "repair.server", category="repair", server=server_id,
            batch=batch, clock=self.dfs.clock,
        ) as sp:
            report = ServerRepairReport(server=server_id)
            lost: list[tuple[str, int]] = []
            for name in self.dfs.list_files():
                ef = self.dfs.file(name)
                for b in sorted(ef.blocks_on_server(server_id)):
                    if (
                        self.cluster.server(server_id).failed
                        or server_id in self.quarantine
                        or not self.dfs.store.holds(server_id, name, b)
                    ):
                        lost.append((name, b))
            sp.set(blocks=len(lost))
            if batch:
                report.reports.extend(self.repair_blocks_bulk(lost))
            else:
                ranking = self._rank_servers()
                for name, b in lost:
                    report.reports.append(self._repair_block(name, b, None, ranking))
            return report

    def repair_all(self, batch: bool = False) -> list[RepairReport]:
        """Sweep the namespace and rebuild everything missing.

        Files are repaired most-at-risk first: a stripe with two dead
        blocks is one failure from the edge of its tolerance, so it jumps
        the queue ahead of stripes missing a single block — the triage
        production repair pipelines perform.  ``batch=True`` fuses
        same-pattern reconstructions within each risk tier.
        """
        damaged: list[tuple[int, str, list[int]]] = []
        for name in self.dfs.list_files():
            ef = self.dfs.file(name)
            dead = sorted(self._dead_blocks(ef))
            if dead:
                damaged.append((-len(dead), name, dead))
        damaged.sort()
        if batch:
            tiers: dict[int, list[tuple[str, int]]] = {}
            for risk, name, dead in damaged:
                tiers.setdefault(risk, []).extend((name, b) for b in dead)
            out: list[RepairReport] = []
            for risk in sorted(tiers):
                out.extend(self.repair_blocks_bulk(tiers[risk]))
            return out
        out = []
        for _, name, dead in damaged:
            for b in dead:
                out.append(self.repair_block(name, b))
        return out
