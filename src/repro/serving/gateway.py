"""The multi-tenant serving gateway: an async front end over the DFS.

This is the paper's load-spreading thesis restated as a *served
system*: a read-mostly front end where many clients contend for the
same disks, so the question is no longer "how many bytes does a
degraded read cost" but "what is the p99 when a Zipf-popular file
melts its holder servers".  RS confines original data to ``k`` of
``n`` blocks, so a hot file concentrates its traffic on ``k`` servers;
a Galloper layout stores original data on *every* block, spreading the
same traffic over all ``n`` — measurably flatter per-server load and a
lower tail.

Request path (one extent)::

    tenant QoS admission  (token leases, repair machinery reused)
      -> the runs of the read plan the extent covers (consecutive file
         stripes stored as consecutive rows of one block)
        -> hot-stripe cache (TinyLFU admission), per stripe
          -> request coalescing (one in-flight read per stripe)
            -> one primary range read per uncached, un-leased sub-run
               [+ hedged degraded read when the holder's queue is deep]
              -> degraded read: the helper rows the wanted rows depend on
                -> full decode fallback when the repair group cannot answer

The unit of disk work is the *row*, not the block: a code with ``N``
rows per block is read ``nrows`` rows at a time from the holder, and a
degraded or hedged read takes from each helper only the rows the
block's :class:`~repro.codes.base.HelperRows` name — one per wanted row
for a group-local repair.  With ``N = 1`` (Reed-Solomon, Pyramid) a row
is the block and nothing changes; with Galloper's ``N = 7`` a request
costs one disk IO per block it touches instead of one per stripe, and a
hedge costs its group a stripe each instead of a block each.

Disk time is modeled per server as a FIFO pipe (a
:class:`~repro.sim.resources.ThroughputResource`): each read occupies
the holder's disk for its (fault-inflated) service time, so queueing
delay — the thing Zipf skew actually causes — emerges rather than being
assumed.  The byte transfer goes through the DFS's own
:class:`~repro.storage.resilient.ResilientBlockClient` (checksums,
retries, timeouts), clock and health monitor: the clock is pinned to
the instant the read reaches the head of its disk's queue, and what the
client adds to it is the read's pipe occupancy.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.codes.base import DecodingError
from repro.obs.trace import get_tracer
from repro.serving.cache import HotBlockCache
from repro.serving.coalesce import RequestCoalescer
from repro.serving.qos import TenantLease, TenantThrottle
from repro.sim.aio import SimLoop
from repro.sim.resources import ThroughputResource
from repro.storage.blockstore import BlockUnavailableError
from repro.storage.filesystem import DistributedFileSystem, EncodedFile, FileSystemError
from repro.storage.repair import DECODE_RATE


class ServingError(FileSystemError):
    """A request the gateway could not serve (unrecoverable extent)."""


#: Rows narrower than this are gathered by one ``np.concatenate`` instead of
#: being handed to ``join`` one by one: below about a kilobyte a piece costs
#: more as an object (a view, a buffer export) than its bytes cost to copy.
_SMALL_ROW_BYTES = 1024


def _symbol_chunks(pieces, head: int = 0, tail: int = 0) -> list[np.ndarray]:
    """``pieces`` as contiguous 1-D chunks, less ``head`` symbols off the
    front (under a stripe: the start of an extent) and ``tail`` off the
    back (the end of an extent).

    A piece is a row the gateway holds: read from a disk, taken from its
    cache, or rebuilt.  Pieces are not copied (narrow rows apart): a
    contiguous one is one chunk, and one whose rows are not one buffer
    contributes its rows.
    """
    first = pieces[0]
    if len(pieces) > 1 and first.shape[-1] * first.itemsize < _SMALL_ROW_BYTES:
        chunks = [np.concatenate(pieces).reshape(-1)]
    else:
        chunks = []
        for piece in pieces:
            if piece.flags.c_contiguous:
                chunks.append(piece.reshape(-1))
            elif piece.ndim == 2 and piece.strides[1] == piece.itemsize:
                chunks.extend(piece)
            else:
                chunks.append(np.ascontiguousarray(piece).reshape(-1))
    while tail > 0:
        last = chunks.pop()
        if last.size > tail:
            chunks.append(last[:-tail])
        tail -= last.size
    if head:
        chunks[0] = chunks[0][head:]
    return chunks


def _join_symbols(chunks: list[np.ndarray]) -> bytes:
    """The chunks as one ``bytes``, one byte per symbol.  Symbols of a
    wider field are narrowed first (a payload byte per symbol is what every
    field stores)."""
    if chunks and chunks[0].itemsize != 1:
        chunks = [chunk.astype(np.uint8) for chunk in chunks]
    return b"".join(chunks)


@dataclass(frozen=True)
class GatewayConfig:
    """Serving knobs, and the constants every gateway shares.

    Attributes:
        cache_entries: hot-stripe cache capacity (entries).
        hedge_threshold: predicted primary completion (queue wait plus
            clean service) above which a degraded-decode hedge is raced
            against the primary; ``None`` disables serving-path hedges.
        max_inflight_per_tenant: default QoS cap per tenant.
        tenant_limits: per-tenant cap overrides.

    Class constants (not constructor arguments):
        cache_sample_period: TinyLFU aging period (accesses).
        cache_hit_latency: simulated seconds to serve from cache.
        request_overhead: fixed per-disk-read occupancy (seek + RPC).
        lease_estimate: tenant-lease self-expiry (request time estimate).
        slo: latency SLO threshold for attainment accounting.
    """

    cache_entries: int = 512
    hedge_threshold: float | None = 0.02
    max_inflight_per_tenant: int = 64
    tenant_limits: dict = field(default_factory=dict)
    cache_sample_period: ClassVar[int] = 4096
    cache_hit_latency: ClassVar[float] = 100e-6
    request_overhead: ClassVar[float] = 500e-6
    lease_estimate: ClassVar[float] = 0.05
    slo: ClassVar[float] = 0.1


class ServingGateway:
    """Per-tenant namespaced reads over one :class:`DistributedFileSystem`.

    Tenants address files as ``<tenant>/<key>`` in the underlying DFS
    namespace; :meth:`put` writes through, :meth:`read` serves byte
    extents with caching, coalescing, QoS and hedged degraded reads,
    and :meth:`repair_server` runs reconstruction *as* serving traffic.
    All counters land in the DFS's shared metrics registry under the
    ``serving_*`` / ``tenant_*`` names (see ``docs/SERVING.md``).
    """

    def __init__(
        self,
        dfs: DistributedFileSystem,
        loop: SimLoop | None = None,
        config: GatewayConfig | None = None,
    ):
        self.dfs = dfs
        self.loop = loop or SimLoop()
        self.config = config or GatewayConfig()
        self.metrics = dfs.metrics
        self.cache = HotBlockCache(
            self.config.cache_entries,
            metrics=self.metrics,
            sample_period=self.config.cache_sample_period,
        )
        self.coalescer = RequestCoalescer(self.loop, metrics=self.metrics)
        self.throttle = TenantThrottle(
            self.loop,
            max_inflight=self.config.max_inflight_per_tenant,
            limits=self.config.tenant_limits,
            metrics=self.metrics,
        )
        # The DFS's own client, on the DFS's clock (which its store's fault
        # windows and its monitor's breaker timeouts read): pinned to each
        # read's sim-time start, it measures the service time, retries
        # and backoff included.
        self.client = dfs.client
        #: Per-server disk FIFO; ``pledged`` counts the bytes of rebuilt
        #: blocks assigned to a server and not yet written.
        self._pipes: dict[int, ThroughputResource] = {}
        self._tenant_tracks: dict[str, int] = {}
        #: Per tenant, the name of its latency histogram.
        self._tenant_latency: dict[str, str] = {}

    # ----------------------------------------------------------- namespace

    @staticmethod
    def qualify(tenant: str, key: str) -> str:
        if "/" in tenant:
            raise ServingError(f"invalid tenant name {tenant!r}")
        return f"{tenant}/{key}"

    def put(self, tenant: str, key: str, payload, **write_kwargs) -> EncodedFile:
        """Write a tenant file through the DFS (synchronous setup path)."""
        return self.dfs.write_file(self.qualify(tenant, key), payload, **write_kwargs)

    # ----------------------------------------------------------- disk model

    def _pipe(self, server_id: int) -> ThroughputResource:
        """The server's disk FIFO (made on first use: clusters grow)."""
        pipe = self._pipes.get(server_id)
        if pipe is None:
            bandwidth = self.dfs.cluster.server(server_id).disk_bandwidth
            pipe = self._pipes[server_id] = ThroughputResource(self.loop.sim, bandwidth)
        return pipe

    async def _disk_read(self, server_id: int, op):
        """Run one resilient read against a server's FIFO disk.

        ``op`` is a synchronous callable performing the actual store
        read through :attr:`client`; the time it takes on the DFS clock,
        pinned to the instant the read reaches the head of the disk's
        queue, is the service duration the pipe is occupied for.  Returns
        the payload after the simulated completion instant.
        """
        pipe = self._pipe(server_id)
        clock = self.dfs.clock
        start = pipe.head()
        clock.pin(start)
        data = op()  # raises BlockUnavailableError on unreadable blocks
        done = pipe.commit(start, (clock.now - start) + self.config.request_overhead)
        self.metrics.observe("serving_disk_wait_s", start - self.loop.now)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.sim_span(
                "serve.disk", "serving", start, done,
                track=1000 + server_id, track_name=f"disk {server_id}",
                server=server_id,
            )
        await self.loop.sleep_until(done)
        return data

    # ------------------------------------------------------------- row path

    async def _read_rows(self, ef: EncodedFile, block: int, row0: int, nrows: int) -> np.ndarray:
        """One disk IO: ``nrows`` CRC-verified rows of a block from its server."""
        server = ef.server_of(block)
        return await self._disk_read(
            server, lambda: self.client.read_rows(server, ef.name, block, row0, nrows)
        )

    async def _rebuild_rows(self, ef: EncodedFile, plan, row0: int, nrows: int) -> np.ndarray:
        """Rows ``row0 .. row0 + nrows`` of ``plan.target`` from the helper
        rows they depend on: one disk IO per range ``plan.helper_rows``
        reads, all in flight at once, then the range's one compiled
        product and its decode time."""
        helper_rows = plan.helper_rows
        reads = [
            self.loop.create_task(self._read_rows(ef, h, first, count), name="helper")
            for h, first, count in helper_rows.reads(row0, nrows)
        ]
        rebuilt = helper_rows.rebuild(row0, nrows, await self.loop.gather(*reads))
        await self.loop.sleep(rebuilt.nbytes / DECODE_RATE)
        return rebuilt

    async def _degraded_rows(
        self, ef: EncodedFile, block: int, row0: int, nrows: int, fastest: bool = False
    ) -> np.ndarray:
        """Rebuild rows of a block through its repair group, by the row.

        The locality win shows up here: Galloper/Pyramid read their
        small local group, RS reads ``k`` helpers — and each helper is
        read only for the rows the target rows depend on (one per target
        row for a group-local plan), so a Galloper stripe costs a stripe
        per helper, not a block.  ``fastest`` picks the helper set by
        predicted completion (:meth:`_fastest_plan`); a hedge reads the
        plan :meth:`_hedge_would_win` costed.
        """
        self.metrics.add("serving_degraded_reads", 1)
        unreadable = self.dfs._unreadable_blocks(ef) | {block}
        plan = ef.code.repair_plan(block, unreadable)
        if fastest:
            plan = self._fastest_plan(ef, plan, row0, nrows, unreadable)
        return await self._rebuild_rows(ef, plan, row0, nrows)

    async def _decode_fallback(self, ef: EncodedFile, fs0: int, nrows: int) -> np.ndarray:
        """Last resort: decode the stripes from any decodable block subset,
        each read whole: one disk IO of every row of each block."""
        excluded: set[int] = set()
        while True:
            try:
                chosen = self.dfs._plan_decode_blocks(ef, excluded)
            except DecodingError as exc:
                self.metrics.add("serving_unavailable", 1)
                raise ServingError(
                    f"cannot serve stripe {fs0} of {ef.name!r}: {exc}",
                    file=ef.name, cause="undecodable",
                ) from exc
            reads = [
                self.loop.create_task(self._read_rows(ef, b, 0, ef.code.N), name="decode")
                for b in chosen
            ]
            try:
                blocks = await self.loop.gather(*reads)
            except BlockUnavailableError as exc:
                excluded.add(exc.block if exc.block is not None else chosen[0])
                self.metrics.add("decode_replans", 1)
                continue
            grid = ef.code.decode(dict(zip(chosen, blocks)))
            await self.loop.sleep(grid.nbytes / DECODE_RATE)
            return grid[fs0 : fs0 + nrows]

    def _hedge_would_win(
        self, ef: EncodedFile, block: int, row0: int, nrows: int, primary_eta: float
    ) -> bool:
        """Predict whether a degraded-read hedge beats the primary.

        A hedge reads, from every helper of the repair group, the rows
        the wanted rows depend on — as many bytes per helper as the
        primary reads from the holder — so it costs a group's worth of
        disk IOs for one; fired blindly under load it amplifies itself
        into a hedge storm (each hedge deepens helper queues, which
        triggers more hedges).  Gating on the predicted completion of the
        slowest helper makes hedging self-limiting: once helper queues
        saturate, hedges stop.
        """
        try:
            plan = ef.code.repair_plan(block, {block})
        except DecodingError:
            return False
        return self._plan_eta(ef, plan, row0, nrows)[0] < primary_eta

    def _plan_eta(self, ef: EncodedFile, plan, row0: int, nrows: int) -> tuple[float, int]:
        """Predicted sim seconds until target rows ``row0 .. row0 + nrows``
        are rebuilt through ``plan``, and the helper that sets the pace.

        Per helper: the wait for its disk, one ``request_overhead`` per
        range read and the clean transfer time of the rows read; the
        slowest helper gates the decode.
        """
        stripe_bytes = ef.stripe_size * ef.code.gf.dtype.itemsize
        ios: dict[int, int] = defaultdict(int)
        rows: dict[int, int] = defaultdict(int)
        for h, _, count in plan.helper_rows.reads(row0, nrows):
            ios[h] += 1
            rows[h] += count
        etas = {
            h: self._pipe(ef.server_of(h)).eta(rows[h] * stripe_bytes, ios[h], self.config.request_overhead)
            for h in ios
        }
        slowest = max(etas, key=etas.__getitem__)
        return etas[slowest] + nrows * stripe_bytes / DECODE_RATE, slowest

    def _fastest_plan(self, ef: EncodedFile, plan, row0: int, nrows: int, unreadable):
        """``plan``, or a repair plan for the same rows predicted to finish sooner.

        ``plan`` is the code's own choice (the local group).  While a
        plan is predicted slower than ``hedge_threshold`` — the config's
        line for "too slow to wait for" — its slowest helper joins the
        blocks to avoid and the code plans again; an alternative is kept
        only when strictly faster, and the search ends when no decodable
        helper set is left (at most ``n - k`` steps, each a memoised
        search).  With every helper under the threshold the answer is
        ``plan`` itself, so a quiet cluster reads what it always read.
        """
        threshold = self.config.hedge_threshold
        if threshold is None:
            return plan
        eta, slowest = self._plan_eta(ef, plan, row0, nrows)
        best_eta = eta
        avoid = set(unreadable)
        while eta > threshold:
            avoid.add(slowest)
            try:
                other = ef.code.repair_plan(plan.target, avoid)
            except DecodingError:
                break
            eta, slowest = self._plan_eta(ef, other, row0, nrows)
            if eta < best_eta:
                plan, best_eta = other, eta
        return plan

    async def _fetch_rows(
        self, ef: EncodedFile, block: int, row0: int, nrows: int, fs0: int
    ) -> np.ndarray:
        """Rows ``row0 .. row0 + nrows`` of ``block`` (file stripes from
        ``fs0``): from the holder, its repair group, or a full decode."""
        server = ef.server_of(block)
        if self.dfs.cluster.server(server).failed or not self.dfs.store.holds(
            server, ef.name, block
        ):
            # No point racing a dead primary; go straight to the group,
            # or around it when one of its disks is the slow one.
            try:
                return await self._degraded_rows(ef, block, row0, nrows, fastest=True)
            except (BlockUnavailableError, DecodingError):
                return await self._decode_fallback(ef, fs0, nrows)

        threshold = self.config.hedge_threshold
        expected = self._pipe(server).eta(
            nrows * ef.stripe_size * ef.code.gf.dtype.itemsize, 1, self.config.request_overhead
        )
        if (
            threshold is None
            or expected <= threshold
            or not self._hedge_would_win(ef, block, row0, nrows, expected)
        ):
            try:
                return await self._read_rows(ef, block, row0, nrows)
            except BlockUnavailableError:
                try:
                    return await self._degraded_rows(ef, block, row0, nrows)
                except (BlockUnavailableError, DecodingError):
                    return await self._decode_fallback(ef, fs0, nrows)

        # The holder's queue is deep AND the repair group is predicted
        # to answer sooner: race a degraded-read hedge against the
        # queued primary; first success is served, the loser runs to
        # completion (its disk time was really spent) and its payload
        # is discarded.
        self.metrics.add("serving_hedges_fired", 1)
        primary = self.loop.create_task(
            self._read_rows(ef, block, row0, nrows), name="hedge:primary"
        )
        hedge = self.loop.create_task(
            self._degraded_rows(ef, block, row0, nrows), name="hedge:degraded"
        )
        try:
            winner, value = await self.loop.first_success(primary, hedge)
        except (BlockUnavailableError, DecodingError):
            return await self._decode_fallback(ef, fs0, nrows)
        if winner == 1:
            self.metrics.add("serving_hedges_won", 1)
        loser = primary if winner == 1 else hedge

        def count_discard(fut) -> None:
            if fut.exception() is None:
                self.metrics.add("serving_hedge_losers_discarded", 1)

        loser.add_done_callback(count_discard)
        return value

    async def _lead(self, ef: EncodedFile, block: int, row0: int, nrows: int, fs0: int):
        """Fetch a sub-run this request leads and publish it per stripe."""
        name = ef.name
        try:
            rows = await self._fetch_rows(ef, block, row0, nrows, fs0)
        except BaseException as exc:
            for fs in range(fs0, fs0 + nrows):
                self.coalescer.fail((name, fs), exc)
            raise
        for i, row in enumerate(rows):
            key = (name, fs0 + i)
            self.cache.offer(key, row)
            self.coalescer.complete(key, row)
        return rows

    async def _run(self, ef: EncodedFile, block: int, row0: int, nrows: int, fs0: int) -> list:
        """Serve one run of the read plan: ``nrows`` consecutive file
        stripes stored as consecutive rows of one block.

        Cache and coalescer are keyed per file stripe, so one request's
        hit is the next one's, whatever extent it asks for.  What is
        neither cached nor already in flight is fetched per contiguous
        sub-run: one disk IO and one ``request_overhead`` each.
        """
        out: list = [None] * nrows
        hit = False
        waits: list[tuple[int, object]] = []
        leads: list[list[int]] = []  # [first index, count] of each sub-run to fetch
        for i in range(nrows):
            key = (ef.name, fs0 + i)
            cached = self.cache.get(key)
            if cached is not None:
                out[i] = cached
                hit = True
                continue
            leader, fut = self.coalescer.lease(key)
            if not leader:
                waits.append((i, fut))
            elif leads and leads[-1][0] + leads[-1][1] == i:
                leads[-1][1] += 1
            else:
                leads.append([i, 1])
        if not hit and not waits and len(leads) == 1:
            return list(await self._lead(ef, block, row0, nrows, fs0))
        fetches = [
            (i, self.loop.create_task(self._lead(ef, block, row0 + i, n, fs0 + i), name="lead"))
            for i, n in leads
        ]
        if hit:
            await self.loop.sleep(self.config.cache_hit_latency)
        for i, fut in waits:
            out[i] = await fut
        for i, task in fetches:
            rows = await task
            out[i : i + len(rows)] = rows
        return out

    async def _lone_run(self, ef: EncodedFile, block: int, row0: int, nrows: int, fs0: int) -> list:
        """:meth:`_run` in the calling task, in the order a task of its own
        and a gather of it would give.

        That task's start would be queued now, and the caller resumed by
        an event queued as the run ends; each of the two turns is taken
        only when something else is due at its instant (with nothing else
        due, the hop's event would be dispatched next anyway).
        """
        await self.loop._take_turn()
        try:
            rows = await self._run(ef, block, row0, nrows, fs0)
        except Exception:
            await self.loop._take_turn()
            raise
        await self.loop._take_turn()
        return rows

    # --------------------------------------------------------- request path

    async def read(
        self, tenant: str, key: str, offset: int = 0, length: int | None = None
    ) -> bytes:
        """Serve one byte extent of a tenant's file.

        The full request path: QoS admission, fan-out over the runs of
        the read plan the extent covers (caching and coalescing per
        stripe, one disk IO and hedging per uncached sub-run), SLO
        accounting.  Raises :class:`ServingError` when the extent is
        unrecoverable.
        """
        t_arrival = self.loop.now
        lease = self.throttle._admit(tenant, self.config.lease_estimate, t_arrival)
        if lease is None:
            lease = await self.throttle.acquire(tenant, self.config.lease_estimate)
        try:
            ef = self.dfs.file(self.qualify(tenant, key))
            if length is None:
                length = ef.original_size - offset
            length = max(0, min(length, ef.original_size - offset))
            if length == 0:
                return b""
            first = offset // ef.stripe_size
            last = (offset + length - 1) // ef.stripe_size
            runs = ef.code.read_plan().runs_within(first, last + 1)
            try:
                if len(runs) == 1:
                    runs = [await self._lone_run(ef, *runs[0])]
                else:
                    runs = await self.loop.gather(
                        *(self.loop.create_task(self._run(ef, *run), name="run") for run in runs)
                    )
            except ServingError:
                self.metrics.add("serving_reads_failed", 1)
                raise
            except (BlockUnavailableError, DecodingError) as exc:
                self.metrics.add("serving_reads_failed", 1)
                raise ServingError(
                    f"read of {key!r} for tenant {tenant!r} failed: {exc}",
                    file=ef.name, cause="unavailable",
                ) from exc
            payload = _join_symbols(
                _symbol_chunks(
                    [row for rows in runs for row in rows],
                    offset - first * ef.stripe_size,
                    (last + 1) * ef.stripe_size - offset - length,
                )
            )
        finally:
            self.throttle.release(lease)
        latency = self.loop.now - t_arrival
        self.metrics.add("serving_reads_ok", 1)
        self.metrics.observe("serving_latency_s", latency)
        tenant_latency = self._tenant_latency.get(tenant)
        if tenant_latency is None:
            tenant_latency = self._tenant_latency[tenant] = f"serving_latency_s[{tenant}]"
        self.metrics.observe(tenant_latency, latency)
        if latency <= self.config.slo:
            self.metrics.add("serving_slo_ok", 1)
        tracer = get_tracer()
        if tracer.enabled:
            track = self._tenant_tracks.setdefault(tenant, len(self._tenant_tracks))
            tracer.sim_span(
                "serve.read", "serving", t_arrival, self.loop.now,
                track=track, track_name=f"tenant {tenant}",
                tenant=tenant, key=key, bytes=length,
            )
        return payload

    # ---------------------------------------------------------- repair path

    async def repair_server(self, victim: int, tenant: str = "repair") -> int:
        """Rebuild every block the victim held, as serving traffic.

        Repair enters through the same tenant throttle and the same
        per-server disk queues as foreground reads — the token-lease
        admission the repair pipeline already uses, now arbitrating
        both kinds of traffic.  Blocks rebuild concurrently, one lease
        each: the sweep admits the next block when the tenant is under
        its cap, so the cap is what bounds the rebuilds in flight.  A
        block that cannot be rebuilt is counted in
        ``serving_repair_failures`` and the sweep goes on.  Returns the
        number of blocks rebuilt.
        """
        rebuilds = []
        for name in self.dfs.list_files():
            ef = self.dfs.file(name)
            for block in sorted(ef.blocks_on_server(victim)):
                lease = await self.throttle.acquire(tenant, self.config.lease_estimate)
                rebuilds.append(
                    self.loop.create_task(self._rebuild_block(ef, block, lease), name="rebuild")
                )
        return sum(await self.loop.gather(*rebuilds))

    async def _rebuild_block(self, ef: EncodedFile, block: int, lease: TenantLease) -> bool:
        """Rebuild one lost block onto a live server; ``lease`` is released
        when it is done.  Returns whether the block was rebuilt."""
        nbytes = ef.block_size * ef.code.gf.dtype.itemsize
        try:
            target = self._replacement_server(ef)
            # The write is charged to the target's disk only once the block
            # is rebuilt; until then rebuilds admitted alongside must see it.
            pipe = self._pipe(target)
            pipe.pledged += nbytes
            try:
                unreadable = self.dfs._unreadable_blocks(ef)
                default = ef.code.repair_plan(block, unreadable)
                plan = self._fastest_plan(ef, default, 0, ef.code.N, unreadable)
                if plan is not default:
                    self.metrics.add("serving_repair_replans", 1)
                self.metrics.add("serving_repair_helper_blocks", len(plan.helpers))
                rebuilt = await self._rebuild_rows(ef, plan, 0, ef.code.N)
            finally:
                pipe.pledged -= nbytes
            await self._disk_write(target, ef.name, block, rebuilt)
            ef.placement[block] = target
            self.metrics.add("serving_repair_blocks", 1)
            return True
        except (BlockUnavailableError, DecodingError, ServingError):
            self.metrics.add("serving_repair_failures", 1)
            return False
        finally:
            self.throttle.release(lease)

    def _replacement_server(self, ef: EncodedFile) -> int:
        """The live server a rebuilt block of ``ef`` would be written soonest:
        shortest disk queue counting the rebuild writes already headed
        there, least recently busy among equals; a server holding another
        block of the file only when there is no other."""
        used = set(ef.placement.values())
        alive = self.dfs.cluster.alive()
        candidates = [s for s in alive if s.server_id not in used] or alive
        if not candidates:
            raise ServingError("no live server to rebuild onto", file=ef.name, cause="no_target")

        def soonest(server) -> tuple[float, float, int]:
            pipe = self._pipe(server.server_id)
            return pipe.eta(pipe.pledged), pipe.free_at, server.server_id

        return min(candidates, key=soonest).server_id

    async def _disk_write(self, server: int, name: str, block: int, payload: np.ndarray) -> None:
        def op():
            self.dfs.store.put(server, name, block, payload)
            self.dfs.clock.advance(payload.nbytes / self._pipe(server).bandwidth)

        await self._disk_read(server, op)

    # ------------------------------------------------------------- reporting

    def counters(self) -> dict:
        """The serving counters, in a stable schema (``repro stats``)."""
        snap = self.metrics.snapshot()

        def count(name: str) -> int:
            return int(snap.get(name, 0))

        return {
            "cache_hits": count("serving_cache_hits"),
            "cache_misses": count("serving_cache_misses"),
            "cache_admissions": count("serving_cache_admissions"),
            "cache_rejections": count("serving_cache_rejections"),
            "cache_evictions": count("serving_cache_evictions"),
            "coalesced_reads": count("serving_coalesced_reads"),
            "hedges_fired": count("serving_hedges_fired"),
            "hedges_won": count("serving_hedges_won"),
            "hedge_losers_discarded": count("serving_hedge_losers_discarded"),
            "degraded_reads": count("serving_degraded_reads"),
            "throttle_waits": count("tenant_throttle_waits"),
            "repair_blocks": count("serving_repair_blocks"),
            "repair_replans": count("serving_repair_replans"),
            "repair_helper_blocks": count("serving_repair_helper_blocks"),
            "reads_ok": count("serving_reads_ok"),
            "reads_failed": count("serving_reads_failed"),
            "slo_ok": count("serving_slo_ok"),
            "unavailable": count("serving_unavailable"),
        }
