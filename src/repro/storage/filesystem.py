"""A DFS-like namespace over encoded blocks (the HDFS analog).

``write_file`` encodes a payload with any :class:`~repro.codes.base.ErasureCode`
and spreads the blocks over distinct servers; ``read_file`` reassembles
the payload, transparently falling back to decoding when servers are down
(a *degraded read*).  ``read_stripes`` / ``read_bytes`` serve arbitrary
extents of the original file — this is the primitive the MapReduce input
formats are built on, equivalent to the paper's custom ``FileInputFormat``
that knows the boundary between original and parity data in each block.

When a file is written with a Galloper code and no explicit weights, the
filesystem closes the loop the paper describes: it asks the placement
policy for servers first, reads their performance, runs the weight
assignment for exactly those servers, and only then constructs the code.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.placement import PlacementPolicy, RoundRobinPlacement
from repro.cluster.topology import Cluster
from repro.codes.base import DecodingError, ErasureCode
from repro.faults.clock import VirtualClock
from repro.obs.trace import get_tracer
from repro.storage import pipeline
from repro.storage.blockstore import BlockStore, BlockUnavailableError, StorageError
from repro.storage.health import HealthMonitor
from repro.storage.metrics import MetricsRegistry
from repro.storage.resilient import ResilientBlockClient, RetryPolicy


class FileSystemError(StorageError):
    """Raised on namespace-level failures.

    Attributes:
        file / block / server: scope of the failure, when known.
        cause: machine-readable reason (e.g. ``"undecodable"``,
            ``"no_target"``), mirroring
        :class:`~repro.storage.blockstore.BlockUnavailableError`.
    """

    def __init__(
        self,
        message: str,
        *,
        file: str | None = None,
        block: int | None = None,
        server: int | None = None,
        cause: str | None = None,
    ):
        super().__init__(message)
        self.file = file
        self.block = block
        self.server = server
        self.cause = cause

    def context(self) -> dict:
        return {"file": self.file, "block": self.block, "server": self.server, "cause": self.cause}


#: Rows narrower than this are gathered by one ``np.concatenate`` instead of
#: being handed to ``join`` one by one: below about a kilobyte a piece costs
#: more as an object (a view, a buffer export) than its bytes cost to copy.
_SMALL_ROW_BYTES = 1024


def _symbol_chunks(pieces, head: int = 0, tail: int = 0) -> list[np.ndarray]:
    """``pieces`` as contiguous 1-D chunks, less ``head`` symbols off the
    front (under a stripe: the start of an extent) and ``tail`` off the
    back (the end of an extent, the padding behind a file).

    A piece is what a read returned: a view of stored rows, or a slice of
    what a degraded read rebuilt.  Pieces are not copied (narrow rows
    apart): a contiguous one is one chunk, and one whose block is a column
    slice of a batched encode, so not one buffer, contributes its rows.
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
    """The chunks as one ``bytes``, one byte per symbol: the single pass
    that delivers a read.  Symbols of a wider field are narrowed first (a
    payload byte per symbol is what every field stores)."""
    if chunks and chunks[0].itemsize != 1:
        chunks = [chunk.astype(np.uint8) for chunk in chunks]
    return b"".join(chunks)


@dataclass
class EncodedFile:
    """Metadata of one stored file.

    Attributes:
        name: namespace key.
        code: the erasure code instance that produced the blocks.
        placement: ``block id -> server id``.
        stripe_size: symbols per stripe.
        original_size: unpadded payload length in symbols (= bytes for
            GF(2^8)).
    """

    name: str
    code: ErasureCode
    placement: dict[int, int]
    stripe_size: int
    original_size: int
    tags: dict = field(default_factory=dict)

    @property
    def block_size(self) -> int:
        """Stored size of each block, in symbols."""
        return self.code.N * self.stripe_size

    @property
    def padded_size(self) -> int:
        return self.code.data_stripe_total * self.stripe_size

    def server_of(self, block_id: int) -> int:
        return self.placement[block_id]

    def blocks_on_server(self, server_id: int) -> list[int]:
        return [b for b, s in self.placement.items() if s == server_id]

    def stripe_holder(self, file_stripe: int) -> tuple[int, int] | None:
        """``(block, row)`` storing a file stripe verbatim, else ``None``."""
        return self.code.read_plan().holder(file_stripe)


class DistributedFileSystem:
    """Files encoded over a cluster's block stores.

    Reads go through a :class:`~repro.storage.resilient.ResilientBlockClient`
    (checksum verification, retry with backoff, hedging, circuit-breaker
    fast-fail) feeding a per-server :class:`~repro.storage.health.HealthMonitor`.
    On clean hardware (no ``fault_model``) the resilient path is
    behaviour-identical to a direct store read.

    Args:
        cluster: servers to spread blocks over.
        metrics: shared accounting registry.
        fault_model: optional :class:`~repro.faults.model.FaultModel`
            installed on the block store.
        clock: time source for latency accounting, backoff and breaker
            timeouts (default: a fresh virtual clock).
        health: share a monitor across components; default builds one.
        retry_policy: knobs for the resilient client.
    """

    def __init__(
        self,
        cluster: Cluster,
        metrics: MetricsRegistry | None = None,
        *,
        fault_model=None,
        clock=None,
        health: HealthMonitor | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.metrics = metrics or MetricsRegistry()
        self.clock = clock or VirtualClock()
        self.store = BlockStore(cluster, self.metrics)
        self.store.install_faults(fault_model, self.clock)
        self.health = health or HealthMonitor(self.clock, metrics=self.metrics)
        self.client = ResilientBlockClient(
            self.store,
            health=self.health,
            policy=retry_policy,
            clock=self.clock,
            metrics=self.metrics,
        )
        self.files: dict[str, EncodedFile] = {}
        # One code object per parameter set among the files held; an
        # entry dies with the last file (or caller) that refers to it.
        self._codes: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # ------------------------------------------------------------ write path

    def _intern_code(self, code: ErasureCode) -> ErasureCode:
        """The code object this filesystem keeps for ``code``'s parameter set.

        Equal parameters — same class, field, stripes per block,
        generator and block layout — mean equal behaviour, so every file
        written with them shares the first such object written here, and
        with it one encode plan, one read plan and one LRU of decode and
        repair plans instead of one per file.  What stays per file is
        what :class:`EncodedFile` records: placement and stripe size.
        Galloper codes built for different server performances have
        different generators and never alias.
        """
        return self._codes.setdefault(code._content_key(), code)

    def write_file(
        self,
        name: str,
        payload,
        code: ErasureCode | None = None,
        code_factory=None,
        placement: PlacementPolicy | None = None,
        performance_metric: str = "cpu_speed",
    ) -> EncodedFile:
        """Encode and store a file.

        Either pass a ready ``code``, or a ``code_factory`` called as
        ``code_factory(performances)`` with the performance vector of the
        servers chosen by the placement policy — the hook Galloper codes
        use to match weights to servers.
        """
        if name in self.files:
            raise FileSystemError(f"file {name!r} already exists")
        if (code is None) == (code_factory is None):
            raise FileSystemError("pass exactly one of code / code_factory")
        placement = placement or RoundRobinPlacement()

        tracer = get_tracer()
        with tracer.span("dfs.place", category="storage", file=name):
            if code_factory is not None:
                # Two-phase: probe how many blocks by building with uniform
                # performance, then rebuild with the placed servers' metrics.
                probe = code_factory(None)
                servers = placement.place(self.cluster, probe.n)
                perf = self.cluster.performance_vector(servers, performance_metric)
                code = code_factory(perf)
            else:
                servers = placement.place(self.cluster, code.n)
        code = self._intern_code(code)

        payload = self._as_symbols(code, payload)
        original_size = payload.size
        total = code.data_stripe_total
        padded = int(np.ceil(original_size / total) * total) if original_size else total
        if padded != original_size:
            payload = np.concatenate([payload, np.zeros(padded - original_size, dtype=code.gf.dtype)])
        grid = payload.reshape(total, padded // total)

        with tracer.span("dfs.encode", category="coding", file=name, bytes=grid.nbytes):
            blocks = code.encode(grid)
        placement_map = {b: servers[b] for b in range(code.n)}
        with tracer.span(
            "dfs.store_blocks", category="storage", file=name, blocks=code.n, clock=self.clock
        ):
            for b in range(code.n):
                self.store.put(servers[b], name, b, blocks[b])
        ef = EncodedFile(
            name=name,
            code=code,
            placement=placement_map,
            stripe_size=grid.shape[1],
            original_size=original_size,
        )
        self.files[name] = ef
        return ef

    def write_virtual_file(
        self,
        name: str,
        size_bytes: int,
        code: ErasureCode | None = None,
        code_factory=None,
        placement: PlacementPolicy | None = None,
        performance_metric: str = "cpu_speed",
    ) -> EncodedFile:
        """Register a file's *metadata* without materializing its bytes.

        Simulated-time experiments (Figs. 9/10 use 450 MB blocks) need the
        stripe geometry and placement but never read payloads; a virtual
        file provides exactly that.  Reading a virtual file's content
        raises :class:`FileSystemError`.
        """
        if name in self.files:
            raise FileSystemError(f"file {name!r} already exists")
        if (code is None) == (code_factory is None):
            raise FileSystemError("pass exactly one of code / code_factory")
        placement = placement or RoundRobinPlacement()
        if code_factory is not None:
            probe = code_factory(None)
            servers = placement.place(self.cluster, probe.n)
            perf = self.cluster.performance_vector(servers, performance_metric)
            code = code_factory(perf)
        else:
            servers = placement.place(self.cluster, code.n)
        code = self._intern_code(code)
        total = code.data_stripe_total
        padded = max(total, int(np.ceil(size_bytes / total) * total))
        ef = EncodedFile(
            name=name,
            code=code,
            placement={b: servers[b] for b in range(code.n)},
            stripe_size=padded // total,
            original_size=size_bytes,
            tags={"virtual": True},
        )
        self.files[name] = ef
        return ef

    def write_encoded(
        self,
        name: str,
        code: ErasureCode,
        blocks: np.ndarray,
        original_size: int,
        placement: PlacementPolicy | None = None,
    ) -> EncodedFile:
        """Register and store pre-encoded blocks (the batched-write path).

        ``blocks`` is the ``(n, N, S)`` array a (possibly fused)
        :meth:`~repro.codes.base.ErasureCode.encode` produced; views into
        a larger batched output are stored as-is — no per-block copy.
        """
        if name in self.files:
            raise FileSystemError(f"file {name!r} already exists")
        if blocks.ndim != 3 or blocks.shape[:2] != (code.n, code.N):
            raise FileSystemError(
                f"expected ({code.n}, {code.N}, S) blocks for {name!r}, got {blocks.shape}"
            )
        code = self._intern_code(code)
        placement = placement or RoundRobinPlacement()
        tracer = get_tracer()
        with tracer.span("dfs.place", category="storage", file=name):
            servers = placement.place(self.cluster, code.n)
        with tracer.span(
            "dfs.store_blocks", category="storage", file=name, blocks=code.n, clock=self.clock
        ):
            for b in range(code.n):
                self.store.put(servers[b], name, b, blocks[b])
        self.metrics.add("bytes_moved_zero_copy", blocks.nbytes)
        ef = EncodedFile(
            name=name,
            code=code,
            placement={b: servers[b] for b in range(code.n)},
            stripe_size=blocks.shape[2],
            original_size=original_size,
        )
        self.files[name] = ef
        return ef

    @staticmethod
    def _as_symbols(code: ErasureCode, payload) -> np.ndarray:
        """The payload as a flat symbol array — a view of it when the dtype
        already matches.  Safe because only the encode's own output is
        stored: nothing kept aliases the caller's buffer."""
        if isinstance(payload, (bytes, bytearray, memoryview)):
            payload = np.frombuffer(payload, dtype=np.uint8)
        return np.asarray(payload).reshape(-1).astype(code.gf.dtype, copy=False)

    # ------------------------------------------------------------- read path

    def file(self, name: str) -> EncodedFile:
        try:
            return self.files[name]
        except KeyError:
            raise FileSystemError(f"no such file {name!r}") from None

    def stripe_holders(self, name: str) -> dict[int, tuple[int, int]]:
        """``file stripe -> (block, row)`` for every verbatim-stored stripe.

        The map the serving gateway routes on: systematic codes store
        every file stripe verbatim somewhere, and *which block* holds it
        is exactly the load-spreading property under test (RS confines
        data to ``k`` blocks; Galloper spreads it over all ``n``).
        """
        return dict(enumerate(self.file(name).code.read_plan().holders))

    def _open(self, name: str) -> EncodedFile:
        """The file, for reading its content (every read entry point starts here)."""
        ef = self.file(name)
        if ef.tags.get("virtual"):
            raise FileSystemError(
                f"file {name!r} is virtual: it has geometry and placement but no content",
                file=name, cause="virtual",
            )
        return ef

    def read_file(self, name: str) -> bytes:
        """Read a whole file back, degraded-decoding if servers are down.

        The bytes are assembled in one pass: the CRC-verified row views
        the reads returned (and, degraded, slices of what was rebuilt),
        less the padding behind the last stripe, joined straight into the
        ``bytes`` returned — no staging buffer, no stripe grid.
        """
        ef = self._open(name)
        with get_tracer().span(
            "dfs.read_file", category="storage", file=name,
            bytes=ef.original_size, clock=self.clock,
        ):
            return _join_symbols(self._file_chunks(ef))

    def read_file_into(self, name: str, out) -> int:
        """Read a whole file directly into a caller-supplied buffer.

        ``out`` is a writable buffer (``bytearray`` / ``memoryview``) of
        at least the file's byte length.  Each piece the reads returned
        is copied once, from the stored rows into its place in ``out``
        (symbols of a wider field are narrowed by that same assignment);
        nothing is staged in between.

        Returns the number of bytes written.
        """
        ef = self._open(name)
        nbytes = ef.original_size
        target = np.frombuffer(memoryview(out)[:nbytes], dtype=np.uint8)
        with get_tracer().span(
            "dfs.read_file", category="storage", file=name, bytes=nbytes, clock=self.clock
        ):
            pos = 0
            for chunk in self._file_chunks(ef):
                target[pos : pos + chunk.size] = chunk
                pos += chunk.size
        self._count_delivered(ef.code, nbytes)
        return nbytes

    def _count_delivered(self, code: ErasureCode, nbytes: int) -> None:
        """Account a whole-file read: narrowed symbols crossed a copy, bytes did not."""
        self.metrics.add("bytes_moved_zero_copy" if code.gf.q == 8 else "bytes_copied", nbytes)

    def _file_chunks(self, ef: EncodedFile) -> list[np.ndarray]:
        """The file's payload symbols, in order, as chunks ready to join."""
        pieces = self._read_available_stripes(ef)
        if any(piece is None for piece in pieces):
            self._recover([(ef, pieces)])
        return _symbol_chunks(pieces, 0, ef.padded_size - ef.original_size)

    def _read_available_stripes(self, ef: EncodedFile) -> list[np.ndarray | None]:
        """One piece per run of the code's read plan, in file-stripe order.

        A piece is the CRC-verified row view the resilient client handed
        back for the run's one range read — the stored rows themselves,
        not a copy: a stored array is never written in place (``put`` and
        ``corrupt`` replace it), so a held view cannot change under the
        reader.  A run that could not be read (server down, retries
        exhausted) is ``None``, for :meth:`_recover` to fill — one file
        at a time here, every degraded stripe group of a file at once
        from the striped layer.
        """
        pieces: list[np.ndarray | None] = []
        read_rows = self.client.read_rows
        for block, row0, nrows, _ in ef.code.read_plan().runs:
            try:
                pieces.append(read_rows(ef.placement[block], ef.name, block, row0, nrows))
            except BlockUnavailableError:
                pieces.append(None)
        return pieces

    def _unreadable_blocks(self, ef: EncodedFile) -> frozenset[int]:
        """Blocks whose server is down or no longer holds them."""
        return frozenset(
            b
            for b, server in ef.placement.items()
            if self.cluster.server(server).failed or not self.store.holds(server, ef.name, b)
        )

    def _plan_local_repair(self, ef: EncodedFile, pieces: list, memo: dict):
        """The repair plan of the one block behind the ``None`` pieces, else ``None``.

        A degraded read whose missing runs all sit in one block needs
        that block only: its :class:`~repro.codes.base.RepairPlan` names
        the helpers (the ``k/l`` group mates for Pyramid and Galloper),
        far fewer rows to read and rebuild than the full decode.  ``None``
        sends the read to :meth:`_plan_decode_blocks` and the full decode
        instead: the stripes span several blocks, no helper set rebuilds
        the block, or the plan names more than ``k`` helpers.  Helpers
        are read whole, so every byte that reaches the user passed its
        CRC, whatever ``read_fractions`` the plan carries for repair
        accounting — which is why a plan that takes a fraction of nearly
        every survivor (the rotated baseline) costs more here than the
        minimal decodable subset and is declined.  ``memo`` shares the
        verdict between the groups of one striped read, keyed by ``(block,
        unreadable)``: the code remembers its fallback searches,
        but not the ones that failed, nor the ``k``-helper rule above.
        """
        code = ef.code
        owners = {run[0] for run, piece in zip(code.read_plan().runs, pieces) if piece is None}
        if len(owners) != 1:
            return None
        (block,) = owners
        unreadable = self._unreadable_blocks(ef) | {block}
        key = (block, unreadable)
        if key not in memo:
            try:
                plan = code.repair_plan(block, unreadable)
            except DecodingError:
                plan = None
            memo[key] = plan if plan is not None and len(plan.helpers) <= code.k else None
        return memo[key]

    def _recover(self, entries: list[tuple[EncodedFile, list]]) -> None:
        """Fill the ``None`` pieces of each ``(file, pieces)`` entry.

        ``pieces`` is what :meth:`_read_available_stripes` returned for
        the file: one slot per run of the read plan, ``None`` where the
        run could not be read.  Exactly those slots are replaced, by
        slices of what is rebuilt here — nothing is written into a grid,
        and a piece that was read stays the view it was.

        The entries share one code: they are one file, or the degraded
        stripe groups of one striped file.  Those whose missing runs sit
        in one block with a local plan are bucketed by ``(block,
        helpers)`` — after a server failure every group lands in one
        bucket — and each bucket is rebuilt from its helpers in one fused
        reconstruct.  Everything else, and any entry one of whose helpers
        could not be read, is decoded in full from minimal survivor sets
        by :meth:`_degraded_decode`, which re-plans around flaky
        survivors.  A whole-file read is a batch of one.
        """
        code = entries[0][0].code
        runs = code.read_plan().runs
        plans: dict = {}
        local: dict[tuple[int, tuple[int, ...]], list] = {}
        full: list = []
        for entry in entries:
            plan = self._plan_local_repair(*entry, plans)
            if plan is None:
                full.append(entry)
            else:
                local.setdefault((plan.target, plan.helpers), []).append(entry)
        for (block, helpers), members in local.items():
            with get_tracer().span(
                "dfs.local_repair", category="storage", block=block,
                helpers=list(helpers), files=len(members), clock=self.clock,
            ):
                good: list = []
                availables: list[dict[int, np.ndarray]] = []
                for entry in members:
                    ef = entry[0]
                    try:
                        availables.append(
                            {h: self.client.get(ef.server_of(h), ef.name, h) for h in helpers}
                        )
                        good.append(entry)
                    except BlockUnavailableError:
                        full.append(entry)
                if not good:
                    continue
                rebuilt = pipeline.batch_reconstruct(
                    code, block, helpers, availables, metrics=self.metrics
                )
            for (_, pieces), rows in zip(good, rebuilt):
                for i, (_, row0, nrows, _) in enumerate(runs):
                    if pieces[i] is None:
                        pieces[i] = rows[row0 : row0 + nrows]
                self.metrics.add("degraded_reads", 1)
        if full:
            decoded = self._degraded_decode(*(ef for ef, _ in full))
            for (_, pieces), grid in zip(full, decoded):
                for i, (_, _, nrows, fs0) in enumerate(runs):
                    if pieces[i] is None:
                        pieces[i] = grid[fs0 : fs0 + nrows]

    def _degraded_decode(self, *files: EncodedFile) -> list[np.ndarray]:
        """Decode each file's full stripe grid from a *minimal* set of survivors.

        Reading every surviving block would work but wastes disk I/O;
        instead blocks are added greedily — data-heavy blocks first,
        healthier servers breaking ties — until the subset decodes, and
        only those are read.  A survivor that fails mid-read (transient
        faults exhaust the client's retries, or its server crashes
        between planning and reading) is excluded and that file's
        selection re-planned, so degraded reads survive flaky helpers.
        The files share one code (they are one file, or the stripe groups
        of one striped file); those that end up on the same survivor set
        decode in one fused apply.
        """
        survivors: list[dict[int, np.ndarray]] = []
        replans = 0
        with get_tracer().span(
            "dfs.degraded_decode", category="storage", files=len(files), clock=self.clock
        ) as sp:
            for ef in files:
                self.metrics.add("degraded_reads", 1)
                excluded: set[int] = set()
                while True:
                    available: dict[int, np.ndarray] = {}
                    for b in self._plan_decode_blocks(ef, excluded):
                        try:
                            available[b] = self.client.get(ef.server_of(b), ef.name, b)
                        except BlockUnavailableError:
                            excluded.add(b)
                            self.metrics.add("decode_replans", 1)
                            break
                    else:
                        break
                replans += len(excluded)
                survivors.append(available)
            sp.set(replans=replans)
            return pipeline.batch_decode(files[0].code, survivors, metrics=self.metrics)

    def _plan_decode_blocks(self, ef: EncodedFile, excluded: set[int] | frozenset = frozenset()) -> list[int]:
        """Choose a minimal decodable block subset for a degraded read.

        Prefer blocks carrying the most original data (their rows are
        identity rows: cheap to eliminate, and they short-circuit the
        rank growth); among equals take the statistically healthiest
        server, then index for determinism.

        Raises:
            DecodingError: when no reachable subset determines the data.
        """
        code = ef.code
        unreadable = self._unreadable_blocks(ef)
        candidates = sorted(
            (b for b in ef.placement if b not in unreadable and b not in excluded),
            key=lambda b: (
                -code.block_infos[b].data_stripes,
                self.health.score(ef.server_of(b)),
                b,
            ),
        )
        chosen: list[int] = []
        for b in candidates:
            chosen.append(b)
            if len(chosen) >= code.k and code.can_decode(chosen):
                return chosen
        raise DecodingError(
            f"cannot decode {ef.name!r}: surviving blocks {sorted(candidates)} "
            f"(after excluding {sorted(excluded)}) do not determine the data"
        )

    def read_stripes(self, name: str, start: int, count: int) -> np.ndarray:
        """Read ``count`` file stripes starting at ``start``.

        Stripes stored verbatim on live servers are read directly (grouped
        into per-block range reads); a run that cannot be read is rebuilt
        from the helper rows it depends on, and only when that fails is
        the whole file decoded.
        """
        ef = self._open(name)
        pieces = self._read_stripes(ef, start, count)
        return np.concatenate(pieces) if pieces else np.empty((0, ef.stripe_size), ef.code.gf.dtype)

    def _read_stripes(self, ef: EncodedFile, start: int, count: int) -> list[np.ndarray]:
        """The pieces of file stripes ``[start, start + count)``: per run
        of the read plan within the range, the row view read or the rows
        rebuilt."""
        total = ef.code.data_stripe_total
        if start < 0 or start + count > total:
            raise FileSystemError(f"stripe range [{start}, {start + count}) outside file of {total}")
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "dfs.read_stripes", category="storage", file=ef.name,
                start=start, count=count, clock=self.clock,
            ):
                return self._read_runs(ef, start, count)
        return self._read_runs(ef, start, count)

    def _read_runs(self, ef: EncodedFile, start: int, count: int) -> list[np.ndarray]:
        """:meth:`_read_stripes` proper, inside its span."""
        pieces: list[np.ndarray] = []
        decoded: np.ndarray | None = None
        for block, row0, nrows, fs0 in ef.code.read_plan().runs_within(start, start + count):
            try:
                rows = self.client.read_rows(ef.placement[block], ef.name, block, row0, nrows)
            except BlockUnavailableError:
                rows = self._rebuild_rows(ef, block, row0, nrows)
                if rows is None:
                    if decoded is None:
                        (decoded,) = self._degraded_decode(ef)
                    rows = decoded[fs0 : fs0 + nrows]
            pieces.append(rows)
        return pieces

    def _rebuild_rows(self, ef: EncodedFile, block: int, row0: int, nrows: int) -> np.ndarray | None:
        """Rows of an unreadable block from the helper rows they depend on.

        An extent needs the rows it covers, not the file: the block's
        repair plan names, per row, the rows of each helper it is a
        combination of, and only those are read (CRC-verified like any
        row read).  ``None`` — no plan, or a helper row cannot be read —
        sends the caller to the whole-file decode, which re-plans around
        flaky survivors.
        """
        with get_tracer().span(
            "dfs.row_repair", category="storage", file=ef.name, block=block,
            row=row0, rows=nrows, clock=self.clock,
        ):
            try:
                plan = ef.code.repair_plan(block, self._unreadable_blocks(ef) | {block})
                helper_rows = plan.helper_rows
                chunks = [
                    self.client.read_rows(ef.server_of(h), ef.name, h, first, count)
                    for h, first, count in helper_rows.reads(row0, nrows)
                ]
            except (DecodingError, BlockUnavailableError):
                return None
            self.metrics.add("degraded_reads", 1)
            return helper_rows.rebuild(row0, nrows, chunks)

    def read_bytes(self, name: str, offset: int, length: int) -> bytes:
        """Read an arbitrary byte extent of the original file.

        Reads past the end of the file are truncated, matching POSIX
        semantics — record readers rely on this when completing a trailing
        record.
        """
        ef = self._open(name)
        if offset < 0:
            raise FileSystemError("negative offset")
        length = max(0, min(length, ef.original_size - offset))
        if length == 0:
            return b""
        size = ef.stripe_size
        first = offset // size
        stop = (offset + length - 1) // size + 1
        pieces = self._read_stripes(ef, first, stop - first)
        return _join_symbols(_symbol_chunks(pieces, offset - first * size, stop * size - offset - length))

    # ------------------------------------------------------------ inventory

    def list_files(self) -> list[str]:
        return sorted(self.files)

    def delete_file(self, name: str) -> None:
        ef = self.file(name)
        for b, server in ef.placement.items():
            self.store.drop(server, name, b)
        del self.files[name]
