"""A DFS-like namespace over encoded blocks (the HDFS analog).

``write_file`` encodes a payload with any :class:`~repro.codes.base.ErasureCode`
and spreads the blocks over distinct servers; ``read_file`` reassembles
the payload, transparently rebuilding what it cannot read when servers
are down (a *degraded read*).  ``read_stripes`` / ``read_bytes`` serve
arbitrary extents of the original file — this is the primitive the
MapReduce input formats are built on, equivalent to the paper's custom
``FileInputFormat`` that knows the boundary between original and parity
data in each block.

Every read, whole file or extent, plain or striped, is one routine
(:meth:`DistributedFileSystem._read`): the runs of the code's read plan
the read covers are read in one batch, the runs that could not be read
are filled by :meth:`DistributedFileSystem._recover` (a local rebuild
from the helper rows of one lost block, else a full decode), and the
pieces are joined once into the bytes returned.

When a file is written with a Galloper code and no explicit weights, the
filesystem closes the loop the paper describes: it asks the placement
policy for servers first, reads their performance, runs the weight
assignment for exactly those servers, and only then constructs the code.
"""

from __future__ import annotations

import operator
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from repro.cluster.placement import PlacementPolicy, RoundRobinPlacement
from repro.cluster.topology import Cluster
from repro.codes.base import DecodingError, ErasureCode
from repro.faults.clock import VirtualClock
from repro.obs.trace import get_tracer
from repro.storage import pipeline
from repro.storage.blockstore import BlockStore, StorageError
from repro.storage.health import HealthMonitor
from repro.storage.metrics import MetricsRegistry
from repro.storage.resilient import ResilientBlockClient


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


#: Rows narrower than this are gathered by one ``np.concatenate`` instead of
#: being handed to ``join`` one by one: below about a kilobyte a piece costs
#: more as an object (a view, a buffer export) than its bytes cost to copy.
_SMALL_ROW_BYTES = 1024


#: ``piece is None`` without a Python frame: every read asks it of every piece.
_is_missing = partial(operator.is_, None)


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


def _cut(pieces: list, lengths: list[int]) -> list[list]:
    """``pieces`` cut into consecutive lists of ``lengths`` items."""
    out, stop = [], 0
    for n in lengths:
        start, stop = stop, stop + n
        out.append(pieces[start:stop])
    return out


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


class DistributedFileSystem:
    """Files encoded over a cluster's block stores.

    Reads go through a :class:`~repro.storage.resilient.ResilientBlockClient`
    (checksum verification, retry with backoff, hedging, circuit-breaker
    fast-fail) feeding a per-server :class:`~repro.storage.health.HealthMonitor`.
    On clean hardware (no ``fault_model``) the resilient path is
    behaviour-identical to a direct store read.  The filesystem owns its
    metrics registry (``metrics``), its virtual clock (``clock``: latency
    accounting, backoff and breaker timeouts) and its monitor (``health``).

    Args:
        cluster: servers to spread blocks over.
        fault_model: optional :class:`~repro.faults.model.FaultModel`
            installed on the block store.
    """

    def __init__(self, cluster: Cluster, *, fault_model=None):
        self.cluster = cluster
        self.metrics = MetricsRegistry()
        self.clock = VirtualClock()
        self.store = BlockStore(cluster, self.metrics)
        self.store.install_faults(fault_model, self.clock)
        self.health = HealthMonitor(self.clock, metrics=self.metrics)
        self.client = ResilientBlockClient(self.store, health=self.health, clock=self.clock)
        self.files: dict[str, EncodedFile] = {}
        # One code object per parameter set among the files held; an
        # entry dies with the last file (or caller) that refers to it.
        self._codes: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # ------------------------------------------------------------ write path

    def _intern_code(self, code: ErasureCode) -> ErasureCode:
        """The code object this filesystem keeps for ``code``'s parameter set.

        Codes built from equal constructor arguments share one
        construction entry (``code._built``, see
        :meth:`ErasureCode._construct`) and so behave alike: every file
        written with one of them shares the first such object written
        here, and with it one encode plan, one read plan and one LRU of
        decode and repair plans instead of one per file.  What stays per
        file is what :class:`EncodedFile` records: placement and stripe
        size.  Codes built from other arguments keep objects of their own,
        even where their generators happen to be equal.
        """
        return self._codes.setdefault(code._built, code)

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
        tracer = get_tracer()
        with tracer.span("dfs.place", category="storage", file=name):
            code, servers = self._place_new_file(name, code, code_factory, placement, performance_metric)

        payload = self._as_symbols(code, payload)
        original_size = payload.size
        total = code.data_stripe_total
        padded = int(np.ceil(original_size / total) * total) if original_size else total
        if padded != original_size:
            payload = np.concatenate([payload, np.zeros(padded - original_size, dtype=code.gf.dtype)])
        grid = payload.reshape(total, padded // total)

        with tracer.span("dfs.encode", category="coding", file=name, bytes=grid.nbytes):
            blocks = code.encode(grid)
        return self._store_files(code, [(name, blocks, servers, original_size)])[0]

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
        code, servers = self._place_new_file(name, code, code_factory, placement, performance_metric)
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

    def _place_new_file(
        self, name: str, code, code_factory, placement, performance_metric: str
    ) -> tuple[ErasureCode, list[int]]:
        """``(code, servers)`` for a new file: the checks and the placement
        :meth:`write_file` and :meth:`write_virtual_file` share.

        With a ``code_factory`` placement is two-phase: probe how many
        blocks by building with uniform performance, then rebuild with the
        placed servers' metrics.
        """
        if name in self.files:
            raise FileSystemError(f"file {name!r} already exists")
        if (code is None) == (code_factory is None):
            raise FileSystemError("pass exactly one of code / code_factory")
        placement = placement or RoundRobinPlacement()
        if code_factory is not None:
            servers = placement.place(self.cluster, code_factory(None).n)
            code = code_factory(self.cluster.performance_vector(servers, performance_metric))
        else:
            servers = placement.place(self.cluster, code.n)
        return self._intern_code(code), servers

    def write_encoded(
        self,
        name: str,
        code: ErasureCode,
        blocks: np.ndarray,
        original_size: int,
    ) -> EncodedFile:
        """Register and store pre-encoded blocks (the batched-write path).

        ``blocks`` is the ``(n, N, S)`` array a (possibly fused)
        :meth:`~repro.codes.base.ErasureCode.encode` produced; views into
        a larger batched output are stored as-is — no per-block copy.  A
        batch of one :meth:`_write_encoded_many`, placed round-robin.
        """
        return self._write_encoded_many(code, [(name, blocks, original_size, None)])[0]

    def _write_encoded_many(self, code: ErasureCode, entries) -> list[EncodedFile]:
        """:meth:`write_encoded` for many files of one code, in one store batch.

        ``entries[i]`` is ``(name, blocks, original_size, servers)``: block
        ``b`` goes to ``servers[b]``, or with ``servers`` ``None`` the file
        is placed round-robin (one ``dfs.place`` span).  Every name and
        block shape is checked before anything is placed or stored, so a
        rejected batch stores and registers nothing; every block of every
        file is then stored by one ``BlockStore._put_many``.
        """
        for name, blocks, _, _ in entries:
            if name in self.files:
                raise FileSystemError(f"file {name!r} already exists")
            if blocks.ndim != 3 or blocks.shape[:2] != (code.n, code.N):
                raise FileSystemError(
                    f"expected ({code.n}, {code.N}, S) blocks for {name!r}, got {blocks.shape}"
                )
        code = self._intern_code(code)
        placed = []
        for name, blocks, original_size, servers in entries:
            if servers is None:
                with get_tracer().span("dfs.place", category="storage", file=name):
                    servers = RoundRobinPlacement().place(self.cluster, code.n)
            placed.append((name, blocks, servers, original_size))
        files = self._store_files(code, placed)
        self.metrics.add("bytes_moved_zero_copy", sum(blocks.nbytes for _, blocks, _, _ in entries))
        return files

    def _store_files(self, code: ErasureCode, placed) -> list[EncodedFile]:
        """Store the blocks of placed files in one store batch, then register
        them in one pass.

        ``placed[i]`` is ``(name, blocks, servers, original_size)``: block
        ``b`` of ``blocks`` goes to ``servers[b]``.  Each file's ``blocks``
        are the batch's parents (``BlockStore._put_many``): a file whose
        blocks lie in one C-contiguous array is hashed as one row range.
        """
        items = [(servers[b], name, b, blocks[b]) for name, blocks, servers, _ in placed for b in range(code.n)]
        with get_tracer().span(
            "dfs.store_blocks", category="storage", files=len(placed), blocks=len(items), clock=self.clock
        ):
            self.store._put_many(items, [blocks for _, blocks, _, _ in placed])
        files = [
            EncodedFile(
                name=name, code=code, placement=dict(enumerate(servers)),
                stripe_size=blocks.shape[2], original_size=original_size,
            )
            for name, blocks, servers, original_size in placed
        ]
        self.files.update((ef.name, ef) for ef in files)
        return files

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
        """Read a whole file back, rebuilding what servers that are down hold.

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
            return _join_symbols(self._read([ef]))

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
            for chunk in self._read([ef]):
                target[pos : pos + chunk.size] = chunk
                pos += chunk.size
        return nbytes

    def read_stripes(self, name: str, start: int, count: int) -> np.ndarray:
        """Read ``count`` file stripes starting at ``start``, as a fresh grid."""
        ef = self._open(name)
        total = ef.code.data_stripe_total
        if start < 0 or count < 0 or start + count > total:
            raise FileSystemError(f"stripe range [{start}, {start + count}) outside file of {total}")
        size = ef.stripe_size
        if not count:
            return np.empty((0, size), ef.code.gf.dtype)
        return np.concatenate(self._read([ef], start * size, (start + count) * size)).reshape(count, size)

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
        return _join_symbols(self._read([ef], offset, offset + length))

    def _read(
        self, files: list[EncodedFile], lo: int = 0, hi: int | None = None,
        degraded_span: str | None = None,
    ) -> list[np.ndarray]:
        """The read routine: symbols of ``files`` laid end to end, as chunks ready to join.

        ``files`` is one plain file or the stripe groups of a striped one.
        Without ``hi`` every file is read whole: the runs of its code's
        read plan, less the padding behind its last stripe, and the bytes
        are counted as delivered.  Else symbols ``lo .. hi`` are read,
        ``lo`` in the first file and ``hi`` in the last (in its padding
        only for :meth:`read_stripes`): per file the runs within the
        extent (:meth:`ReadPlan.runs_within`), less the symbols before
        ``lo`` in the first stripe and after ``hi`` in the last.  Then
        every run of every file is read in one batch
        (:meth:`_read_available_stripes`), the runs that could not be read
        are filled together by :meth:`_recover` (under a span named
        ``degraded_span``, if given), and each file's pieces are cut into
        chunks (:func:`_symbol_chunks`) — views of the stored rows or of
        what was rebuilt, nothing staged.
        """
        spans: list[tuple[EncodedFile, list]] = []
        trims: list[tuple[int, int]] = []
        whole = hi is None
        if whole:
            for ef in files:
                spans.append((ef, ef.code.read_plan().runs))
                trims.append((0, ef.padded_size - ef.original_size))
        else:
            last = files[-1]
            for ef in files:
                size = ef.stripe_size
                end = hi if ef is last else ef.original_size
                first, stop = lo // size, -(-end // size)
                spans.append((ef, ef.code.read_plan().runs_within(first, stop)))
                trims.append((lo - first * size, stop * size - end))
                lo, hi = 0, hi - ef.original_size
        pieces = self._read_available_stripes(spans)
        if any(map(_is_missing, chain.from_iterable(pieces))):
            pending = [(ef, runs, got) for (ef, runs), got in zip(spans, pieces) if any(map(_is_missing, got))]
            recovery = get_tracer().span(
                degraded_span, category="coding", groups=len(pending), clock=self.clock
            ) if degraded_span else nullcontext()
            with recovery:
                self._recover(pending)
        chunks: list[np.ndarray] = []
        for (head, tail), got in zip(trims, pieces):
            chunks += _symbol_chunks(got, head, tail)
        if whole:
            code = files[0].code
            nbytes = sum(ef.original_size for ef in files)
            # Narrowed symbols crossed a copy on the way out, bytes did not.
            self.metrics.add("bytes_moved_zero_copy" if code.gf.q == 8 else "bytes_copied", nbytes)
        return chunks

    def _read_available_stripes(self, spans) -> list[list[np.ndarray | None]]:
        """Per ``(file, runs)`` span, one piece per run of read-plan runs, in order.

        Every run of every span is one range of a single batched client
        read (:meth:`ResilientBlockClient._read_ranges`): one CRC pass,
        lookups bound once, each range retried on its own.  A piece is
        the CRC-verified row view the client handed back — the stored
        rows themselves, not a copy: a stored array is never written in
        place (``put`` and ``corrupt`` replace it), so a held view cannot
        change under the reader.  A run that could not be read (server
        down, retries exhausted) is ``None``, for :meth:`_recover` to
        fill.  A plain read is a batch of one span; a striped read
        batches every group it touches.
        """
        ranges = [
            (ef.placement[block], ef.name, block, row0, nrows)
            for ef, runs in spans
            for block, row0, nrows, _ in runs
        ]
        pieces, _ = self.client._read_ranges(ranges)
        if len(spans) == 1:
            return [pieces]
        return _cut(pieces, [len(runs) for _, runs in spans])

    def _unreadable_blocks(self, ef: EncodedFile) -> frozenset[int]:
        """Blocks whose server is down or no longer holds them."""
        return frozenset(
            b
            for b, server in ef.placement.items()
            if self.cluster.server(server).failed or not self.store.holds(server, ef.name, b)
        )

    def _plan_local_repair(self, ef: EncodedFile, runs, pieces: list, memo: dict):
        """``(plan, row0, nrows)`` rebuilding the ``None`` pieces of ``runs``, else ``None``.

        A degraded read whose missing runs all sit in one block needs
        rows ``row0 .. row0 + nrows`` of it (a lost block's data rows),
        rebuilt from the helper rows its
        :class:`~repro.codes.base.RepairPlan` names for them — far fewer
        than the full decode reads.  ``None`` sends the read to the full
        decode: the stripes span several blocks, or no helper set rebuilds
        the block.  ``memo`` shares the plan between the groups of one
        striped read, keyed by ``(block, unreadable)``.
        """
        code = ef.code
        missing = [run for run, piece in zip(runs, pieces) if piece is None]
        if len({run[0] for run in missing}) != 1:
            return None
        block = missing[0][0]
        unreadable = self._unreadable_blocks(ef) | {block}
        key = (block, unreadable)
        if key not in memo:
            try:
                memo[key] = code.repair_plan(block, unreadable)
            except DecodingError:
                memo[key] = None
        if memo[key] is None:
            return None
        row0 = min(run[1] for run in missing)
        return memo[key], row0, max(run[1] + run[2] for run in missing) - row0

    def _read_helper_rows(self, entries) -> list[list[np.ndarray | None]]:
        """Per ``(file, reads)`` entry, the helper rows ``reads`` names
        (``HelperRows.reads``), in order; every entry in one client batch.

        An entry stops at its first helper that cannot be read: that one
        and the helpers after it are ``None``, and are not attempted.  The
        other entries are read all the same.
        """
        ranges = [
            (ef.placement[h], ef.name, h, first, count) for ef, reads in entries for h, first, count in reads
        ]
        lengths = [len(reads) for _, reads in entries]
        return _cut(self.client._read_ranges(ranges, lengths)[0], lengths)

    def _recover(self, entries: list[tuple[EncodedFile, tuple, list]]) -> None:
        """Fill the ``None`` pieces of each ``(file, runs, pieces)`` entry.

        ``pieces`` is what :meth:`_read_available_stripes` returned for
        the file's ``runs`` (every run of its read plan, or those within an
        extent): one slot per run, ``None`` where the
        run could not be read.  Exactly those slots are replaced, by
        slices of what is rebuilt here — nothing is written into a grid,
        and a piece that was read stays the view it was.

        The entries share one code: they are one file, or the degraded
        stripe groups of one striped file.  Those whose missing runs sit
        in one block are bucketed by ``(block, helpers, rows)`` — after a
        server failure every group lands in one bucket.  The helper rows
        of every bucket are read in one batch (:meth:`_read_helper_rows`),
        then each bucket rebuilds in one fused reconstruct.  Everything
        else, and any entry one of whose helpers could not be read, is
        decoded in full from minimal survivor sets by
        :meth:`_degraded_decode`, which re-plans around flaky survivors.
        A plain read is a batch of one.
        """
        code = entries[0][0].code
        plans: dict = {}
        local: dict[tuple, list] = {}
        full: list = []
        for entry in entries:
            rebuild = self._plan_local_repair(*entry, plans)
            if rebuild is None:
                full.append(entry)
            else:
                plan, row0, nrows = rebuild
                local.setdefault((plan.target, plan.helpers, row0, nrows), []).append(entry)
        compiled = {}
        for block, helpers, row0, nrows in local:
            helper_rows = code.compile_helper_rows(block, helpers)
            compiled[block, helpers, row0, nrows] = helper_rows, helper_rows.reads(row0, nrows)
        got = iter(self._read_helper_rows(
            [(entry[0], compiled[key][1]) for key, members in local.items() for entry in members]
        ))
        for (block, helpers, row0, nrows), members in local.items():
            with get_tracer().span(
                "dfs.local_repair", category="storage", block=block,
                helpers=list(helpers), rows=nrows, files=len(members), clock=self.clock,
            ):
                good: list = []
                chunks: list[list[np.ndarray]] = []
                for entry in members:
                    rows = next(got)
                    if any(map(_is_missing, rows)):
                        full.append(entry)
                    else:
                        good.append(entry)
                        chunks.append(rows)
                if not good:
                    continue
                rebuilt = pipeline._batch_rebuild_rows(
                    compiled[block, helpers, row0, nrows][0], block, row0, nrows, chunks, self.metrics
                )
            for (_, runs, pieces), rows in zip(good, rebuilt):
                for i, (_, r0, n, _) in enumerate(runs):
                    if pieces[i] is None:
                        pieces[i] = rows[r0 - row0 : r0 - row0 + n]
                self.metrics.add("degraded_reads", 1)
        if full:
            decoded = self._degraded_decode(*(ef for ef, _, _ in full))
            for (_, runs, pieces), grid in zip(full, decoded):
                for i, (_, _, nrows, fs0) in enumerate(runs):
                    if pieces[i] is None:
                        pieces[i] = grid[fs0 : fs0 + nrows]

    def _degraded_decode(self, *files: EncodedFile) -> list[np.ndarray]:
        """Decode each file's full stripe grid from a *minimal* set of survivors.

        Reading every surviving block would work but wastes disk I/O;
        instead blocks are added greedily — data-heavy blocks first,
        healthier servers breaking ties — until the subset decodes, and
        only those are read, every row of each, in one client batch of one
        group (:meth:`ResilientBlockClient._read_ranges`).  The batch stops
        at the first survivor that cannot be read (transient faults
        exhaust the client's retries, or its server crashed after
        planning), which is excluded and that file's selection re-planned,
        so degraded reads survive flaky helpers; a block already read that
        the new selection still names is not read again.
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
                read: dict[int, np.ndarray] = {}
                while True:
                    chosen = self._plan_decode_blocks(ef, excluded)
                    unread = [b for b in chosen if b not in read]
                    pieces, failures = self.client._read_ranges(
                        [(ef.placement[b], ef.name, b, 0, ef.code.N) for b in unread], [len(unread)]
                    )
                    stop = list(map(_is_missing, pieces)).index(True) if failures else len(unread)
                    read.update(zip(unread[:stop], pieces))
                    if not failures:
                        break
                    excluded.add(unread[stop])
                    self.metrics.add("decode_replans", 1)
                replans += len(excluded)
                survivors.append({b: read[b] for b in chosen})
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

    # ------------------------------------------------------------ inventory

    def list_files(self) -> list[str]:
        return sorted(self.files)
