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
from the helper rows of one lost block, else a full decode).  The bytes
returned are allocated once and each run has its place in them: the
batch's CRC pass copies every clean run there as it hashes the rows, so
a clean read makes one pass over what it returns, and only what that
pass could not vouch for, or what was rebuilt, is copied afterwards.
Every rebuild of lost
rows, for a degraded read or for a repair (so a scrub heal), is one
routine (:meth:`DistributedFileSystem._rebuild`): one batch of helper
rows, one fused product per bucket of same-pattern rebuilds.  Every
write, plain or striped, is one routine too
(:meth:`DistributedFileSystem._write`): one fused encode, one store
batch.

When a file is written with a Galloper code and no explicit weights, the
filesystem closes the loop the paper describes: it asks the placement
policy for servers first, reads their performance, runs the weight
assignment for exactly those servers, and only then constructs the code.
"""

from __future__ import annotations

import ctypes
import operator
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat

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


#: ``piece is None`` without a Python frame: every read asks it of every piece.
_is_missing = partial(operator.is_, None)

#: ``PyBytes_FromStringAndSize(NULL, n)``: a new ``bytes`` of ``n`` unset
#: bytes.  It is the C-API's way to build a bytes object whose contents the
#: caller then writes, and the one case in which its documentation allows
#: writing into one: nothing is zeroed, and nothing is copied again once a
#: read has filled it.  A read fills it before anything else sees it.
_new_bytes = ctypes.pythonapi.PyBytes_FromStringAndSize
_new_bytes.restype = ctypes.py_object
_new_bytes.argtypes = (ctypes.c_char_p, ctypes.c_ssize_t)
_bytes_address = ctypes.pythonapi.PyBytes_AsString
_bytes_address.restype = ctypes.c_void_p
_bytes_address.argtypes = (ctypes.py_object,)
_memory_view = ctypes.pythonapi.PyMemoryView_FromMemory
_memory_view.restype = ctypes.py_object
_memory_view.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int)
_PYBUF_WRITE = 0x200

#: Up to this many bytes a read's new ``bytes`` is made zeroed, by
#: ``bytes(n)``: zeroing them costs less than the call through ``ctypes``
#: (0.16 against 0.39 µs for 4 KiB, 0.34 against 0.40 µs for 32 KiB), which
#: does not zero.  Larger outputs cost the zeroing (8 MB in ~400 µs).
_ZEROED_BYTES = 32 << 10


def _writable(out) -> np.ndarray:
    """``out`` as a writable 1-D array: itself, or a uint8 view of a
    :data:`_new_bytes` object still being filled (the view does not keep
    the object alive; the caller holds it)."""
    if isinstance(out, bytes):
        return np.frombuffer(_memory_view(_bytes_address(out), len(out), _PYBUF_WRITE), np.uint8)
    return out


def _cut(pieces: list, lengths: list[int]) -> list[list]:
    """``pieces`` cut into consecutive lists of ``lengths`` items."""
    out, stop = [], 0
    for n in lengths:
        start, stop = stop, stop + n
        out.append(pieces[start:stop])
    return out


def _grid(symbols: np.ndarray, total: int) -> np.ndarray:
    """A file's symbols as its ``(total, S)`` stripe grid, ``S`` at least 1:
    a view of them when they fill every stripe, else one zeroed grid with
    them at its head (the padding the last stripe carries)."""
    width = max(1, -(-symbols.size // total))
    if symbols.size == total * width:
        return symbols.reshape(total, width)
    grid = np.zeros((total, width), dtype=symbols.dtype)
    grid.reshape(-1)[: symbols.size] = symbols
    return grid


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
        """Encode and store a file: a :meth:`_write` of one file.

        Either pass a ready ``code``, or a ``code_factory`` called as
        ``code_factory(performances)`` with the performance vector of the
        servers chosen by the placement policy — the hook Galloper codes
        use to match weights to servers.
        """
        with get_tracer().span("dfs.place", category="storage", file=name):
            code, servers = self._place_new_file(name, code, code_factory, placement, performance_metric)
        payload = self._as_symbols(code, payload)
        return self._write(code, [name], [_grid(payload, code.data_stripe_total)], [servers], [payload.size])[0]

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
        a larger batched output are stored as-is — no per-block copy.  The
        name and block shape are checked before anything is placed or
        stored; the file is placed round-robin and stored as a batch of
        one file.
        """
        if name in self.files:
            raise FileSystemError(f"file {name!r} already exists")
        if blocks.ndim != 3 or blocks.shape[:2] != (code.n, code.N):
            raise FileSystemError(
                f"expected ({code.n}, {code.N}, S) blocks for {name!r}, got {blocks.shape}"
            )
        code = self._intern_code(code)
        with get_tracer().span("dfs.place", category="storage", file=name):
            servers = RoundRobinPlacement().place(self.cluster, code.n)
        (ef,) = self._store_files(code, [(name, blocks, servers, original_size)])
        self.metrics.add("bytes_moved_zero_copy", blocks.nbytes)
        return ef

    def _write(self, code: ErasureCode, names, grids, servers, sizes) -> list[EncodedFile]:
        """The write routine: encode ``grids`` in one fused kernel call and
        store every file's blocks in one batch.

        ``grids`` are ``(k*N, S)`` stripe grids, or ``(files, k*N, S)``
        stacks of files of one width, laid end to end; file ``i`` is named
        ``names[i]``, goes to ``servers[i]`` and holds ``sizes[i]`` symbols.
        A plain write is a batch of one file.  The GF(2^8) gather folds the
        CRC-32 of every row it writes, and the store hashes none of those
        rows again; each grid's blocks, C-contiguous where the kernel coded
        it in place, are one parent of the store batch.
        """
        outs, crcs = pipeline._encode(code, grids, self.metrics, crcs=True)
        blocks, parents, parent_crcs = [], [], []
        for out, row_crcs in zip(outs, crcs or repeat(None)):
            if isinstance(out, list):  # coded group by group: a parent per group
                blocks += out
                parents += out
                parent_crcs += [None] * len(out)
            else:
                blocks.extend(out if out.ndim == 4 else (out,))
                parents.append(out.reshape(-1, *out.shape[-2:]))
                parent_crcs.append(row_crcs)
        return self._store_files(code, list(zip(names, blocks, servers, sizes)), parents, parent_crcs)

    def _store_files(self, code: ErasureCode, placed, parents=None, crcs=None) -> list[EncodedFile]:
        """Store the blocks of placed files in one store batch, then register
        them in one pass.

        ``placed[i]`` is ``(name, blocks, servers, original_size)``: block
        ``b`` of ``blocks`` goes to ``servers[b]``.  Each file's ``blocks``
        are the batch's parents (``BlockStore._put_many``): a file whose
        blocks lie in one C-contiguous array is one handle and one row
        range.  ``parents`` may name other parents instead: arrays whose
        blocks, laid end to end, are every file's blocks in order (a
        striped write's full groups, one array).  ``crcs``, when given,
        holds per parent the row CRCs of its blocks as the encode folded
        them (``pipeline._encode``), or ``None``; the store hashes none of
        those rows again.
        """
        n = code.n
        parents = parents or [blocks for _, blocks, _, _ in placed]
        items = list(zip(
            chain.from_iterable(servers for _, _, servers, _ in placed),
            chain.from_iterable(repeat(name, n) for name, _, _, _ in placed),
            list(range(n)) * len(placed),
            chain.from_iterable(parents),
        ))
        with get_tracer().span(
            "dfs.store_blocks", category="storage", files=len(placed), blocks=len(items), clock=self.clock
        ):
            self.store._put_many(items, parents, crcs)
        files = [
            EncodedFile(name, code, dict(enumerate(servers)), blocks.shape[2], original_size)
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

        The bytes are delivered in one pass: a new ``bytes`` of the
        file's length is filled where it lies, each run's rows copied into
        their place as the CRC check reads them (degraded, with what was
        rebuilt), less the padding behind the last stripe — no staging
        buffer, no stripe grid, no join.
        """
        ef = self._open(name)
        with get_tracer().span(
            "dfs.read_file", category="storage", file=name,
            bytes=ef.original_size, clock=self.clock,
        ):
            return self._read([ef], ef.original_size)

    def read_file_into(self, name: str, out) -> int:
        """Read a whole file directly into a caller-supplied buffer.

        ``out`` is a writable buffer (``bytearray`` / ``memoryview``) of
        at least the file's byte length; anything else is refused with
        ``FileSystemError`` (``cause="buffer"``) before any block is read.
        Each run's rows are copied once, from the stored rows into their
        place in ``out`` (symbols of a wider field are narrowed by that
        same assignment); nothing is staged in between.

        Returns the number of bytes written.
        """
        ef = self._open(name)
        nbytes = ef.original_size
        view = memoryview(out)
        if view.readonly or view.nbytes < nbytes:
            raise FileSystemError(
                f"cannot read {name!r} ({nbytes} bytes) into a "
                f"{'read-only' if view.readonly else 'writable'} buffer of {view.nbytes} bytes",
                file=name, cause="buffer",
            )
        with get_tracer().span(
            "dfs.read_file", category="storage", file=name, bytes=nbytes, clock=self.clock
        ):
            self._read([ef], np.frombuffer(view, dtype=np.uint8, count=nbytes))
        return nbytes

    def read_stripes(self, name: str, start: int, count: int) -> np.ndarray:
        """Read ``count`` file stripes starting at ``start``, as a fresh grid."""
        ef = self._open(name)
        total = ef.code.data_stripe_total
        if start < 0 or count < 0 or start + count > total:
            raise FileSystemError(f"stripe range [{start}, {start + count}) outside file of {total}")
        size = ef.stripe_size
        grid = np.empty((count, size), ef.code.gf.dtype)
        if count:
            self._read([ef], grid.reshape(-1), start * size, (start + count) * size)
        return grid

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
        return self._read([ef], length, offset, offset + length)

    def _read(
        self, files: list[EncodedFile], out, lo: int = 0, hi: int | None = None,
        degraded_span: str | None = None,
    ):
        """The read routine: symbols of ``files`` laid end to end, delivered into ``out``.

        ``files`` is one plain file or the stripe groups of a striped one.
        Without ``hi`` every file is read whole: the runs of its code's
        read plan, less the padding behind its last stripe, and the bytes
        are counted as delivered.  Else symbols ``lo .. hi`` are read,
        ``lo`` in the first file and ``hi`` in the last (in its padding
        only for :meth:`read_stripes`): per file the runs within the
        extent (:meth:`ReadPlan.runs_within`), less the symbols before
        ``lo`` in the first stripe and after ``hi`` in the last.

        ``out`` takes exactly those symbols, and is returned: a writable
        1-D array (a uint8 payload byte per symbol, or a grid of the
        field's symbols), or the length of a new ``bytes`` (made as the
        end of this docstring says).  Each run has its place in it: its window
        of symbols, less what is trimmed, at the offset those take.  Every
        run of every file is read in one batch
        (:meth:`_read_available_stripes`); over GF(2^8), on a store with
        the native CRC kernel, that batch's CRC pass copies each run's
        window into place as it hashes the rows, and a run the pass
        vouched for and the client returned verbatim is done (a batch that
        delivered every run has nothing left to fill or copy).  The runs
        that could not be read are filled together by :meth:`_recover`
        (under a span named ``degraded_span``, if given), and every run not
        yet done — a mismatched or retried range, a rebuilt one, every run
        of a GF(2^16) file or of a store checked by ``zlib`` — is then
        copied into its place with numpy, which also narrows wider symbols.

        A new output of up to :data:`_ZEROED_BYTES` (an extent's) is made
        first, by ``bytes(n)``.  A larger one is made only when the batch's
        CRC pass asks for it, after the pass has bound every range: made
        first, it lay under the lists the batch keeps, and its freed space
        came back as a hole that later allocations cut up (``bulk_io``'s
        and ``striped_io``'s peak RSS read 8–10 % higher that way).
        """
        spans: list[tuple[EncodedFile, list]] = []
        places: list[int] = []  # three per run: where in out, first and end symbol of its window
        whole = hi is None
        last = files[-1]
        at = 0
        for ef in files:
            size = ef.stripe_size
            if whole:
                runs, first, head, end = ef.code.read_plan().runs, 0, 0, ef.original_size
            else:
                stop = hi if ef is last else ef.original_size
                first = lo // size
                runs = ef.code.read_plan().runs_within(first, -(-stop // size))
                head, end = lo - first * size, stop - first * size
                lo, hi = 0, hi - ef.original_size
            spans.append((ef, runs))
            # The runs hold the symbols from stripe ``first`` on, laid end to
            # end; out takes those from ``head`` to ``end`` of them, at ``at``.
            for _, _, nrows, fs0 in runs:
                c = (fs0 - first) * size
                a = head - c if c < head else 0
                b = min(nrows * size, end - c)
                places += (at + c + a - head, a, b) if b > a else (0, 0, 0)
            at += end - head
        if type(out) is int and out <= _ZEROED_BYTES:
            out = bytes(out)
        if type(out) is int:
            made = []

            def output():
                if not made:
                    made.append(_new_bytes(None, out))
                return made[0]

        else:
            output = repeat(out).__next__  # the output itself, each time it is asked for
        deliver = files[0].code.gf.q == 8 and self.store._crc_backend is not None
        pieces, delivered = self._read_available_stripes(spans, (output, places) if deliver else None)
        # A delivered run was read, so a batch that delivered every run has none to fill.
        if delivered is None or False in delivered:
            if any(map(_is_missing, chain.from_iterable(pieces))):
                pending = [(ef, runs, got) for (ef, runs), got in zip(spans, pieces) if any(map(_is_missing, got))]
                recovery = get_tracer().span(
                    degraded_span, category="coding", groups=len(pending), clock=self.clock
                ) if degraded_span else nullcontext()
                with recovery:
                    self._recover(pending)
            target = _writable(output())
            for i, piece in enumerate(chain.from_iterable(pieces)):
                c, a, b = places[3 * i : 3 * i + 3]
                if b > a and (delivered is None or not delivered[i]):
                    target[c : c + b - a] = piece.reshape(-1)[a:b]
        if whole:
            code = files[0].code
            nbytes = sum(ef.original_size for ef in files)
            # Narrowed symbols crossed a copy on the way out, bytes did not.
            self.metrics.add("bytes_moved_zero_copy" if code.gf.q == 8 else "bytes_copied", nbytes)
        return output()

    def _read_available_stripes(self, spans, into=None) -> tuple[list[list[np.ndarray | None]], list | None]:
        """Per ``(file, runs)`` span, one piece per run of read-plan runs, in
        order; and with ``into``, per run whether it was delivered.

        Every run of every span is one range of a single batched client
        read (:meth:`ResilientBlockClient._read_ranges`): one CRC pass,
        lookups bound once, each range retried on its own, and ``into``,
        the output's maker and the runs' places in it, passed through for
        that pass to deliver into.  A piece is
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
        pieces, _, delivered = self.client._read_ranges(ranges, into=into)
        if len(spans) == 1:
            return [pieces], delivered
        return _cut(pieces, [len(runs) for _, runs in spans]), delivered

    def _unreadable_blocks(self, ef: EncodedFile) -> frozenset[int]:
        """Blocks whose server is down or no longer holds them."""
        return self.store._scan(ef.name, ef.placement)[0]

    def _repair_plan(self, memo: dict, code: ErasureCode, block: int, unreadable, preference=None):
        """``code``'s repair plan for ``block`` around the ``unreadable``
        blocks (``preference`` as :meth:`ErasureCode.repair_plan` takes
        it), ``None`` where no helper set rebuilds it.  ``memo`` keeps the
        plans of one read or repair, keyed by all four."""
        key = (code, block, unreadable, preference)
        if key not in memo:
            try:
                memo[key] = code.repair_plan(block, unreadable, preference=preference)
            except DecodingError:
                memo[key] = None
        return memo[key]

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

    def _rebuild(self, jobs, crcs: bool = False):
        """The rebuild routine: rows of lost blocks, rebuilt from the helper
        rows their repair plans name.

        A job is ``(file, plan, row0, nrows, owner)``: rows ``row0 ..
        row0 + nrows`` of ``plan.target`` of ``file``, for the caller's
        ``owner``.  Jobs are bucketed by ``(code, target, helpers, row0,
        nrows)`` — after a server failure every stripe group that lost the
        same rows of the same block lands in one bucket — and a bucket
        looks its compiled plan up once.  Every job's helper rows are read
        in **one** client batch (:meth:`_read_helper_rows`), bucket by
        bucket; a job's reads stop at its first helper that cannot be read
        (server down, flaky disk, rot, an open breaker), the others' go
        on.  Each bucket is one ``dfs.local_repair`` span, in which the jobs
        that got every helper row are rebuilt by **one** fused product over
        those rows (``pipeline._batch_rebuild_rows``).

        Returns ``(rebuilt, stopped)``: per bucket with a job to rebuild,
        ``(jobs, reads, pieces, rows, row CRCs)`` — the jobs rebuilt, the
        ``(helper, first row, count)`` reads each made, the helper rows
        each got, the rows rebuilt for each and, with ``crcs``, their
        CRC-32s as the kernel folded them (as ``_batch_rebuild_rows``
        returns them; else ``None``); and per job whose reads stopped,
        ``(job, helper)``, the helper where they did.
        """
        buckets: dict[tuple, list] = {}
        for job in jobs:
            ef, plan, row0, nrows, _ = job
            buckets.setdefault((ef.code, plan.target, plan.helpers, row0, nrows), []).append(job)
        planned = []
        for (code, block, helpers, row0, nrows), members in buckets.items():
            helper_rows = code.compile_helper_rows(block, helpers)
            planned.append((block, helpers, row0, nrows, members, helper_rows, helper_rows.reads(row0, nrows)))
        got = iter(self._read_helper_rows([(job[0], reads) for *_, members, _, reads in planned for job in members]))
        rebuilt, stopped = [], []
        for block, helpers, row0, nrows, members, helper_rows, reads in planned:
            with get_tracer().span(
                "dfs.local_repair", category="storage", block=block,
                helpers=list(helpers), rows=nrows, files=len(members), clock=self.clock,
            ):
                ready, pieces = [], []
                for job in members:
                    rows = next(got)
                    if rows and rows[-1] is None:
                        stopped.append((job, next(h for (h, _, _), row in zip(reads, rows) if row is None)))
                    else:
                        ready.append(job)
                        pieces.append(rows)
                if not ready:
                    continue
                out = pipeline._batch_rebuild_rows(helper_rows, block, row0, nrows, pieces, self.metrics, crcs=crcs)
            rebuilt.append((ready, reads, pieces, *(out if crcs else (out, None))))
        return rebuilt, stopped

    def _recover(self, entries: list[tuple[EncodedFile, tuple, list]]) -> None:
        """Fill the ``None`` pieces of each ``(file, runs, pieces)`` entry.

        ``pieces`` is what :meth:`_read_available_stripes` returned for
        the file's ``runs`` (every run of its read plan, or those within an
        extent): one slot per run, ``None`` where the
        run could not be read.  Exactly those slots are replaced, by
        slices of what is rebuilt here — nothing is written into a grid,
        and a piece that was read stays the view it was.

        The entries share one code: they are one file, or the degraded
        stripe groups of one striped file.  An entry whose missing runs sit
        in one block, which a repair plan rebuilds, is a job of the rebuild
        routine (:meth:`_rebuild`) for the rows those runs span.  Every
        other entry, then every job whose reads stopped, is decoded in full
        from minimal survivor sets by :meth:`_degraded_decode`, which
        re-plans around flaky survivors.  A plain read is a batch of one.
        """
        plans: dict = {}
        jobs: list = []
        full: list = []
        for entry in entries:
            ef, runs, pieces = entry
            missing = [run for run, piece in zip(runs, pieces) if piece is None]
            block = missing[0][0]
            plan = None
            if all(run[0] == block for run in missing):
                plan = self._repair_plan(plans, ef.code, block, self._unreadable_blocks(ef) | {block})
            if plan is None:
                full.append(entry)
            else:
                row0 = min(run[1] for run in missing)
                jobs.append((ef, plan, row0, max(run[1] + run[2] for run in missing) - row0, entry))
        rebuilt, stopped = self._rebuild(jobs)
        for members, _, _, blocks, _ in rebuilt:
            for (_, _, row0, _, (_, runs, pieces)), rows in zip(members, blocks):
                for i, (_, r0, n, _) in enumerate(runs):
                    if pieces[i] is None:
                        pieces[i] = rows[r0 - row0 : r0 - row0 + n]
                self.metrics.add("degraded_reads", 1)
        full += [job[4] for job, _ in stopped]
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
                    pieces, failures, _ = self.client._read_ranges(
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
