"""Per-server block storage.

Blocks are stored as ``(N, S)`` symbol arrays keyed by ``(file, block)``.
Every access checks the owning server's crash state and feeds the metrics
registry — reads from a failed server raise, which is what forces the
degraded-read and repair paths above this layer to do their job.

A :class:`~repro.faults.model.FaultModel` can be installed via
:meth:`BlockStore.install_faults`; every read then samples a fault
decision and may raise :class:`TransientReadError`, return silently
corrupted data, or take longer.  The ``timed_*`` read variants report the
simulated latency (base disk transfer time plus injected delay) and can
verify returned payloads against write-time checksums, turning silent
corruption into a retryable error for the resilient client above.

Integrity is one record per stored block: the block, the CRC-32 of each
of its stripe rows (``zlib``'s polynomial and values) and where the
native kernel reads its rows.  A whole block verifies as "every row
matches".  Where the native kernel library carries its carry-less-multiply
CRC kernel, row runs large enough to repay the call go through it in one
C call — a batch of writes hashes all its blocks in one call
(:meth:`BlockStore._put_many`; blocks that lie in one array, as a file's
do, are one row range read through one handle), and a batch of row-range
reads checks all its ranges in one call (:meth:`BlockStore._range_reader`)
at the addresses the records keep — for a read that returns the bytes,
the call that copies them into the output as it hashes them and compares
the CRCs, so each byte returned is read from its block once; everything
else, and every host without it, uses ``zlib.crc32`` — the stored values
are the same either way.  A write hands over the row CRCs its encode
folded as it wrote the blocks, and the store hashes none of those rows
again.
"""

from __future__ import annotations

import zlib
from collections import Counter
from functools import partial
from itertools import repeat
from operator import itemgetter

import numpy as np

from repro.cluster.topology import Cluster
from repro.gf.native import get_backend
from repro.storage.metrics import MetricsRegistry

#: Row runs shorter than this stay on ``zlib``: a call into the native
#: library costs 2-3 µs before its first byte, about what ``zlib``
#: (~2-3 GB/s, plus a Python step per row) spends on 3 KiB in one row.
#: From 4 KiB on the native call is ahead in every shape measured
#: (``docs/PERFORMANCE.md``, "A striped write in one pass").
_NATIVE_CRC_MIN_BYTES = 4 << 10


def _zlib_row_crcs(rows: np.ndarray) -> list[int]:
    """CRC-32 of each row of a 2-D array, through the buffer protocol.

    Contiguous rows are not copied, whatever the row stride (a block
    that is a column slice of a batched encode).
    """
    if rows.strides[1] != rows.itemsize:
        rows = np.ascontiguousarray(rows)
    return [zlib.crc32(row) for row in rows]


class StorageError(RuntimeError):
    """Raised on invalid block-store operations."""


class BlockUnavailableError(StorageError):
    """Raised when a block cannot be read.

    Attributes:
        server: server id the read targeted (``None`` if unknown).
        file: file name of the block, when the failure is block-scoped.
        block: block id, when the failure is block-scoped.
        cause: machine-readable reason — ``"server_down"``,
            ``"missing"``, ``"transient"``, ``"checksum"``,
            ``"breaker_open"``, ``"retries_exhausted"`` — so retry loops
            and chaos logs can branch on it instead of string-matching
            messages.
    """

    def __init__(
        self,
        message: str,
        *,
        server: int | None = None,
        file: str | None = None,
        block: int | None = None,
        cause: str | None = None,
    ):
        super().__init__(message)
        self.server = server
        self.file = file
        self.block = block
        self.cause = cause


class TransientReadError(BlockUnavailableError):
    """A retryable read failure (injected I/O error or checksum mismatch).

    Subclasses :class:`BlockUnavailableError` so un-wrapped callers still
    degrade correctly; the resilient client catches it specifically and
    retries with backoff instead of falling straight to decode.
    """

    def __init__(self, message: str, **kwargs):
        kwargs.setdefault("cause", "transient")
        super().__init__(message, **kwargs)


class BlockStore:
    """In-memory block store spanning a cluster's servers."""

    def __init__(self, cluster: Cluster, metrics: MetricsRegistry | None = None):
        self.cluster = cluster
        self.metrics = metrics or MetricsRegistry()
        # server_id -> {(file_name, block_id): (crcs, block, where)}: the
        # stored ndarray(N, S), the CRC-32 of each of its stripe rows,
        # written once when it is stored (the analog of HDFS's per-chunk
        # checksum file), and the address the native kernel reads its row
        # 0 at (``None`` where it cannot address them).  Verified reads
        # check the rows they return against the CRCs; the scrubber checks
        # all of a block's rows to catch silent corruption (bit rot, torn
        # writes).  A record is never changed: put and corrupt replace it.
        self._disks: dict[int, dict[tuple[str, int], tuple[list[int], np.ndarray, object]]] = {
            s.server_id: {} for s in cluster
        }
        backend = get_backend()
        self._crc_backend = backend if backend is not None and backend.has_crc32 else None
        # Fault-injection hook: a FaultModel plus the clock that scopes
        # its time-windowed components.  None = clean hardware.
        self.fault_model = None
        self.clock = None

    def install_faults(self, model, clock=None) -> None:
        """Attach a :class:`~repro.faults.model.FaultModel` to every read."""
        self.fault_model = model
        if clock is not None:
            self.clock = clock

    def _disk(self, server_id: int) -> dict:
        try:
            return self._disks[server_id]
        except KeyError:
            raise StorageError(f"no server {server_id}") from None

    def _check_up(self, server_id: int, file_name: str | None = None, block_id: int | None = None) -> None:
        if self.cluster.server(server_id).failed:
            raise BlockUnavailableError(
                f"server {server_id} is down",
                server=server_id,
                file=file_name,
                block=block_id,
                cause="server_down",
            )

    def _stored(self, server_id: int, file_name: str, block_id: int) -> tuple:
        """The ``(crcs, block, where)`` record of a held block."""
        key = (file_name, block_id)
        record = self._disk(server_id).get(key)
        if record is None:
            raise BlockUnavailableError(
                f"block {key} not on server {server_id}",
                server=server_id,
                file=file_name,
                block=block_id,
                cause="missing",
            )
        return record

    def put(self, server_id: int, file_name: str, block_id: int, payload: np.ndarray) -> None:
        """Write one block to a server's disk: a batch of one :meth:`_put_many`."""
        self._put_many(((server_id, file_name, block_id, payload),))

    def _put_many(self, items, parents=None, crcs=None) -> None:
        """Write a batch of blocks; ``items[i]`` is ``(server, file, block, payload)``.

        The batch stores what ``put`` on each item in turn would: every
        block up to the first on a down server, each as one record, and
        there it raises as ``put`` does (the blocks before it stay stored
        and counted).  What the batch shares changes nothing that is
        stored: each distinct server is checked once, every record is made
        by :meth:`_records`, and the write counters are added once per
        server, servers in the order they first appear.

        ``parents``, when given, are the arrays whose blocks the payloads
        are, in order: ``items`` holds ``parents[0][0], parents[0][1], ...,
        parents[1][0], ...`` (a file's encoded ``(n, N, S)`` blocks per
        parent), which lets a C-contiguous parent be hashed as one row
        range through one handle.  A parent may also be a list of
        C-contiguous blocks with the same number of rows that lie end to
        end in one buffer (a rebuild bucket's blocks, ragged widths and
        all), or ``None`` for a lone item.  ``crcs``, when given, holds per
        parent (per item without ``parents``) a uint32 array of the CRC-32
        of every row of its blocks, block by block, as the kernel folded
        them, or ``None``: the store hashes none of those rows again.
        """
        items = items if isinstance(items, list) else list(items)
        targets = list(map(itemgetter(0), items))
        servers = self.cluster.servers
        stop = len(items)
        for server_id in dict.fromkeys(targets):
            server = servers.get(server_id)
            if server is None or server.failed:
                stop = min(stop, targets.index(server_id))
        records = self._records(items, parents, crcs)
        disks = self._disks
        written: dict[int, int] = {}
        try:
            for (server_id, file_name, block_id, _), record in zip(items[:stop], records):
                disks[server_id][file_name, block_id] = record
                written[server_id] = written.get(server_id, 0) + record[1].nbytes
            if stop < len(items):
                server_id, file_name, block_id, _ = items[stop]
                self.cluster.server(server_id)  # an unknown server raises here
                raise BlockUnavailableError(
                    f"server {server_id} is down; cannot write",
                    server=server_id,
                    file=file_name,
                    block=block_id,
                    cause="server_down",
                )
        finally:
            add = self.metrics.add
            counts = Counter(targets[:stop])
            for server_id, nbytes in written.items():
                add("disk_bytes_written", nbytes, server_id)
                add("blocks_written", counts[server_id], server_id)

    # ------------------------------------------------------------- integrity

    def _row_crcs(self, data: np.ndarray) -> list[int]:
        """CRC-32 of each stripe row; a block that is not 2-D is one row."""
        rows = data if data.ndim == 2 else data.reshape(1, -1)
        if self._crc_backend is not None and rows.nbytes >= _NATIVE_CRC_MIN_BYTES:
            return self._crc_backend.crc32_rows(rows)
        return _zlib_row_crcs(rows)

    def _address(self, block: np.ndarray):
        """Where the native kernel reads ``block``'s row 0 (a
        :meth:`row_buffer` handle), for a non-empty 2-D block whose rows are
        each contiguous on a store with the kernel; else ``None``."""
        if self._crc_backend is None or block.ndim != 2 or not block.size or block.strides[1] != block.itemsize:
            return None
        return self._crc_backend.row_buffer(block)

    def _records(self, items, parents=None, crcs=None) -> list[tuple]:
        """The ``(row CRCs, block, where)`` record of each item of a
        :meth:`_put_many` batch.

        The row CRCs are the encode's where ``crcs`` has them (see
        :meth:`_put_many`).  The rest are hashed here as :meth:`_row_crcs`
        would: every block the kernel addresses of at least
        ``_NATIVE_CRC_MIN_BYTES`` in one native ``crc32_ranges`` call for
        the batch, every other block by itself.

        ``where`` is the block's address, taken here once for every later
        read: a C-contiguous parent is one handle, its block ``b`` at ``b *
        block bytes``, and one row range to hash; a list parent with its
        CRCs given is one handle, each block at the bytes of the blocks
        before it; any other block gets its own (:meth:`_address`).  An
        address owns nothing the record needs: the record holds the block,
        which keeps its memory.
        """
        backend = self._crc_backend
        count = len(items)
        blocks = [np.asarray(item[3]) for item in items]
        row_crcs: list = [None] * count
        where: list = [None] * count
        hashed: list[tuple[int, int, int]] = []  # first item, blocks, rows each: rows the ranges call hashes
        bases: list = []
        geometry: list[int] = []
        first = 0  # the parent's first item
        for p, stack in enumerate(repeat(None, count) if parents is None else parents):
            given = None if crcs is None else crcs[p]
            stop = first + (1 if stack is None else len(stack))
            if given is not None:
                row_crcs[first:stop] = given.reshape(stop - first, -1).tolist()
            bucket = isinstance(stack, list)
            if bucket and given is not None and backend is not None:
                handle, offset = backend.row_buffer(stack[0]), 0
                for i, block in enumerate(stack, first):
                    where[i] = handle + offset
                    offset += block.nbytes
            elif (
                stack is not None and not bucket and backend is not None
                and stack.ndim == 3 and stack.size and stack.flags.c_contiguous
            ):
                many, nrows, width = stack.shape
                handle = backend.row_buffer(stack)
                step = stack[0].nbytes
                where[first:stop] = [handle + offset for offset in range(0, many * step, step)]
                if given is None and step >= _NATIVE_CRC_MIN_BYTES:
                    hashed.append((first, many, nrows))
                    bases.append(handle)
                    row_bytes = width * stack.itemsize
                    geometry += (row_bytes, many * nrows, row_bytes)
            else:
                for i in range(first, stop):
                    block = blocks[i]
                    where[i] = address = self._address(block)
                    if given is None and address is not None and block.nbytes >= _NATIVE_CRC_MIN_BYTES:
                        hashed.append((i, 1, len(block)))
                        bases.append(address)
                        geometry += (block.strides[0], len(block), block.shape[1] * block.itemsize)
            first = stop
        if bases:
            got = backend.crc32_ranges(bases, geometry)
            pos = 0
            for first, many, nrows in hashed:
                stop = pos + many * nrows
                row_crcs[first : first + many] = [got[r : r + nrows] for r in range(pos, stop, nrows)]
                pos = stop
        return [
            (self._row_crcs(block) if crcs is None else crcs, block, address)
            for crcs, block, address in zip(row_crcs, blocks, where)
        ]

    def _scan(self, file_name: str, placement: dict) -> tuple[frozenset[int], set[int]]:
        """Of a file's ``{block: server}`` placement, in one pass: the
        blocks that cannot be read (their server is down or does not hold
        them) and the servers of the others."""
        servers, disks = self.cluster.servers, self._disks
        lost, used = [], set()
        for block_id, server_id in placement.items():
            if servers[server_id].failed or (file_name, block_id) not in disks[server_id]:
                lost.append(block_id)
            else:
                used.add(server_id)
        return frozenset(lost), used

    def _check_rows(self, server_id: int, file_name: str, block_id: int, data, start: int) -> None:
        """Raise unless ``data`` matches the write-time CRCs from stripe ``start`` on."""
        got = self._row_crcs(np.asarray(data))
        expect = self._disks[server_id][file_name, block_id][0][start : start + len(got)]
        if got == expect:
            return
        bad = next((i for i, (g, e) in enumerate(zip(got, expect)) if g != e), len(expect))
        self.metrics.add("checksum_failures", 1, server_id)
        raise TransientReadError(
            f"checksum mismatch on stripe {start + bad} of block "
            f"({file_name!r}, {block_id}) from server {server_id}",
            server=server_id,
            file=file_name,
            block=block_id,
            cause="checksum",
        )

    # ------------------------------------------------------------ fault path

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _faulted(self, server_id: int, file_name: str, block_id: int, view: np.ndarray):
        """Apply the fault model to one read of ``view``; returns ``(data, latency)``."""
        nbytes = view.nbytes
        latency = nbytes / self.cluster.server(server_id).disk_bandwidth
        if self.fault_model is None:
            return view, latency
        decision = self.fault_model.on_read(server_id, nbytes, self._now())
        latency += decision.extra_latency
        if decision.error:
            self.metrics.add("transient_read_errors", 1, server_id)
            raise TransientReadError(
                f"transient read error on server {server_id} for block ({file_name!r}, {block_id})",
                server=server_id,
                file=file_name,
                block=block_id,
            )
        if decision.corrupt and nbytes:  # an empty transfer has no byte to flip
            self.metrics.add("corrupted_returns", 1, server_id)
            view = view.copy()
            raw = view.reshape(-1).view(np.uint8)
            raw[0] ^= 0xFF
        return view, latency

    # ------------------------------------------------------------- read path

    def timed_get(
        self, server_id: int, file_name: str, block_id: int, verify: bool = False
    ) -> tuple[np.ndarray, float]:
        """Read one block; returns ``(data, simulated latency seconds)``.

        A row-range read over every row (:meth:`_whole`): with
        ``verify=True`` every row is checked against its write-time CRC,
        and a mismatch raises :class:`TransientReadError`
        (``cause="checksum"``) since a retry will read the intact copy.
        """
        read, _ = self._range_reader([self._whole(server_id, file_name, block_id)], verify)
        return read(0)

    def _whole(self, server_id: int, file_name: str, block_id: int) -> tuple:
        """The ``(server, file, block, 0, rows)`` range of every row of a
        stored block; a block not held has no rows (reading it raises
        ``cause="missing"``, or ``"server_down"`` first)."""
        disk = self._disks.get(server_id)
        record = disk.get((file_name, block_id)) if disk is not None else None
        return server_id, file_name, block_id, 0, 0 if record is None else len(record[1])

    def get(self, server_id: int, file_name: str, block_id: int) -> np.ndarray:
        """Read one block from a server.

        Raises:
            BlockUnavailableError: server down or block missing.
            TransientReadError: injected retryable failure.
        """
        data, _ = self.timed_get(server_id, file_name, block_id)
        return data

    def timed_read_rows(
        self, server_id: int, file_name: str, block_id: int, start: int, count: int, verify: bool = False
    ) -> tuple[np.ndarray, float]:
        """Read ``count`` stripes starting at ``start``; returns ``(rows, latency)``.

        ``verify=True`` checks each returned stripe against its per-row
        write-time CRC (the HDFS per-chunk checksum analog).  A block
        that is not 2-D is a single checksummed stripe: only a read of
        all of it verifies.  A batch of one :meth:`_range_reader` read.
        """
        read, _ = self._range_reader([(server_id, file_name, block_id, start, count)], verify)
        return read(0)

    def _range_reader(self, ranges: list[tuple], verify: bool, into=None):
        """Bind a batch of row-range reads; returns ``(read, plain)``.

        ``ranges[i]`` is ``(server, file, block, row0, nrows)``, and each
        ``read(i)`` is one attempt at it, returning ``(rows, latency)`` or
        raising as :meth:`timed_read_rows` does: the up / missing / range
        checks, the ``disk_bytes_read`` / ``blocks_read`` / ``read_latency``
        counters, the fault draw and, with ``verify``, the CRC check.  Only
        lookups are bound once per batch, one per range, and the CRC check
        is made before the first attempt: for a batch of three ranges or
        more in one shared pass over every held range of 2-D rows (one
        native call at the addresses the records keep, or ``zlib`` row by
        row without the kernel), for one or two ranges (a lone read, an
        extent's runs) range by range — and there only where no fault
        model is installed, so a range whose every attempt draws a fault is
        checked where it is read.  That verdict holds for every attempt
        that returns those rows verbatim — the store does not change during
        a batch, and a stored array is never written in place (``put`` and
        ``corrupt`` replace its record) — so only a copy the fault model
        corrupted, or rows the check did not vouch for (a mismatch, a 1-D
        block, rows the kernel cannot address), are checked where they are
        read.

        ``plain[i]`` is ``(rows, nbytes, latency)`` for a range whose
        attempt is already known to succeed unchanged: no fault model,
        server up, one or more held rows of a 2-D block, and with
        ``verify`` rows the check vouched for.  ``read(i)`` would return
        those rows at ``nbytes / disk_bandwidth`` after adding ``nbytes``,
        one block and that latency to the three counters; a caller that
        takes ``plain[i]`` makes those steps itself.  ``None`` for every
        other range, and ``plain`` is ``None`` when a fault model is
        installed.  The pass that binds the ranges makes that booking:
        what a range that stays plain needs is computed once, and only a
        range off the plain path (not held, off its block, 1-D, on a down
        server, mismatched, or any range under a fault model) keeps its
        rows and verdict for ``read`` (:meth:`_attempt`).

        ``into``, given with ``verify`` on a store with the kernel by a read
        that returns the rows' bytes, is ``(output, windows)``: ``output()``
        returns the buffer the bytes go to (any buffer the kernel may
        write, a new ``bytes`` included), and ``windows`` holds three ints
        per range, ``at, lo, hi`` — bytes ``lo .. hi`` of the range's rows
        laid end to end belong at byte ``at`` of it.  Where no fault model
        is installed the pass is then shared whatever the batch's size, and
        it delivers: it asks for the output, and one ``crc32_deliver`` call
        copies each window as it hashes the rows and compares their CRCs
        with the records', naming only the ranges that mismatch, so the
        read makes one pass over the bytes it returns.  ``plain[i]`` is
        then not ``None`` only for a range whose rows matched and whose
        window holds them; every other window may hold anything, a
        mismatched range's bytes included.
        """
        disks = self._disks
        servers = self.cluster.servers
        backend = self._crc_backend
        clean = self.fault_model is None
        deliver = into is not None and clean
        # One or two ranges are checked range by range unless they are
        # delivered: the shared pass would cost its bookkeeping on top of the
        # same CRC work.
        own_check = verify and len(ranges) <= 2 and not deliver
        shared = verify and not own_check
        plain: list[tuple | None] = []
        # Per range off the plain path: its rows (None where it has none) and
        # whether the shared pass checks them, and so vouches for them unless
        # they mismatch — an attempt that returns them verbatim need not check
        # them again.
        bound: dict[int, tuple] = {}
        # The shared pass: the ranges it checks; their rows' addresses and
        # geometry for the native call, or their CRCs by zlib; the CRCs they
        # must have.
        checked: list[int] = []
        bases: list = []
        geometry: list[int] = []
        got: list[int] = []
        expected: list[int] = []
        for i, (server_id, file_name, block_id, start, count) in enumerate(ranges):
            disk = disks.get(server_id)
            record = disk.get((file_name, block_id)) if disk is not None else None
            view = None
            if record is not None:
                crcs, block, where = record
                if not start and count == len(block):  # every row: the stored array itself
                    view = block
                elif start >= 0 and start + count <= len(block):
                    view = block[start : start + count]
            if view is None or view.ndim != 2:
                plain.append(None)
                bound[i] = view, False
                continue
            server = servers[server_id]
            up = not server.failed
            # A down server's rows are not checked: every attempt there fails.
            check = shared and up and (backend is None or where is not None)
            if check:
                checked.append(i)
                if backend is None:
                    got += _zlib_row_crcs(view)
                else:
                    stride = block.strides[0]
                    bases.append(where + start * stride if start else where)
                    geometry += (stride, count, block.shape[1] * block.itemsize)
                expected += crcs if view is block else crcs[start : start + count]
            if clean and count and up and (check or not shared) and (
                not own_check or self._row_crcs(view) == crcs[start : start + count]
            ):
                nbytes = view.nbytes
                plain.append((view, nbytes, nbytes / server.disk_bandwidth))
            else:
                plain.append(None)
                bound[i] = view, check
        bad = ()
        if bases and deliver:
            output, windows = into
            if len(bases) < len(ranges):  # only the windows of the ranges checked
                windows = [w for i in checked for w in windows[3 * i : 3 * i + 3]]
            bad = backend.crc32_deliver(bases, geometry, output(), windows, expected)
        elif checked:
            if bases:
                got = backend.crc32_ranges(bases, geometry)
            if got != expected:  # not the common case: judge range by range
                bad, stop = [], 0
                for n, i in enumerate(checked):
                    pos, stop = stop, stop + ranges[i][4]
                    if got[pos:stop] != expected[pos:stop]:
                        bad.append(n)
        for n in bad:  # rows that mismatched: off the plain path, and not vouched for
            i = checked[n]
            booked = plain[i]
            plain[i] = None
            bound[i] = (bound[i][0] if booked is None else booked[0]), False
        return partial(self._attempt, ranges, verify, plain, bound), plain if clean else None

    def _attempt(self, ranges: list[tuple], verify: bool, plain: list, bound: dict, i: int) -> tuple[np.ndarray, float]:
        """One attempt at range ``i`` of a :meth:`_range_reader` batch, bound
        to the batch's ``plain`` rows and ``bound`` ``(rows, vouched)`` of
        the ranges off the plain path."""
        server_id, file_name, block_id, start, count = ranges[i]
        server = self.cluster.server(server_id)
        if server.failed:
            self._check_up(server_id, file_name, block_id)
        booked = plain[i]
        view, vouched = bound[i] if booked is None else (booked[0], True)
        if view is None:
            block = self._stored(server_id, file_name, block_id)[1]
            raise StorageError(f"stripe range [{start}, {start+count}) outside block of {block.shape[0]}")
        add = self.metrics.add
        nbytes = view.nbytes
        add("disk_bytes_read", nbytes, server_id)
        add("blocks_read", 1 if count else 0, server_id)
        if self.fault_model is None:
            data, latency = view, nbytes / server.disk_bandwidth
        else:
            data, latency = self._faulted(server_id, file_name, block_id, view)
        add("read_latency", latency, server_id)
        if verify and (data is not view or not vouched):
            self._check_rows(server_id, file_name, block_id, data, start)
        return data, latency

    def read_rows(self, server_id: int, file_name: str, block_id: int, start: int, count: int) -> np.ndarray:
        """Read ``count`` stripes starting at ``start`` from one block."""
        data, _ = self.timed_read_rows(server_id, file_name, block_id, start, count)
        return data

    def verify(self, server_id: int, file_name: str, block_id: int) -> bool:
        """Check every row of a stored block against its write-time checksum.

        Returns False on mismatch (silent corruption).  Raises
        :class:`BlockUnavailableError` when the block cannot be read at
        all.  The scan is charged to disk-read accounting, as a real
        scrubber's would be.  The fault model is bypassed: scrubbing
        compares what is *on disk*, not what a flaky transfer returns.
        """
        self._check_up(server_id, file_name, block_id)
        crcs, block, _ = self._stored(server_id, file_name, block_id)
        self.metrics.add("disk_bytes_read", block.nbytes, server_id)
        self.metrics.add("scrub_bytes", block.nbytes, server_id)
        return self._row_crcs(block) == crcs

    def corrupt(self, server_id: int, file_name: str, block_id: int, offset: int = 0) -> None:
        """Flip one byte of a stored block *without* updating the checksum.

        Failure-injection hook for tests and examples: models bit rot.  The
        block's record is replaced: the same CRCs, a corrupted copy of the
        block and that copy's address.
        """
        disk = self._disk(server_id)
        key = (file_name, block_id)
        record = disk.get(key)
        if record is None or not record[1].size:
            raise StorageError(f"cannot corrupt {'missing' if record is None else 'empty'} block {key}")
        crcs, block, _ = record
        block = block.copy()
        flat = block.reshape(-1)
        flat[offset % flat.size] ^= 0xFF
        disk[key] = (crcs, block, self._address(block))

    def drop(self, server_id: int, file_name: str, block_id: int) -> None:
        """Remove a block (post-repair cleanup or deliberate loss)."""
        self._disk(server_id).pop((file_name, block_id), None)

    def drop_server(self, server_id: int) -> int:
        """Wipe a server's disk (permanent failure); returns blocks lost."""
        disk = self._disk(server_id)
        lost = len(disk)
        disk.clear()
        return lost

    def holds(self, server_id: int, file_name: str, block_id: int) -> bool:
        return (file_name, block_id) in self._disk(server_id)
