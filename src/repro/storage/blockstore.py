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

Integrity is one store of per-stripe-row CRC-32s (``zlib``'s polynomial
and values), written in the single pass :meth:`BlockStore.put` makes
over a block; a whole block verifies as "every row matches".  Where the
native kernel library carries its carry-less-multiply CRC kernel, row
runs large enough to repay the call go through it in one C call — a
batch of writes hashes all its blocks in one call
(:meth:`BlockStore._put_many`; a file whose blocks lie in one array, as
a striped write's groups do, is one row range read through one handle,
its blocks' entries keeping offsets into it), and a batch of row-range
reads checks all its ranges in one call (:meth:`BlockStore._range_reader`)
through the handles the write kept; everything else, and every host
without it, uses ``zlib.crc32`` — the stored values are the same either
way.
"""

from __future__ import annotations

import zlib

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
        # server_id -> {(file_name, block_id): ndarray(N, S)}
        self._disks: dict[int, dict[tuple[str, int], np.ndarray]] = {
            s.server_id: {} for s in cluster
        }
        # CRC-32 of every stripe row of every stored block, written once
        # at put() time (the analog of HDFS's per-chunk checksum file).
        # Verified reads check the rows they return against these; the
        # scrubber checks all of a block's rows to catch silent
        # corruption (bit rot, torn writes).  Each entry is ``(crcs,
        # block, handle)``: the handle is the native kernel's on the
        # rows of ``block`` (or ``None``), which a batched read reuses
        # while ``block`` is still the one stored (see _clean_ranges).
        self._row_checksums: dict[int, dict[tuple[str, int], tuple[list[int], np.ndarray, object]]] = {
            s.server_id: {} for s in cluster
        }
        backend = get_backend()
        self._crc_backend = backend if backend is not None and backend.has_crc32 else None
        self._native_row_crcs = self._crc_backend and self._crc_backend.crc32_rows
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

    def _stored(self, server_id: int, file_name: str, block_id: int) -> np.ndarray:
        disk = self._disk(server_id)
        key = (file_name, block_id)
        if key not in disk:
            raise BlockUnavailableError(
                f"block {key} not on server {server_id}",
                server=server_id,
                file=file_name,
                block=block_id,
                cause="missing",
            )
        return disk[key]

    def put(self, server_id: int, file_name: str, block_id: int, payload: np.ndarray) -> None:
        """Write one block to a server's disk: a batch of one :meth:`_put_many`."""
        self._put_many(((server_id, file_name, block_id, payload),))

    def _put_many(self, items, parents=None) -> None:
        """Write a batch of blocks; ``items[i]`` is ``(server, file, block, payload)``.

        Each block takes ``put``'s steps in order: the down-server check,
        which raises before that block is stored (the blocks before it
        stay stored and counted), the store, the checksum entry.  What the
        batch shares changes nothing that is stored: the row CRCs of every
        block the native kernel can take in place come from one call
        (:meth:`_batch_checksum_entries`; a lone block keeps
        :meth:`_checksum_entry`'s own call), and the write counters are
        added once per server, servers in the order they first appear.

        ``parents``, when given, are the arrays whose blocks the payloads
        are, in order: ``items`` holds ``parents[0][0], parents[0][1], ...,
        parents[1][0], ...`` (a file's encoded ``(n, N, S)`` blocks per
        parent), which lets a C-contiguous parent be hashed as one row
        range through one handle.
        """
        entries = self._batch_checksum_entries(items, parents) if len(items) > 1 else None
        server_of = self.cluster.server
        checksums = self._row_checksums
        written: dict[int, list[int]] = {}
        try:
            for i, (server_id, file_name, block_id, payload) in enumerate(items):
                if server_of(server_id).failed:
                    raise BlockUnavailableError(
                        f"server {server_id} is down; cannot write",
                        server=server_id,
                        file=file_name,
                        block=block_id,
                        cause="server_down",
                    )
                entry = entries[i] if entries is not None else None
                if entry is None:
                    payload = np.asarray(payload)
                    entry = self._checksum_entry(payload)
                else:
                    payload = entry[1]
                key = (file_name, block_id)
                self._disk(server_id)[key] = payload
                checksums[server_id][key] = entry
                tally = written.get(server_id)
                if tally is None:
                    written[server_id] = [payload.nbytes, 1]
                else:
                    tally[0] += payload.nbytes
                    tally[1] += 1
        finally:
            add = self.metrics.add
            for server_id, (nbytes, count) in written.items():
                add("disk_bytes_written", nbytes, server_id)
                add("blocks_written", count, server_id)

    # ------------------------------------------------------------- integrity

    def _row_crcs(self, data: np.ndarray) -> list[int]:
        """CRC-32 of each stripe row; a block that is not 2-D is one row."""
        rows = data if data.ndim == 2 else data.reshape(1, -1)
        if self._native_row_crcs is not None and rows.nbytes >= _NATIVE_CRC_MIN_BYTES:
            return self._native_row_crcs(rows)
        return _zlib_row_crcs(rows)

    def _checksum_entry(self, block: np.ndarray) -> tuple[list[int], np.ndarray, object]:
        """The ``_row_checksums`` entry ``put`` keeps for ``block``: its row
        CRCs as :meth:`_row_crcs` computes them, and the handle the native
        kernel read 2-D rows through, kept rather than asked for again."""
        if block.ndim == 2 and self._native_row_crcs is not None and block.nbytes >= _NATIVE_CRC_MIN_BYTES:
            crcs, handle = self._crc_backend.crc32_rows_in_place(block)
            return crcs, block, handle
        return self._row_crcs(block), block, None

    def _batch_checksum_entries(self, items, parents=None) -> list | None:
        """Per item of a :meth:`_put_many` batch, the entry :meth:`_checksum_entry`
        would make, for every 2-D block of at least ``_NATIVE_CRC_MIN_BYTES``
        whose rows are each contiguous: all of them hashed in one
        ``crc32_ranges`` call.  ``None`` for every other item
        (``_checksum_entry`` hashes those), or for all when no block
        qualifies or there is no native kernel.

        Without ``parents`` each block is one range, read through a
        :meth:`row_buffer` handle its entry keeps for later batched reads.
        A C-contiguous parent (see :meth:`_put_many`) is one range instead,
        read through one handle: its first block's entry keeps that handle
        and every later block's a pointer ``b * block bytes`` past it.  Such
        a pointer owns nothing; the stored block it points into is what
        keeps the memory, and the entry holds that block.
        """
        if self._native_row_crcs is None:
            return None
        backend = self._crc_backend
        entries: list = [None] * len(items)
        hashed: list[tuple[int, int, int, object, int]] = []  # first item, blocks, rows each, handle, block stride
        bases: list = []
        geometry: list[int] = []
        first = 0
        for stack in [None] * len(items) if parents is None else parents:
            count = 1 if stack is None else len(stack)
            if stack is not None and stack.flags.c_contiguous:
                rows, width = stack.shape[1:]
                if count and stack.nbytes >= count * _NATIVE_CRC_MIN_BYTES:
                    handle = backend.row_buffer(stack)
                    row_bytes = width * stack.itemsize
                    hashed.append((first, count, rows, handle, rows * row_bytes))
                    bases.append(handle)
                    geometry += (row_bytes, count * rows, row_bytes)
            else:
                for i in range(first, first + count):
                    block = np.asarray(items[i][3])
                    if block.ndim == 2 and block.nbytes >= _NATIVE_CRC_MIN_BYTES and block.strides[1] == block.itemsize:
                        handle = backend.row_buffer(block)
                        hashed.append((i, 1, block.shape[0], handle, 0))
                        bases.append(handle)
                        geometry += (block.strides[0], block.shape[0], block.shape[1] * block.itemsize)
            first += count
        if not bases:
            return None
        crcs = backend.crc32_ranges(bases, geometry)
        pos = 0
        for first, count, rows, handle, stride in hashed:
            for b in range(count):
                stop = pos + rows
                block = np.asarray(items[first + b][3])
                entries[first + b] = (crcs[pos:stop], block, handle + b * stride if b else handle)
                pos = stop
        return entries

    def _check_rows(self, server_id: int, file_name: str, block_id: int, data, start: int) -> None:
        """Raise unless ``data`` matches the write-time CRCs from stripe ``start`` on."""
        got = self._row_crcs(np.asarray(data))
        expect = self._row_checksums[server_id][(file_name, block_id)][0][start : start + len(got)]
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
        block = disk.get((file_name, block_id)) if disk is not None else None
        return server_id, file_name, block_id, 0, 0 if block is None else len(block)

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

    def _range_reader(self, ranges: list[tuple], verify: bool):
        """Bind a batch of row-range reads; returns ``(read, plain)``.

        ``ranges[i]`` is ``(server, file, block, row0, nrows)``, and each
        ``read(i)`` is one attempt at it, returning ``(rows, latency)`` or
        raising as :meth:`timed_read_rows` does: the up / missing / range
        checks, the ``disk_bytes_read`` / ``blocks_read`` / ``read_latency``
        counters, the fault draw and, with ``verify``, the CRC check.  Only
        lookups are bound once per batch, and the CRC check is made before
        the first attempt: for a batch of three ranges or more in one
        shared pass over every range (:meth:`_clean_ranges`), for one or
        two ranges (a lone read, an extent's runs) range by range — and
        there only where no fault model is installed, so a range whose
        every attempt draws a fault is checked where it is read.
        That verdict holds for every attempt that returns those rows
        verbatim — the store does not change during a batch, and a stored
        array is never written in place (``put`` and ``corrupt`` replace
        it) — so only a copy the fault model corrupted, or rows the check
        did not vouch for, are checked where they are read.

        ``plain[i]`` is ``(rows, nbytes, latency)`` for a range whose
        attempt is already known to succeed unchanged: no fault model,
        server up, one or more held rows of a 2-D block, and with
        ``verify`` rows the check vouched for.  ``read(i)`` would return
        those rows at ``nbytes / disk_bandwidth`` after adding ``nbytes``,
        one block and that latency to the three counters; a caller that
        takes ``plain[i]`` makes those steps itself.  ``None`` for every
        other range, and ``plain`` is ``None`` when a fault model is
        installed.
        """
        disks = self._disks
        faulted = self._faulted if self.fault_model is not None else None
        servers = self.cluster.servers
        checksums = self._row_checksums
        # One or two ranges are checked range by range: the shared pass would
        # cost its bookkeeping on top of the same CRC work.
        own_check = verify and len(ranges) <= 2
        blocks: list[np.ndarray | None] = []
        views: list[np.ndarray | None] = []
        plain: list[tuple | None] = []
        for server_id, file_name, block_id, start, count in ranges:
            disk = disks.get(server_id)
            block = disk.get((file_name, block_id)) if disk is not None else None
            if block is not None and (start < 0 or start + count > len(block)):
                block = None
            view = block[start : start + count] if block is not None else None
            blocks.append(block)
            views.append(view)
            booked = None
            if faulted is None and count and view is not None and view.ndim == 2:
                server = servers[server_id]
                if not server.failed and (
                    not own_check
                    or self._row_crcs(view) == checksums[server_id][(file_name, block_id)][0][start : start + count]
                ):
                    nbytes = view.nbytes
                    booked = (view, nbytes, nbytes / server.disk_bandwidth)
            plain.append(booked)
        # Per range: rows the check vouched for, which an attempt that returns
        # them verbatim need not check again.
        vouched = plain
        if verify and not own_check:
            vouched = self._clean_ranges(ranges, blocks, views)
            plain = [booked if clean else None for booked, clean in zip(plain, vouched)]
        server_of = self.cluster.server
        add = self.metrics.add

        def read(i: int) -> tuple[np.ndarray, float]:
            server_id, file_name, block_id, start, count = ranges[i]
            server = server_of(server_id)
            if server.failed:
                self._check_up(server_id, file_name, block_id)
            view = views[i]
            if view is None:
                block = self._stored(server_id, file_name, block_id)
                raise StorageError(f"stripe range [{start}, {start+count}) outside block of {block.shape[0]}")
            nbytes = view.nbytes
            add("disk_bytes_read", nbytes, server_id)
            add("blocks_read", 1 if count else 0, server_id)
            if faulted is None:
                data, latency = view, nbytes / server.disk_bandwidth
            else:
                data, latency = faulted(server_id, file_name, block_id, view)
            add("read_latency", latency, server_id)
            if verify and (data is not view or not vouched[i]):
                self._check_rows(server_id, file_name, block_id, data, start)
            return data, latency

        return read, plain if faulted is None else None

    def _clean_ranges(self, ranges: list[tuple], blocks: list, views: list) -> list[bool]:
        """Per range: do its stored rows match their write-time CRCs?

        Every held range of 2-D rows is checked in one pass: one native
        call for the batch, or ``zlib`` row by row without the native
        kernel.  The kernel reads a block's rows through the handle its
        ``_row_checksums`` entry keeps: the one ``put`` got from hashing
        the block, or one taken here — and kept — when ``put`` hashed
        with ``zlib`` or the stored array has been replaced since.
        ``False`` is "not vouched for": a mismatch, a 1-D block, rows the
        kernel cannot address, a range that is not held.
        """
        backend = self._crc_backend
        checksums = self._row_checksums
        wanted: list[tuple[int, int]] = []
        expected: list[int] = []
        got: list[int] = []
        bases: list = []
        geometry: list[int] = []
        for i, view in enumerate(views):
            if view is None or view.ndim != 2:
                continue
            server_id, file_name, block_id, start, count = ranges[i]
            key = (file_name, block_id)
            crcs, owner, handle = checksums[server_id][key]
            if backend is None:
                got += _zlib_row_crcs(view)
            else:
                block = blocks[i]
                if owner is not block or handle is None:
                    if not len(block) or block.strides[1] != block.itemsize:
                        continue
                    handle = backend.row_buffer(block)
                    checksums[server_id][key] = (crcs, block, handle)
                stride = block.strides[0]
                bases.append(handle + start * stride)
                geometry += (stride, count, block.shape[1] * block.itemsize)
            wanted.append((i, count))
            expected += crcs[start : start + count]
        if bases:
            got = backend.crc32_ranges(bases, geometry)
        clean = [False] * len(ranges)
        if got == expected:  # the common case: every row checked matches
            for i, _ in wanted:
                clean[i] = True
            return clean
        pos = 0
        for i, count in wanted:
            stop = pos + count
            clean[i] = got[pos:stop] == expected[pos:stop]
            pos = stop
        return clean

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
        block = self._stored(server_id, file_name, block_id)
        self.metrics.add("disk_bytes_read", block.nbytes, server_id)
        self.metrics.add("scrub_bytes", block.nbytes, server_id)
        return self._row_crcs(block) == self._row_checksums[server_id][(file_name, block_id)][0]

    def corrupt(self, server_id: int, file_name: str, block_id: int, offset: int = 0) -> None:
        """Flip one byte of a stored block *without* updating the checksum.

        Failure-injection hook for tests and examples: models bit rot.
        """
        disk = self._disk(server_id)
        key = (file_name, block_id)
        if key not in disk:
            raise StorageError(f"cannot corrupt missing block {key}")
        block = disk[key].copy()
        flat = block.reshape(-1)
        flat[offset % flat.size] ^= 0xFF
        disk[key] = block

    def drop(self, server_id: int, file_name: str, block_id: int) -> None:
        """Remove a block (post-repair cleanup or deliberate loss)."""
        self._disk(server_id).pop((file_name, block_id), None)
        self._row_checksums[server_id].pop((file_name, block_id), None)

    def drop_server(self, server_id: int) -> int:
        """Wipe a server's disk (permanent failure); returns blocks lost."""
        disk = self._disk(server_id)
        lost = len(disk)
        disk.clear()
        self._row_checksums[server_id].clear()
        return lost

    def holds(self, server_id: int, file_name: str, block_id: int) -> bool:
        return (file_name, block_id) in self._disk(server_id)
