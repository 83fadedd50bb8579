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
runs large enough to repay the call go through it in one C call;
everything else, and every host without it, uses ``zlib.crc32`` — the
stored values are the same either way.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.cluster.topology import Cluster
from repro.gf.native import get_backend
from repro.storage.metrics import MetricsRegistry

#: Row runs shorter than this stay on ``zlib``: a call into the native
#: library costs about a microsecond before its first byte, which
#: ``zlib`` spends checksumming ~4 KiB.
_NATIVE_CRC_MIN_BYTES = 8 << 10


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

    def context(self) -> dict:
        """The structured fields, for logs and campaign records."""
        return {"server": self.server, "file": self.file, "block": self.block, "cause": self.cause}


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
        # corruption (bit rot, torn writes).
        self._row_checksums: dict[int, dict[tuple[str, int], list[int]]] = {
            s.server_id: {} for s in cluster
        }
        backend = get_backend()
        self._native_row_crcs = (
            backend.crc32_rows if backend is not None and backend.has_crc32 else None
        )
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
        """Write one block to a server's disk."""
        if self.cluster.server(server_id).failed:
            raise BlockUnavailableError(
                f"server {server_id} is down; cannot write",
                server=server_id,
                file=file_name,
                block=block_id,
                cause="server_down",
            )
        payload = np.asarray(payload)
        key = (file_name, block_id)
        self._disk(server_id)[key] = payload
        self._row_checksums[server_id][key] = self._row_crcs(payload)
        self.metrics.add("disk_bytes_written", payload.nbytes, server_id)
        self.metrics.add("blocks_written", 1, server_id)

    # ------------------------------------------------------------- integrity

    def _row_crcs(self, data: np.ndarray) -> list[int]:
        """CRC-32 of each stripe row; a block that is not 2-D is one row."""
        rows = data if data.ndim == 2 else data.reshape(1, -1)
        if self._native_row_crcs is not None and rows.nbytes >= _NATIVE_CRC_MIN_BYTES:
            return self._native_row_crcs(rows)
        return _zlib_row_crcs(rows)

    def _check_rows(self, server_id: int, file_name: str, block_id: int, data, start: int) -> None:
        """Raise unless ``data`` matches the write-time CRCs from stripe ``start`` on."""
        got = self._row_crcs(np.asarray(data))
        expect = self._row_checksums[server_id][(file_name, block_id)][start : start + len(got)]
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
        if decision.corrupt:
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

        With ``verify=True`` every row of the block is checked against
        its write-time CRC; a mismatch raises :class:`TransientReadError`
        (``cause="checksum"``) since a retry will read the intact copy.
        """
        self._check_up(server_id, file_name, block_id)
        block = self._stored(server_id, file_name, block_id)
        self.metrics.add("disk_bytes_read", block.nbytes, server_id)
        self.metrics.add("blocks_read", 1, server_id)
        data, latency = self._faulted(server_id, file_name, block_id, block)
        self.metrics.add("read_latency", latency, server_id)
        if verify:
            self._check_rows(server_id, file_name, block_id, data, 0)
        return data, latency

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
        all of it verifies.
        """
        self._check_up(server_id, file_name, block_id)
        block = self._stored(server_id, file_name, block_id)
        if start < 0 or start + count > block.shape[0]:
            raise StorageError(f"stripe range [{start}, {start+count}) outside block of {block.shape[0]}")
        view = block[start : start + count]
        self.metrics.add("disk_bytes_read", view.nbytes, server_id)
        self.metrics.add("blocks_read", 1 if count else 0, server_id)
        data, latency = self._faulted(server_id, file_name, block_id, view)
        self.metrics.add("read_latency", latency, server_id)
        if verify:
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
        block = self._stored(server_id, file_name, block_id)
        self.metrics.add("disk_bytes_read", block.nbytes, server_id)
        self.metrics.add("scrub_bytes", block.nbytes, server_id)
        return self._row_crcs(block) == self._row_checksums[server_id][(file_name, block_id)]

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

    def blocks_on(self, server_id: int) -> list[tuple[str, int]]:
        """Keys of all blocks on one server."""
        return sorted(self._disk(server_id).keys())

    def holds(self, server_id: int, file_name: str, block_id: int) -> bool:
        return (file_name, block_id) in self._disk(server_id)

    def used_bytes(self, server_id: int) -> int:
        return sum(v.nbytes for v in self._disk(server_id).values())
