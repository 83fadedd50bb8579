"""Resilient block reads: timeouts, retry with backoff, fast-fail.

The raw :class:`~repro.storage.blockstore.BlockStore` surfaces every
fault the installed model injects.  This client turns those faults into
the behaviour a production DFS client exhibits:

* **Checksum verification** on every read, so silent corruption becomes
  a retryable error instead of wrong bytes.
* **Per-read timeouts** — a read slower than :data:`READ_TIMEOUT` counts as
  a failure (the caller cannot wait forever on a gray disk).
* **Capped exponential backoff with jitter** between retries, on the
  virtual clock, so chaos campaigns measure realistic latency inflation
  without wall-clock sleeps.
* **Circuit-breaker fast-fail** — reads against a server whose breaker
  is open are rejected immediately (``cause="breaker_open"``) so the
  filesystem falls straight to degraded decode instead of burning the
  full retry budget per stripe.

All outcomes feed the :class:`~repro.storage.health.HealthMonitor`, and
the counters (``retries``, ``read_timeouts``, ``breaker_fastfails``)
land in the shared metrics registry.  A slow read that succeeds under
the timeout stands: reading around a slow server is the gateway's
degraded-read hedge, over the other servers of the repair group.

There is one retry loop, and it runs over a batch: a whole-file or
striped read hands the client every row range at once
(``_read_ranges``), so lookups are bound and the CRC check is paid once
per read rather than once per range.  ``read_rows`` is a batch of one
range, and ``get`` a ``read_rows`` of every row of a block.  Each range
still takes every step above, in order.  A batch may be cut into groups
(the helper rows of one rebuild each): a group stops at its first range
that cannot be read, and its later ranges take no step.

Most ranges of a read on healthy hardware are *plain*: no fault model,
the server up and its breaker closed, the rows held and vouched for by
the CRC check.  Such a range cannot retry, time out or move a
breaker, so every step it takes is an addition — to three store
counters, the latency histogram, the clock and its server's health.
The loop makes those additions in locals, in the order the range's
steps would make them, and writes them back before any other range
takes its steps and at the end of the batch: the counters, samples,
health, breaker transitions and clock end bit-identical to range by
range, without a function call per plain range.

A read that returns the rows' bytes passes its output through to the
store's CRC pass, which copies each range into place as it hashes it;
the client says which ranges that delivered (the plain ones) and leaves
every other range's place to the caller.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.faults.clock import VirtualClock
from repro.obs.trace import get_tracer
from repro.storage.blockstore import BlockStore, BlockUnavailableError, TransientReadError
from repro.storage.health import ALPHA, CLOSED, HealthMonitor

#: Total tries per read (1 = no retries).
MAX_ATTEMPTS = 4
#: First backoff delay, seconds; it doubles per retry up to :data:`MAX_DELAY`.
BASE_DELAY = 0.01
#: Backoff cap, seconds.
MAX_DELAY = 0.25
#: Proportional jitter: each delay is multiplied by ``1 + U(0, JITTER)``
#: from the client's seeded RNG.
JITTER = 0.5
#: *Excess* latency (observed minus the expected disk transfer time for
#: the bytes returned) at which an attempt counts as failed — a deadline
#: relative to the size of the read, so big blocks don't spuriously time out.
READ_TIMEOUT = 0.5

#: What an EWMA of the health monitor keeps of its value per sample.
_KEEP = 1 - ALPHA


def _backoff(retry: int, rng: random.Random) -> float:
    """Delay before the ``retry``-th retry (1-based), jittered."""
    delay = min(MAX_DELAY, BASE_DELAY * (2 ** (retry - 1)))
    return delay * (1.0 + JITTER * rng.random())


class ResilientBlockClient:
    """Retry wrapper over one :class:`BlockStore`, verifying every read.

    The retry and timeout settings are the module constants
    above; backoff jitter draws from an RNG seeded with 0.
    """

    def __init__(self, store: BlockStore, health: HealthMonitor | None = None, clock=None):
        self.store = store
        self.clock = clock or VirtualClock()
        self.health = health or HealthMonitor(self.clock, metrics=store.metrics)
        self.metrics = store.metrics
        self._rng = random.Random(0)

    # ------------------------------------------------------------- read API

    def read_rows(self, server_id: int, file_name: str, block_id: int, start: int, count: int) -> np.ndarray:
        (rows,), failures, _ = self._read_ranges([(server_id, file_name, block_id, start, count)])
        if failures:
            raise failures[0]
        return rows

    def get(self, server_id: int, file_name: str, block_id: int) -> np.ndarray:
        """Read a whole block: a :meth:`read_rows` of every row it holds."""
        return self.read_rows(*self.store._whole(server_id, file_name, block_id))

    def _read_ranges(self, ranges: list[tuple], groups: list[int] | None = None, into=None):
        """Read ``(server, file, block, row0, nrows)`` row ranges, in order:
        the one retry loop.  :meth:`read_rows` is a batch of one.

        Returns ``(pieces, failures, delivered)``: per range the
        CRC-verified row view, or ``None`` for one that could not be read;
        the error of each range that could not, in order (without a
        traceback, so it holds no frame); and, when ``into`` is given, per
        range whether its bytes were delivered (else ``None``).

        ``into`` is the ``(output, windows)`` the store's CRC pass copies
        the ranges' bytes through (:meth:`BlockStore._range_reader`).  If
        the pass delivered (it asked for the output), a range is delivered
        when it is booked plain (below): its rows were vouched for and
        copied into its window, and its attempt returns them verbatim.
        Every other range's window is the caller's to write.  ``groups``, when given, cuts the ranges into
        consecutive groups of those lengths: the ranges of a group after
        its first unreadable one are not attempted (no fault draw, no clock
        advance) and are ``None`` too.  The batch shares the lookups and
        the CRC pass (:meth:`BlockStore._range_reader`, whose ``read(i)``
        is one attempt at range ``i``).  Per range: the breaker check, then
        attempts with jittered backoff between them — a transient error or
        a latency past the timeout fails one — then for the attempt that
        succeeds the clock advance, the ``read_latency_s`` sample and the
        health update.

        A range the store marks plain (``plain[i]`` is ``(data, nbytes,
        latency)``: its attempt cannot fail or time out) cannot retry or
        move its breaker either while that is closed, and every step it
        takes is an addition: to the store's ``disk_bytes_read`` /
        ``blocks_read`` / ``read_latency`` counters, the histogram, the
        clock and its server's health.  Those are made here in locals, in
        the order the steps would make them, and written back before any
        other range takes its steps and at the end — so every float sums
        in the same order and ends bit-identical.  ``plain[i]`` is looked
        at only for a range booked this way.
        """
        attempt, plain = self.store._range_reader(ranges, True, into)
        delivered = None if into is None else [False] * len(ranges)
        health = self.health
        known = health._servers
        # The book of plain ranges: once the first is booked, the three store
        # counters, and the running totals, clock and samples of the run of
        # plain ranges being booked.  A closed breaker has no probe in
        # flight, so record_success would leave ``probe_inflight`` and
        # ``state`` as they are.
        counters = None
        booking = False
        out: list[np.ndarray | None] = []
        failures: list[BlockUnavailableError] = []
        # Ranges before ``resume`` belong to a group that has stopped.
        ends = list(accumulate(groups)) if groups else None
        resume = 0
        for i, target in enumerate(ranges):
            if i < resume:
                out.append(None)
                continue
            server_id = target[0]
            booked = None
            if plain is not None:
                h = known.get(server_id) or health.server(server_id)
                if h.state == CLOSED:
                    booked = plain[i]
            if booked is not None:
                data, nbytes, latency = booked
                if not booking:
                    if counters is None:
                        counters = read_bytes, read_blocks, read_time = self.metrics._read_counters()
                        by_bytes, by_blocks, by_time = read_bytes.by_server, read_blocks.by_server, read_time.by_server
                    bytes_total, blocks_total, time_total = read_bytes.total, read_blocks.total, read_time.total
                    now = self.clock.now
                    samples = []
                    booking = True
                bytes_total += nbytes
                by_bytes[server_id] += nbytes
                blocks_total += 1
                by_blocks[server_id] += 1
                time_total += latency
                by_time[server_id] += latency
                if latency > 0:
                    now += latency
                samples.append(latency)
                h.successes += 1
                h.consecutive_errors = 0
                h.ewma_latency = _KEEP * h.ewma_latency + ALPHA * latency
                h.error_rate = _KEEP * h.error_rate
                out.append(data)
                if delivered is not None:
                    delivered[i] = True
                continue
            if booking:
                self._write_back(counters, bytes_total, blocks_total, time_total, samples, now)
                booking = False
            metrics, clock = self.metrics, self.clock
            file_name, block_id = target[1], target[2]
            failure = None
            if not health.allow_request(server_id):
                metrics.add("breaker_fastfails", 1, server_id)
                failure = BlockUnavailableError(
                    f"server {server_id} circuit breaker is open",
                    server=server_id,
                    file=file_name,
                    block=block_id,
                    cause="breaker_open",
                )
            else:
                last_exc: BlockUnavailableError | None = None
                for n in range(1, MAX_ATTEMPTS + 1):
                    if n > 1:
                        clock.advance(_backoff(n - 1, self._rng))
                        metrics.add("retries", 1, server_id)
                        tracer = get_tracer()
                        if tracer.enabled:
                            tracer.instant(
                                "resilient.retry", category="resilient", server=server_id,
                                file=file_name, block=block_id, attempt=n,
                                clock=clock,
                            )
                    try:
                        data, latency = attempt(i)
                    except TransientReadError as exc:
                        health.record_error(server_id)
                        last_exc = exc
                        continue
                    except BlockUnavailableError as exc:  # down or not held: no retry helps
                        failure = exc
                        break
                    # The expected clean transfer time for the bytes read.
                    base = data.nbytes / self.store.cluster.server(server_id).disk_bandwidth
                    if latency - base >= READ_TIMEOUT:
                        # The caller gives up at the deadline; the stuck read is
                        # abandoned and charged as an error against the server.
                        metrics.add("read_timeouts", 1, server_id)
                        tracer = get_tracer()
                        if tracer.enabled:
                            tracer.instant(
                                "resilient.timeout", category="resilient", server=server_id,
                                file=file_name, block=block_id, latency=latency,
                                clock=clock,
                            )
                        health.record_error(server_id)
                        clock.advance(base + READ_TIMEOUT)
                        last_exc = BlockUnavailableError(
                            f"read of ({file_name!r}, {block_id}) from server {server_id} "
                            f"timed out after {READ_TIMEOUT}s over the expected {base:.4f}s",
                            server=server_id,
                            file=file_name,
                            block=block_id,
                            cause="timeout",
                        )
                        continue
                    clock.advance(latency)
                    metrics.observe("read_latency_s", latency)
                    health.record_success(server_id, latency)
                    out.append(data)
                    break
                else:
                    failure = BlockUnavailableError(
                        f"read of ({file_name!r}, {block_id}) from server {server_id} "
                        f"failed after {MAX_ATTEMPTS} attempts ({last_exc and last_exc.cause})",
                        server=server_id,
                        file=file_name,
                        block=block_id,
                        cause="retries_exhausted",
                    )
                    failure.__cause__ = last_exc.with_traceback(None)
            if failure is not None:
                failures.append(failure.with_traceback(None))
                out.append(None)
                if ends is not None:
                    resume = ends[bisect_right(ends, i)]
            # Their tracebacks hold this frame: kept past their target, they
            # would keep it, and what it holds, until the cyclic collector runs.
            failure = last_exc = None
        if booking:
            self._write_back(counters, bytes_total, blocks_total, time_total, samples, now)
        return out, failures, delivered

    def _write_back(self, counters, bytes_total, blocks_total, time_total, samples: list[float], now: float) -> None:
        """Store what :meth:`_read_ranges` booked for a run of plain ranges:
        the totals of the three store counters (their by-server values are
        added in place), the ``read_latency_s`` samples and the clock."""
        read_bytes, read_blocks, read_time = counters
        read_bytes.total, read_blocks.total, read_time.total = bytes_total, blocks_total, time_total
        self.metrics.histogram("read_latency_s")._observe_all(samples)
        self.clock.pin(now)
