"""Resilient block reads: timeouts, retry with backoff, hedging, fast-fail.

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
* **Hedged reads** — when the first attempt is slower than the hedge
  threshold (but under the timeout), a speculative second read is
  issued and the earlier completion wins.  With erasure-coded single
  copies the hedge re-issues against the same server (a second I/O
  path).
* **Circuit-breaker fast-fail** — reads against a server whose breaker
  is open are rejected immediately (``cause="breaker_open"``) so the
  filesystem falls straight to degraded decode instead of burning the
  full retry budget per stripe.

All outcomes feed the :class:`~repro.storage.health.HealthMonitor`, and
the counters (``retries``, ``hedged_reads``, ``read_timeouts``,
``breaker_fastfails``) land in the shared metrics registry.

There is one retry loop, and it runs over a batch: a whole-file or
striped read hands the client every row range at once
(``_read_ranges``), so lookups are bound and the CRC check is paid once
per read rather than once per range.  ``read_rows`` is a batch of one
range and ``get`` runs the same loop over one whole block.  Each range
still takes every step above, in order.
"""

from __future__ import annotations

import random

import numpy as np

from repro.faults.clock import VirtualClock
from repro.obs.trace import get_tracer
from repro.storage.blockstore import BlockStore, BlockUnavailableError, TransientReadError
from repro.storage.health import HealthMonitor

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
#: Excess latency above which a speculative second read is launched.
HEDGE_THRESHOLD = 0.05


def _backoff(retry: int, rng: random.Random) -> float:
    """Delay before the ``retry``-th retry (1-based), jittered."""
    delay = min(MAX_DELAY, BASE_DELAY * (2 ** (retry - 1)))
    return delay * (1.0 + JITTER * rng.random())


class ResilientBlockClient:
    """Retry/hedge wrapper over one :class:`BlockStore`, verifying every read.

    The retry, timeout and hedge settings are the module constants
    above; backoff jitter draws from an RNG seeded with 0.
    """

    def __init__(self, store: BlockStore, health: HealthMonitor | None = None, clock=None):
        self.store = store
        self.clock = clock or VirtualClock()
        self.health = health or HealthMonitor(self.clock, metrics=store.metrics)
        self.metrics = store.metrics
        self._rng = random.Random(0)
        #: Every backoff delay slept, for timing regression tests.
        self.backoff_history: list[float] = []

    # ------------------------------------------------------------- read API

    def read_rows(self, server_id: int, file_name: str, block_id: int, start: int, count: int) -> np.ndarray:
        (rows,) = self._read_ranges([(server_id, file_name, block_id, start, count)], strict=True)
        return rows

    def get(self, server_id: int, file_name: str, block_id: int) -> np.ndarray:
        (data,) = self._read_each(
            [(server_id, file_name, block_id)],
            lambda _: self.store.timed_get(server_id, file_name, block_id, verify=True),
            strict=True,
        )
        return data

    def _read_ranges(self, ranges: list[tuple], strict: bool = False) -> list[np.ndarray | None]:
        """Read ``(server, file, block, row0, nrows)`` row ranges, in order.

        Returns per range the CRC-verified row view, or ``None`` for one
        that could not be read (``strict``: raise instead).  Every range
        goes through the steps a lone :meth:`read_rows` takes, in the same
        order; the batch shares the lookups and the CRC pass
        (:meth:`BlockStore._range_reader`).  :meth:`read_rows` is a batch
        of one.
        """
        return self._read_each(ranges, self.store._range_reader(ranges, True), strict)

    # ------------------------------------------------------------- internals

    def _read_each(self, targets: list[tuple], attempt, strict: bool) -> list[np.ndarray | None]:
        """The retry loop, for each of ``targets`` in turn.

        ``targets[i]`` starts ``(server, file, block, ...)`` and
        ``attempt(i)`` is one try at it, returning ``(data, latency)``.
        Per target: the breaker check, then tries with jittered backoff
        between them — a transient error or a latency past the timeout
        fails a try — a hedge for a slow success, the clock advance, the
        ``read_latency_s`` sample and the health update.  A target that
        cannot be read is ``None``, or with ``strict`` raises.
        """
        # Bound once for the batch: what every successful read touches.
        # The retry, timeout, hedge and breaker paths look theirs up.
        allow, record_success = self.health.allow_request, self.health.record_success
        observe, advance = self.metrics.observe, self.clock.advance
        server_of = self.store.cluster.server
        out: list[np.ndarray | None] = []
        for i, target in enumerate(targets):
            server_id, file_name, block_id = target[0], target[1], target[2]
            failure = None
            if not allow(server_id):
                self.metrics.add("breaker_fastfails", 1, server_id)
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
                        delay = _backoff(n - 1, self._rng)
                        self.backoff_history.append(delay)
                        advance(delay)
                        self.metrics.add("retries", 1, server_id)
                        tracer = get_tracer()
                        if tracer.enabled:
                            tracer.instant(
                                "resilient.retry", category="resilient", server=server_id,
                                file=file_name, block=block_id, attempt=n,
                                clock=self.clock,
                            )
                    try:
                        data, latency = attempt(i)
                    except TransientReadError as exc:
                        self.health.record_error(server_id)
                        last_exc = exc
                        continue
                    except BlockUnavailableError as exc:  # down or not held: no retry helps
                        failure = exc
                        break
                    # The expected clean transfer time for the bytes read.
                    base = data.nbytes / server_of(server_id).disk_bandwidth
                    if latency - base >= READ_TIMEOUT:
                        # The caller gives up at the deadline; the stuck read is
                        # abandoned and charged as an error against the server.
                        self.metrics.add("read_timeouts", 1, server_id)
                        tracer = get_tracer()
                        if tracer.enabled:
                            tracer.instant(
                                "resilient.timeout", category="resilient", server=server_id,
                                file=file_name, block=block_id, latency=latency,
                                clock=self.clock,
                            )
                        self.health.record_error(server_id)
                        advance(base + READ_TIMEOUT)
                        last_exc = BlockUnavailableError(
                            f"read of ({file_name!r}, {block_id}) from server {server_id} "
                            f"timed out after {READ_TIMEOUT}s over the expected {base:.4f}s",
                            server=server_id,
                            file=file_name,
                            block=block_id,
                            cause="timeout",
                        )
                        continue
                    if latency - base > HEDGE_THRESHOLD:
                        tracer = get_tracer()
                        if tracer.enabled:
                            tracer.instant(
                                "resilient.hedge", category="resilient", server=server_id,
                                file=file_name, block=block_id, latency=latency,
                                clock=self.clock,
                            )
                        data, latency = self._hedge(server_id, data, latency, base, lambda: attempt(i))
                    advance(latency)
                    observe("read_latency_s", latency)
                    record_success(server_id, latency)
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
                    failure.__cause__ = last_exc
            if failure is not None:
                if strict:
                    raise failure
                out.append(None)
        return out

    def _hedge(self, server_id: int, data, latency: float, base: float, op):
        """Launch a speculative second read; earliest completion wins.

        The hedge fires once the primary has been outstanding for the
        expected transfer time plus :data:`HEDGE_THRESHOLD`, so its
        completion time is that launch instant plus its own latency.
        """
        self.metrics.add("hedged_reads", 1, server_id)
        try:
            data2, lat2 = op()
        except TransientReadError:
            return data, latency  # the hedge lost by failing; primary stands
        # Exactly one of the two completed payloads survives; the other
        # is discarded (the serving-path tests pin this accounting).
        self.metrics.add("hedged_losers_discarded", 1, server_id)
        hedged_completion = base + HEDGE_THRESHOLD + lat2
        if hedged_completion < latency:
            self.metrics.add("hedged_wins", 1, server_id)
            return data2, hedged_completion
        return data, latency
