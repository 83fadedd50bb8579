"""Resilient block reads: timeouts, retry with backoff, hedging, fast-fail.

The raw :class:`~repro.storage.blockstore.BlockStore` surfaces every
fault the installed model injects.  This client turns those faults into
the behaviour a production DFS client exhibits:

* **Checksum verification** on every read, so silent corruption becomes
  a retryable error instead of wrong bytes.
* **Per-read timeouts** — a read slower than ``read_timeout`` counts as
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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.faults.clock import VirtualClock
from repro.obs.trace import get_tracer
from repro.storage.blockstore import BlockStore, BlockUnavailableError, TransientReadError
from repro.storage.health import HealthMonitor
from repro.storage.metrics import MetricsRegistry


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the resilient read loop.

    Attributes:
        max_attempts: total tries per read (1 = no retries).
        base_delay: first backoff delay, seconds.
        max_delay: backoff cap.
        jitter: proportional jitter — each delay is multiplied by
            ``1 + U(0, jitter)`` from the client's seeded RNG.
        read_timeout: *excess* latency (observed minus the expected disk
            transfer time for the bytes returned) at which an attempt
            counts as failed — a deadline relative to the size of the
            read, so big blocks don't spuriously time out.
        hedge_threshold: excess latency above which a speculative second
            read is launched; ``None`` disables hedging.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    max_delay: float = 0.25
    jitter: float = 0.5
    read_timeout: float = 0.5
    hedge_threshold: float | None = 0.05

    def backoff(self, retry: int, rng: random.Random) -> float:
        """Delay before the ``retry``-th retry (1-based), jittered."""
        delay = min(self.max_delay, self.base_delay * (2 ** (retry - 1)))
        return delay * (1.0 + self.jitter * rng.random())


class ResilientBlockClient:
    """Retry/hedge wrapper over one :class:`BlockStore`."""

    def __init__(
        self,
        store: BlockStore,
        health: HealthMonitor | None = None,
        policy: RetryPolicy | None = None,
        clock=None,
        metrics: MetricsRegistry | None = None,
        seed: int = 0,
        verify: bool = True,
    ):
        self.store = store
        self.clock = clock or VirtualClock()
        self.health = health or HealthMonitor(self.clock, metrics=store.metrics)
        self.policy = policy or RetryPolicy()
        self.metrics = metrics or store.metrics
        self.verify = verify
        self._rng = random.Random(seed)
        #: Every backoff delay slept, for timing regression tests.
        self.backoff_history: list[float] = []

    # ------------------------------------------------------------- read API

    def read_rows(self, server_id: int, file_name: str, block_id: int, start: int, count: int) -> np.ndarray:
        return self._read(
            server_id,
            file_name,
            block_id,
            lambda: self.store.timed_read_rows(server_id, file_name, block_id, start, count, verify=self.verify),
        )

    def get(self, server_id: int, file_name: str, block_id: int) -> np.ndarray:
        return self._read(
            server_id,
            file_name,
            block_id,
            lambda: self.store.timed_get(server_id, file_name, block_id, verify=self.verify),
        )

    # ------------------------------------------------------------- internals

    def _read(self, server_id: int, file_name: str, block_id: int, op) -> np.ndarray:
        policy = self.policy
        if not self.health.allow_request(server_id):
            self.metrics.add("breaker_fastfails", 1, server_id)
            raise BlockUnavailableError(
                f"server {server_id} circuit breaker is open",
                server=server_id,
                file=file_name,
                block=block_id,
                cause="breaker_open",
            )
        tracer = get_tracer()
        last_exc: BlockUnavailableError | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                delay = policy.backoff(attempt - 1, self._rng)
                self.backoff_history.append(delay)
                self.clock.advance(delay)
                self.metrics.add("retries", 1, server_id)
                if tracer.enabled:
                    tracer.instant(
                        "resilient.retry", category="resilient", server=server_id,
                        file=file_name, block=block_id, attempt=attempt,
                        clock=self.clock,
                    )
            try:
                data, latency = op()
            except TransientReadError as exc:
                self.health.record_error(server_id)
                last_exc = exc
                continue
            base = self._expected_latency(server_id, data)
            if latency - base >= policy.read_timeout:
                # The caller gives up at the deadline; the stuck read is
                # abandoned and charged as an error against the server.
                self.metrics.add("read_timeouts", 1, server_id)
                if tracer.enabled:
                    tracer.instant(
                        "resilient.timeout", category="resilient", server=server_id,
                        file=file_name, block=block_id, latency=latency,
                        clock=self.clock,
                    )
                self.health.record_error(server_id)
                self.clock.advance(base + policy.read_timeout)
                last_exc = BlockUnavailableError(
                    f"read of ({file_name!r}, {block_id}) from server {server_id} "
                    f"timed out after {policy.read_timeout}s over the expected {base:.4f}s",
                    server=server_id,
                    file=file_name,
                    block=block_id,
                    cause="timeout",
                )
                continue
            if policy.hedge_threshold is not None and latency - base > policy.hedge_threshold:
                if tracer.enabled:
                    tracer.instant(
                        "resilient.hedge", category="resilient", server=server_id,
                        file=file_name, block=block_id, latency=latency,
                        clock=self.clock,
                    )
                data, latency = self._hedge(server_id, data, latency, base, op)
            self.clock.advance(latency)
            self.metrics.observe("read_latency_s", latency)
            self.health.record_success(server_id, latency)
            return data
        raise BlockUnavailableError(
            f"read of ({file_name!r}, {block_id}) from server {server_id} "
            f"failed after {policy.max_attempts} attempts ({last_exc and last_exc.cause})",
            server=server_id,
            file=file_name,
            block=block_id,
            cause="retries_exhausted",
        ) from last_exc

    def _expected_latency(self, server_id: int, data) -> float:
        """Expected clean transfer time for the bytes just read."""
        return np.asarray(data).nbytes / self.store.cluster.server(server_id).disk_bandwidth

    def _hedge(self, server_id: int, data, latency: float, base: float, op):
        """Launch a speculative second read; earliest completion wins.

        The hedge fires once the primary has been outstanding for the
        expected transfer time plus ``hedge_threshold``, so its
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
        hedged_completion = base + self.policy.hedge_threshold + lat2
        if hedged_completion < latency:
            self.metrics.add("hedged_wins", 1, server_id)
            return data2, hedged_completion
        return data, latency
