"""Per-server health tracking: EWMA latency, error rates, circuit breakers.

Gray failures do not flip the ``failed`` bit — a server can answer every
probe while failing or slowing most reads.  The monitor below builds a
statistical picture instead: every read outcome feeds an exponentially
weighted latency estimate and error rate per server, and a circuit
breaker trips (``closed → open``) when errors cluster.  Open breakers
fast-fail reads so the caller falls straight to degraded decode; after a
reset timeout the breaker goes ``half-open`` and admits a single probe
read, closing again on success (the standard Nygard breaker state
machine).

Consumers:

* :class:`~repro.storage.resilient.ResilientBlockClient` — fast-fail and
  hedging decisions.
* :class:`~repro.mapreduce.scheduler.LocalityScheduler` — task placement
  avoids breaker-open servers and prefers statistically healthy ones.
* :class:`~repro.storage.repair.RepairManager` — helper preference and
  rebuild-target choice.
* :class:`~repro.storage.scrub.Scrubber` — skips (and counts) the
  blocks of breaker-open servers.

The breaker's settings are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.clock import VirtualClock
from repro.storage.metrics import MetricsRegistry

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: EWMA smoothing factor for both latency and error rate.
ALPHA = 0.3
#: Smoothed error rate above which a breaker opens (besides the
#: consecutive-error trigger).
ERROR_THRESHOLD = 0.5
#: Consecutive errors that open a breaker outright (a burst signal,
#: faster than the EWMA).
CONSECUTIVE_LIMIT = 3
#: Seconds an open breaker waits before admitting a half-open probe.
RESET_TIMEOUT = 1.0


@dataclass
class ServerHealth:
    """Mutable health estimate for one server."""

    ewma_latency: float = 0.0
    error_rate: float = 0.0
    consecutive_errors: int = 0
    state: str = CLOSED
    opened_at: float = 0.0
    probe_inflight: bool = False
    successes: int = 0
    errors: int = 0

    def score(self) -> float:
        """Lower is healthier; used to rank placement/helper candidates."""
        return self.error_rate * 10.0 + self.ewma_latency


class HealthMonitor:
    """EWMA latency + error-rate circuit breaker per server.

    Args:
        clock: time source for breaker timeouts (default: fresh
            :class:`~repro.faults.clock.VirtualClock`).
        metrics: registry receiving ``breaker_opens`` / ``breaker_closes``.
    """

    def __init__(self, clock=None, *, metrics: MetricsRegistry | None = None):
        self.clock = clock or VirtualClock()
        self.metrics = metrics or MetricsRegistry()
        self._servers: dict[int, ServerHealth] = {}
        self.transitions: list[tuple[float, int, str]] = []

    def server(self, server_id: int) -> ServerHealth:
        if server_id not in self._servers:
            self._servers[server_id] = ServerHealth()
        return self._servers[server_id]

    # -------------------------------------------------------------- feedback

    def record_success(self, server_id: int, latency: float = 0.0) -> None:
        h = self.server(server_id)
        h.successes += 1
        h.consecutive_errors = 0
        h.ewma_latency = (1 - ALPHA) * h.ewma_latency + ALPHA * latency
        h.error_rate = (1 - ALPHA) * h.error_rate
        if h.state in (HALF_OPEN, OPEN):
            # A successful read (the half-open probe, or a read that
            # slipped through) heals the breaker.
            self._transition(server_id, h, CLOSED)
            h.error_rate = 0.0
        h.probe_inflight = False

    def record_error(self, server_id: int) -> None:
        h = self.server(server_id)
        h.errors += 1
        h.consecutive_errors += 1
        h.error_rate = (1 - ALPHA) * h.error_rate + ALPHA
        if h.state == HALF_OPEN:
            # Failed probe: back to open, restart the timeout.
            self._transition(server_id, h, OPEN)
        elif h.state == CLOSED and (
            h.consecutive_errors >= CONSECUTIVE_LIMIT or h.error_rate > ERROR_THRESHOLD
        ):
            self._transition(server_id, h, OPEN)
        h.probe_inflight = False

    def _transition(self, server_id: int, h: ServerHealth, state: str) -> None:
        h.state = state
        if state == OPEN:
            h.opened_at = self.clock.now
            self.metrics.add("breaker_opens", 1, server_id)
        elif state == CLOSED:
            self.metrics.add("breaker_closes", 1, server_id)
        self.transitions.append((self.clock.now, server_id, state))

    # --------------------------------------------------------------- queries

    def state(self, server_id: int) -> str:
        return self.server(server_id).state

    def is_open(self, server_id: int) -> bool:
        """Non-mutating: True while the breaker rejects ordinary reads."""
        h = self.server(server_id)
        if h.state != OPEN:
            return False
        return self.clock.now - h.opened_at < RESET_TIMEOUT

    def allow_request(self, server_id: int) -> bool:
        """Gate one read attempt (mutating: may move open → half-open).

        Open breakers reject until the reset timeout elapses, then admit
        exactly one probe at a time; closed and half-open-with-free-probe
        states admit.
        """
        h = self.server(server_id)
        if h.state == CLOSED:
            return True
        if h.state == OPEN:
            if self.clock.now - h.opened_at < RESET_TIMEOUT:
                return False
            self._transition(server_id, h, HALF_OPEN)
            h.probe_inflight = True
            return True
        # HALF_OPEN: one probe in flight at a time.
        if h.probe_inflight:
            return False
        h.probe_inflight = True
        return True

    def score(self, server_id: int) -> float:
        h = self.server(server_id)
        penalty = 100.0 if h.state == OPEN else (1.0 if h.state == HALF_OPEN else 0.0)
        return h.score() + penalty

    def rank(self, server_ids) -> list[int]:
        """Server ids ordered healthiest first (stable on ties by id)."""
        return sorted(server_ids, key=lambda sid: (self.score(sid), sid))

    def snapshot(self) -> dict[int, dict]:
        """Per-server health summary for reports."""
        return {
            sid: {
                "state": h.state,
                "ewma_latency": h.ewma_latency,
                "error_rate": h.error_rate,
                "successes": h.successes,
                "errors": h.errors,
            }
            for sid, h in sorted(self._servers.items())
        }

