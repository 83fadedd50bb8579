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
* :class:`~repro.storage.scrub.Scrubber` — quarantine-aware skip
  accounting and grace-period healing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.clock import VirtualClock
from repro.storage.metrics import MetricsRegistry

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


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
        alpha: EWMA smoothing factor for both latency and error rate.
        error_threshold: smoothed error rate above which the breaker
            opens (in addition to the consecutive-error trigger).
        consecutive_limit: consecutive errors that open the breaker
            outright (a burst signal, faster than the EWMA).
        reset_timeout: seconds an open breaker waits before admitting a
            half-open probe.
        metrics: registry receiving ``breaker_opens`` / ``breaker_closes``.
    """

    def __init__(
        self,
        clock=None,
        *,
        alpha: float = 0.3,
        error_threshold: float = 0.5,
        consecutive_limit: int = 3,
        reset_timeout: float = 1.0,
        metrics: MetricsRegistry | None = None,
    ):
        self.clock = clock or VirtualClock()
        self.alpha = alpha
        self.error_threshold = error_threshold
        self.consecutive_limit = consecutive_limit
        self.reset_timeout = reset_timeout
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
        h.ewma_latency = (1 - self.alpha) * h.ewma_latency + self.alpha * latency
        h.error_rate = (1 - self.alpha) * h.error_rate
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
        h.error_rate = (1 - self.alpha) * h.error_rate + self.alpha
        if h.state == HALF_OPEN:
            # Failed probe: back to open, restart the timeout.
            self._transition(server_id, h, OPEN)
        elif h.state == CLOSED and (
            h.consecutive_errors >= self.consecutive_limit or h.error_rate > self.error_threshold
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
        return self.clock.now - h.opened_at < self.reset_timeout

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
            if self.clock.now - h.opened_at < self.reset_timeout:
                return False
            self._transition(server_id, h, HALF_OPEN)
            h.probe_inflight = True
            return True
        # HALF_OPEN: one probe in flight at a time.
        if h.probe_inflight:
            return False
        h.probe_inflight = True
        return True

    def quarantined(self, server_id: int, grace: float) -> bool:
        """True when the breaker has been open longer than ``grace``."""
        h = self.server(server_id)
        return h.state == OPEN and self.clock.now - h.opened_at >= grace

    def score(self, server_id: int) -> float:
        h = self.server(server_id)
        penalty = 100.0 if h.state == OPEN else (1.0 if h.state == HALF_OPEN else 0.0)
        return h.score() + penalty

    def rank(self, server_ids) -> list[int]:
        """Server ids ordered healthiest first (stable on ties by id)."""
        return sorted(server_ids, key=lambda sid: (self.score(sid), sid))

    def healthy(self, server_ids) -> list[int]:
        """The subset whose breakers are not open, healthiest first."""
        return [sid for sid in self.rank(server_ids) if not self.is_open(sid)]

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

