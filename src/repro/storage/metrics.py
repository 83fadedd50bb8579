"""I/O and repair accounting.

The paper's Fig. 8b reports reconstruction disk I/O in megabytes read;
this registry makes those numbers first-class: every block read/write in
the storage layer increments global and per-server counters, so benches
report byte-exact I/O instead of inferring it from timings.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.metrics import Gauge, Histogram


@dataclass
class Counter:
    """A single additive metric with a per-server breakdown."""

    total: float = 0.0
    by_server: dict[int, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, amount: float, server_id: int | None = None) -> None:
        self.total += amount
        if server_id is not None:
            self.by_server[server_id] += amount


class MetricsRegistry:
    """Named counters for storage-layer accounting.

    Standard counters used by the library:

    * ``disk_bytes_read`` / ``disk_bytes_written``
    * ``blocks_read`` / ``blocks_written``
    * ``network_bytes``
    * ``degraded_reads`` / ``reconstructions``

    Resilience counters (see ``docs/ROBUSTNESS.md``):

    * ``retries`` / ``read_timeouts`` — resilient-client retry loop
    * ``breaker_opens`` / ``breaker_closes`` / ``breaker_fastfails``
    * ``transient_read_errors`` / ``checksum_failures`` /
      ``corrupted_returns`` — injected faults observed at the store
    * ``read_latency`` — cumulative simulated read seconds
    * ``decode_replans`` / ``repair_replans`` — fallback re-planning
    * ``repairs_throttled`` — repairs granted later than requested by
      :class:`~repro.storage.repair.RepairAdmissionController` (the
      reliability simulator's registry only)

    Batched-pipeline counters (see ``docs/PERFORMANCE.md``):

    * ``batch_applies`` / ``batch_groups`` — fused kernel calls and the
      stripe groups they covered; ``batch_groups / batch_applies`` is the
      mean fusion width (groups per apply)
    * ``bytes_moved_zero_copy`` / ``bytes_copied`` — payload bytes that
      travelled as views between the caller and the disks (a write
      encoded from a view of the payload and stored as views of the
      batched output; a whole-file read delivered in one pass from the
      stored rows) vs. bytes that crossed a conversion on the way:
      widening to a wider field's symbols on write, narrowing back to a
      byte per symbol on read — and nothing else; padding is trimmed,
      not copied
    * ``plan_cache_hits`` — compiled-plan cache hits observed by the
      repair pipeline
    * ``scrub_reverified`` — rebuilt blocks whose fresh checksum the
      scrubber re-verified after a batched heal

    Observability additions (see ``docs/OBSERVABILITY.md``):

    * **Histograms** (:meth:`observe`) — ``read_latency_s`` (per-read
      simulated latency), ``scheduler_queue_depth`` (task queueing) and,
      from the reliability simulator's admission controller only,
      ``repair_wait_s`` (request to grant) and ``repair_inflight`` (most
      leases held on a named server at the request instant).
    * **Gauges** (:meth:`set_gauge`) — ``plan_cache_hit_ratio``.

    :meth:`snapshot` stays counters-only (the stable schema existing
    callers consume); :meth:`snapshot_all` is the single API returning
    counters, histogram summaries and gauges together.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = defaultdict(Counter)
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}

    def add(self, name: str, amount: float = 1.0, server_id: int | None = None) -> None:
        self._counters[name].add(amount, server_id)

    def _read_counters(self) -> tuple[Counter, Counter, Counter]:
        """The ``disk_bytes_read``, ``blocks_read`` and ``read_latency``
        counters themselves, created as :meth:`add` would: for a reader
        that adds to them in a loop without a call per add."""
        counters = self._counters
        return counters["disk_bytes_read"], counters["blocks_read"], counters["read_latency"]

    def total(self, name: str) -> float:
        return self._counters[name].total

    def by_server(self, name: str) -> dict[int, float]:
        return dict(self._counters[name].by_server)

    # ------------------------------------------------- distributions / gauges

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created empty on first access)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._gauges[name] = Gauge(value)
        else:
            gauge.set(value)

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()
        self._gauges.clear()

    def snapshot(self) -> dict[str, float]:
        """Totals of every counter, for reporting."""
        return {name: c.total for name, c in sorted(self._counters.items())}

    def snapshot_all(self) -> dict:
        """Counters, histogram summaries and gauges in one payload."""
        return {
            "counters": self.snapshot(),
            "histograms": {n: self._histograms[n].summary() for n in sorted(self._histograms)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({self.snapshot()})"
