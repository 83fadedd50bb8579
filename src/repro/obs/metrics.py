"""Histogram and gauge primitives for the metrics registry.

The storage layer's :class:`~repro.storage.metrics.MetricsRegistry`
started as pure counters (byte/IO accounting for Fig. 8).  Latency-style
questions — p95 read latency, repair queue depth, kernel time per apply —
need distributions, not sums, so this module adds:

* :class:`Histogram` — streaming min/max/count/sum plus a bounded sample
  buffer for percentile queries (p50/p95/p99 via nearest-rank).
* :class:`Gauge` — a last-value metric (plan-cache hit ratio, pending
  event count).

Both are dependency-free so any layer can import them without cycles.
"""

from __future__ import annotations

import math
from fractions import Fraction


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile (0 < p <= 100)
    among ``n`` sorted values: ``ceil(n * p / 100)``, at least 1.

    ``p`` is taken as the decimal it prints as, so the 99.9th percentile
    of 1 000 values is rank 999; in binary floating point
    ``99.9 / 100 * 1000`` lands just above 999 and its ceiling is one
    too high.
    """
    return max(1, math.ceil(n * Fraction(str(p)) / 100))


#: Raw values a :class:`Histogram` keeps for its percentiles.
MAX_SAMPLES = 100_000


class Histogram:
    """A streaming distribution with bounded memory.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles are computed over the first ``MAX_SAMPLES`` raw values
    (workloads in this repo stay far below the cap — it exists so a
    pathological loop cannot exhaust memory).
    """

    __slots__ = ("count", "total", "min", "max", "_values", "_dirty")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: list[float] = []
        self._dirty = False

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._values) < MAX_SAMPLES:
            self._values.append(value)
            self._dirty = True

    def _observe_all(self, values: list[float]) -> None:
        """:meth:`observe` each of ``values`` (floats) in turn, in one call."""
        if not values:
            return
        total, low, high = self.total, self.min, self.max
        for value in values:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        self.count += len(values)
        self.total, self.min, self.max = total, low, high
        room = MAX_SAMPLES - len(self._values)
        if room > 0:
            self._values += values[:room]
            self._dirty = True

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the sampled values (0 < p <= 100)."""
        if not self._values:
            return 0.0
        if self._dirty:
            self._values.sort()
            self._dirty = False
        return self._values[nearest_rank(len(self._values), p) - 1]

    def summary(self) -> dict:
        """The single-snapshot view: count, sum, extremes, p50/p95/p99."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, mean={self.mean:.6g})"


class Gauge:
    """A last-value metric (set wins; no aggregation)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.value})"
