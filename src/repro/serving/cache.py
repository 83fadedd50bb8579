"""Hot-stripe read cache with frequency-based admission (TinyLFU-style).

A serving front end under Zipf traffic lives or dies by its cache — but
a plain LRU is trivially polluted by the long tail: every one-hit wonder
evicts a resident hot stripe.  TinyLFU (Einziger et al.) fixes this by
keeping an approximate frequency history and only *admitting* a new key
when it has been seen at least as often as the eviction victim it would
displace.

This implementation keeps the admission policy and the aging schedule of
TinyLFU but uses an exact (dict-backed) frequency table instead of a
count-min sketch: the keyspace here is bounded (files × stripes), the
exact table is deterministic — which the CI latency gates require — and
the policy decisions are identical to a sketch with no collisions.
Counters halve once ``sample_period`` accesses accumulate, so a key that
was hot yesterday cannot camp in the cache forever (the "flash crowd
recedes" case the workload generator exercises).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.storage.metrics import MetricsRegistry


class FrequencySketch:
    """Exact access-frequency table with TinyLFU-style periodic aging."""

    def __init__(self, sample_period: int = 4096):
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self.sample_period = sample_period
        self._counts: dict[object, int] = {}
        self._observed = 0

    def record(self, key) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1
        self._observed += 1
        if self._observed >= self.sample_period:
            self._age()

    def estimate(self, key) -> int:
        return self._counts.get(key, 0)

    def _age(self) -> None:
        """Halve every counter, dropping those that reach zero."""
        self._counts = {k: half for k, c in self._counts.items() if (half := c // 2)}
        self._observed = 0


class HotBlockCache:
    """LRU-ordered stripe cache guarded by a frequency admission filter.

    ``get`` / ``offer`` feed the shared metrics registry:

    * ``serving_cache_hits`` / ``serving_cache_misses``
    * ``serving_cache_admissions`` / ``serving_cache_rejections`` —
      admission-policy outcomes for candidate insertions
    * ``serving_cache_evictions`` — victims displaced by admitted keys
    * gauge ``serving_cache_fill`` — resident entries / capacity

    Keys are ``(file, stripe)`` tuples; values are the stripe payloads
    (numpy rows).  Capacity is counted in entries: serving reads are
    stripe-granular and stripes within one workload are near-uniform in
    size, so entry-count capacity keeps the policy deterministic without
    byte bookkeeping.
    """

    def __init__(
        self,
        capacity: int,
        metrics: MetricsRegistry | None = None,
        sample_period: int = 4096,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics or MetricsRegistry()
        self.sketch = FrequencySketch(sample_period=sample_period)
        self._entries: OrderedDict[object, object] = OrderedDict()

    def get(self, key):
        """The cached value, or ``None`` on miss.  Records the access."""
        self.sketch.record(key)
        value = self._entries.get(key)
        if value is None:
            self.metrics.add("serving_cache_misses", 1)
            return None
        self._entries.move_to_end(key)
        self.metrics.add("serving_cache_hits", 1)
        return value

    def offer(self, key, value) -> bool:
        """Propose ``key`` for residency; returns True when admitted.

        A key already resident is refreshed in place.  When the cache is
        full, the LRU victim is consulted: the candidate is admitted only
        if its observed frequency is at least the victim's — otherwise
        the candidate is rejected and the (still warmer) victim stays.
        """
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return True
        if len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            if self.sketch.estimate(key) < self.sketch.estimate(victim):
                self.metrics.add("serving_cache_rejections", 1)
                return False
            self._entries.popitem(last=False)
            self.metrics.add("serving_cache_evictions", 1)
        self._entries[key] = value
        self.metrics.add("serving_cache_admissions", 1)
        self.metrics.set_gauge("serving_cache_fill", len(self._entries) / self.capacity)
        return True

    def hit_ratio(self) -> float:
        hits = self.metrics.total("serving_cache_hits")
        misses = self.metrics.total("serving_cache_misses")
        total = hits + misses
        return hits / total if total else 0.0
