"""Clocks for the resilient read path.

Retry backoff, circuit-breaker reset timeouts and fault windows all need
a notion of *now*.  Real wall-clock time would make tests slow and flaky,
so the storage layer runs on a :class:`VirtualClock` by default: a
monotonically advancing float that read latencies and backoff sleeps are
added to.  A caller that owns the timeline (the serving gateway, the
reliability simulator) *pins* the clock to each operation's start and
reads the operation's duration off it afterwards.
"""

from __future__ import annotations


class VirtualClock:
    """A simulated clock: ``now``, explicit ``advance``, and ``pin``."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` seconds (negative dt is a no-op)."""
        if dt > 0:
            self._now += dt
        return self._now

    def pin(self, instant: float) -> None:
        """Set the clock to ``instant``, which may be earlier than ``now``."""
        self._now = float(instant)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualClock(now={self._now:.6f})"

