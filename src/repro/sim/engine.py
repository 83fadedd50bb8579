"""A small deterministic discrete-event simulation engine.

The storage and MapReduce layers simulate time (disk reads, task
execution, shuffles) on top of this engine.  It is intentionally minimal:
an event heap, monotonically increasing time, and deterministic FIFO
tie-breaking so that repeated runs with the same seed produce identical
traces — a property the test-suite asserts.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

from repro.obs.trace import get_tracer


class SimulationError(RuntimeError):
    """Raised on invalid simulation operations (e.g. scheduling in the past)."""


class _ScheduledEvent:
    """Handle of one scheduled event: what ``schedule`` returns and ``cancel`` takes.

    The heap holds ``(time, seq, event)`` tuples; ``seq`` is unique, so
    ``heapq`` orders entries by comparing a float and an int in C and
    never looks at the handle.  ``cancelled`` means the handle no longer
    stands for a heap entry that will fire: it was cancelled, or it has
    been dispatched — either way :meth:`Simulation.cancel` ignores it.
    """

    __slots__ = ("action", "name", "cancelled")

    def __init__(self, action: Callable[[], None], name: str):
        self.action = action
        self.name = name
        self.cancelled = False


class Simulation:
    """Event-driven simulator with deterministic ordering.

    Events scheduled for the same instant fire in scheduling order.  Time
    is a float in seconds (by convention; the engine is unit-agnostic).

    Cancelled events use *lazy deletion*: they stay in the heap (removing
    an arbitrary heap entry is O(n)) and are discarded when they surface
    at the top.  Once cancelled entries outnumber live ones the heap is
    compacted in one O(n) pass, so long-running simulations that cancel
    heavily (timeout timers, hedged-read losers) keep the heap
    proportional to the *live* event count and ``peek`` O(log n)
    amortized instead of a full scan.
    """

    #: Compaction only triggers past this many cancelled entries, so
    #: small simulations never pay the rebuild.
    COMPACT_MIN = 64

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, _ScheduledEvent]] = []
        self._counter = itertools.count()
        self._processed = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live (not cancelled) events still in the heap."""
        return len(self._heap) - self._cancelled

    def schedule(self, delay: float, action: Callable[[], None], name: str = "") -> _ScheduledEvent:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {name or action} {delay}s in the past")
        ev = _ScheduledEvent(action, name)
        heapq.heappush(self._heap, (self._now + delay, next(self._counter), ev))
        return ev

    def schedule_at(self, when: float, action: Callable[[], None], name: str = "") -> _ScheduledEvent:
        """Schedule ``action`` at absolute time ``when`` (>= now)."""
        return self.schedule(when - self._now, action, name)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a pending event (lazy removal, compaction when crowded)."""
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled += 1
        if self._cancelled >= self.COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (O(n)).

        (time, seq) ordering of live events is unchanged, so FIFO
        tie-breaking — and therefore traces — are identical.  The list
        is rebuilt *in place*: :meth:`run` holds it in a local while an
        action cancels, and must keep seeing the one heap.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the simulation time afterwards.

        Raises:
            SimulationError: ``until`` lies before the current time — the
                clock never runs backwards.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until}s: the clock is already at {self._now}s")
        tracer = get_tracer()
        traced = tracer.enabled
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, seq, ev = heap[0]
            if ev.cancelled:
                pop(heap)
                self._cancelled -= 1
                continue
            if until is not None and when > until:
                self._now = until
                return until
            pop(heap)
            ev.cancelled = True  # spent: a late cancel() must not count it
            self._now = when
            self._processed += 1
            if traced:
                # One span per dispatched event: wall time measures the
                # handler, ``t`` pins it on the simulated timeline.
                with tracer.span(ev.name or "event", category="sim", t=when, seq=seq):
                    ev.action()
            else:
                ev.action()
        if until is not None:
            self._now = until
        return self._now

    def peek(self) -> float | None:
        """Time of the next pending event, or None when idle.

        O(log n) amortized: cancelled events at the top are popped (each
        paid for once), and the surviving top is the answer.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None
