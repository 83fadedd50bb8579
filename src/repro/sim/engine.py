"""A small deterministic discrete-event simulation engine.

The serving gateway (through :mod:`repro.sim.aio`), the reliability
simulator and the MapReduce runtime simulate time on top of this engine.
It is intentionally minimal: an event heap, monotonically increasing
time, and deterministic FIFO tie-breaking so that repeated runs with the
same seed produce identical traces — a property the test-suite asserts.
Every scheduled event fires; nothing is cancelled or looked ahead at.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

from repro.obs.trace import get_tracer


class SimulationError(RuntimeError):
    """Raised on invalid simulation operations (e.g. scheduling in the past)."""


class Simulation:
    """Event-driven simulator with deterministic ordering.

    The heap holds ``(time, seq, action, name)`` tuples.  ``seq`` is a
    unique scheduling counter, so events scheduled for the same instant
    fire in scheduling order and ``heapq`` never compares past it to the
    action.  Time is a float in seconds (by convention; the engine is
    unit-agnostic).  A scheduled event always fires: there is no
    cancellation.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None], str]] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, action: Callable[[], None], name: str = "") -> None:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {name or action} {delay}s in the past")
        heapq.heappush(self._heap, (self._now + delay, next(self._counter), action, name))

    def schedule_at(self, when: float, action: Callable[[], None], name: str = "") -> None:
        """Schedule ``action`` at absolute time ``when`` (>= now)."""
        self.schedule(when - self._now, action, name)

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
            if until is not None and heap[0][0] > until:
                self._now = until
                return until
            when, seq, action, name = pop(heap)
            self._now = when
            self._processed += 1
            if traced:
                # One span per dispatched event: wall time measures the
                # handler, ``t`` pins it on the simulated timeline.
                with tracer.span(name or "event", category="sim", t=when, seq=seq):
                    action()
            else:
                action()
        if until is not None:
            self._now = until
        return self._now
