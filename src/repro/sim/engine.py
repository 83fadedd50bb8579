"""A small deterministic discrete-event simulation engine.

The serving gateway (through :mod:`repro.sim.aio`), the reliability
simulator and the MapReduce runtime simulate time on top of this engine.
It is intentionally minimal: an event heap, monotonically increasing
time, and deterministic FIFO tie-breaking so that repeated runs with the
same seed produce identical traces — a property the test-suite asserts.
Every scheduled event fires; nothing is cancelled or looked ahead at.

Events fire in ``(time, seq)`` order, ``seq`` counting calls to
:meth:`Simulation.schedule`.  An event due at the current instant (a
task start, a resumption) goes on a FIFO *ready queue* instead of the
heap: everything on the heap for this instant was scheduled before the
clock reached it, so it precedes the ready queue in ``seq`` order, and
the queue needs no ordering of its own.  :meth:`Simulation._due` tells
:mod:`repro.sim.aio` whether anything is due now, which is when it may
run a hop's work in the current event instead of queueing it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable

from repro.obs.trace import get_tracer

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on invalid simulation operations (e.g. scheduling in the past)."""


class Simulation:
    """Event-driven simulator with deterministic ordering.

    The heap holds ``(time, seq, action, name)`` tuples of events after
    the current instant.  ``seq`` is a unique scheduling counter, so
    events scheduled for the same instant fire in scheduling order and
    ``heapq`` never compares past it to the action.  Events scheduled
    *at* the current instant wait on the ready queue as ``(action,
    name)``.  Time is a float in seconds (by convention; the engine is
    unit-agnostic), finite and never decreasing.  A scheduled event
    always fires: there is no cancellation.
    """

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None], str]] = []
        self._ready: deque[tuple[Callable[[], None], str]] = deque()
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
        """Schedule ``action`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: ``delay`` is negative, NaN or infinite.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule {name or action} at {delay}s from now")
        now = self._now
        when = now + delay
        if when == now:
            self._ready.append((action, name))
        else:
            heapq.heappush(self._heap, (when, next(self._counter), action, name))

    def schedule_at(self, when: float, action: Callable[[], None], name: str = "") -> None:
        """Schedule ``action`` at absolute time ``when`` (>= now, finite)."""
        self.schedule(when - self._now, action, name)

    def _due(self) -> bool:
        """Whether an event is due at the current instant, not yet dispatched."""
        heap = self._heap
        return bool(self._ready) or (bool(heap) and heap[0][0] == self._now)

    def run(self, until: float | None = None) -> float:
        """Process events until none is left or ``until`` is reached.

        Returns the simulation time afterwards.

        Raises:
            SimulationError: ``until`` lies before the current time — the
                clock never runs backwards — or is not finite.
        """
        if until is not None and not self._now <= until < _INF:
            raise SimulationError(f"cannot run until {until}s: the clock is at {self._now}s")
        tracer = get_tracer()
        traced = tracer.enabled
        heap, ready = self._heap, self._ready
        pop, popleft = heapq.heappop, ready.popleft
        now = self._now
        while True:
            if heap and heap[0][0] == now:
                action, name = pop(heap)[2:]
            elif ready:
                action, name = popleft()
            elif heap:
                if until is not None and heap[0][0] > until:
                    break
                now, _, action, name = pop(heap)
                self._now = now
            else:
                break
            self._processed += 1
            if traced:
                # One span per dispatched event: wall time measures the
                # handler, ``t`` pins it on the simulated timeline.
                with tracer.span(name or "event", category="sim", t=now, n=self._processed):
                    action()
            else:
                action()
        if until is not None:
            self._now = until
        return self._now
