"""Queued resources for the simulation engine.

A :class:`SlotResource` models a server's task slots (Hadoop map/reduce
slots): requests acquire a slot for a caller-computed duration and queue
FIFO when all slots are busy.  A :class:`ThroughputResource` models a
shared pipe (disk or NIC) processed serially: each request occupies the
pipe for ``bytes / bandwidth`` seconds.  Both invoke a completion callback
through the simulation, never synchronously, so callers observe a
consistent event ordering.
"""

from __future__ import annotations

import zlib
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.trace import get_tracer
from repro.sim.engine import Simulation, SimulationError


@dataclass
class _SlotRequest:
    duration: float
    on_done: Callable[[float], None]
    name: str
    submitted: float = 0.0


class SlotResource:
    """``capacity`` parallel slots with a FIFO wait queue.

    When a metrics registry is attached, every submit records the queue
    depth it observed (``slot_queue_depth``) and every start records how
    long the request waited for a slot (``slot_wait_s``) — the
    resource-wait histograms of the observability layer.  Waits also
    surface as sim-time spans when tracing is on.
    """

    def __init__(self, sim: Simulation, capacity: int, name: str = "slots", metrics=None):
        if capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.metrics = metrics
        self._busy = 0
        self._queue: deque[_SlotRequest] = deque()
        #: Total busy-time accumulated, for utilization accounting.
        self.busy_time = 0.0

    @property
    def in_use(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._queue)

    def submit(self, duration: float, on_done: Callable[[float], None], name: str = "") -> None:
        """Run a task of ``duration`` when a slot frees up.

        ``on_done`` receives the completion time.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative task duration")
        req = _SlotRequest(duration=duration, on_done=on_done, name=name, submitted=self.sim.now)
        if self.metrics is not None:
            self.metrics.observe("slot_queue_depth", float(len(self._queue)))
        if self._busy < self.capacity:
            self._start(req)
        else:
            self._queue.append(req)

    def _start(self, req: _SlotRequest) -> None:
        wait = self.sim.now - req.submitted
        if self.metrics is not None:
            self.metrics.observe("slot_wait_s", wait)
        if wait > 0:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.sim_span(
                    f"{self.name}.wait", "sim.wait", req.submitted, self.sim.now, task=req.name
                )
        self._busy += 1
        self.busy_time += req.duration

        def finish():
            self._busy -= 1
            req.on_done(self.sim.now)
            if self._queue and self._busy < self.capacity:
                self._start(self._queue.popleft())

        self.sim.schedule(req.duration, finish, name=f"{self.name}:{req.name}")


class ThroughputResource:
    """A serially-shared pipe with fixed bandwidth (bytes/second).

    Requests are served FIFO; each occupies the pipe for
    ``nbytes / bandwidth`` seconds.  This models a disk spindle or a NIC:
    concurrent requests see queueing delay rather than magic parallelism.

    A request whose service time is only known once it is served (a
    fault-inflated read) takes its turn in two steps, :meth:`head` then
    :meth:`commit`; :meth:`transfer` is both for a size known up front.
    """

    def __init__(self, sim: Simulation, bandwidth: float, name: str = "pipe"):
        if bandwidth <= 0:
            raise SimulationError(f"{name}: bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self.name = name
        #: Sim time the pipe next falls idle.
        self.free_at = 0.0
        #: Bytes promised to the pipe and not yet queued; callers keep it.
        self.pledged = 0
        self.bytes_moved = 0

    def wait(self) -> float:
        """Seconds a request issued now would queue before it is served."""
        return max(0.0, self.free_at - self.sim.now)

    def eta(self, nbytes: float, ios: int = 0, overhead: float = 0.0) -> float:
        """Seconds until ``nbytes`` asked for now in ``ios`` requests of
        ``overhead`` fixed seconds each are served (seeded results depend
        on this summation order to the bit)."""
        return self.wait() + ios * overhead + nbytes / self.bandwidth

    def head(self) -> float:
        """The instant a request issued now reaches the head of the queue."""
        return max(self.sim.now, self.free_at)

    def commit(self, start: float, service: float) -> float:
        """Occupy the pipe for ``service`` seconds from ``start``, which
        :meth:`head` gave with nothing queued since; returns the completion."""
        self.free_at = start + service
        return self.free_at

    def transfer(
        self, nbytes: float, on_done: Callable[[float], None], name: str = "", delay: float = 0.0
    ) -> float:
        """Enqueue a transfer; returns its completion time.

        ``delay`` adds fixed pipe occupancy in seconds on top of the
        bandwidth-proportional time — a seek / per-request overhead —
        without counting towards ``bytes_moved``.
        """
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size")
        if delay < 0:
            raise SimulationError(f"{self.name}: negative transfer delay")
        start = self.head()
        done = self.commit(start + delay, nbytes / self.bandwidth)  # the seek comes first
        self.bytes_moved += int(nbytes)
        tracer = get_tracer()
        if tracer.enabled:
            # Pipe occupancy on the sim timeline, one track per resource
            # (disk/NIC rows in the trace viewer).
            tracer.sim_span(
                name or "transfer", "sim.io", start, done,
                track=zlib.crc32(self.name.encode()) % 997,
                track_name=self.name, bytes=int(nbytes),
            )
        self.sim.schedule_at(done, lambda: on_done(done), name=f"{self.name}:{name}")
        return done
