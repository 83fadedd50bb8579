"""Queued resources for the simulation engine.

A :class:`ThroughputResource` models a shared pipe (disk or NIC)
processed serially: each request occupies the pipe for
``bytes / bandwidth`` seconds.  Its completion callback is invoked
through the simulation, never synchronously, so callers observe a
consistent event ordering.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable

from repro.obs.trace import get_tracer
from repro.sim.engine import Simulation, SimulationError


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

    def transfer(self, nbytes: float, on_done: Callable[[float], None], name: str = "") -> float:
        """Enqueue a transfer; returns its completion time."""
        if nbytes < 0:
            raise SimulationError(f"{self.name}: negative transfer size")
        start = self.head()
        done = self.commit(start, nbytes / self.bandwidth)
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
