"""Queued resources for the simulation engine.

A :class:`ThroughputResource` models a shared pipe (disk or NIC)
processed serially: each request occupies the pipe for its service
time, ``bytes / bandwidth`` seconds for a clean transfer.  It is the
disk of every server behind the serving gateway, which awaits each
request's completion on its :class:`~repro.sim.aio.SimLoop`; repair
storms run there too (``ServingGateway.repair_server``).
"""

from __future__ import annotations

from repro.sim.engine import Simulation, SimulationError


class ThroughputResource:
    """A serially-shared pipe with fixed bandwidth (bytes/second).

    Requests are served FIFO; each occupies the pipe for its service
    time.  This models a disk spindle or a NIC: concurrent requests see
    queueing delay rather than magic parallelism.

    A request takes its turn in two steps, :meth:`head` then
    :meth:`commit`, so its service time (a fault-inflated read, say) may
    be known only once it is served.
    """

    def __init__(self, sim: Simulation, bandwidth: float):
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        #: Sim time the pipe next falls idle.
        self.free_at = 0.0
        #: Bytes promised to the pipe and not yet queued; callers keep it.
        self.pledged = 0

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
