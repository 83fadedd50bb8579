"""Server model: heterogeneous commodity machines.

The paper's evaluation runs on EC2 instances whose CPU it throttles to
create heterogeneity (Sec. VII-B); here a server is a named bundle of
performance parameters.  The weight assignment of Galloper codes consumes
one scalar "performance measurement" per server (the paper suggests
sequential-disk throughput, or CPU throughput when CPU-bound); the
``performance`` method selects which parameter plays that role.
"""

from __future__ import annotations

from dataclasses import dataclass

MB = 1 << 20
GB = 1 << 30


@dataclass
class Server:
    """One storage/compute node.

    Attributes:
        server_id: unique id within the cluster.
        cpu_speed: relative compute throughput (1.0 = baseline; the paper's
            throttled servers run at 0.4).
        disk_bandwidth: sequential disk throughput in bytes/second.
        network_bandwidth: NIC throughput in bytes/second.
        map_slots: concurrent map tasks the server runs (cores).
        failed: crash-state flag, toggled by the failure injector.
    """

    server_id: int
    cpu_speed: float = 1.0
    disk_bandwidth: float = 100 * MB
    network_bandwidth: float = 1 * GB
    map_slots: int = 2
    failed: bool = False
    #: Failure/locality domain; traffic between racks crosses the
    #: aggregation network (rack 0 by default: a single-rack cluster).
    rack: int = 0

    def performance(self, metric: str = "cpu_speed") -> float:
        """The scalar performance measurement used for weight assignment."""
        if metric == "cpu_speed":
            return self.cpu_speed
        if metric == "disk_bandwidth":
            return self.disk_bandwidth
        if metric == "network_bandwidth":
            return self.network_bandwidth
        raise ValueError(f"unknown performance metric {metric!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "FAILED" if self.failed else "up"
        return f"Server({self.server_id}, cpu={self.cpu_speed}, {state})"
