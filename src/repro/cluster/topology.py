"""Cluster: the set of servers blocks are placed on."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.cluster.server import MB, Server


class ClusterError(RuntimeError):
    """Raised on invalid cluster operations."""


class Cluster:
    """A fixed set of servers with crash/recover state.

    Construction helpers:

    * :meth:`homogeneous` — ``n`` identical servers.
    * :meth:`heterogeneous` — servers with explicit cpu speeds (the
      paper's Fig. 10 throttles some servers to 40%).
    """

    def __init__(self, servers: Sequence[Server]):
        ids = [s.server_id for s in servers]
        if len(set(ids)) != len(ids):
            raise ClusterError("duplicate server ids")
        self.servers: dict[int, Server] = {s.server_id: s for s in servers}
        # Every server in id order, sorted once.
        self._by_id: list[Server] = sorted(self.servers.values(), key=lambda s: s.server_id)

    # ------------------------------------------------------------ factories

    @classmethod
    def homogeneous(cls, n: int, **server_kwargs) -> "Cluster":
        return cls([Server(server_id=i, **server_kwargs) for i in range(n)])

    @classmethod
    def heterogeneous(cls, cpu_speeds: Iterable[float], **server_kwargs) -> "Cluster":
        return cls(
            [Server(server_id=i, cpu_speed=s, **server_kwargs) for i, s in enumerate(cpu_speeds)]
        )

    @classmethod
    def racked(cls, num_racks: int, servers_per_rack: int, **server_kwargs) -> "Cluster":
        """``num_racks`` racks of identical servers."""
        servers = []
        for r in range(num_racks):
            for i in range(servers_per_rack):
                servers.append(Server(server_id=r * servers_per_rack + i, rack=r, **server_kwargs))
        return cls(servers)

    def racks(self) -> dict[int, list[int]]:
        """Alive server ids grouped by rack."""
        out: dict[int, list[int]] = {}
        for s in self.alive():
            out.setdefault(s.rack, []).append(s.server_id)
        return out

    # ------------------------------------------------------------- accessors

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self):
        return iter(self.servers.values())

    def server(self, server_id: int) -> Server:
        try:
            return self.servers[server_id]
        except KeyError:
            raise ClusterError(f"no server {server_id}") from None

    def alive(self) -> list[Server]:
        """Servers currently up, in id order."""
        return [s for s in self._by_id if not s.failed]

    def alive_ids(self) -> list[int]:
        return [s.server_id for s in self.alive()]

    def performance_vector(self, server_ids: Sequence[int], metric: str = "cpu_speed") -> list[float]:
        """Performance measurements for specific servers, in the given order.

        This is the vector fed to Galloper weight assignment: entry ``i``
        is the performance of the server that will store block ``i``.
        """
        return [self.server(sid).performance(metric) for sid in server_ids]

    # ------------------------------------------------------------- failures

    def fail(self, server_id: int) -> None:
        srv = self.server(server_id)
        if srv.failed:
            raise ClusterError(f"server {server_id} already failed")
        srv.failed = True

    def recover(self, server_id: int) -> None:
        srv = self.server(server_id)
        if not srv.failed:
            raise ClusterError(f"server {server_id} is not failed")
        srv.failed = False


DEFAULT_BLOCK_SIZE = 64 * MB
