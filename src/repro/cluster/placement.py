"""Block placement policies.

A placement maps the ``n`` blocks of a codeword to distinct servers (the
standard fault-isolation rule: one block of a stripe per server).  The
performance-aware policy additionally pairs heavy blocks with fast
servers, which is how a Galloper deployment realizes its weights: weights
are computed *for* a server order, so the placement and the weight
assignment must agree — :func:`repro.storage.filesystem.DistributedFileSystem.write_file`
wires the two together.
"""

from __future__ import annotations

import abc
import math
import random
from collections.abc import Sequence

from repro.cluster.topology import Cluster, ClusterError


class PlacementError(ClusterError):
    """Raised when blocks cannot be placed."""


class PlacementPolicy(abc.ABC):
    """Strategy choosing which server stores each block of a codeword."""

    @abc.abstractmethod
    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        """Return ``num_blocks`` distinct alive server ids, block order."""

    @staticmethod
    def _require(cluster: Cluster, num_blocks: int) -> list[int]:
        alive = cluster.alive_ids()
        if len(alive) < num_blocks:
            raise PlacementError(
                f"need {num_blocks} servers for one block each, only {len(alive)} alive"
            )
        return alive


class RoundRobinPlacement(PlacementPolicy):
    """Deterministic: the first ``n`` alive servers, optionally offset."""

    def __init__(self, offset: int = 0):
        self.offset = offset

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        return _round_robin(cluster, num_blocks, [self.offset])[0]


def _round_robin(cluster: Cluster, num_blocks: int, offsets) -> list[list[int]]:
    """:class:`RoundRobinPlacement` at each of ``offsets``, all from one
    ``alive_ids()``: ``num_blocks`` alive servers from ``offset`` on,
    wrapping round."""
    alive = PlacementPolicy._require(cluster, num_blocks)
    ring = alive + alive
    return [ring[offset % len(alive) : offset % len(alive) + num_blocks] for offset in offsets]


class RandomPlacement(PlacementPolicy):
    """Uniformly random distinct servers, seeded for reproducibility."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        alive = self._require(cluster, num_blocks)
        return self._rng.sample(alive, num_blocks)


class SpreadPlacement(PlacementPolicy):
    """Maximal rack diversity: blocks round-robin across racks.

    The HDFS-style durability placement — no rack holds more blocks of a
    stripe than it must (``ceil(n / num_racks)``), so a correlated rack
    event destroys the fewest possible blocks of any one stripe.  This
    is the opposite trade from :class:`RackAwarePlacement`, which
    co-locates repair groups for cheap group-local repair traffic; the
    reliability campaign measures both sides of that trade.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        self._require(cluster, num_blocks)
        pools = {r: sorted(sids) for r, sids in cluster.racks().items()}
        order = sorted(pools)
        self._rng.shuffle(order)
        chosen: list[int] = []
        while len(chosen) < num_blocks:
            for rack in order:
                pool = pools[rack]
                if pool and len(chosen) < num_blocks:
                    chosen.append(pool.pop(self._rng.randrange(len(pool))))
        return chosen


class CopysetPlacement(PlacementPolicy):
    """Bounded scatter width via permutation copysets (Cidon et al.).

    Random placement scatters each server's co-stored data over the
    whole cluster, so *any* simultaneous loss of ``n`` disks almost
    surely kills some stripe.  Copyset placement pre-partitions the
    servers into a small set of size-``n`` *copysets* and places every
    stripe wholly inside one of them: simultaneous failures lose data
    only when they cover an entire copyset, making loss events much
    rarer (at the price of losing more stripes when one does hit).

    ``scatter_width`` bounds how many distinct servers share data with
    any given server (``S = p * (n - 1)`` after ``p`` permutations).
    With ``rack_isolated=True`` permutations interleave racks so each
    copyset also spans as many racks as possible — combining copyset
    loss-frequency behaviour with rack-event tolerance.

    Copysets are built lazily per (alive-set, n) and cached, so every
    stripe placed against an unchanged cluster draws from the same
    partition — that invariant *is* the policy.
    """

    def __init__(self, scatter_width: int = 2, seed: int = 0, rack_isolated: bool = True):
        if scatter_width < 1:
            raise ValueError(f"scatter_width must be >= 1, got {scatter_width}")
        self.scatter_width = scatter_width
        self.rack_isolated = rack_isolated
        self._rng = random.Random(seed)
        self._cache_key: tuple | None = None
        self._copysets: list[tuple[int, ...]] = []

    def copysets(self, cluster: Cluster, num_blocks: int) -> list[tuple[int, ...]]:
        """The copyset partition for the cluster's current alive set."""
        alive = self._require(cluster, num_blocks)
        key = (tuple(alive), num_blocks)
        if key != self._cache_key:
            self._copysets = self._build(cluster, alive, num_blocks)
            self._cache_key = key
        return self._copysets

    def _permutation(self, cluster: Cluster, alive: list[int]) -> list[int]:
        if not self.rack_isolated:
            perm = list(alive)
            self._rng.shuffle(perm)
            return perm
        by_rack: dict[int, list[int]] = {}
        for sid in alive:
            by_rack.setdefault(cluster.server(sid).rack, []).append(sid)
        racks = sorted(by_rack)
        self._rng.shuffle(racks)
        for r in racks:
            self._rng.shuffle(by_rack[r])
        # Interleave racks so consecutive chunks span distinct racks.
        perm: list[int] = []
        while any(by_rack.values()):
            for r in racks:
                if by_rack[r]:
                    perm.append(by_rack[r].pop())
        return perm

    def _build(self, cluster: Cluster, alive: list[int], num_blocks: int) -> list[tuple[int, ...]]:
        if num_blocks < 2:
            raise PlacementError("copysets need stripes of at least 2 blocks")
        permutations = max(1, math.ceil(self.scatter_width / (num_blocks - 1)))
        sets: list[tuple[int, ...]] = []
        for _ in range(permutations):
            perm = self._permutation(cluster, alive)
            for i in range(0, len(perm) - num_blocks + 1, num_blocks):
                sets.append(tuple(perm[i : i + num_blocks]))
        if not sets:  # pragma: no cover - _require guarantees len(alive) >= n
            raise PlacementError(f"cluster too small for copysets of {num_blocks}")
        return sets

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        return list(self._rng.choice(self.copysets(cluster, num_blocks)))


class GroupAwarePlacement(PlacementPolicy):
    """Balance server speeds *across* repair groups.

    The Galloper weight LP is constrained per group (``w_ig <= 1``): a
    group made entirely of fast servers cannot absorb their proportional
    share of data, so its members get throttled (see the fig. 10
    experiments).  Dealing the speed-ranked servers across groups
    snake-draft style equalizes group performance sums, which loosens the
    group constraints and lets weights track server speed more closely.

    The policy needs the code's group geometry: pass the
    :class:`~repro.codes.structure.LRCStructure` the file will use.
    """

    def __init__(self, structure, metric: str = "cpu_speed"):
        self.structure = structure
        self.metric = metric

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        st = self.structure
        if num_blocks != st.n:
            raise PlacementError(
                f"structure has {st.n} blocks but placement asked for {num_blocks}"
            )
        alive = self._require(cluster, num_blocks)
        ranked = sorted(
            alive, key=lambda sid: (-cluster.server(sid).performance(self.metric), sid)
        )[:num_blocks]
        # Seats: each repair group's member slots, plus ungrouped slots.
        groups = [st.group_members(j) for j in range(st.num_repair_groups)]
        ungrouped = [b for b in range(st.n) if st.group_of(b) is None]
        assignment: dict[int, int] = {}
        # Snake-deal the fastest servers across groups, filling each
        # group's data members before its parity slot.
        seats: list[list[int]] = [list(g) for g in groups]
        idx = 0
        direction = 1
        for sid in ranked:
            if not any(seats):
                break
            # Find the next group (snake order) with a free seat.
            for _ in range(len(seats) + 1):
                if seats and 0 <= idx < len(seats) and seats[idx]:
                    break
                idx += direction
                if idx >= len(seats):
                    idx, direction = len(seats) - 1, -1
                elif idx < 0:
                    idx, direction = 0, 1
            else:
                break
            if not seats[idx]:
                # All groups full; remaining servers go to ungrouped seats.
                break
            assignment[seats[idx].pop(0)] = sid
            idx += direction
            if idx >= len(seats):
                idx, direction = len(seats) - 1, -1
            elif idx < 0:
                idx, direction = 0, 1
        remaining = [sid for sid in ranked if sid not in assignment.values()]
        for b in ungrouped + [b for g in seats for b in g]:
            if b not in assignment:
                assignment[b] = remaining.pop(0)
        return [assignment[b] for b in range(st.n)]


class RackAwarePlacement(PlacementPolicy):
    """Co-locate each repair group in one rack; spread groups over racks.

    The standard deployment guidance for locally repairable codes: a
    group-local repair then never crosses the rack aggregation switch
    (all its helpers share the failed block's rack... more precisely the
    group's rack), while distinct groups — which only interact during
    rare multi-failure decodes — live in different racks, preserving
    rack-level failure tolerance for the common single-group loss.

    Global parity blocks (and the GP group under all-symbol locality) go
    to yet another rack when one is available.
    """

    def __init__(self, structure):
        self.structure = structure

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        st = self.structure
        if num_blocks != st.n:
            raise PlacementError(
                f"structure has {st.n} blocks but placement asked for {num_blocks}"
            )
        racks = cluster.racks()
        rack_ids = sorted(racks, key=lambda r: -len(racks[r]))
        groups = [st.group_members(j) for j in range(st.num_repair_groups)]
        ungrouped = [b for b in range(st.n) if st.group_of(b) is None]
        units: list[list[int]] = groups + ([ungrouped] if ungrouped else [])

        assignment: dict[int, int] = {}
        used: set[int] = set()
        for i, unit in enumerate(units):
            # Find a rack (starting from the i-th) with room.
            placed = False
            for attempt in range(len(rack_ids)):
                candidate = rack_ids[(i + attempt) % len(rack_ids)]
                free = [s for s in racks[candidate] if s not in used]
                if len(free) >= len(unit):
                    for b, sid in zip(unit, free):
                        assignment[b] = sid
                        used.add(sid)
                    placed = True
                    break
            if not placed:
                raise PlacementError(
                    f"no rack has {len(unit)} free servers for repair group {i}"
                )
        return [assignment[b] for b in range(st.n)]


class PerformanceAwarePlacement(PlacementPolicy):
    """Fast servers first — matched to weight-sorted blocks.

    Galloper weight assignment gives heavier blocks to faster servers;
    this policy returns alive servers sorted by descending performance so
    that block ``i``'s weight is computed from the server that will
    actually store it.  The paper additionally suggests placing global
    parity blocks on the *slowest* servers (Sec. VII-A): the codes' block
    order (data/local first, global parity last) lines up with the speed
    ranking.
    """

    def __init__(self, metric: str = "cpu_speed"):
        self.metric = metric

    def place(self, cluster: Cluster, num_blocks: int) -> list[int]:
        alive = self._require(cluster, num_blocks)
        ranked = sorted(
            alive,
            key=lambda sid: (-cluster.server(sid).performance(self.metric), sid),
        )
        return ranked[:num_blocks]
