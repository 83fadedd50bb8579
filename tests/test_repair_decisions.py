"""Repair decisions, pinned.

A seeded rack-aware cluster holds one striped file (Galloper groups on
rotating servers) and one plain file (Pyramid, one repair group per rack).
One whole server is lost and rebuilt with ``repair_server``; then two more
servers, which share a repair group of the plain file, are lost and swept
with ``repair_all``.  Every report — which blocks were rebuilt, from which
helpers, how many bytes each server gave, where the block went and how much
crossed a rack — is pinned in order, with the repair counters and the clock.
How a repair is batched is free to change; none of its decisions are.
"""

import random

from repro.cluster import Cluster, RackAwarePlacement
from repro.cluster.server import MB, Server
from repro.codes import LRCStructure, PyramidCode
from repro.core import GalloperCode
from repro.storage import DistributedFileSystem, RepairManager, StripedFileSystem
from tests.conftest import payload_bytes

COUNTERS = (
    "reconstructions", "repair_replans",
    "disk_bytes_read", "blocks_read", "disk_bytes_written", "blocks_written",
)


def decisions():
    """Run the two losses; returns the reports and counters after each, and
    checks both files read back byte-exact at the end."""
    rng = random.Random(2018)
    cluster = Cluster([
        Server(server_id=r * 6 + i, rack=r, disk_bandwidth=rng.choice((60, 100, 140)) * MB)
        for r in range(4)
        for i in range(6)
    ])
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    striped = payload_bytes(6 * 4 * 7 * 300 + 1_234, seed=5)
    sfs.write_file("s", striped, lambda: GalloperCode(4, 2, 1), max_block_bytes=7 * 300)
    plain = payload_bytes(4 * 2_000 - 11, seed=6)
    ef = dfs.write_file(
        "p", plain, code=PyramidCode(4, 2, 1), placement=RackAwarePlacement(LRCStructure(4, 2, 1))
    )
    manager = RepairManager(dfs)

    def pinned(reports):
        return {
            "reports": [
                (r.file, r.block, r.helpers, r.bytes_read_by_server, r.target_server, r.cross_rack_bytes)
                for r in reports
            ],
            "counters": {name: dfs.metrics.total(name) for name in COUNTERS},
            "clock": dfs.clock.now.hex(),
        }

    victim = ef.server_of(0)
    cluster.fail(victim)
    out = [pinned(manager.repair_server(victim).reports)]
    for block in (1, 2):
        cluster.fail(ef.server_of(block))
    out.append(pinned(manager.repair_all()))
    assert sfs.read_file("s") == striped
    assert dfs.read_file("p") == plain
    return out


PINNED = [{'reports': [('p', 0, (1, 2), {1: 1998, 2: 1998}, 3, 0),
                       ('s#g0000', 0, (1, 2), {1: 2100, 2: 2100}, 7, 4200),
                       ('s#g0003', 3, (4, 5), {1: 2100, 2: 2100}, 4, 0),
                       ('s#g0006', 6, (0, 1, 4, 3), {18: 315, 19: 315, 22: 315, 21: 315}, 1, 1260)],
           'counters': {'reconstructions': 4.0,
                        'repair_replans': 0.0,
                        'disk_bytes_read': 13656.0,
                        'blocks_read': 10.0,
                        'disk_bytes_written': 110904.0,
                        'blocks_written': 60.0},
           'clock': '0x1.b100000000000p-13'},
          {'reports': [('p', 1, (3, 0, 4, 6), {6: 1998, 3: 1998, 7: 1998, 12: 1998}, 4, 5994),
                       ('p', 2, (3, 0, 4, 6), {6: 1998, 3: 1998, 7: 1998, 12: 1998}, 5, 5994),
                       ('s#g0000', 1, (4, 0, 3, 6), {4: 2100, 7: 2100, 3: 2100, 6: 2100}, 8, 4200),
                       ('s#g0000', 2, (4, 0, 3, 6), {4: 2100, 7: 2100, 3: 2100, 6: 2100}, 9, 4200),
                       ('s#g0003', 4, (1, 3, 0, 6), {22: 2100, 4: 2100, 21: 2100, 3: 2100}, 5, 4200),
                       ('s#g0003', 5, (1, 3, 0, 6), {22: 2100, 4: 2100, 21: 2100, 3: 2100}, 6, 8400),
                       ('s#g0006', 6, (0, 1, 4, 3), {18: 315, 19: 315, 22: 315, 21: 315}, 3, 1260)],
           'counters': {'reconstructions': 11.0,
                        'repair_replans': 0.0,
                        'disk_bytes_read': 64500.0,
                        'blocks_read': 38.0,
                        'disk_bytes_written': 123615.0,
                        'blocks_written': 67.0},
           'clock': '0x1.58bb3ee721a55p-11'}]


def test_repair_decisions_are_pinned():
    assert decisions() == PINNED
