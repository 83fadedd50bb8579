"""Every rebuild of lost rows, pinned.

Degraded reads (a whole striped file, an extent across two stripe groups),
a whole-server repair that re-plans around a helper failing every read,
and a scrub heal all rebuild lost rows from helper rows.  For RS(4,3),
Pyramid(4,2,1) and Galloper(4,2,1) over GF(2^8) and GF(2^16), each
scenario runs on a seeded cluster and is reduced to one SHA-256 over a
canonical dump of:

* the helper ranges ``DistributedFileSystem._read_helper_rows`` is handed,
  call by call and in order;
* every stored block's bytes and row CRCs, by server;
* every file's placement;
* the ``RepairReport`` of every rebuilt block, in order;
* every counter (total and by server), the read-latency samples, every
  breaker's state and the DFS clock.

The digests were recorded before the rebuild paths were merged into one
routine; how rebuilds are batched is free to change, what they read,
store and report is not.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster import Cluster
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.storage import DistributedFileSystem, RepairManager, Scrubber, StripedFileSystem
from repro.storage.striped import group_name
from tests.conftest import payload_bytes
from tests.test_read_batch import health_state
from tests.test_read_plan import make_code

CODES = ("rs", "pyramid", "galloper")
FIELDS = ("gf8", "gf16")
#: Group ``g`` of the striped file is placed round-robin from server ``7 g``:
#: the even groups on servers 0-6, the odd ones on 7-13, block ``b`` on
#: server ``b`` or ``7 + b`` — so one lost server costs three groups the
#: same block, and every file has seven spares.
SERVERS = 14
GROUPS = 6


def setup(code_name, field, fault_model=None):
    """A striped file of ``GROUPS`` groups and a plain file on a fresh DFS,
    with every ``_read_helper_rows`` call recorded."""
    code = make_code(code_name, field)
    cluster = Cluster.homogeneous(SERVERS)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    sfs = StripedFileSystem(dfs)
    block = code.N * 60
    striped = payload_bytes(GROUPS * code.k * block - 37, seed=41)
    sfs.write_file("s", striped, lambda: code, max_block_bytes=block)
    plain = payload_bytes(code.data_stripe_total * 90 - 5, seed=42)
    dfs.write_file("p", plain, code=code)
    calls = []
    read_helper_rows = dfs._read_helper_rows

    def recorded(entries):
        calls.append([(ef.name, [list(r) for r in reads]) for ef, reads in entries])
        return read_helper_rows(entries)

    dfs._read_helper_rows = recorded
    return cluster, dfs, sfs, {"s": striped, "p": plain}, calls


def dump(dfs, calls, reports) -> str:
    """SHA-256 of the canonical dump the module docstring lists."""
    metrics = dfs.metrics
    state = {
        "helper_reads": calls,
        "stored": [
            [server, name, block, [int(c) for c in crcs], str(data.dtype), list(data.shape), data.tobytes().hex()]
            for server, disk in sorted(dfs.store._disks.items())
            for (name, block), (crcs, data, _) in sorted(disk.items())
        ],
        "placements": {name: sorted(ef.placement.items()) for name, ef in sorted(dfs.files.items())},
        "reports": [dataclasses.asdict(r) for r in reports],
        "counters": {
            name: [total, sorted(metrics.by_server(name).items())]
            for name, total in metrics.snapshot().items()
            if name != "plan_cache_hits"
        },
        "latencies": list(metrics.histogram("read_latency_s")._values),
        "health": health_state(dfs.health),
        "clock": dfs.clock.now.hex(),
    }
    text = json.dumps(state, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def degraded_read(code_name, field):
    """Server 0 down; the whole striped file read back."""
    cluster, dfs, sfs, payloads, calls = setup(code_name, field)
    cluster.fail(0)
    assert sfs.read_file("s") == payloads["s"]
    assert dfs.metrics.total("degraded_reads") > 0
    return dump(dfs, calls, [])


def degraded_extent(code_name, field):
    """The block holding a group's last stripe lost in groups 0 and 1; an
    extent from the middle of group 0 to the middle of group 1."""
    cluster, dfs, sfs, payloads, calls = setup(code_name, field)
    last = make_code(code_name, field).read_plan().runs[-1][0]
    cluster.fail(last)
    cluster.fail(7 + last)
    size = sfs.striped["s"].group_payload
    lo, hi = size // 2 - 1, size + size // 2 + 1
    assert sfs.read_bytes("s", lo, hi - lo) == payloads["s"][lo:hi]
    assert dfs.metrics.total("degraded_reads") > 0
    return dump(dfs, calls, [])


def repair_with_a_bad_helper(code_name, field):
    """A whole-server repair whose first-choice helper fails every read."""
    bad = make_code(code_name, field).repair_plan(0, {0}).helpers[0]
    fm = FaultModel(TransientErrors(rate=1.0, servers=frozenset({bad})), seed=7)
    cluster, dfs, sfs, payloads, calls = setup(code_name, field, fm)
    cluster.fail(0)
    reports = RepairManager(dfs).repair_server(0).reports
    assert dfs.metrics.total("repair_replans") > 0
    assert sfs.read_file("s") == payloads["s"] and dfs.read_file("p") == payloads["p"]
    return dump(dfs, calls, reports)


def scrub_heal(code_name, field):
    """Rot in two blocks of two groups and one of the plain file; one scrub heals them."""
    cluster, dfs, sfs, payloads, calls = setup(code_name, field)
    for name, block in ((group_name("s", 1), 0), (group_name("s", 3), 0), ("p", 2)):
        ef = dfs.file(name)
        dfs.store.corrupt(ef.server_of(block), name, block, offset=13)
    report = Scrubber(dfs).scrub()
    assert len(report.repairs) == 3 and report.reverified == 3
    assert sfs.read_file("s") == payloads["s"] and dfs.read_file("p") == payloads["p"]
    return dump(dfs, calls, report.repairs)


SCENARIOS = {
    "degraded_read": degraded_read,
    "degraded_extent": degraded_extent,
    "repair_with_a_bad_helper": repair_with_a_bad_helper,
    "scrub_heal": scrub_heal,
}

PINNED = {
    ('rs', 'gf8', 'degraded_read'): '838e6a18e80d54a77721d1552ac355fca35273605446fa4e9bf82e9ef526f1ee',
    ('rs', 'gf8', 'degraded_extent'): '8901fe1be8f5a1545a5c71ec44ba0c03fcacfa792e85d044ae231b4fbd95443b',
    ('rs', 'gf8', 'repair_with_a_bad_helper'): '3312483c4e43cded0478e168cff425076d6dd6ab30c32ec3a1740cee543ddeea',
    ('rs', 'gf8', 'scrub_heal'): 'a66b17cbded9b55c140f4107973549db4e625fa4b868880b77277a3c883da338',
    ('rs', 'gf16', 'degraded_read'): 'c532e442d70fb52f4a40ab532a22a879b2f4394c3c99e82b80d9e3475a9d51ca',
    ('rs', 'gf16', 'degraded_extent'): '0c90d436686af6cc90be76a792dade12efa79d93a93e0e69ff485fdacddd8ba4',
    ('rs', 'gf16', 'repair_with_a_bad_helper'): '5f9a65a07680cbbdcf62018dc6f4e8364472204a96341a5c080f26cc69b111e4',
    ('rs', 'gf16', 'scrub_heal'): '9f175c4a28b67351002252e1dd15ac931963deadbb9710b1ec8b088ca7212e31',
    ('pyramid', 'gf8', 'degraded_read'): 'a9f29a7affa8804150424daeb7a3bd3d30cda22139fae7ea4ff87454ee1abbe2',
    ('pyramid', 'gf8', 'degraded_extent'): 'ebaaa6d0e5226a68efa6858c44c77bd306dbe89313855c5fc7396256d772d2bd',
    ('pyramid', 'gf8', 'repair_with_a_bad_helper'): 'aed9ae7421112f6fd0e600ac86c391da634efcd1d102af6458752952b008f6ab',
    ('pyramid', 'gf8', 'scrub_heal'): '75dbe4bc26622e75c1c2f0cf3018967345d22f5fb183dc8772f64a8bf8b35388',
    ('pyramid', 'gf16', 'degraded_read'): 'f48d8b929706117afe5fad69f646851f52acba473e198c51cf33c81b662e507a',
    ('pyramid', 'gf16', 'degraded_extent'): 'af5ca551d9c104e731b20de1c440549af0c0353ac4492a8c5c9e60b95c408823',
    ('pyramid', 'gf16', 'repair_with_a_bad_helper'): 'd7069a8a59574fc9b3cf99bfac700f9c92759645f3482df89a54170d34abd489',
    ('pyramid', 'gf16', 'scrub_heal'): 'b9fe341b285280cd9f71066cc59dc780276d5588b1dd13ba36d788e292d031f9',
    ('galloper', 'gf8', 'degraded_read'): '0bebb73f5facf6ebaebb0794f0feeb754f2587dd7217a78fd568c38eafa1e1a6',
    ('galloper', 'gf8', 'degraded_extent'): '3fca04a18fb21394578da83855c1ff43d69cf30c10749cb6920271904e2e9f39',
    ('galloper', 'gf8', 'repair_with_a_bad_helper'): '1f549577857453a59660b6f4df399df451682cebd2fd9181e1c803fa1e8d21de',
    ('galloper', 'gf8', 'scrub_heal'): '05f1d3f1d1e998c784e926280f2085b10401bee4187c597549f672a557a20308',
    ('galloper', 'gf16', 'degraded_read'): '61f8797544a2944effb9e0c4cdf7f0c5a193b695859319950868d498ef9a3792',
    ('galloper', 'gf16', 'degraded_extent'): '5b0c261c39a6d9611a2a6e0737e1a609010a77a0619588d96ae46b6b24605326',
    ('galloper', 'gf16', 'repair_with_a_bad_helper'): '7dac8aaf89c44669b71bf4d331b4b6a878b3364f168027251e963601b04313e5',
    ('galloper', 'gf16', 'scrub_heal'): 'c5d2b4ddd46ed4ca04c65ae2233c44992c5155c38260c20b4252a54963ac1579',
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("code_name", CODES)
def test_rebuilds_are_pinned(code_name, field, scenario):
    assert SCENARIOS[scenario](code_name, field) == PINNED[code_name, field, scenario]
