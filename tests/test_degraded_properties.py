"""Erasure-pattern property tests for degraded reads under faults.

Every single- and double-erasure pattern — optionally with one extra
transiently-flaky helper — must yield byte-identical ``read_file`` and
``read_stripes`` results for RS, Pyramid and Galloper files, or raise
:class:`~repro.codes.base.DecodingError` when the survivors genuinely
cannot determine the data.  Silently wrong bytes are never acceptable.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import DecodingError
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.storage import DistributedFileSystem, RepairManager
from repro.storage.resilient import MAX_ATTEMPTS
from tests.conftest import payload_bytes

CODES = [
    ("rs", lambda: ReedSolomonCode(4, 2)),
    ("pyramid", lambda: PyramidCode(4, 2, 1)),
    ("galloper", lambda: GalloperCode(4, 2, 1)),
]
IDS = [c[0] for c in CODES]


def build(make_code, fault_model=None):
    code = make_code()
    cluster = Cluster.homogeneous(code.n + 2)
    dfs = DistributedFileSystem(cluster, fault_model=fault_model)
    payload = payload_bytes(9_000, seed=5)
    ef = dfs.write_file("f", payload, code=code)
    return cluster, dfs, ef, payload


def assert_byte_exact(dfs, ef, payload):
    assert dfs.read_file("f") == payload
    stripes = dfs.read_stripes("f", 0, ef.code.data_stripe_total)
    flat = stripes.reshape(-1)[: ef.original_size]
    assert flat.astype(np.uint8).tobytes() == payload


def flaky(*server_ids):
    return FaultModel(TransientErrors(rate=1.0, servers=frozenset(server_ids)))


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
def test_every_single_erasure_is_byte_exact(name, make):
    for b in range(make().n):
        cluster, dfs, ef, payload = build(make)
        cluster.fail(ef.server_of(b))
        assert_byte_exact(dfs, ef, payload)


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
def test_every_double_erasure_is_byte_exact_or_fails_loudly(name, make):
    n = make().n
    decodable = 0
    for b1, b2 in itertools.combinations(range(n), 2):
        cluster, dfs, ef, payload = build(make)
        cluster.fail(ef.server_of(b1))
        cluster.fail(ef.server_of(b2))
        survivors = [b for b in range(n) if b not in (b1, b2)]
        if ef.code.can_decode(survivors):
            decodable += 1
            assert_byte_exact(dfs, ef, payload)
        else:
            with pytest.raises(DecodingError):
                dfs.read_file("f")
    assert decodable > 0  # the sweep exercised real degraded decodes


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
def test_single_erasure_with_flaky_helper(name, make):
    """One crashed server plus one never-readable (transiently flaky)
    helper: the degraded read must route around both."""
    n = make().n
    for b in range(n):
        fb = (b + 1) % n
        probe = make()
        survivors = [x for x in range(n) if x not in (b, fb)]
        cluster, dfs, ef, payload = build(make)
        cluster.fail(ef.server_of(b))
        dfs.store.install_faults(flaky(ef.server_of(fb)), dfs.clock)
        if probe.can_decode(survivors):
            assert_byte_exact(dfs, ef, payload)
        else:
            with pytest.raises(DecodingError):
                dfs.read_file("f")


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
def test_double_erasure_with_flaky_helper_never_lies(name, make):
    """Three effective failures may be unrecoverable — but must never
    produce wrong bytes."""
    n = make().n
    for b1, b2 in itertools.combinations(range(n), 2):
        fb = next(x for x in range(n) if x not in (b1, b2))
        cluster, dfs, ef, payload = build(make)
        cluster.fail(ef.server_of(b1))
        cluster.fail(ef.server_of(b2))
        dfs.store.install_faults(flaky(ef.server_of(fb)), dfs.clock)
        try:
            data = dfs.read_file("f")
        except DecodingError:
            continue
        assert data == payload


def test_flaky_helper_triggers_decode_replan():
    cluster, dfs, ef, payload = build(lambda: ReedSolomonCode(4, 2))
    cluster.fail(ef.server_of(0))
    dfs.store.install_faults(flaky(ef.server_of(1)), dfs.clock)
    assert dfs.read_file("f") == payload
    assert dfs.metrics.total("decode_replans") >= 1
    assert dfs.metrics.total("retries") >= 1


def test_decode_replan_keeps_the_survivors_it_read():
    """A survivor that cannot be read stops the decode's batch: the
    survivors after it are not attempted. It is excluded, and the
    re-planned decode reads only what it has not read yet: every other
    block once, counted by ``blocks_read`` per server."""
    cluster, dfs, ef, payload = build(lambda: ReedSolomonCode(4, 3))
    cluster.fail(ef.server_of(0))
    cluster.fail(ef.server_of(1))  # two lost data blocks: a full decode off blocks 2, 3, 4, 5
    dfs.store.install_faults(flaky(ef.server_of(4)), dfs.clock)  # the first parity the plan names
    assert dfs.read_file("f") == payload
    assert dfs.metrics.total("decode_replans") == 1
    reads = Counter({2: 2, 3: 2})  # data blocks: once by the file's runs, once by the decode
    reads[4] = MAX_ATTEMPTS  # every try of the unreadable one, and no second read
    reads.update({5: 1, 6: 1})  # after it: not tried in the failed batch, read once on the re-plan
    assert dfs.metrics.by_server("blocks_read") == {ef.server_of(b): n for b, n in reads.items()}


@pytest.mark.parametrize("name,make", CODES, ids=IDS)
def test_repair_replans_around_flaky_helper(name, make):
    """A repair whose helper read exhausts its retries re-plans with a
    different helper set and still rebuilds the exact block."""
    cluster, dfs, ef, payload = build(make)
    lost = 0
    dead_server = ef.server_of(lost)
    expected = dfs.store.get(dead_server, "f", lost).copy()
    cluster.fail(dead_server)
    # Make one likely helper permanently flaky (but not crashed).
    helpers = [b for b in range(ef.code.n) if b != lost]
    flaky_block = helpers[0]
    dfs.store.install_faults(flaky(ef.server_of(flaky_block)), dfs.clock)
    repair = RepairManager(dfs)
    report = repair.repair_block("f", lost)
    assert flaky_block not in report.helpers
    rebuilt = dfs.store.get(report.target_server, "f", lost)
    assert np.array_equal(rebuilt, expected)
    assert_byte_exact(dfs, ef, payload)
