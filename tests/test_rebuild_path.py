"""One way to rebuild lost rows.

Degraded whole-file reads, extents, ``RepairManager`` (and so scrub heals)
and the serving gateway all rebuild rows ``row0 .. row0 + nrows`` of a lost
block the same way: read the helper rows ``plan.helper_rows.reads(row0,
nrows)`` names, and apply ``plan.helper_rows.plan(row0, nrows)`` — one
compiled product per row range.  The first three are one routine,
``DistributedFileSystem._rebuild``, which reads through
``_read_helper_rows`` (patched below on a twin that reads range by range); the
gateway drives its own rebuilds as tasks.  Checked here:

* the range plan is what the oracle (``tests/test_helper_rows.py``) says a
  row rebuild is, and for all ``N`` rows of a plan that names every helper
  row it *is* the compiled reconstruct;
* every rebuild path returns what ``ErasureCode.reconstruct`` returns from
  whole helper blocks, without calling it, and reads exactly the bytes the
  plan names;
* Reed-Solomon and Pyramid (``N = 1``: a row is the block) read what they
  read when degraded reads and repairs fetched whole helpers one
  ``client.get`` at a time: twin filesystems, one of them reading that
  way, end in the same state when a helper fails mid-rebuild;
* every code, Galloper included, reads what one ``client.read_rows`` per
  named range would read, in plan order, each rebuild stopping at its
  first unreadable helper: a whole-server repair whose lost blocks fall in
  several buckets, one batch for all of them, ends in the state of a twin
  reading range by range when a helper of a rebuild mid-batch fails.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes.base import ErasureCode
from repro.faults import FaultModel
from repro.faults.model import TransientErrors
from repro.gf import random_symbols
from repro.obs import Tracer, use_tracer
from repro.serving import GatewayConfig, ServingGateway
from repro.storage import BlockUnavailableError, DistributedFileSystem, RepairManager, Scrubber, StripedFileSystem
from tests.conftest import payload_bytes
from tests.test_read_batch import state
from tests.test_read_plan import FIELDS, code_matrix, field_matrix, make_code


def _refuse(*args, **kwargs):
    """Patched over ``ErasureCode.reconstruct`` once the expected blocks are in hand."""
    raise AssertionError("ErasureCode.reconstruct is not a rebuild path")


# ------------------------------------------------------------ the range plan


@code_matrix
@field_matrix
def test_one_plan_per_row_range(code_name, field):
    code = make_code(code_name, field)
    blocks = code.encode(random_symbols(code.gf, (code.data_stripe_total, 9), seed=3))
    for target in range(code.n):
        plan = code.repair_plan(target, {target})
        helper_rows = plan.helper_rows
        whole = helper_rows.plan(0, code.N)
        compiled = code.compile_reconstruct(target, plan.helpers)
        names_every_row = all(f == 1.0 for f in plan.read_fractions.values())
        assert (whole is compiled) == names_every_row
        for row0 in range(code.N):
            for nrows in range(1, code.N - row0 + 1):
                reads = helper_rows.reads(row0, nrows)
                ranged = helper_rows.plan(row0, nrows)
                assert ranged is helper_rows.plan(row0, nrows)  # compiled once
                assert ranged.coeffs.shape == (nrows, sum(count for _, _, count in reads))
                chunks = [blocks[h, first : first + count] for h, first, count in reads]
                assert np.array_equal(
                    helper_rows.rebuild(row0, nrows, chunks), blocks[target, row0 : row0 + nrows]
                )


# --------------------------------------------- every path against the codes layer


def written(code, servers=None):
    """A file ``"f"`` on a fresh filesystem, and its blocks as written."""
    cluster = Cluster.homogeneous(servers or code.n + 5)
    dfs = DistributedFileSystem(cluster)
    ef = dfs.write_file("f", payload_bytes(code.data_stripe_total * 40 - 9, seed=code.n), code=code)
    originals = {b: np.array(dfs.store.get(ef.server_of(b), "f", b)) for b in range(code.n)}
    return cluster, dfs, ef, originals


def expected_rebuild(code, block: int, originals: dict) -> np.ndarray:
    plan = code.repair_plan(block, {block})
    rebuilt, _ = code.reconstruct(block, {h: originals[h] for h in plan.helpers}, plan)
    assert np.array_equal(rebuilt, originals[block])
    return rebuilt


@code_matrix
@field_matrix
def test_repair_manager_rebuilds_what_reconstruct_rebuilds(code_name, field, monkeypatch):
    code = make_code(code_name, field)
    cluster, dfs, ef, originals = written(code)
    expected = {b: expected_rebuild(code, b, originals) for b in range(code.n)}
    block_bytes = ef.block_size * code.gf.dtype.itemsize
    plans = {b: code.repair_plan(b, {b}) for b in range(code.n)}
    monkeypatch.setattr(ErasureCode, "reconstruct", _refuse)
    for block in range(code.n):
        victim = ef.server_of(block)
        cluster.fail(victim)
        before = dfs.metrics.total("disk_bytes_read")
        report = RepairManager(dfs).repair_block("f", block)
        assert report.bytes_read == dfs.metrics.total("disk_bytes_read") - before
        assert report.bytes_read == plans[block].bytes_read(block_bytes)
        assert np.array_equal(dfs.store.get(report.target_server, "f", block), expected[block]), block
        cluster.recover(victim)
        dfs.store.drop_server(victim)


@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper", "rotated"])
def test_a_scrub_heal_rebuilds_what_reconstruct_rebuilds(code_name, monkeypatch):
    code = make_code(code_name)
    _, dfs, ef, originals = written(code)
    for block in (0, code.n - 1):
        dfs.store.corrupt(ef.server_of(block), "f", block, offset=5)
    monkeypatch.setattr(ErasureCode, "reconstruct", _refuse)
    report = Scrubber(dfs).scrub()
    assert sorted(r.block for r in report.repairs) == [0, code.n - 1]
    for block in (0, code.n - 1):
        assert np.array_equal(dfs.store.get(ef.server_of(block), "f", block), originals[block])


@code_matrix
@field_matrix
def test_gateway_rebuilds_what_reconstruct_rebuilds(code_name, field, monkeypatch):
    code = make_code(code_name, field)
    cluster = Cluster.homogeneous(code.n + 5)
    gateway = ServingGateway(DistributedFileSystem(cluster), config=GatewayConfig())
    dfs = gateway.dfs
    names = [f"alpha/f{i}" for i in range(3)]
    for i, name in enumerate(names):
        gateway.put("alpha", f"f{i}", payload_bytes(code.data_stripe_total * 30 - i, seed=i), code=code)
    originals = {
        name: {b: np.array(dfs.store.get(dfs.file(name).server_of(b), name, b)) for b in range(code.n)}
        for name in names
    }
    lost = {name: dfs.file(name).blocks_on_server(0) for name in names}
    expected = {name: {b: expected_rebuild(code, b, originals[name]) for b in lost[name]} for name in names}
    cluster.fail(0)
    read_by_server: dict[int, float] = defaultdict(float)
    row_bytes = dfs.file(names[0]).stripe_size * code.gf.dtype.itemsize
    for name in names:
        ef = dfs.file(name)
        for b in lost[name]:
            for h, _, count in code.repair_plan(b, {b}).helper_rows.reads(0, code.N):
                read_by_server[ef.server_of(h)] += count * row_bytes
    monkeypatch.setattr(ErasureCode, "reconstruct", _refuse)
    gateway.metrics.reset()
    loop = gateway.loop
    assert loop.run_until_complete(loop.create_task(gateway.repair_server(0))) == sum(map(len, lost.values()))
    assert gateway.metrics.by_server("disk_bytes_read") == read_by_server
    for name in names:
        ef = dfs.file(name)
        for b in lost[name]:
            assert np.array_equal(dfs.store.get(ef.server_of(b), name, b), expected[name][b])


# ------------------------------------- RS and Pyramid read what they read before


def twin(code_name: str, field: str):
    """A plain and a striped file, block 0's server down and the server of
    the last helper of block 0's plan failing every read: the rebuild reads
    the other helpers, then gives up on that one (retries, backoff, breaker)."""
    code = make_code(code_name, field)
    helper = code.repair_plan(0, {0}).helpers[-1]
    assert code.block_infos[helper].data_stripes == 0  # a parity: no clean read touches it
    cluster = Cluster.homogeneous(3 * code.n)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    ef = dfs.write_file("plain", payload_bytes(code.data_stripe_total * 300 - 7, seed=1), code=code)
    block = code.N * 700
    sfs.write_file("striped", payload_bytes(3 * code.k * block - 101, seed=2), lambda: code, max_block_bytes=block)
    flaky = frozenset({ef.server_of(helper)})
    dfs.store.install_faults(FaultModel(TransientErrors(rate=1.0, servers=flaky), seed=5))
    cluster.fail(ef.server_of(0))
    return dfs, sfs


def read_helpers_one_get_at_a_time(dfs, monkeypatch):
    """The reads degraded reads and repairs made before they shared one
    batch: one ``client.get`` per helper, in plan order, stopping at the
    first that fails.  With ``N = 1`` every named range is a whole helper."""

    def one_at_a_time(entries):
        out = []
        for ef, reads in entries:
            assert all(first == 0 and count == ef.code.N == 1 for _, first, count in reads)
            got = []
            for h, _, _ in reads:
                try:
                    got.append(dfs.client.get(ef.server_of(h), ef.name, h))
                except BlockUnavailableError:
                    break
            out.append(got + [None] * (len(reads) - len(got)))
        return out

    monkeypatch.setattr(dfs, "_read_helper_rows", one_at_a_time)


def workload(dfs, sfs) -> list:
    """Degraded whole-file and extent reads, then a repair sweep."""
    out = [sfs.read_file("striped"), dfs.read_file("plain"), dfs.read_bytes("plain", 3, 500)]
    reports = RepairManager(dfs).repair_all()
    out.append([(r.file, r.block, r.helpers, r.bytes_read, r.target_server) for r in reports])
    out.append(dfs.read_file("plain"))
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("code_name", ["rs", "pyramid"])
def test_rs_and_pyramid_read_as_they_did_when_a_helper_fails_mid_rebuild(code_name, field, monkeypatch):
    batched, batched_sfs = twin(code_name, field)
    looped, looped_sfs = twin(code_name, field)
    read_helpers_one_get_at_a_time(looped, monkeypatch)
    tracer = Tracer()
    with use_tracer(tracer):
        got = workload(batched, batched_sfs)
    assert got == workload(looped, looped_sfs)
    assert state(batched) == state(looped)
    # The local rebuild read the first helpers, gave up on the flaky one
    # (retries, then its breaker) and the read decoded in full.
    counters = state(batched)["counters"]
    assert counters["retries"][0] > 0 and counters["breaker_opens"][0] > 0
    assert tracer.find("dfs.local_repair") and tracer.find("dfs.degraded_decode")


# ------------------------- a batch of rebuilds is its ranges one at a time


def read_helpers_one_range_at_a_time(dfs, monkeypatch):
    """The reference for a batch of rebuilds: one ``client.read_rows`` per
    named range, rebuild by rebuild in plan order, each rebuild stopping at
    its first range that cannot be read."""

    def one_at_a_time(entries):
        out = []
        for ef, reads in entries:
            got = []
            for h, first, count in reads:
                try:
                    got.append(dfs.client.read_rows(ef.server_of(h), ef.name, h, first, count))
                except BlockUnavailableError:
                    break
            out.append(got + [None] * (len(reads) - len(got)))
        return out

    monkeypatch.setattr(dfs, "_read_helper_rows", one_at_a_time)


def server_loss_twin(code_name: str, field: str):
    """A striped file over ``n + 2`` servers, so each group holds a different
    block on server 0; server 0 is down, and the server of one helper of a
    rebuild in the middle of the repair's batch fails every read.  Returns
    the filesystem, its striped filesystem, the rebuilds in batch order and
    the payload."""
    code = make_code(code_name, field)
    cluster = Cluster.homogeneous(code.n + 2)
    dfs = DistributedFileSystem(cluster)
    sfs = StripedFileSystem(dfs)
    block = code.N * 60
    payload = payload_bytes(9 * code.k * block - 55, seed=4)
    sfs.write_file("s", payload, lambda: code, max_block_bytes=block)
    lost = [(name, b) for name in dfs.list_files() for b in dfs.file(name).blocks_on_server(0)]
    plans = {b: code.repair_plan(b, {b}) for _, b in lost}
    buckets: dict[int, list] = {}
    for name, b in lost:
        buckets.setdefault(b, []).append(name)
    order = [(name, b) for b, names in buckets.items() for name in names]
    name, b = order[len(order) // 2]
    first_servers = {dfs.file(order[0][0]).server_of(h) for h in plans[order[0][1]].helpers}
    flaky = next(
        s for s in (dfs.file(name).server_of(h) for h in plans[b].helpers) if s not in first_servers
    )
    dfs.store.install_faults(FaultModel(TransientErrors(rate=1.0, servers=frozenset({flaky})), seed=5))
    cluster.fail(0)
    return dfs, sfs, order, payload


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("code_name", ["rs", "pyramid", "galloper", "rotated"])
def test_a_server_repair_reads_as_one_range_at_a_time_when_a_helper_fails_mid_batch(code_name, field, monkeypatch):
    batched, batched_sfs, order, payload = server_loss_twin(code_name, field)
    looped, looped_sfs, _, _ = server_loss_twin(code_name, field)
    assert len({b for _, b in order}) >= 3  # the lost blocks fall in three buckets or more
    read_helpers_one_range_at_a_time(looped, monkeypatch)

    def run(dfs) -> list:
        report = RepairManager(dfs).repair_server(0)
        return [(r.file, r.block, r.helpers, r.bytes_read_by_server, r.target_server) for r in report.reports]

    got = run(batched)
    assert got == run(looped)
    assert state(batched) == state(looped)
    assert batched_sfs.read_file("s") == looped_sfs.read_file("s") == payload
    # The rebuild mid-batch gave up on its flaky helper and was re-planned.
    counters = state(batched)["counters"]
    assert counters["repair_replans"][0] > 0 and counters["retries"][0] > 0
