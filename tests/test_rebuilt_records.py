"""What a whole-server repair stores.

A repair rebuilds each bucket of same-pattern lost blocks in one native
kernel call that folds the CRC-32 of every rebuilt row, and stores the
bucket's blocks as one parent with those CRCs: the store hashes nothing
again.  After a ``striped_io``-shaped ``repair_server`` (many 16 KiB-block
groups and a ragged tail, one lost server) of each code, checked here:

* every rebuilt record's CRCs are ``zlib.crc32`` of its stored rows, and
  ``BlockStore.verify`` passes;
* the stored records, the placements and the reports are the same with
  the native backend and without it (``REPRO_NATIVE_DISABLE=1``: numpy
  tiers, ``zlib`` CRCs);
* rotting one rebuilt block of a bucket fails that block's verified read
  and scrub, and no other block of its bucket's.
"""

import zlib

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.gf import native as nat
from repro.storage import DistributedFileSystem, RepairManager, StripedFileSystem, TransientReadError
from tests.conftest import payload_bytes

CODES = {
    "rs": lambda: ReedSolomonCode(4, 3),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
}
BLOCK_BYTES = (16 << 10) // 7 * 7
GROUPS = 64
TAIL = 3_001


def repaired(monkeypatch, name: str, native: bool):
    """Write, fail the server of group 0's block 0, rebuild it: the
    filesystem, the reports and the payload, with or without the native
    backend (bound by the store and by every plan while it is set)."""
    try:
        with monkeypatch.context() as env:  # the run's own setting comes back on exit
            if not native:
                env.setenv("REPRO_NATIVE_DISABLE", "1")
            nat.reset_native_backend()
            dfs = DistributedFileSystem(Cluster.homogeneous(30))
            sfs = StripedFileSystem(dfs)
            payload = payload_bytes(GROUPS * 4 * BLOCK_BYTES + TAIL, seed=47)
            code = CODES[name]()
            sfs.write_file("f", payload, lambda: code, max_block_bytes=BLOCK_BYTES)
            victim = dfs.file(sfs.file("f").group_names()[0]).server_of(0)
            dfs.cluster.fail(victim)
            reports = RepairManager(dfs).repair_server(victim).reports
    finally:
        nat.reset_native_backend()
    assert (dfs.store._crc_backend is not None) == native
    assert len(reports) >= 2 * code.n  # several buckets, several blocks each
    assert sfs.read_file("f") == payload
    return dfs, reports


def records(dfs) -> dict:
    """Every stored block: its row CRCs and bytes, per server."""
    return {
        (server, *key): (crcs, block.shape, block.tobytes())
        for server, disk in dfs.store._disks.items()
        for key, (crcs, block, _) in disk.items()
    }


@pytest.mark.parametrize("name", CODES)
def test_rebuilt_records_hold_their_rows_crcs_on_every_backend(monkeypatch, name):
    runs = [False]
    if nat.native_available() and nat.get_backend().has_crc32:
        runs.insert(0, True)
    seen = []
    for native in runs:
        dfs, reports = repaired(monkeypatch, name, native)
        for r in reports:
            crcs, block, where = dfs.store._disks[r.target_server][r.file, r.block]
            assert crcs == [zlib.crc32(row.tobytes()) for row in block]
            assert dfs.store.verify(r.target_server, r.file, r.block)
            assert (where is not None) == native
        placements = {name: dict(ef.placement) for name, ef in dfs.files.items()}
        seen.append((records(dfs), placements, reports))
    for other in seen[1:]:
        assert other == seen[0]


@pytest.mark.skipif(
    not (nat.native_available() and nat.get_backend().has_crc32), reason="needs the native CRC kernel"
)
@pytest.mark.parametrize("name", CODES)
def test_rot_in_a_bucket_fails_only_its_block(monkeypatch, name):
    dfs, reports = repaired(monkeypatch, name, True)
    store = dfs.store
    bucket = [r for r in reports if r.block == reports[0].block]
    blocks = [store._disks[r.target_server][r.file, r.block][1] for r in bucket]
    assert len(bucket) >= 2
    # The bucket's blocks lie end to end in one buffer, its parent.
    assert all(b.base is blocks[0].base and b.flags.c_contiguous for b in blocks)
    starts = [b.__array_interface__["data"][0] for b in blocks]
    assert [s - starts[0] for s in starts] == list(np.cumsum([0] + [b.nbytes for b in blocks[:-1]]))
    rotten = bucket[1]
    store.corrupt(rotten.target_server, rotten.file, rotten.block, offset=5)
    ranges = [(r.target_server, r.file, r.block, 0, len(b)) for r, b in zip(bucket, blocks)]
    read, plain = store._range_reader(ranges, verify=True)
    for i, r in enumerate(bucket):
        assert (plain[i] is None) == (r is rotten)
        assert store.verify(r.target_server, r.file, r.block) == (r is not rotten)
        if r is rotten:
            with pytest.raises(TransientReadError) as caught:
                read(i)
            assert caught.value.cause == "checksum"
            with pytest.raises(TransientReadError):
                store.timed_read_rows(*ranges[i][:3], 0, len(blocks[i]), verify=True)
        else:
            rows, _ = read(i)
            assert np.shares_memory(rows, blocks[i])
            store.timed_read_rows(*ranges[i][:3], 0, len(blocks[i]), verify=True)
