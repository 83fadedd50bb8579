"""Tests for checksums and the scrubbing pipeline."""

import pytest

from repro.cluster import Cluster
from repro.codes import ReedSolomonCode
from repro.core import GalloperCode
from repro.storage import DistributedFileSystem, Scrubber
from repro.storage.health import CONSECUTIVE_LIMIT, RESET_TIMEOUT
from tests.conftest import payload_bytes


@pytest.fixture
def env():
    cluster = Cluster.homogeneous(10)
    dfs = DistributedFileSystem(cluster)
    payload = payload_bytes(14_000, seed=21)
    ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
    return cluster, dfs, ef, payload


class TestChecksums:
    def test_fresh_blocks_verify(self, env):
        _, dfs, ef, _ = env
        for b, server in ef.placement.items():
            assert dfs.store.verify(server, "f", b)

    def test_corruption_detected(self, env):
        _, dfs, ef, _ = env
        server = ef.server_of(3)
        dfs.store.corrupt(server, "f", 3, offset=17)
        assert not dfs.store.verify(server, "f", 3)

    def test_corrupt_missing_block_rejected(self, env):
        _, dfs, _, _ = env
        from repro.storage import StorageError

        with pytest.raises(StorageError):
            dfs.store.corrupt(0, "ghost", 0)

    def test_verify_unreachable_server(self, env):
        cluster, dfs, ef, _ = env
        from repro.storage import BlockUnavailableError

        server = ef.server_of(0)
        cluster.fail(server)
        with pytest.raises(BlockUnavailableError):
            dfs.store.verify(server, "f", 0)

    def test_rewrite_refreshes_checksum(self, env):
        _, dfs, ef, _ = env
        server = ef.server_of(1)
        block = dfs.store.get(server, "f", 1)
        dfs.store.drop(server, "f", 1)
        dfs.store.put(server, "f", 1, block)
        assert dfs.store.verify(server, "f", 1)


class TestScrubber:
    def test_clean_namespace(self, env):
        _, dfs, _, _ = env
        report = Scrubber(dfs).scrub()
        assert report.healthy
        assert report.blocks_checked == 7
        assert report.blocks_skipped == 0

    def test_detects_and_heals(self, env):
        _, dfs, ef, payload = env
        server = ef.server_of(2)
        dfs.store.corrupt(server, "f", 2, offset=5)
        report = Scrubber(dfs).scrub()
        assert report.corrupted == [("f", 2)]
        assert len(report.repairs) == 1
        # Healed in place on the same server, via the local repair path.
        assert report.repairs[0].target_server == server
        assert len(report.repairs[0].helpers) == 2
        assert dfs.store.verify(server, "f", 2)
        assert dfs.read_file("f") == payload

    def test_multiple_corruptions(self, env):
        _, dfs, ef, payload = env
        dfs.store.corrupt(ef.server_of(0), "f", 0)
        dfs.store.corrupt(ef.server_of(5), "f", 5)
        report = Scrubber(dfs).scrub()
        assert sorted(report.corrupted) == [("f", 0), ("f", 5)]
        assert dfs.read_file("f") == payload
        assert dfs.metrics.total("corruptions_detected") == 2

    def test_skips_failed_servers(self, env):
        cluster, dfs, ef, _ = env
        cluster.fail(ef.server_of(0))
        report = Scrubber(dfs).scrub()
        assert report.blocks_skipped == 1
        assert report.blocks_checked == 6

    def test_skips_breaker_open_servers_until_the_reset_timeout(self, env):
        _, dfs, ef, payload = env
        server = ef.server_of(3)
        dfs.store.corrupt(server, "f", 3, offset=9)  # rot the skip must not see
        for _ in range(CONSECUTIVE_LIMIT):
            dfs.health.record_error(server)
        assert dfs.health.is_open(server)
        dfs.metrics.reset()

        report = Scrubber(dfs).scrub()
        assert report.blocks_skipped_breaker == 1
        assert report.blocks_skipped_crashed == 0
        assert report.blocks_checked == 6
        assert report.corrupted == [] and report.repairs == []
        for name in ("disk_bytes_read", "scrub_bytes"):
            charged = dfs.metrics.by_server(name)
            assert server not in charged and len(charged) == 6

        dfs.clock.advance(RESET_TIMEOUT)
        assert not dfs.health.is_open(server)
        report = Scrubber(dfs).scrub()
        assert report.blocks_skipped == 0
        assert report.blocks_checked == 7
        assert report.corrupted == [("f", 3)]
        assert report.repairs[0].target_server == server and report.reverified == 1
        assert dfs.metrics.by_server("scrub_bytes")[server] > 0
        assert dfs.read_file("f") == payload

    def test_scrub_single_file(self, env):
        _, dfs, ef, payload = env
        dfs.write_file("g", payload_bytes(8_000, seed=22), code=ReedSolomonCode(4, 2))
        dfs.store.corrupt(ef.server_of(1), "f", 1)
        report = Scrubber(dfs).scrub_file("g")
        assert report.healthy  # only 'g' was scanned
        report = Scrubber(dfs).scrub_file("f")
        assert report.corrupted == [("f", 1)]

    def test_scrub_bytes_accounted(self, env):
        _, dfs, _, _ = env
        Scrubber(dfs).scrub()
        assert dfs.metrics.total("scrub_bytes") > 0
