"""System-level property-based tests (hypothesis).

These drive randomized payload sizes, failure patterns, corruption
offsets and split tilings through the storage stack, asserting the
end-to-end invariants: byte-exact reads, records processed exactly once,
corruption always healed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.codes import CarouselCode, PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.mapreduce import LineRecordReader
from repro.storage import DistributedFileSystem, RepairManager, Scrubber
from repro.storage.striped import StripedFileSystem

CODE_FACTORIES = {
    "rs": lambda: ReedSolomonCode(4, 2),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
    "carousel": lambda: CarouselCode(4, 2),
}

settings_kwargs = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _payload(seed: int, size: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


class TestStorageRoundtrip:
    @settings(**settings_kwargs)
    @given(
        code_name=st.sampled_from(sorted(CODE_FACTORIES)),
        size=st.integers(min_value=1, max_value=50_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_write_read_exact(self, code_name, size, seed):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        payload = _payload(seed, size)
        dfs.write_file("f", payload, code=CODE_FACTORIES[code_name]())
        assert dfs.read_file("f") == payload

    @settings(**settings_kwargs)
    @given(
        code_name=st.sampled_from(["pyramid", "galloper"]),
        size=st.integers(min_value=100, max_value=30_000),
        failures=st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_degraded_read_exact_within_tolerance(self, code_name, size, failures, seed):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        payload = _payload(seed, size)
        ef = dfs.write_file("f", payload, code=CODE_FACTORIES[code_name]())
        for b in failures:
            dfs.cluster.fail(ef.server_of(b))
        assert dfs.read_file("f") == payload

    @settings(**settings_kwargs)
    @given(
        offset=st.integers(min_value=0, max_value=30_000),
        length=st.integers(min_value=0, max_value=30_000),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_extent_reads_match_slicing(self, offset, length, seed):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        payload = _payload(seed, 20_000)
        dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        assert dfs.read_bytes("f", offset, length) == payload[offset : offset + length]


class TestRepairProperties:
    @settings(**settings_kwargs)
    @given(
        victim_block=st.integers(min_value=0, max_value=6),
        size=st.integers(min_value=100, max_value=20_000),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_repair_restores_exact_block(self, victim_block, size, seed):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        payload = _payload(seed, size)
        ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        victim_server = ef.server_of(victim_block)
        before = dfs.store.get(victim_server, "f", victim_block).copy()
        dfs.cluster.fail(victim_server)
        report = RepairManager(dfs).repair_block("f", victim_block)
        after = dfs.store.get(report.target_server, "f", victim_block)
        assert np.array_equal(before, after)

    @settings(**settings_kwargs)
    @given(
        block=st.integers(min_value=0, max_value=6),
        offset=st.integers(min_value=0, max_value=1 << 20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_scrub_always_heals(self, block, offset, seed):
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        payload = _payload(seed, 14_000)
        ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 1))
        dfs.store.corrupt(ef.server_of(block), "f", block, offset=offset)
        report = Scrubber(dfs).scrub()
        assert report.corrupted == [("f", block)]
        assert dfs.read_file("f") == payload
        assert Scrubber(dfs).scrub().corrupted == []


class TestRecordTiling:
    @settings(**settings_kwargs)
    @given(
        cuts=st.lists(st.integers(min_value=1, max_value=4_999), min_size=0, max_size=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_lines_processed_exactly_once(self, cuts, seed):
        from repro.mapreduce.workloads import generate_text

        text = generate_text(5_000, seed=seed)
        dfs = DistributedFileSystem(Cluster.homogeneous(10))
        dfs.write_file("f", text, code=GalloperCode(4, 2, 1))
        boundaries = sorted(set(cuts)) + [len(text)]
        start = 0
        reader = LineRecordReader()
        collected: list[bytes] = []
        for end in boundaries:
            if end <= start:
                continue
            collected.extend(reader.records(dfs, "f", start, end))
            start = end
        assert collected == text.split(b"\n")


class TestStripedProperties:
    @settings(**settings_kwargs)
    @given(
        size=st.integers(min_value=1, max_value=120_000),
        cap=st.sampled_from([4_096, 8_192, 16_384]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_striped_roundtrip(self, size, cap, seed):
        sfs = StripedFileSystem(DistributedFileSystem(Cluster.homogeneous(30)))
        payload = _payload(seed, size)
        meta = sfs.write_file("f", payload, lambda: GalloperCode(4, 2, 1), max_block_bytes=cap)
        assert sfs.read_file("f") == payload
        for g in meta.group_names():
            assert sfs.dfs.file(g).block_size <= cap
