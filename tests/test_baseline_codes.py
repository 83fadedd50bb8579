"""Tests for the Carousel, replication and rotated-RAID baselines."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import (
    CarouselCode,
    DecodingError,
    PyramidCode,
    ReplicationCode,
    RotatedPyramidCode,
)
from repro.codes.base import ParameterError
from repro.gf import random_symbols


class TestCarousel:
    def test_geometry(self):
        code = CarouselCode(4, 2)
        assert code.n == 6
        assert code.N == 3  # reduced fraction of 4/6
        assert [i.data_stripes for i in code.block_infos] == [2] * 6

    def test_roundtrip(self):
        code = CarouselCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 7), seed=1)
        blocks = code.encode(data)
        assert code.verify_systematic()
        for ids in combinations(range(6), 4):
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data)

    def test_full_parallelism(self):
        assert CarouselCode(4, 2).parallelism() == 6
        assert CarouselCode(6, 3).parallelism() == 9

    def test_repair_reads_k_full_blocks(self):
        """The drawback Galloper fixes: Carousel repairs like Reed-Solomon."""
        code = CarouselCode(4, 2)
        plan = code.repair_plan(2)
        assert plan.blocks_read == 4
        assert all(f == 1.0 for f in plan.read_fractions.values())


class TestReplication:
    def test_copy_layout(self):
        code = ReplicationCode(4, 3)
        assert code.n == 12
        assert code.copies_of(1) == [1, 5, 9]

    def test_roundtrip_and_repair(self):
        code = ReplicationCode(3, 2)
        data = random_symbols(code.gf, (3, 9), seed=2)
        blocks = code.encode(data)
        for c in range(2):
            for j in range(3):
                assert np.array_equal(blocks[c * 3 + j], data[j][None, :])
        rebuilt, plan = code.reconstruct(4, {b: blocks[b] for b in range(6) if b != 4})
        assert np.array_equal(rebuilt, blocks[4])
        assert plan.blocks_read == 1

    def test_all_copies_lost(self):
        code = ReplicationCode(2, 2)
        with pytest.raises(DecodingError):
            code.repair_plan(0, failed={2})

    def test_overhead_and_tolerance(self):
        code = ReplicationCode(4, 3)
        assert code.storage_overhead() == 3.0

    def test_every_block_is_parallel(self):
        assert ReplicationCode(4, 3).parallelism() == 12

    def test_factor_must_be_positive(self):
        with pytest.raises(ParameterError):
            ReplicationCode(4, 0)


class TestRotatedPyramid:
    @pytest.fixture
    def code(self):
        return RotatedPyramidCode(4, 2, 1)

    def test_geometry(self, code):
        assert code.n == 7
        assert code.N == 7
        # Every server holds exactly k data stripes.
        assert all(i.data_stripes == 4 for i in code.block_infos)

    def test_scattered_file_extents(self, code):
        assert any(list(i.file_stripes) != list(range(i.file_stripes[0], i.file_stripes[0] + i.data_stripes))
                   for i in code.block_infos if i.file_stripes)
        seen = sorted(fs for i in code.block_infos for fs in i.file_stripes)
        assert seen == list(range(code.data_stripe_total))

    def test_systematic(self, code):
        assert code.verify_systematic()

    def test_tolerance_matches_pyramid(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 3), seed=3)
        blocks = code.encode(data)
        for lost in combinations(range(7), 2):
            ids = [b for b in range(7) if b not in lost]
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data), lost

    def test_repair_wakes_most_servers(self, code):
        """Sec. III-D: rotation keeps byte-I/O low but touches many servers."""
        pyramid = PyramidCode(4, 2, 1)
        for target in range(7):
            rot_plan = code.repair_plan(target)
            pyr_plan = pyramid.repair_plan(target)
            assert rot_plan.blocks_read > pyr_plan.blocks_read
            # Byte volume stays comparable (fractional reads).
            assert sum(rot_plan.read_fractions.values()) <= 4.01

    def test_repair_reconstructs_correctly(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 3), seed=4)
        blocks = code.encode(data)
        for target in range(7):
            avail = {b: blocks[b] for b in range(7) if b != target}
            rebuilt, plan = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target])

    def test_fallback_when_helper_failed(self, code):
        plan = code.repair_plan(0, failed={1})
        assert 1 not in plan.helpers
