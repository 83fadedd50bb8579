"""Tests for Reed-Solomon codes."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import DecodingError, ReedSolomonCode
from repro.codes.base import ParameterError
from repro.codes.rs import rs_generator
from repro.gf import GF256, is_invertible, random_symbols


class TestGenerator:
    def test_systematic_top(self, gf):
        g = rs_generator(gf, 4, 2)
        assert np.array_equal(g[:4], np.eye(4, dtype=np.uint8))

    def test_mds_any_k_rows_invertible(self, gf):
        g = rs_generator(gf, 5, 3)
        for rows in combinations(range(8), 5):
            assert is_invertible(gf, g[list(rows)]), rows

    def test_cauchy_first_parity_is_xor(self, gf):
        g = rs_generator(gf, 6, 2)
        assert np.array_equal(g[6], np.ones(6, dtype=np.uint8))

    def test_r1_is_xor_code(self, gf):
        g = rs_generator(gf, 4, 1)
        assert np.array_equal(g[4], np.ones(4, dtype=np.uint8))

    def test_invalid_params(self, gf):
        with pytest.raises(ParameterError):
            rs_generator(gf, 0, 2)
        with pytest.raises(ParameterError):
            rs_generator(gf, 200, 100)  # k + r > field size


class TestCode:
    def test_roundtrip_all_k_subsets(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (4, 33), seed=1)
        blocks = code.encode(data)
        for ids in combinations(range(6), 4):
            got = code.decode({b: blocks[b] for b in ids})
            assert np.array_equal(got, data)

    def test_fewer_than_k_fails(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (4, 8), seed=2)
        blocks = code.encode(data)
        with pytest.raises(DecodingError):
            code.decode({b: blocks[b] for b in range(3)})

    def test_reconstruct_reads_k_blocks(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (4, 16), seed=3)
        blocks = code.encode(data)
        for target in range(6):
            avail = {b: blocks[b] for b in range(6) if b != target}
            rebuilt, plan = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target])
            assert plan.blocks_read == 4

    def test_storage_overhead(self):
        assert ReedSolomonCode(4, 2).storage_overhead() == 1.5

    def test_parallelism_limited_to_data_blocks(self):
        code = ReedSolomonCode(4, 2)
        assert code.parallelism() == 4

    def test_requires_parity(self):
        with pytest.raises(ParameterError):
            ReedSolomonCode(4, 0)

    def test_systematic_verification(self):
        assert ReedSolomonCode(5, 3).verify_systematic()

    def test_encode_rejects_bad_shape(self):
        code = ReedSolomonCode(4, 2)
        from repro.codes.base import CodeError

        with pytest.raises(CodeError):
            code.encode(random_symbols(code.gf, (5, 10), seed=4))

    def test_can_decode(self):
        code = ReedSolomonCode(4, 2)
        assert code.can_decode([0, 1, 2, 3])
        assert code.can_decode([2, 3, 4, 5])
        assert not code.can_decode([0, 1, 2])


class TestTwoFailures:
    def test_double_failure_recovery(self):
        code = ReedSolomonCode(6, 2)
        data = random_symbols(code.gf, (6, 20), seed=6)
        blocks = code.encode(data)
        for lost in combinations(range(8), 2):
            ids = [b for b in range(8) if b not in lost]
            got = code.decode({b: blocks[b] for b in ids})
            assert np.array_equal(got, data)

    def test_reconstruct_with_prior_failures(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (4, 12), seed=7)
        blocks = code.encode(data)
        # Block 1 already failed; rebuild block 0 from the remaining four.
        avail = {b: blocks[b] for b in (2, 3, 4, 5)}
        rebuilt, plan = code.reconstruct(0, avail, code.repair_plan(0, failed={1}))
        assert np.array_equal(rebuilt, blocks[0])
        assert 1 not in plan.helpers
