"""Tests for GF dense linear algebra."""

import numpy as np
import pytest

from repro.gf import (
    GFError,
    SingularMatrixError,
    cauchy,
    express_rows,
    identity,
    inverse,
    is_invertible,
    matmul,
    random_symbols,
    rank,
    rows_in_rowspace,
    select_independent_rows,
    solve_consistent,
)


def random_invertible(gf, n, seed=0):
    for s in range(seed, seed + 50):
        m = random_symbols(gf, (n, n), seed=s)
        if is_invertible(gf, m):
            return m
    raise AssertionError("could not sample an invertible matrix")


class TestMatmul:
    def test_identity_neutral(self, gf):
        a = random_symbols(gf, (4, 4), seed=1)
        assert np.array_equal(matmul(gf, identity(gf, 4), a), a)
        assert np.array_equal(matmul(gf, a, identity(gf, 4)), a)

    def test_associative(self, gf):
        a = random_symbols(gf, (3, 4), seed=2)
        b = random_symbols(gf, (4, 5), seed=3)
        c = random_symbols(gf, (5, 2), seed=4)
        assert np.array_equal(matmul(gf, matmul(gf, a, b), c), matmul(gf, a, matmul(gf, b, c)))

    def test_shape_mismatch(self, gf):
        with pytest.raises(GFError):
            matmul(gf, np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_wide_field(self, gf16):
        a = random_symbols(gf16, (3, 3), seed=5)
        inv = inverse(gf16, random_invertible(gf16, 3, seed=6))
        assert matmul(gf16, a, inv).shape == (3, 3)


class TestInverse:
    def test_roundtrip(self, gf):
        m = random_invertible(gf, 6, seed=7)
        inv = inverse(gf, m)
        assert np.array_equal(matmul(gf, m, inv), identity(gf, 6))
        assert np.array_equal(matmul(gf, inv, m), identity(gf, 6))

    def test_singular_raises(self, gf):
        m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            inverse(gf, m)

    def test_non_square_raises(self, gf):
        with pytest.raises(GFError):
            inverse(gf, np.zeros((2, 3), dtype=np.uint8))

    def test_identity_inverse(self, gf):
        assert np.array_equal(inverse(gf, identity(gf, 5)), identity(gf, 5))


class TestRank:
    def test_full_rank(self, gf):
        assert rank(gf, random_invertible(gf, 5, seed=8)) == 5

    def test_duplicated_rows(self, gf):
        m = random_symbols(gf, (3, 5), seed=9)
        doubled = np.concatenate([m, m], axis=0)
        assert rank(gf, doubled) == rank(gf, m)

    def test_zero_matrix(self, gf):
        assert rank(gf, np.zeros((3, 3), dtype=np.uint8)) == 0

    def test_empty(self, gf):
        assert rank(gf, np.zeros((0, 4), dtype=np.uint8)) == 0


class TestStructuredMatrices:
    def test_cauchy_every_submatrix_invertible(self, gf):
        c = cauchy(gf, [10, 11, 12], [1, 2, 3, 4])
        from itertools import combinations

        for size in (1, 2, 3):
            for rs in combinations(range(3), size):
                for cs in combinations(range(4), size):
                    assert is_invertible(gf, c[np.ix_(rs, cs)])

    def test_cauchy_overlapping_points_rejected(self, gf):
        with pytest.raises(GFError):
            cauchy(gf, [1, 2], [2, 3])



class TestRowSelection:
    def test_select_independent_prefers_early_rows(self, gf):
        m = np.concatenate([identity(gf, 3), identity(gf, 3)], axis=0)
        assert select_independent_rows(gf, m, 3) == [0, 1, 2]

    def test_select_skips_dependent(self, gf):
        base = random_symbols(gf, (2, 4), seed=15)
        dep = (base[0] ^ base[1])[None, :]
        extra = random_symbols(gf, (2, 4), seed=16)
        m = np.concatenate([base, dep, extra], axis=0)
        picked = select_independent_rows(gf, m, 4)
        assert 2 not in picked  # the dependent row must be skipped

    def test_select_insufficient_raises(self, gf):
        m = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            select_independent_rows(gf, m, 1)


class TestConsistentSolve:
    def test_underdetermined_consistent(self, gf):
        a = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8)
        x_true = np.array([5, 7, 0], dtype=np.uint8)
        b = matmul(gf, a, x_true[:, None])[:, 0]
        x = solve_consistent(gf, a, b)
        assert np.array_equal(matmul(gf, a, x[:, None])[:, 0], b)

    def test_inconsistent_raises(self, gf):
        a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
        b = np.array([1, 2], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            solve_consistent(gf, a, b)

    def test_express_rows_roundtrip(self, gf):
        helpers = random_symbols(gf, (5, 8), seed=17)
        mix = random_symbols(gf, (3, 5), seed=18)
        targets = matmul(gf, mix, helpers)
        c = express_rows(gf, targets, helpers)
        assert np.array_equal(matmul(gf, c, helpers), targets)

    def test_express_rows_outside_rowspace(self, gf):
        helpers = np.array([[1, 0, 0]], dtype=np.uint8)
        targets = np.array([[0, 1, 0]], dtype=np.uint8)
        with pytest.raises(SingularMatrixError):
            express_rows(gf, targets, helpers)


class TestRowspace:
    def test_rows_in_rowspace_true(self, gf):
        basis = random_symbols(gf, (3, 6), seed=19)
        mix = random_symbols(gf, (2, 3), seed=20)
        cands = matmul(gf, mix, basis)
        assert rows_in_rowspace(gf, cands, basis)

    def test_rows_in_rowspace_false(self, gf):
        basis = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.uint8)
        cands = np.array([[0, 0, 1]], dtype=np.uint8)
        assert not rows_in_rowspace(gf, cands, basis)
