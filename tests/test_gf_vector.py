"""Tests for the vectorized GF kernels."""

import numpy as np
import pytest

from repro.gf import (
    GFError,
    axpy,
    mat_data_product,
    random_symbols,
)


def _dot(gf, a, b) -> int:
    """Scalar reference inner product: one ``gf.mul`` per term, XOR-summed."""
    out = 0
    for x, y in zip(a, b):
        out ^= gf.mul(int(x), int(y))
    return out


class TestScalAxpy:
    def test_axpy_accumulates(self, gf):
        x = random_symbols(gf, 32, seed=2)
        y = random_symbols(gf, 32, seed=3)
        expect = y ^ gf.scalar_mul_array(7, x)
        out = y.copy()
        axpy(gf, 7, x, out)
        assert np.array_equal(out, expect)

    def test_axpy_coefficient_one_is_xor(self, gf):
        x = random_symbols(gf, 32, seed=4)
        y = random_symbols(gf, 32, seed=5)
        out = y.copy()
        axpy(gf, 1, x, out)
        assert np.array_equal(out, x ^ y)

    def test_axpy_zero_is_noop(self, gf):
        x = random_symbols(gf, 16, seed=6)
        y = random_symbols(gf, 16, seed=7)
        out = y.copy()
        axpy(gf, 0, x, out)
        assert np.array_equal(out, y)

    def test_axpy_shape_mismatch(self, gf):
        with pytest.raises(GFError):
            axpy(gf, 1, np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8))


class TestMatDataProduct:
    def test_identity(self, gf):
        data = random_symbols(gf, (5, 40), seed=8)
        eye = np.eye(5, dtype=np.uint8)
        assert np.array_equal(mat_data_product(gf, eye, data), data)

    def test_matches_rowwise_dot(self, gf):
        coeffs = random_symbols(gf, (4, 6), seed=9)
        data = random_symbols(gf, (6, 17), seed=10)
        out = mat_data_product(gf, coeffs, data)
        for i in range(4):
            for col in range(17):
                assert out[i, col] == _dot(gf, coeffs[i], data[:, col])

    def test_zero_rows_skipped(self, gf):
        coeffs = np.zeros((3, 4), dtype=np.uint8)
        data = random_symbols(gf, (4, 8), seed=11)
        assert not mat_data_product(gf, coeffs, data).any()

    def test_wide_field_fallback(self, gf16):
        coeffs = random_symbols(gf16, (3, 3), seed=12)
        data = random_symbols(gf16, (3, 5), seed=13)
        out = mat_data_product(gf16, coeffs, data)
        for i in range(3):
            for col in range(5):
                assert out[i, col] == _dot(gf16, coeffs[i], data[:, col])

    def test_dimension_mismatch(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))

    def test_empty_data_columns(self, gf):
        out = mat_data_product(gf, np.eye(3, dtype=np.uint8), np.zeros((3, 0), dtype=np.uint8))
        assert out.shape == (3, 0)

    def test_linearity(self, gf):
        """The kernel is linear: M(a ^ b) == M(a) ^ M(b)."""
        coeffs = random_symbols(gf, (5, 7), seed=14)
        a = random_symbols(gf, (7, 9), seed=15)
        b = random_symbols(gf, (7, 9), seed=16)
        lhs = mat_data_product(gf, coeffs, a ^ b)
        rhs = mat_data_product(gf, coeffs, a) ^ mat_data_product(gf, coeffs, b)
        assert np.array_equal(lhs, rhs)


class TestRandomSymbols:
    def test_deterministic(self, gf):
        a = random_symbols(gf, (3, 3), seed=42)
        b = random_symbols(gf, (3, 3), seed=42)
        assert np.array_equal(a, b)

    def test_range(self, gf16):
        arr = random_symbols(gf16, 1000, seed=1)
        assert arr.max() < gf16.size
