"""Tests for GF scalar and array arithmetic."""

import numpy as np
import pytest

from repro.gf import GFError


class TestScalarArithmetic:
    def test_multiplication_examples(self, gf):
        # 2 * 2 = 4 (polynomial x * x = x^2, no reduction needed)
        assert gf.mul(2, 2) == 4
        # 0x80 * 2 triggers reduction by 0x11d: 0x100 ^ 0x11d = 0x1d
        assert gf.mul(0x80, 2) == 0x1D

    def test_mul_commutative_sample(self, gf):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
            assert gf.mul(a, b) == gf.mul(b, a)

    def test_mul_by_zero_and_one(self, gf):
        for a in [0, 1, 2, 254, 255]:
            assert gf.mul(a, 0) == 0
            assert gf.mul(a, 1) == a

    def test_div_inverts_mul(self, gf):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = int(rng.integers(0, 256)), int(rng.integers(1, 256))
            assert gf.div(gf.mul(a, b), b) == a

    def test_div_by_zero_raises(self, gf):
        with pytest.raises(GFError):
            gf.div(5, 0)

    def test_inv(self, gf):
        for a in range(1, 256):
            assert gf.mul(a, gf.inv(a)) == 1

    def test_inv_zero_raises(self, gf):
        with pytest.raises(GFError):
            gf.inv(0)

    def test_pow(self, gf):
        assert gf.pow(2, 0) == 1
        assert gf.pow(2, 1) == 2
        assert gf.pow(2, 8) == gf.mul(gf.pow(2, 4), gf.pow(2, 4))
        # Negative exponents are inverses.
        assert gf.mul(gf.pow(3, -1), 3) == 1

    def test_pow_zero_base(self, gf):
        assert gf.pow(0, 0) == 1
        assert gf.pow(0, 5) == 0
        with pytest.raises(GFError):
            gf.pow(0, -1)

    def test_fermat_orderth_power_is_identity(self, gf):
        for a in [1, 2, 3, 200]:
            assert gf.pow(a, gf.order) == 1

    def test_out_of_range_symbols_rejected(self, gf):
        with pytest.raises(GFError):
            gf.mul(256, 1)

    def test_distributivity_sample(self, gf):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)

    def test_associativity_sample(self, gf):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


class TestWideField:
    def test_gf16_roundtrip(self, gf16):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = int(rng.integers(1, 1 << 16))
            assert gf16.mul(a, gf16.inv(a)) == 1

    def test_gf16_has_no_mul_table(self, gf16):
        assert gf16.mul_table is None



class TestArrayOps:
    def test_scalar_mul_array_matches_scalar(self, gf):
        v = np.arange(256, dtype=np.uint8)
        for c in [0, 1, 2, 77, 255]:
            out = gf.scalar_mul_array(c, v)
            for x in [0, 1, 100, 255]:
                assert out[x] == gf.mul(c, x)
