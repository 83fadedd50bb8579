"""Property tests for the XOR-schedule kernel tier.

Covers the three layers of the tier:

* :mod:`repro.gf.bitmatrix` — companion-matrix expansion agrees with the
  field's own multiplication, and the vectorised doubling primitive
  matches scalar ``gf.mul(2, x)``.
* :mod:`repro.gf.schedule` — compiled ``XorSchedule``s are byte-exact
  against :func:`mat_data_product_reference` for random coefficient
  matrices over both fields, including ragged widths that exercise the
  chunked executor's tail path.
* :class:`repro.gf.kernels.CodingPlan` integration — forced-``xor``
  plans equal forced-``table`` plans (apply and ragged ``apply_batch``),
  auto mode picks the schedule only where the cost model says it wins,
  the ``REPRO_KERNEL`` knob and plan-cache keys interact safely, and the
  selection counters/`validate_symbols` diagnostics behave.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.gf import (
    GF256,
    GF65536,
    CodingPlan,
    GFError,
    XorSchedule,
    bitmatrix_density,
    coeff_bitmatrix,
    companion_matrix,
    current_kernel_choice,
    double_symbols,
    kernel_selection_info,
    lane_selection_matrix,
    mat_data_product_reference,
    native_available,
    predicted_win,
    reset_kernel_selection,
    validate_symbols,
)
from repro.gf.native import get_backend

# REPRO_KERNEL knob tests and the selection counters touch process-global
# kernel state; share an xdist serial group with tests/test_native.py.
pytestmark = pytest.mark.xdist_group("kernel-global-state")

FIELDS = {"gf256": GF256, "gf65536": GF65536}


def _auto(label: str) -> str:
    """The label auto mode reports for a numpy-tier structure.

    With a native backend in the process, auto plans keep the same
    xor-vs-table structure decision but execute (and label) natively.
    """
    if not native_available():
        return label
    return {"xor": "native-xor", "packed-full": "native", "packed-split": "native"}[label]


def _parity_label() -> str:
    """The label auto mode gives a GF(2^8) parity row of ten terms: the
    XOR schedule, except that the native gather on 512-bit registers
    (``simd_level`` 3) sums three or more terms a row for less."""
    if native_available() and get_backend().simd_level == 3:
        return "native"
    return _auto("xor")


def _random(gf, shape, seed):
    return np.random.default_rng(seed).integers(0, gf.size, shape).astype(gf.dtype)


def _bits(gf, x):
    return np.array([(x >> i) & 1 for i in range(gf.q)], dtype=np.uint8)


# ---------------------------------------------------------------- bitmatrix


class TestBitmatrix:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELDS.keys())
    @given(c=st.integers(0, 255), x=st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_companion_matrix_is_multiplication(self, field, c, x):
        gf = FIELDS[field]
        got = companion_matrix(gf, c) @ _bits(gf, x) % 2
        assert np.array_equal(got, _bits(gf, gf.mul(c, x)))

    def test_companion_matrix_gf16_high_symbols(self):
        gf = GF65536
        for c, x in [(0x100A, 0xFFFF), (0x8001, 0x8000), (65535, 65535)]:
            got = companion_matrix(gf, c) @ _bits(gf, x) % 2
            assert np.array_equal(got, _bits(gf, gf.mul(c, x)))

    def test_companion_rejects_out_of_field(self):
        with pytest.raises(GFError):
            companion_matrix(GF256, 256)

    def test_coeff_bitmatrix_blocks(self):
        gf = GF256
        coeffs = np.array([[3, 0], [1, 7]], dtype=np.uint8)
        bm = coeff_bitmatrix(gf, coeffs)
        assert bm.shape == (16, 16)
        assert np.array_equal(bm[:8, :8], companion_matrix(gf, 3))
        assert not bm[:8, 8:].any()  # zero coefficient -> zero block
        assert np.array_equal(bm[8:, :8], np.eye(8, dtype=np.uint8))

    def test_density_identity_vs_dense(self):
        gf = GF256
        assert bitmatrix_density(gf, np.ones((1, 4), dtype=np.uint8)) == pytest.approx(
            4 * 8 / (8 * 32)
        )
        dense = _random(gf, (4, 6), seed=3) | 1
        assert bitmatrix_density(gf, dense) > 0.3

    def test_lane_selection_matrix_is_coefficient_bits(self):
        gf = GF256
        coeffs = np.array([[0x15, 2]], dtype=np.uint8)
        sel = lane_selection_matrix(gf, coeffs)
        assert sel.shape == (1, 16)
        assert list(np.nonzero(sel[0])[0]) == [0, 2, 4, 8 + 1]

    @pytest.mark.parametrize("field", FIELDS, ids=FIELDS.keys())
    @pytest.mark.parametrize("size", [8, 1000, 4096 + 3])
    def test_double_symbols_matches_scalar(self, field, size):
        gf = FIELDS[field]
        src = _random(gf, size, seed=size)
        dst, tmp = np.empty_like(src), np.empty_like(src)
        double_symbols(gf, src, dst, tmp)
        want = np.array([gf.mul(2, int(v)) for v in src], dtype=gf.dtype)
        assert np.array_equal(dst, want)

    def test_double_symbols_in_place(self):
        gf = GF256
        src = _random(gf, 4096, seed=9)
        want = np.array([gf.mul(2, int(v)) for v in src], dtype=gf.dtype)
        tmp = np.empty_like(src)
        double_symbols(gf, src, src, tmp)
        assert np.array_equal(src, want)


# ----------------------------------------------------------------- schedule


class TestXorSchedule:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELDS.keys())
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_matrices_match_reference(self, field, data):
        gf = FIELDS[field]
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 8))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, gf.size, (m, n)).astype(gf.dtype)
        payload = rng.integers(0, gf.size, (n, 1536)).astype(gf.dtype)
        sched = XorSchedule.compile(gf, coeffs)
        out = np.zeros((m, payload.shape[1]), dtype=gf.dtype)
        sched.execute(payload, np.arange(n), np.arange(m), out)
        assert np.array_equal(out, mat_data_product_reference(gf, coeffs, payload))

    @pytest.mark.parametrize("field", FIELDS, ids=FIELDS.keys())
    def test_all_zero_matrix_compiles_to_zero_output(self, field):
        # Hypothesis found it: no non-zero coefficient, no operand slots,
        # and the pair search took the argmax of an empty matrix.
        gf = FIELDS[field]
        sched = XorSchedule.compile(gf, np.zeros((2, 3), dtype=gf.dtype))
        out = np.ones((2, 64), dtype=gf.dtype)
        sched.execute(_random(gf, (3, 64), seed=5), np.arange(3), np.arange(2), out)
        assert not out.any()

    @pytest.mark.parametrize("field", FIELDS, ids=FIELDS.keys())
    @pytest.mark.parametrize("width", [1, 7, 1024, 1031, 200_003])
    def test_ragged_widths(self, field, width):
        # Odd widths hit the executor's non-word-aligned tail handling;
        # 200_003 forces multiple pool chunks for laddered schedules.
        gf = FIELDS[field]
        coeffs = _random(gf, (3, 5), seed=11)
        payload = _random(gf, (5, width), seed=13)
        sched = XorSchedule.compile(gf, coeffs)
        out = np.zeros((3, width), dtype=gf.dtype)
        sched.execute(payload, np.arange(5), np.arange(3), out)
        assert np.array_equal(out, mat_data_product_reference(gf, coeffs, payload))

    def test_cse_reduces_dense_xor_count(self):
        sched = XorSchedule.compile(GF256, _random(GF256, (6, 8), seed=17) | 1)
        assert sched.stats["xors"] < sched.stats["raw_xors"]
        assert sched.stats["saved"] == sched.stats["raw_xors"] - sched.stats["xors"]

    def test_all_ones_schedule_is_pure_xor(self):
        sched = XorSchedule.compile(GF256, np.ones((1, 10), dtype=np.uint8))
        assert sched.stats["ladder_steps"] == 0
        assert sched.stats["lanes"] == 0  # every lane is a zero-copy data view
        assert sched.stats["xors"] == 9
        assert sched.wins

    def test_predicted_win_accepts_parity_rejects_cauchy(self):
        assert predicted_win(GF256, np.ones((1, 10), dtype=np.uint8))
        rs = ReedSolomonCode(6, 4)
        parity = rs.generator[6:]
        assert not predicted_win(rs.gf, parity)
        # Same over GF(2^16): the 16-step ladders alone dwarf the tables.
        rs16 = ReedSolomonCode(6, 4, gf=GF65536)
        assert not predicted_win(rs16.gf, rs16.generator[6:])

    def test_zero_row_outputs_zero(self):
        gf = GF256
        coeffs = np.array([[0, 0], [1, 2]], dtype=np.uint8)
        payload = _random(gf, (2, 2048), seed=19)
        sched = XorSchedule.compile(gf, coeffs)
        out = np.ones((2, 2048), dtype=gf.dtype)
        sched.execute(payload, np.arange(2), np.arange(2), out)
        assert not out[0].any()
        assert np.array_equal(out, mat_data_product_reference(gf, coeffs, payload))


# ---------------------------------------------------- CodingPlan integration


LARGE = 4096  # comfortably above SMALL_PRODUCT_ELEMS


class TestCodingPlanXor:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELDS.keys())
    def test_forced_tiers_agree_on_random_matrices(self, field):
        gf = FIELDS[field]
        for seed, (m, n) in enumerate([(1, 10), (3, 4), (7, 14), (4, 6)]):
            coeffs = _random(gf, (m, n), seed=seed)
            payload = _random(gf, (n, LARGE), seed=100 + seed)
            want = CodingPlan(gf, coeffs, kernel="table").apply(payload)
            got = CodingPlan(gf, coeffs, kernel="xor").apply(payload)
            assert np.array_equal(want, got)
            assert np.array_equal(want, mat_data_product_reference(gf, coeffs, payload))

    def test_apply_batch_ragged_segments(self):
        gf = GF256
        coeffs = np.ones((2, 6), dtype=np.uint8)
        coeffs[1] = [1, 2, 4, 8, 16, 32]
        segs = [_random(gf, (6, s), seed=s) for s in (900, 1024, 37, 5000)]
        xor_views = CodingPlan(gf, coeffs, kernel="xor").apply_batch(segs)
        tab_views = CodingPlan(gf, coeffs, kernel="table").apply_batch(segs)
        for x, t, seg in zip(xor_views, tab_views, segs):
            assert x.shape == (2, seg.shape[1])
            assert np.array_equal(x, t)

    def test_auto_selects_xor_for_parity_and_table_for_cauchy(self):
        rs = ReedSolomonCode(10, 1)
        assert CodingPlan(rs.gf, rs.generator).kernel == _parity_label()
        gal = GalloperCode(4, 2, 1)
        assert CodingPlan(gal.gf, gal.generator).kernel == _auto("packed-full")

    @pytest.mark.parametrize(
        "factory", [lambda: GalloperCode(4, 2, 1), lambda: PyramidCode(4, 2, 1)]
    )
    def test_local_repair_plans_choose_xor_and_reconstruct(self, factory):
        code = factory()
        target = 0
        rp = code.repair_plan(target)
        plan = code.compile_reconstruct(target, rp.helpers)
        assert plan.kernel == _auto("xor")
        data = _random(code.gf, (code.data_stripe_total, LARGE), seed=7)
        blocks = code.encode(data)
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        rebuilt, _ = code.reconstruct(target, avail, rp)
        assert np.array_equal(rebuilt, blocks[target])

    def test_single_block_reconstruct_plan_byte_exact(self):
        code = GalloperCode(4, 2, 1)
        rp = code.repair_plan(2)
        plan = code.compile_reconstruct(2, rp.helpers)
        payload = _random(code.gf, (plan.n, LARGE), seed=23)
        forced = CodingPlan(code.gf, plan.coeffs, kernel="table").apply(payload)
        assert np.array_equal(plan.apply(payload), forced)

    def test_invalid_kernel_rejected(self):
        with pytest.raises(GFError):
            CodingPlan(GF256, np.eye(2, dtype=np.uint8), kernel="simd")

    def test_forced_xor_small_product_uses_direct_path(self):
        # Below SMALL_PRODUCT_ELEMS even a forced-xor plan takes the
        # log/antilog path — but stays byte-exact.
        gf = GF256
        coeffs = _random(gf, (2, 3), seed=29)
        payload = _random(gf, (3, 64), seed=31)
        want = mat_data_product_reference(gf, coeffs, payload)
        assert np.array_equal(CodingPlan(gf, coeffs, kernel="xor").apply(payload), want)


class TestKernelKnobAndCache:
    def test_env_knob_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "table")
        assert current_kernel_choice() == "table"
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(GFError):
            current_kernel_choice()
        monkeypatch.delenv("REPRO_KERNEL")
        assert current_kernel_choice() == "auto"

    def test_plan_cache_keys_include_kernel_choice(self, monkeypatch):
        code = ReedSolomonCode(10, 1)
        monkeypatch.setenv("REPRO_KERNEL", "table")
        table_plan = code.compile_encode()
        assert table_plan.kernel != "xor"
        monkeypatch.setenv("REPRO_KERNEL", "xor")
        xor_plan = code.compile_encode()
        assert xor_plan is not table_plan
        assert xor_plan.kernel == "xor"
        # Same knob value -> same cached plan object.
        assert code.compile_encode() is xor_plan
        monkeypatch.setenv("REPRO_KERNEL", "table")
        assert code.compile_encode() is table_plan

    def test_reconstruct_cache_keyed_by_choice(self, monkeypatch):
        code = GalloperCode(4, 2, 1)
        helpers = code.repair_plan(0).helpers
        monkeypatch.setenv("REPRO_KERNEL", "table")
        p_table = code.compile_reconstruct(0, helpers)
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        p_auto = code.compile_reconstruct(0, helpers)
        assert p_auto is not p_table
        assert p_table.kernel.startswith("packed")
        assert p_auto.kernel == _auto("xor")

    def test_clear_plan_cache_drops_encode_plans(self, monkeypatch):
        code = ReedSolomonCode(4, 2)
        plan = code.compile_encode()
        code.clear_plan_cache()
        assert code.compile_encode() is not plan


class TestSelectionCounters:
    def test_counters_count_first_large_apply(self):
        reset_kernel_selection()
        gf = GF256
        xor_plan = CodingPlan(gf, np.ones((1, 10), dtype=np.uint8))
        payload = _random(gf, (10, LARGE), seed=37)
        xor_plan.apply(payload)
        xor_plan.apply(payload)  # counted once, not per apply
        dense = CodingPlan(gf, _random(gf, (4, 6), seed=41) | 1)
        dense.apply(_random(gf, (6, LARGE), seed=43))
        counts = kernel_selection_info()
        assert xor_plan.kernel == _parity_label()
        assert counts[_auto("xor")] == (_parity_label() == _auto("xor"))
        assert counts[_auto("packed-full")] == 1 + (_parity_label() == _auto("packed-full"))

    def test_fallback_counter(self):
        # A shape that passes the optimistic pre-screen but loses after
        # CSE: force it by compiling with auto on a matrix whose raw
        # density is borderline.  Forced-xor never counts as a fallback.
        reset_kernel_selection()
        gf = GF256
        forced = CodingPlan(gf, _random(gf, (4, 6), seed=47) | 1, kernel="xor")
        forced.apply(_random(gf, (6, LARGE), seed=53))
        counts = kernel_selection_info()
        assert counts["xor"] == 1
        assert counts["xor_fallbacks"] == 0

    def test_reset(self):
        reset_kernel_selection()
        assert all(v == 0 for v in kernel_selection_info().values())


class TestValidateSymbolsDiagnostics:
    def test_error_names_dtype_and_field(self):
        bad = np.array([0, 300], dtype=np.int32)
        with pytest.raises(GFError) as exc:
            validate_symbols(GF256, bad, "data")
        msg = str(exc.value)
        assert "int32" in msg
        assert "300" in msg
        assert "255" in msg  # the field maximum
        assert "GF(2^8)" in msg

    def test_uint16_data_against_gf256_plan(self):
        wide = np.array([[1000]], dtype=np.uint16)
        with pytest.raises(GFError) as exc:
            validate_symbols(GF256, wide, "data")
        assert "uint16" in str(exc.value)
        assert "16-bit" in str(exc.value)

    def test_in_range_passes_unchanged(self):
        ok = np.array([0, 255], dtype=np.uint16)
        out = validate_symbols(GF256, ok, "data")
        assert out.dtype == GF256.dtype
