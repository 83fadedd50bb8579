"""The packed-lane coding kernels and the compiled-plan cache.

Property tests pin the accelerated kernels to the scalar field arithmetic
(bit-identical for GF(2^8) and GF(2^16), including degenerate shapes), and
the cache tests pin the plan-reuse semantics the storage layer relies on:
hits on repeated patterns, fresh plans when availability changes, LRU
eviction, and the DecodingError paths for singular availability.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.gf.kernels as kernels_mod
from repro.codes import PyramidCode, ReedSolomonCode, RotatedPyramidCode
from repro.codes.base import DecodingError
from repro.core import GalloperCode
from repro.gf import (
    GF256,
    GF65536,
    CodingPlan,
    GFError,
    mat_data_product,
    mat_data_product_reference,
    native_available,
    random_symbols,
    split_product_tables,
    validate_symbols,
)
from repro.gf import schedule
from repro.gf.kernels import _SEGMENT_MIN_ELEMS, SMALL_PRODUCT_ELEMS

FIELDS = [GF256, GF65536]


def scalar_product(gf, coeffs, data):
    """The definitionally-correct product: scalar gf.mul plus XOR."""
    m, n = coeffs.shape
    out = np.zeros((m, data.shape[1]), dtype=gf.dtype)
    for i in range(m):
        for j in range(n):
            for s in range(data.shape[1]):
                out[i, s] ^= gf.mul(int(coeffs[i, j]), int(data[j, s]))
    return out


# ---------------------------------------------------------------- kernels


class TestKernelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_mul_gf256(self, m, n, s, seed):
        coeffs = random_symbols(GF256, (m, n), seed=seed)
        data = random_symbols(GF256, (n, s), seed=seed + 1)
        got = mat_data_product(GF256, coeffs, data)
        assert np.array_equal(got, scalar_product(GF256, coeffs, data))

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_scalar_mul_gf65536(self, m, n, s, seed):
        coeffs = random_symbols(GF65536, (m, n), seed=seed)
        data = random_symbols(GF65536, (n, s), seed=seed + 1)
        got = mat_data_product(GF65536, coeffs, data)
        assert np.array_equal(got, scalar_product(GF65536, coeffs, data))

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("s", [0, 1, 37, SMALL_PRODUCT_ELEMS + 33])
    def test_matches_reference_with_structured_rows(self, gf, s):
        """Zero rows, identity rows and dense rows, below and above the
        small-product threshold (both dense code paths)."""
        coeffs = random_symbols(gf, (7, 5), seed=3)
        coeffs[0] = 0
        coeffs[1] = 0
        coeffs[1, 2] = 1
        data = random_symbols(gf, (5, s), seed=4)
        got = mat_data_product(gf, coeffs, data)
        ref = mat_data_product_reference(gf, coeffs, data)
        assert got.dtype == gf.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    def test_plan_reuse_small_then_large(self, gf):
        """One plan serves both the direct and the packed path."""
        coeffs = random_symbols(gf, (6, 8), seed=5)
        plan = CodingPlan(gf, coeffs)
        for s in (3, SMALL_PRODUCT_ELEMS + 100, 11):
            data = random_symbols(gf, (8, s), seed=s)
            assert np.array_equal(plan.apply(data), mat_data_product_reference(gf, coeffs, data))

    def test_gf65536_split_fallback_matches(self, monkeypatch):
        """Plans too big for full tables fall back to split tables."""
        monkeypatch.setattr(kernels_mod, "FULL_TABLE_LIMIT", 2)
        coeffs = random_symbols(GF65536, (9, 6), seed=6)
        data = random_symbols(GF65536, (6, SMALL_PRODUCT_ELEMS + 50), seed=7)
        plan = CodingPlan(GF65536, coeffs, kernel="table")
        assert plan.kernel == "packed-split"
        assert np.array_equal(plan.apply(data), mat_data_product_reference(GF65536, coeffs, data))

    def test_gf65536_large_uses_full_tables(self):
        plan = CodingPlan(GF65536, random_symbols(GF65536, (4, 6), seed=8), kernel="table")
        assert plan.kernel == "packed-full"

    @pytest.mark.parametrize(
        "make, tables, label",
        [
            (lambda: GalloperCode(4, 2, 1, gf=GF65536), 168, "packed-split"),
            (lambda: ReedSolomonCode(6, 4, gf=GF65536), 6, "packed-full"),
            (lambda: ReedSolomonCode(12, 4, gf=GF65536), 12, "packed-full"),
        ],
        ids=["galloper(4,2,1)", "rs(6,4)", "rs(12,4)"],
    )
    def test_real_encode_plans_take_the_faster_table(self, make, tables, label):
        """The size rule at the committed limit, on real GF(2^16) encode plans:
        each takes the table measured faster for its shape (split tables
        for Galloper's 168 full ones, full tables for RS; ``docs/PERFORMANCE.md``,
        "One mechanism per job")."""
        code = make()
        plan = CodingPlan(code.gf, code.generator, kernel="table")
        assert plan._dense_cols.size * plan._groups == tables
        assert plan.kernel == label
        grid = random_symbols(code.gf, (code.data_stripe_total, SMALL_PRODUCT_ELEMS), seed=12)
        assert np.array_equal(plan.apply(grid), code.encode(grid).reshape(code.n * code.N, -1))

    def test_spans_multiple_chunks(self):
        """Stripes longer than one gather chunk are stitched correctly."""
        coeffs = random_symbols(GF256, (5, 4), seed=9)
        s = kernels_mod.GATHER_CHUNK_WORDS + 777
        data = random_symbols(GF256, (4, s), seed=10)
        assert np.array_equal(
            mat_data_product(GF256, coeffs, data),
            mat_data_product_reference(GF256, coeffs, data),
        )


class TestIdentityRuns:
    """Systematic rows are copied run by run, not gathered and scattered."""

    CODES = {
        "rs": (lambda: ReedSolomonCode(4, 3), 1),
        "pyramid": (lambda: PyramidCode(4, 2, 1), 2),
        "galloper": (lambda: GalloperCode(4, 2, 1), 7),
        "galloper-weighted": (
            lambda: GalloperCode(4, 2, 1, performances=[1, 1, 1, 1, 0.4, 0.4, 0.4]), 7,
        ),
        "rotated-raid": (lambda: RotatedPyramidCode(4, 2, 1), None),  # no run longer than a row
    }

    @pytest.mark.parametrize("name", CODES)
    @pytest.mark.parametrize("s", [1, 37, SMALL_PRODUCT_ELEMS + 33])
    @pytest.mark.parametrize("given_out", [False, True], ids=["fresh-out", "out="])
    def test_generator_plans_match_the_reference(self, name, s, given_out):
        make, runs = self.CODES[name]
        code = make()
        gf = code.gf
        plan = CodingPlan(gf, code.generator)
        assert (plan._copy_runs and len(plan._copy_runs)) == runs
        if runs:  # the runs tile exactly the identity rows
            dst = np.concatenate([np.arange(d.start, d.stop) for d, _ in plan._copy_runs])
            src = np.concatenate([np.arange(c.start, c.stop) for _, c in plan._copy_runs])
            assert np.array_equal(dst, plan._copy_dst) and np.array_equal(src, plan._copy_src)
        data = random_symbols(gf, (code.data_stripe_total, s), seed=s)
        want = mat_data_product_reference(gf, code.generator, data)
        out = np.full(want.shape, 0xA5, dtype=gf.dtype) if given_out else None
        got = plan.apply(data, out=out)
        assert np.array_equal(got, want)
        assert out is None or got is out

    def test_scattered_and_single_identity_rows(self):
        """Runs of every length in one matrix, sources out of order."""
        gf = GF256
        coeffs = random_symbols(gf, (9, 6), seed=12) | 1
        for row, col in ((0, 4), (1, 5), (3, 0), (4, 1), (5, 2), (7, 2)):
            coeffs[row] = 0
            coeffs[row, col] = 1
        plan = CodingPlan(gf, coeffs)
        assert [(d.start, d.stop, c.start) for d, c in plan._copy_runs] == [
            (0, 2, 4), (3, 6, 0), (7, 8, 2),
        ]
        data = random_symbols(gf, (6, SMALL_PRODUCT_ELEMS + 5), seed=13)
        assert np.array_equal(plan.apply(data), mat_data_product_reference(gf, coeffs, data))
        lone = CodingPlan(gf, coeffs[7:8])
        assert len(lone._copy_runs) == 1
        assert np.array_equal(lone.apply(data), data[2:3])


class TestApplyBatchWidthRule:
    """On a native tier, segments at least ``_SEGMENT_MIN_ELEMS`` wide are
    coded by one segment-table call, each into its own contiguous part of
    the shared buffer; on the numpy tiers only segments that fill a cache
    block are applied on their own.  Narrow runs are stacked either way,
    and the bytes are those of per-segment ``apply``."""

    #: Widths around the cache block of a 3-dense-row plan under a 64 KiB
    #: pool (16 384 symbols of GF(2^8), 8 192 of GF(2^16)) and around the
    #: segment-table threshold (1 024 symbols).
    WIDTHS = (20_000, 300, 5_000, 0, 16_384, 41, 33_000, 16_383, 700, 1_023, 1_024)
    #: ... which split into these ``apply`` calls on the numpy tiers over GF(2^8),
    CALLS = (20_000, 5_300, 16_384, 41, 33_000, 19_130)
    #: and on a native tier, over either field, into these ``apply`` calls
    #: and one segment-table call over these widths.
    NATIVE_CALLS = (300, 0, 41, 1_723)
    TABLE = (20_000, 5_000, 16_384, 33_000, 16_383, 1_024)

    def _plan(self, gf, kind):
        coeffs = random_symbols(gf, (6, 5), seed=21) | 1
        if kind in ("xor", "native-xor"):  # 0/1 parities: the schedule tier
            coeffs = (coeffs & 1).astype(gf.dtype)
            coeffs[:, 0] = 1
        coeffs[1] = 0  # an all-zero row
        coeffs[2] = 0
        coeffs[2, 3] = 1  # an identity row
        coeffs[4] = 0  # and a second all-zero row
        kernel = {"native": "native", "native-xor": None, "table": "table", "xor": "xor"}[kind]
        return coeffs, CodingPlan(gf, coeffs, kernel=kernel)

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("kind", ["native", "native-xor", "table", "xor"])
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_mixed_widths_match_per_segment_apply(self, monkeypatch, gf, kind, traced):
        from repro.obs.trace import Tracer, use_tracer

        monkeypatch.setattr(schedule, "POOL_BUDGET_BYTES", 64 << 10)
        coeffs, plan = self._plan(gf, kind)
        native = native_available() and kind.startswith("native")
        if native_available():
            assert plan.kernel == {"table": "packed-full"}.get(kind, kind)
        segs = [random_symbols(gf, (5, w), seed=w) for w in self.WIDTHS]
        want = [mat_data_product_reference(gf, coeffs, seg) for seg in segs]
        calls, table = [], []
        apply, segments = plan.apply, plan._apply_segments
        plan.apply = lambda data, out=None: (calls.append(data.shape[1]), apply(data, out=out))[1]
        plan._apply_segments = lambda chunks, buf, offsets, oshape, *crcs: (
            table.extend(w // buf.itemsize for w in oshape[1::2]), segments(chunks, buf, offsets, oshape, *crcs)
        )[1]
        if traced:
            with use_tracer(Tracer()):
                got = plan.apply_batch(segs)
        else:
            got = plan.apply_batch(segs)
        assert [g.shape for g in got] == [w.shape for w in want]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # One buffer of 6 x total symbols holds every result.
        shared = got[0].base
        assert shared.shape == (6 * sum(self.WIDTHS),)
        assert all(g.base is shared for g in got)
        if native:
            assert (tuple(calls), tuple(table)) == (self.NATIVE_CALLS, self.TABLE)
            # Only the members of the one stacked run (700 + 1 023) are column slices.
            assert [w for g, w in zip(got, self.WIDTHS) if not g.flags.c_contiguous] == [700, 1_023]
        else:
            assert not table
            if gf is GF256:  # routed by width alone: same calls traced or not
                assert tuple(calls) == self.CALLS

    def test_all_narrow_is_one_stacked_apply(self):
        coeffs, plan = self._plan(GF256, "table")
        segs = [random_symbols(GF256, (5, w), seed=w) for w in (8_000, 0, 5_000, 12_000)]
        calls = []
        apply = plan.apply
        plan.apply = lambda data, out=None: (calls.append(data.shape[1]), apply(data, out=out))[1]
        outs = plan.apply_batch(segs)
        assert calls == [25_000]
        for seg, got in zip(segs, outs):
            assert np.array_equal(got, mat_data_product_reference(GF256, coeffs, seg))

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    @pytest.mark.parametrize("kind", ["native", "native-xor", "table", "xor"])
    @pytest.mark.parametrize("s", [37, SMALL_PRODUCT_ELEMS + 33], ids=["small", "large"])
    def test_apply_writes_every_row_it_does_not_zero(self, gf, kind, s):
        """``apply`` allocates without zero-filling: only all-zero coefficient
        rows are zeroed, so every other row must be written in full — which
        a caller's ``out`` full of all-ones symbols shows, row by row."""
        coeffs, plan = self._plan(gf, kind)
        data = random_symbols(gf, (5, s), seed=s)
        want = mat_data_product_reference(gf, coeffs, data)
        assert np.array_equal(plan.apply(data), mat_data_product(gf, coeffs, data))
        assert np.array_equal(plan.apply(data), want)
        ones = np.full((6, s), gf.size - 1, dtype=gf.dtype)
        got = plan.apply(data, out=ones)
        zero_rows = ~coeffs.any(axis=1)
        assert got is ones and zero_rows.any() and not zero_rows.all()
        assert np.array_equal(got[~zero_rows], want[~zero_rows])
        assert (got[zero_rows] == gf.size - 1).all()  # left as the caller set them

    def test_out_buffer_checked(self):
        _, plan = self._plan(GF256, "table")
        seg = random_symbols(GF256, (5, 10), seed=10)
        with pytest.raises(GFError):
            plan.apply(seg, out=np.zeros((6, 11), dtype=np.uint8))
        with pytest.raises(GFError):
            plan.apply(seg, out=np.zeros((6, 10), dtype=np.uint16))
        assert plan.apply_batch([]) == []


def _split_rows(backing, width, offset, cuts):
    """Columns ``offset .. offset + width`` of ``backing`` as row arrays cut
    at ``cuts``: a row stride wider than the rows, as a column slice of a
    batched encode has."""
    view = backing[:, offset : offset + width]
    bounds = [0, *cuts, view.shape[0]]
    return [view[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _draw_rows(data, gf, n, width):
    """``n`` input rows of ``width`` symbols as one or several arrays (some
    possibly empty), with a row stride of ``width`` or wider."""
    pad = data.draw(st.sampled_from([0, 0, 1, 64]), label="pad")
    offset = data.draw(st.integers(0, pad), label="offset")
    backing = random_symbols(gf, (n, width + pad), seed=data.draw(st.integers(0, 2**16), label="seed"))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4), label="cuts"))
    return _split_rows(backing, width, offset, cuts)


class TestRowListInput:
    """A plan's input may be row arrays where they lie (the helper rows of
    a rebuild): on every tier the product, the tier chosen and the bytes
    booked are those of ``apply(np.concatenate(rows))``."""

    KINDS = ("table", "xor", "native", "auto")

    @staticmethod
    def _coeffs(data, gf, n, parity=None):
        m = data.draw(st.integers(1, 6), label="m")
        coeffs = random_symbols(gf, (m, n), seed=data.draw(st.integers(0, 2**16), label="coeff seed"))
        if parity or (parity is None and data.draw(st.booleans(), label="0/1")):  # XOR-parity shaped
            coeffs = (coeffs & 1).astype(gf.dtype)
        for row in range(m):
            kind = data.draw(st.sampled_from(["dense", "dense", "copy", "zero"]), label=f"row {row}")
            if kind != "dense":
                coeffs[row] = 0
            if kind == "copy":
                coeffs[row, data.draw(st.integers(0, n - 1), label=f"source {row}")] = 1
        return coeffs

    @staticmethod
    def _widths(block):
        return st.one_of(
            st.integers(1, SMALL_PRODUCT_ELEMS - 1),
            st.integers(SMALL_PRODUCT_ELEMS, block - 1),
            st.integers(block, block + 3_000),
        )

    @staticmethod
    def _booked(fn):
        before = (kernels_mod.kernel_bytes_info(), kernels_mod.kernel_selection_info())
        out = fn()
        after = (kernels_mod.kernel_bytes_info(), kernels_mod.kernel_selection_info())
        return out, [{k: a[k] - b[k] for k in a} for a, b in zip(after, before)]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_apply_of_row_arrays_is_apply_of_their_stack(self, monkeypatch, data):
        monkeypatch.setattr(schedule, "POOL_BUDGET_BYTES", 64 << 10)
        gf = data.draw(st.sampled_from(FIELDS), label="field")
        kind = data.draw(st.sampled_from(self.KINDS), label="kernel")
        n = data.draw(st.integers(1, 7), label="n")
        coeffs = self._coeffs(data, gf, n)
        stacked_plan, rows_plan = CodingPlan(gf, coeffs, kernel=kind), CodingPlan(gf, coeffs, kernel=kind)
        rows = _draw_rows(data, gf, n, data.draw(self._widths(stacked_plan._cache_block_elems()), label="width"))
        want, want_booked = self._booked(lambda: stacked_plan.apply(np.concatenate(rows)))
        got, got_booked = self._booked(lambda: rows_plan.apply(rows))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got_booked == want_booked
        if rows[0].shape[1] < 64:
            assert np.array_equal(want, mat_data_product_reference(gf, coeffs, np.concatenate(rows)))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_apply_batch_of_row_arrays_is_apply_batch_of_their_stacks(self, monkeypatch, data):
        """Lone, narrow and wide members mixed, widths on both sides of the
        segment-table threshold and of a cache block, empty ones too, some
        given as one array, some as row arrays cut anywhere with a row
        stride wider than the rows.  Each result is per-segment ``apply``'s
        and the table oracle's; on a native tier, each segment at least
        ``_SEGMENT_MIN_ELEMS`` wide is coded in place, its result contiguous."""
        monkeypatch.setattr(schedule, "POOL_BUDGET_BYTES", 64 << 10)
        gf = data.draw(st.sampled_from(FIELDS), label="field")
        kind = data.draw(st.sampled_from((*self.KINDS, "native-xor")), label="kernel")
        n = data.draw(st.integers(1, 5), label="n")
        # "native-xor": XOR-parity shaped coefficients, which the native tier runs as a schedule.
        coeffs = self._coeffs(data, gf, n, parity=True if kind == "native-xor" else None)
        kind = kind.removesuffix("-xor")
        stacked_plan, rows_plan = CodingPlan(gf, coeffs, kernel=kind), CodingPlan(gf, coeffs, kernel=kind)
        block = stacked_plan._cache_block_elems()
        members = []
        for i in range(data.draw(st.integers(1, 5), label="members")):
            width = data.draw(
                st.one_of(
                    st.just(0),
                    st.integers(_SEGMENT_MIN_ELEMS - 40, _SEGMENT_MIN_ELEMS + 40),
                    self._widths(block),
                ),
                label=f"width {i}",
            )
            rows = _draw_rows(data, gf, n, width)
            members.append(np.concatenate(rows) if data.draw(st.booleans(), label=f"2-D {i}") else rows)
        stacks = [m if isinstance(m, np.ndarray) else np.concatenate(m) for m in members]
        want, want_booked = self._booked(lambda: stacked_plan.apply_batch(stacks))
        got, got_booked = self._booked(lambda: rows_plan.apply_batch(members))
        assert len(got) == len(want)
        in_place = rows_plan.kernel in ("native", "native-xor")
        for g, w, stack in zip(got, want, stacks):
            assert np.array_equal(g, w)
            assert np.array_equal(g, stacked_plan.apply(stack))
            assert np.array_equal(g, mat_data_product_reference(gf, coeffs, stack))
            if in_place and stack.shape[1] >= _SEGMENT_MIN_ELEMS:
                assert g.flags.c_contiguous
        assert got_booked == want_booked

    @pytest.mark.parametrize("name", ["rs", "pyramid", "galloper"])
    def test_a_lone_rebuild_stacks_nothing(self, name):
        """A lone 1 MB rebuild through the native tier allocates its output
        and no stacked copy of the helper rows it reads."""
        from repro.storage import pipeline

        code = {"rs": ReedSolomonCode(4, 3), "pyramid": PyramidCode(4, 2, 1), "galloper": GalloperCode(4, 2, 1)}[name]
        helpers = code.repair_plan(0).helpers
        helper_rows = code.compile_helper_rows(0, helpers)
        if helper_rows.plan(0, code.N).kernel not in ("native", "native-xor"):
            pytest.skip("the numpy tiers stack their input by design")
        width = (1 << 20) // code.N
        blocks = code.encode(random_symbols(code.gf, (code.data_stripe_total, width), seed=31))
        chunks = [blocks[h][first : first + count] for h, first, count in helper_rows.reads(0, code.N)]
        pipeline._batch_rebuild_rows(helper_rows, 0, 0, code.N, [chunks])  # warm: tables, row table
        tracemalloc.start()
        try:
            (rebuilt,) = pipeline._batch_rebuild_rows(helper_rows, 0, 0, code.N, [chunks])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rebuilt, blocks[0])
        assert peak <= 1.1 * rebuilt.nbytes


class TestZeroInputs:
    """A product over zero input rows is a zero grid of the data's width."""

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    def test_a_product_over_no_inputs_is_zero(self, gf):
        got = mat_data_product(gf, np.zeros((3, 0), dtype=gf.dtype), np.zeros((0, 10), dtype=gf.dtype))
        assert got.shape == (3, 10) and got.dtype == gf.dtype and not got.any()
        plan = CodingPlan(gf, np.zeros((3, 0), dtype=gf.dtype))
        assert plan.apply([]).shape == (3, 0)
        assert not plan.apply([np.zeros((0, 7), dtype=gf.dtype)]).any()
        assert [o.shape for o in plan.apply_batch([[], np.zeros((0, 5), dtype=gf.dtype)])] == [(3, 0), (3, 5)]

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    def test_rebuilding_no_rows_from_no_rows(self, gf):
        code = GalloperCode(4, 2, 1, gf=gf) if gf is GF256 else ReedSolomonCode(4, 2, gf=gf)
        helper_rows = code.repair_plan(0).helper_rows
        assert helper_rows.reads(0, 0) == ()
        got = helper_rows.rebuild(0, 0, [])
        assert got.shape == (0, 0) and got.dtype == gf.dtype


class TestValidation:
    def test_output_dtype_normalized(self, gf):
        """Regression: the seed kernel inherited data.dtype for the output."""
        coeffs = random_symbols(gf, (2, 3), seed=1)
        data = random_symbols(gf, (3, 5), seed=2).astype(np.int64)
        out = mat_data_product(gf, coeffs, data)
        assert out.dtype == gf.dtype

    @pytest.mark.parametrize("gf", FIELDS, ids=["gf256", "gf65536"])
    def test_out_of_field_data_rejected(self, gf):
        coeffs = random_symbols(gf, (2, 2), seed=1)
        bad = np.array([[0, 1], [2, gf.size]], dtype=np.int64)
        with pytest.raises(GFError):
            mat_data_product(gf, coeffs, bad)

    def test_negative_symbols_rejected(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.array([[-1, 2]]), np.zeros((2, 3), dtype=np.uint8))

    def test_float_data_rejected(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.ones((1, 2), dtype=np.uint8), np.ones((2, 3)))

    def test_shape_mismatch_rejected(self, gf):
        with pytest.raises(GFError):
            mat_data_product(gf, np.ones((1, 2), dtype=np.uint8), np.zeros((3, 4), dtype=np.uint8))

    def test_validate_symbols_passthrough(self, gf):
        arr = random_symbols(gf, (4,), seed=3)
        assert validate_symbols(gf, arr, "x") is arr

    def test_apply_out_buffer_checked(self, gf):
        plan = CodingPlan(gf, random_symbols(gf, (2, 3), seed=4))
        data = random_symbols(gf, (3, 6), seed=5)
        with pytest.raises(GFError):
            plan.apply(data, out=np.zeros((2, 5), dtype=gf.dtype))
        out = np.zeros((2, 6), dtype=gf.dtype)
        assert plan.apply(data, out=out) is out


class TestSplitTables:
    def test_requires_gf65536(self, gf):
        with pytest.raises(GFError):
            split_product_tables(gf, [1, 2, 3])

    def test_tables_reproduce_products(self, gf16):
        coeffs = [0, 1, 2, 0x1234, 0xFFFF]
        lo, hi = split_product_tables(gf16, coeffs)
        assert lo.shape == hi.shape == (len(coeffs), 256)
        rng = np.random.default_rng(11)
        for i, c in enumerate(coeffs):
            for x in rng.integers(0, gf16.size, 32):
                x = int(x)
                assert lo[i, x & 0xFF] ^ hi[i, x >> 8] == gf16.mul(c, x)


# ------------------------------------------------------------- plan cache


class TestPlanCache:
    def test_decode_repeat_hits_cache(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 64), seed=1)
        blocks = code.encode(data)
        available = {b: blocks[b] for b in (0, 2, 3, 5)}
        first = code.decode(available)
        info = code.plan_cache_info()
        assert info["misses"] == 1
        second = code.decode(available)
        info = code.plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert np.array_equal(first, second)
        assert np.array_equal(first, data)

    def test_availability_change_compiles_fresh_plan(self):
        """A cached plan is keyed by the availability set: changing the
        surviving blocks must bypass it, not reuse stale coefficients."""
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 32), seed=2)
        blocks = code.encode(data)
        a = {b: blocks[b] for b in (0, 1, 2, 3)}
        b_set = {b: blocks[b] for b in (1, 2, 4, 5)}
        assert np.array_equal(code.decode(a), data)
        assert np.array_equal(code.decode(b_set), data)
        info = code.plan_cache_info()
        assert info["misses"] == 2 and info["size"] == 2
        plan_a = code.compile_decode(a)
        plan_b = code.compile_decode(b_set)
        assert plan_a is not plan_b
        assert plan_a.ids != plan_b.ids

    def test_lru_eviction(self):
        code = ReedSolomonCode(4, 2)
        code.PLAN_CACHE_SIZE = 2
        data = random_symbols(code.gf, (code.data_stripe_total, 16), seed=3)
        blocks = code.encode(data)
        sets = [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
        for ids in sets:
            code.decode({b: blocks[b] for b in ids})
        info = code.plan_cache_info()
        assert info["size"] == 2
        # The oldest pattern was evicted: decoding it again is a miss.
        misses = info["misses"]
        code.decode({b: blocks[b] for b in sets[0]})
        assert code.plan_cache_info()["misses"] == misses + 1

    def test_clear_plan_cache(self):
        code = ReedSolomonCode(4, 2)
        data = random_symbols(code.gf, (code.data_stripe_total, 16), seed=4)
        blocks = code.encode(data)
        code.decode({b: blocks[b] for b in (0, 1, 2, 3)})
        code.clear_plan_cache()
        info = code.plan_cache_info()
        assert info == {"size": 0, "maxsize": code.PLAN_CACHE_SIZE, "hits": 0, "misses": 0}

    def test_reconstruct_repeat_hits_cache(self):
        code = PyramidCode(4, 2, 1)
        data = random_symbols(code.gf, (code.data_stripe_total, 48), seed=5)
        blocks = code.encode(data)
        target = 0
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        plan = code.repair_plan(target)
        rebuilt, _ = code.reconstruct(target, avail, plan)
        hits0 = code.plan_cache_info()["hits"]
        rebuilt2, _ = code.reconstruct(target, avail, plan)
        assert code.plan_cache_info()["hits"] == hits0 + 1
        assert np.array_equal(rebuilt, blocks[target])
        assert np.array_equal(rebuilt2, blocks[target])

    def test_encode_plan_compiled_once(self):
        code = ReedSolomonCode(4, 2)
        assert code.compile_encode() is code.compile_encode()
        code.clear_plan_cache()
        # A fresh plan after clearing, still correct.
        data = random_symbols(code.gf, (code.data_stripe_total, 8), seed=6)
        assert np.array_equal(
            code.compile_encode().apply(data),
            mat_data_product_reference(code.gf, code.generator, data),
        )


class TestDecodingErrors:
    def test_singular_availability_raises(self):
        """A k-sized but dependent block set must raise, not mis-decode."""
        code = PyramidCode(4, 2, 1)
        dependent = next(
            ids
            for ids in __import__("itertools").combinations(range(code.n), code.k)
            if not code.can_decode(ids)
        )
        with pytest.raises(DecodingError, match="cannot decode"):
            code.compile_decode(dependent)

    def test_empty_availability_raises(self):
        with pytest.raises(DecodingError):
            ReedSolomonCode(4, 2).compile_decode([])

    def test_bad_helpers_raise(self):
        code = ReedSolomonCode(4, 2)
        with pytest.raises(DecodingError, match="cannot express"):
            code.compile_reconstruct(0, (1, 2))  # k-1 helpers cannot span a data block


# ----------------------------------------------------- wide-field round trip


class TestWideFieldRoundTrip:
    def test_gf65536_encode_decode_reconstruct(self):
        code = ReedSolomonCode(4, 2, gf=GF65536)
        data = random_symbols(code.gf, (code.data_stripe_total, SMALL_PRODUCT_ELEMS + 9), seed=7)
        blocks = code.encode(data)
        assert np.array_equal(code.decode({b: blocks[b] for b in (1, 2, 4, 5)}), data)
        target = 3
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        rebuilt, _ = code.reconstruct(target, avail)
        assert np.array_equal(rebuilt, blocks[target])
