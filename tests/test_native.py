"""Native (generated-C) kernel tier: build cache, byte-exactness, fallback.

Everything in here must pass both with and without a C toolchain: tests
that exercise the compiled kernels skip themselves when
:func:`repro.gf.native.native_available` is False, and the fallback
tests simulate the compiler-less host explicitly.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import (
    GF256,
    GF65536,
    GFError,
    CodingPlan,
    XorSchedule,
    kernel_bytes_info,
    kernel_selection_info,
    mat_data_product_reference,
    native_available,
    native_unavailable_reason,
    pool_budget_bytes,
    random_symbols,
    reset_kernel_selection,
    reset_native_backend,
)
from repro.gf import native as nat

# The native build cache and kernel-selection counters are process-global
# (and several tests flip REPRO_* env knobs); under pytest-xdist's
# --dist loadgroup this pins every such test onto one worker.
pytestmark = pytest.mark.xdist_group("kernel-global-state")

LARGE = 20_000  # comfortably past SMALL_PRODUCT_ELEMS, several cache blocks

needs_native = pytest.mark.skipif(
    not native_available(), reason=f"native tier unavailable: {native_unavailable_reason()}"
)


needs_native_crc = pytest.mark.skipif(
    not (native_available() and nat.get_backend().has_crc32),
    reason="native library unavailable or built without PCLMUL",
)


def _random(gf, shape, seed):
    return random_symbols(gf, shape, seed=seed)


def _all_tiers(gf, coeffs, payload):
    """Apply through every forced tier plus the scalar reference oracle."""
    results = {
        "reference": mat_data_product_reference(gf, coeffs, payload),
        "table": CodingPlan(gf, coeffs, kernel="table").apply(payload),
        "xor": CodingPlan(gf, coeffs, kernel="xor").apply(payload),
        "native": CodingPlan(gf, coeffs, kernel="native").apply(payload),
    }
    return results


class TestBuild:
    @needs_native
    def test_backend_is_memoized(self):
        assert nat.get_backend() is nat.get_backend()

    @needs_native
    def test_shared_object_cached_on_disk(self):
        backend = nat.get_backend()
        assert backend.so_path.exists()
        assert backend.so_path.parent == nat._cache_root() / nat.native_build_key()
        assert backend.simd_level >= 1

    def test_build_key_is_stable_and_content_addressed(self):
        key = nat.native_build_key()
        assert key == nat.native_build_key()
        src, cc = key.split("/")
        int(src, 16)  # hex digest prefixes
        int(cc, 16) if cc else None
        assert len(src) == 16

    @needs_native
    def test_rebuild_reuses_cached_artifact(self, monkeypatch):
        # A second resolve in the same cache dir must dlopen, not recompile:
        # with the compiler probe removed, the cached .so is still found.
        monkeypatch.setattr(nat, "_compiler", lambda: None)
        reset_native_backend()
        try:
            assert native_available()
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_unavailable_reason_empty_when_available(self):
        if native_available():
            assert native_unavailable_reason() == ""
        else:
            assert native_unavailable_reason()


@needs_native
class TestByteExactness:
    """All four tiers and the scalar oracle agree bit for bit."""

    @pytest.mark.parametrize("k", [50, 100])
    def test_wide_stripe_gf256(self, k):
        gf = GF256
        coeffs = _random(gf, (4, k), seed=k) | 1  # dense: no zero coefficients
        payload = _random(gf, (k, LARGE), seed=k + 1)
        results = _all_tiers(gf, coeffs, payload)
        for label, got in results.items():
            assert np.array_equal(got, results["reference"]), label

    @pytest.mark.parametrize("k", [50, 100])
    def test_wide_stripe_gf65536(self, k):
        gf = GF65536
        coeffs = _random(gf, (4, k), seed=k) | 1
        payload = _random(gf, (k, LARGE // 4), seed=k + 1)
        results = _all_tiers(gf, coeffs, payload)
        for label, got in results.items():
            assert np.array_equal(got, results["reference"]), label

    @pytest.mark.parametrize("tail", [1, 7, 31, 63, 4095, 4097])
    def test_ragged_tails_gf256(self, tail):
        # Stripe widths that are not multiples of the SIMD width, the
        # cache block, or the 64-byte alignment unit.
        gf = GF256
        coeffs = _random(gf, (3, 50), seed=3) | 1
        payload = _random(gf, (50, 4096 + tail), seed=5)
        plan = CodingPlan(gf, coeffs, kernel="native")
        want = mat_data_product_reference(gf, coeffs, payload)
        assert np.array_equal(plan.apply(payload), want)

    def test_unaligned_views(self):
        # Non-contiguous rows take the copy/copy-back guard paths.
        gf = GF256
        coeffs = _random(gf, (3, 50), seed=11) | 1
        backing = _random(gf, (50, 2 * LARGE), seed=13)
        payload = backing[:, ::2]
        want = mat_data_product_reference(gf, np.asarray(coeffs), np.ascontiguousarray(payload))
        plan = CodingPlan(gf, coeffs, kernel="native")
        out_backing = np.zeros((3, 2 * LARGE), dtype=gf.dtype)
        out = out_backing[:, ::2]
        assert np.array_equal(plan.apply(payload, out=out), want)
        assert np.array_equal(out, want)

    def test_native_xor_schedule_gf256(self):
        # Parity-shaped plans route through the C XOR-schedule executor.
        gf = GF256
        coeffs = np.ones((2, 50), dtype=np.uint8)
        coeffs[1, ::2] = 0
        payload = _random(gf, (50, LARGE), seed=17)
        plan = CodingPlan(gf, coeffs)  # auto: schedule wins for parities
        assert plan.kernel == "native-xor"
        want = mat_data_product_reference(gf, coeffs, payload)
        assert np.array_equal(plan.apply(payload), want)

    @pytest.mark.parametrize("field,seed", [(GF256, 19), (GF65536, 23)])
    def test_xor_exec_ladder_matches_numpy(self, field, seed):
        # Drive the C executor directly on a schedule with doubling
        # ladders (small non-0/1 coefficients), bypassing the cost model.
        gf = field
        coeffs = (_random(gf, (3, 8), seed=seed) % 6).astype(gf.dtype) + 1
        schedule = XorSchedule.compile(gf, coeffs)
        assert schedule.stats["ladder_steps"] > 0
        payload = _random(gf, (8, 12_345), seed=seed + 1)
        cols = np.arange(8)
        rows = np.arange(3)
        want = np.zeros((3, 12_345), dtype=gf.dtype)
        schedule.execute(payload, cols, rows, want)
        got = np.zeros_like(want)
        schedule.execute_native(nat.get_backend(), payload, cols, rows, got)
        assert np.array_equal(got, want)

    def test_single_block_reconstruct(self):
        from repro.codes import ReedSolomonCode

        code = ReedSolomonCode(50, 4)
        data = _random(code.gf, (code.data_stripe_total, LARGE), seed=29)
        blocks = code.encode(data)
        target = 7
        rp = code.repair_plan(target)
        plan = code.compile_reconstruct(target, rp.helpers)
        forced = CodingPlan(code.gf, plan.coeffs, kernel="native")
        avail = {b: blocks[b] for b in range(code.n) if b != target}
        rebuilt, _ = code.reconstruct(target, avail, rp)
        assert np.array_equal(rebuilt, blocks[target])
        # The reconstruct matrix itself is byte-exact through the native tier.
        helpers_payload = np.concatenate([blocks[h] for h in rp.helpers], axis=0)
        want = mat_data_product_reference(code.gf, plan.coeffs, helpers_payload)
        assert np.array_equal(forced.apply(helpers_payload), want)

    def test_apply_batch_through_native(self):
        gf = GF256
        coeffs = _random(gf, (4, 50), seed=31) | 1
        plan = CodingPlan(gf, coeffs, kernel="native")
        segs = [_random(gf, (50, w), seed=33 + w) for w in (8_000, 5_000, 12_000)]
        outs = plan.apply_batch(segs)
        for seg, got in zip(segs, outs):
            assert np.array_equal(got, mat_data_product_reference(gf, coeffs, seg))


@needs_native_crc
class TestCrc32Rows:
    """The carry-less-multiply CRC kernel is ``zlib.crc32``, row by row."""

    #: Row lengths the stack stores: a 1 KiB row, Galloper's 9 363-byte
    #: serving stripe, a 16 KiB-block row, a 1 MiB block's seventh, 1 MiB.
    STORED = (1 << 10, 9_363, 16_380, 149_796, 1 << 20)

    @settings(max_examples=80, deadline=None)
    @given(
        row_bytes=st.one_of(st.integers(0, 300), st.sampled_from(STORED)),
        nrows=st.integers(1, 9),
        dtype=st.sampled_from([np.uint8, np.uint16]),
        layout=st.sampled_from(["contiguous", "column-slice", "row-strided", "element-strided"]),
        misalign=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_zlib_row_by_row(self, row_bytes, nrows, dtype, layout, misalign, seed):
        itemsize = np.dtype(dtype).itemsize
        width = row_bytes // itemsize
        row_stride, elem_stride = {
            "contiguous": (width * itemsize, itemsize),
            "column-slice": (3 * width * itemsize + 5, itemsize),  # odd: rows unaligned too
            "row-strided": (2 * width * itemsize, itemsize),
            "element-strided": (3 * width * itemsize, 3 * itemsize),  # copied, then summed
        }[layout]
        raw = np.frombuffer(
            np.random.default_rng(seed).bytes(misalign + nrows * row_stride + itemsize),
            dtype=np.uint8,
        )
        rows = np.ndarray(
            (nrows, width), dtype=dtype, buffer=raw, offset=misalign,
            strides=(row_stride, elem_stride),
        )
        want = [zlib.crc32(row.tobytes()) for row in rows]
        assert nat.get_backend().crc32_rows(rows) == want

    def test_no_rows_and_bad_rank(self):
        backend = nat.get_backend()
        assert backend.crc32_rows(np.zeros((0, 64), dtype=np.uint8)) == []
        with pytest.raises(ValueError):
            backend.crc32_rows(np.zeros(64, dtype=np.uint8))


class TestPoolKnob:
    def test_default_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL_KB", raising=False)
        assert pool_budget_bytes() == 3 << 19

    def test_valid_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_KB", "256")
        assert pool_budget_bytes() == 256 << 10

    @pytest.mark.parametrize("bad", ["sixty-four", "1.5", ""])
    def test_non_integer_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_POOL_KB", bad)
        if bad.strip():
            with pytest.raises(GFError):
                pool_budget_bytes()
        else:
            assert pool_budget_bytes() == 3 << 19  # empty means default

    @pytest.mark.parametrize("bad", ["63", "0", "-1", str((1 << 20) + 1)])
    def test_out_of_range_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_POOL_KB", bad)
        with pytest.raises(GFError):
            pool_budget_bytes()

    @needs_native
    def test_tiny_pool_still_byte_exact(self, monkeypatch):
        # A 64 KiB budget forces many cache blocks per stripe on both
        # native paths; results must not depend on the block geometry.
        gf = GF256
        dense = _random(gf, (4, 50), seed=37) | 1
        parity = np.ones((2, 50), dtype=np.uint8)
        payload = _random(gf, (50, LARGE), seed=41)
        monkeypatch.setenv("REPRO_POOL_KB", "64")
        for coeffs in (dense, parity):
            got = CodingPlan(gf, coeffs, kernel="native").apply(payload)
            want = mat_data_product_reference(gf, coeffs, payload)
            assert np.array_equal(got, want)


class TestFallback:
    def test_disable_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        reset_native_backend()
        try:
            assert not native_available()
            assert "REPRO_NATIVE_DISABLE" in native_unavailable_reason()
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_no_compiler_no_cache_falls_back(self, monkeypatch, tmp_path):
        # Simulate a host with no toolchain and a cold artifact cache: the
        # tier reports itself unavailable and forced-native plans run the
        # numpy tiers byte-exactly, counting the fallback.
        monkeypatch.setattr(nat, "_compiler", lambda: None)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
        # An ambient disable knob would mask the no-compiler reason string.
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        reset_native_backend()
        try:
            assert not native_available()
            assert "no C compiler" in native_unavailable_reason()
            reset_kernel_selection()
            gf = GF256
            coeffs = _random(gf, (4, 50), seed=43) | 1
            payload = _random(gf, (50, LARGE), seed=47)
            plan = CodingPlan(gf, coeffs, kernel="native")
            got = plan.apply(payload)
            assert plan.kernel == "packed-full"
            counts = kernel_selection_info()
            assert counts["native_fallbacks"] == 1
            assert counts["packed-full"] == 1
            assert counts["native"] == 0
            assert np.array_equal(got, mat_data_product_reference(gf, coeffs, payload))
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_block_store_without_a_backend_checksums_with_zlib(self, monkeypatch):
        from repro.cluster import Cluster
        from repro.storage import BlockStore

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        reset_native_backend()
        try:
            store = BlockStore(Cluster.homogeneous(1))
        finally:
            monkeypatch.undo()
            reset_native_backend()
        assert store._native_row_crcs is None  # bound once, at construction
        block = _random(GF65536, (7, 9_363), seed=71)
        store.put(0, "f", 0, block)
        assert store._row_checksums[0][("f", 0)] == [zlib.crc32(row) for row in block]
        assert store.verify(0, "f", 0)

    def test_forced_numpy_tiers_never_bind_backend(self):
        # kernel="table" / "xor" stay pure numpy even on a toolchain host,
        # so tier-vs-tier benchmarks measure what they claim to.
        gf = GF256
        coeffs = _random(gf, (4, 50), seed=53) | 1
        payload = _random(gf, (50, LARGE), seed=59)
        for choice, label in (("table", "packed-full"), ("xor", "xor")):
            plan = CodingPlan(gf, coeffs, kernel=choice)
            plan.apply(payload)
            assert plan.kernel == label
            assert plan._native_backend is None


@needs_native
class TestCounters:
    def test_selection_and_bytes_accounting(self):
        reset_kernel_selection()
        gf = GF256
        dense = CodingPlan(gf, _random(gf, (4, 50), seed=61) | 1, kernel="native")
        parity = CodingPlan(gf, np.ones((2, 50), dtype=np.uint8))
        payload = _random(gf, (50, LARGE), seed=67)
        dense.apply(payload)
        dense.apply(payload)  # selection counted once, bytes per apply
        parity.apply(payload)
        counts = kernel_selection_info()
        assert counts["native"] == 1
        assert counts["native-xor"] == 1
        assert counts["native_fallbacks"] == 0
        bytes_info = kernel_bytes_info()
        per_apply = payload.nbytes + 4 * LARGE
        assert bytes_info["native"] == 2 * per_apply
        assert bytes_info["native-xor"] == payload.nbytes + 2 * LARGE
        assert bytes_info["xor"] == 0
