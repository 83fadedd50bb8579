"""Native (generated-C) kernel tier: build cache, byte-exactness, fallback.

Everything in here must pass both with and without a C toolchain: tests
that exercise the compiled kernels skip themselves when
:func:`repro.gf.native.native_available` is False, and the fallback
tests simulate the compiler-less host explicitly.
"""

import os
import platform
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import (
    GF256,
    GF65536,
    CodingPlan,
    XorSchedule,
    kernel_bytes_info,
    kernel_selection_info,
    mat_data_product_reference,
    native_available,
    native_unavailable_reason,
    random_symbols,
    reset_kernel_selection,
    reset_native_backend,
)
from repro.gf import native as nat
from repro.gf import schedule

# The native build cache and kernel-selection counters are process-global
# (and several tests flip REPRO_* env knobs or patch the pool budget
# constant); under pytest-xdist's --dist loadgroup this pins every such
# test onto one worker.
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
        assert backend.simd_level in (1, 2, 3)
        assert {1: "scalar", 2: "avx2", 3: "avx512-gfni"}[backend.simd_level] in repr(backend)

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
        i32 = np.int32
        row_bytes = got.strides[0]
        run = schedule._native_kernel(nat.get_backend(), cols.astype(i32), rows.astype(i32), np.zeros(0, i32))
        run([payload], got, [0], [row_bytes, row_bytes])
        assert np.array_equal(got, want)
        # Two segments (column halves) in one call, each result contiguous in one buffer.
        half = 6_000
        flat = np.zeros(want.size, dtype=gf.dtype)
        itemsize = gf.dtype.itemsize
        run(
            [payload[:, :half], payload[:, half:]], flat, [0, 3 * half * itemsize],
            [half * itemsize, half * itemsize, (12_345 - half) * itemsize, (12_345 - half) * itemsize],
        )
        assert np.array_equal(flat[: 3 * half].reshape(3, half), want[:, :half])
        assert np.array_equal(flat[3 * half :].reshape(3, -1), want[:, half:])

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

    @settings(max_examples=60, deadline=None)
    @given(
        blocks=st.lists(
            st.tuples(
                st.one_of(st.integers(1, 70), st.sampled_from((1 << 10, 9_363, 16_380))),  # row bytes
                st.integers(1, 9),  # rows
                st.sampled_from([np.uint8, np.uint16]),
                st.sampled_from(["contiguous", "column-slice"]),
                st.integers(0, 15),  # misalignment of the buffer
            ),
            min_size=1,
            max_size=5,
        ),
        picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 8), st.integers(0, 9)), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ranges_equal_zlib_row_by_row(self, blocks, picks, seed):
        """Many row ranges, of blocks with their own base, row stride, row
        width (rows under 64 bytes, tails under 16) and symbol size — one C
        call, every row's CRC back to back."""
        backend = nat.get_backend()
        rng = np.random.default_rng(seed)
        arrays = []
        for row_bytes, nrows, dtype, layout, misalign in blocks:
            itemsize = np.dtype(dtype).itemsize
            width = max(1, row_bytes // itemsize)
            row_stride = width * itemsize if layout == "contiguous" else 3 * width * itemsize + 5
            raw = np.frombuffer(rng.bytes(misalign + nrows * row_stride), dtype=np.uint8)
            arrays.append(
                np.ndarray((nrows, width), dtype=dtype, buffer=raw, offset=misalign, strides=(row_stride, itemsize))
            )
        handles = [backend.row_buffer(a) for a in arrays]
        bases, geometry, want = [], [], []
        for which, start, count in picks:
            a = arrays[which % len(arrays)]
            start = start % a.shape[0]
            count = min(count, a.shape[0] - start)
            bases.append(handles[which % len(arrays)] + start * a.strides[0])
            geometry += (a.strides[0], count, a.shape[1] * a.itemsize)
            want += [zlib.crc32(row.tobytes()) for row in a[start : start + count]]
        assert backend.crc32_ranges(bases, geometry) == want
        for a, handle in zip(arrays, handles):  # the address a record keeps is the handle crc32_ranges takes
            crcs = backend.crc32_rows(a)
            assert crcs == [zlib.crc32(row.tobytes()) for row in a]
            assert backend.crc32_ranges([handle], [a.strides[0], a.shape[0], a.shape[1] * a.itemsize]) == crcs

    def test_copied_rows_keep_no_handle_and_bad_geometry_is_refused(self):
        from repro.cluster import Cluster
        from repro.storage import BlockStore

        backend = nat.get_backend()
        strided = np.arange(4 * 30, dtype=np.uint8).reshape(4, 30)[:, ::3]  # each row copied before hashing
        assert backend.crc32_rows(strided) == [zlib.crc32(row.tobytes()) for row in strided]
        store = BlockStore(Cluster.homogeneous(1))
        store.put(0, "f", 0, strided)
        assert store._disks[0]["f", 0][2] is None  # rows the kernel cannot read in place get no address
        assert backend.crc32_ranges([], []) == []
        with pytest.raises(ValueError):
            backend.crc32_ranges([backend.row_buffer(np.zeros((2, 8), dtype=np.uint8))], [8, 2])


def _isa_build(tmp_path_factory, name: str, flags: list[str]):
    """The generated C built a second time with ``-march=native`` less
    ``flags``, loaded through the module's cdef."""
    cffi = pytest.importorskip("cffi")
    cc = nat._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the ISA builds' flags are x86 flags")
    build = tmp_path_factory.mktemp(name)
    c_path, so_path = build / "repro_native.c", build / "repro_native.so"
    c_path.write_text(nat._C_SOURCE)
    cmd = [cc, "-O3", "-march=native", *flags, "-fPIC", "-shared", str(c_path), "-o", str(so_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ffi = cffi.FFI()
    ffi.cdef(nat._CDEF)
    return nat.NativeBackend(ffi, nat._dlopen(ffi, so_path), so_path)


@pytest.fixture(scope="module")
def avx2_backend(tmp_path_factory):
    """Without AVX-512, GFNI or VPCLMULQDQ: the kernels a host without the
    wide ones runs (level 2 on an AVX2 host)."""
    return _isa_build(tmp_path_factory, "avx2", ["-mno-avx512f", "-mno-gfni", "-mno-vpclmulqdq"])


@pytest.fixture(scope="module")
def plain_backend(tmp_path_factory):
    """Without AVX2 or PCLMULQDQ either: plain C products and no CRC
    kernel (``has_crc32`` false), as on a host without them."""
    return _isa_build(
        tmp_path_factory, "plain", ["-mno-avx2", "-mno-avx512f", "-mno-gfni", "-mno-vpclmulqdq", "-mno-pclmul"]
    )


def _isa_backends(request) -> list:
    """The default build (the wide kernels, on a host that has them), the
    AVX2 build and the plain build, each when it exists here."""
    backends = [request.getfixturevalue("avx2_backend"), request.getfixturevalue("plain_backend")]
    if native_available():
        backends.insert(0, nat.get_backend())
    return backends


def _gather_plan(coeffs, backend, gf=GF256) -> CodingPlan:
    """A plan over ``coeffs`` (GF(2^8) unless ``gf``) pinned to ``backend``'s gather."""
    plan = CodingPlan(gf, coeffs, kernel="native")
    plan._decide_tier()
    plan._schedule, plan._native_backend = None, backend
    return plan


def _xor_plan(coeffs, backend, gf=GF256) -> CodingPlan:
    """A plan over ``coeffs`` (GF(2^8) unless ``gf``) pinned to ``backend``'s XOR executor."""
    plan = _gather_plan(coeffs, backend, gf)
    plan._schedule = XorSchedule.compile(gf, plan._sub)
    return plan


def _reconstruct_plans():
    """Every single-loss rebuild of each e2e code, RS / Pyramid / Galloper,
    over GF(2^8) and over GF(2^16): the field and the reconstruct of block
    ``b`` from its repair plan's helpers."""
    from repro.codes import PyramidCode, ReedSolomonCode
    from repro.core import GalloperCode

    for gf in (GF256, GF65536):
        for code in (ReedSolomonCode(4, 3, gf=gf), PyramidCode(4, 2, 1, gf=gf), GalloperCode(4, 2, 1, gf=gf)):
            for b in range(code.n):
                helpers = code.repair_plan(b).helpers
                coeffs = code.compile_reconstruct(b, helpers).coeffs
                yield pytest.param(gf, coeffs, id=f"{code.name}-gf{gf.q}-rebuild-{b}")


def _encode_plans():
    """The encode of each e2e code, RS / Pyramid / Galloper."""
    from repro.codes import PyramidCode, ReedSolomonCode
    from repro.core import GalloperCode

    for code in (ReedSolomonCode(4, 3), PyramidCode(4, 2, 1), GalloperCode(4, 2, 1)):
        yield pytest.param(code, id=code.name)


def _one_loss_plans():
    """The encode and the decode after losing block 0 of each e2e code."""
    from repro.codes import PyramidCode, ReedSolomonCode
    from repro.core import GalloperCode

    for code in (ReedSolomonCode(4, 3), PyramidCode(4, 2, 1), GalloperCode(4, 2, 1)):
        yield pytest.param(code.generator, id=f"{code.name}-encode")
        yield pytest.param(code.compile_decode(range(1, code.n)).plan.coeffs, id=f"{code.name}-decode")


class TestIsaPaths:
    """Both ISA paths of the generated C on one host: the gather and the
    CRC-32 of the default build and of the AVX2 build agree with the
    numpy table tier and with ``zlib`` at every width, ragged tails and
    the 512-bit fold included."""

    WIDTHS = (1, 31, 63, 64, 65, 2_340, 16_380, 1_048_572)
    CRC_WIDTHS = (1, 63, 64, 65, 2_340, 16_380, 40_000, 1_048_572)

    def test_avx2_build_reports_its_level(self, avx2_backend, plain_backend):
        assert avx2_backend.simd_level in (1, 2)
        assert plain_backend.simd_level == 1 and not plain_backend.has_crc32
        if native_available() and nat.get_backend().simd_level == 3:
            assert {"gfni", "avx512bw", "vpclmulqdq"} <= set(nat._cpu_features().split())
            assert nat.get_backend().has_crc32

    @pytest.mark.parametrize("coeffs", _one_loss_plans())
    def test_gather_matches_the_table_tier(self, request, coeffs):
        backends = _isa_backends(request)
        rng = np.random.default_rng(coeffs.size)
        for width in self.WIDTHS:
            backing = rng.integers(0, 256, size=(coeffs.shape[1], width + 9), dtype=np.uint8)
            rows = backing[:, 3 : 3 + width]  # unaligned, rows apart by more than their width
            want = CodingPlan(GF256, coeffs, kernel="table").apply(np.ascontiguousarray(rows))
            for backend in backends:
                plan = _gather_plan(coeffs, backend)
                out = np.zeros((coeffs.shape[0], width + 5), dtype=np.uint8)[:, 5:]
                plan._native_segments([rows], out, [0], [out.strides[0], width])
                assert np.array_equal(out, want), (backend, width)

    @pytest.mark.parametrize("code", _encode_plans())
    def test_gather_folds_the_crc_of_every_row(self, request, code):
        """Two segments in one gather call, each output row's CRC folded
        block by block (identity copies and dense rows alike) equals
        ``zlib.crc32`` of the row, on each build with the CRC kernel, at
        every width: 40 000 bytes is a row over two cache blocks, 1 048 572
        a call past the 512-bit fold's threshold.  Input rows unaligned
        and apart by more than their width."""
        rng = np.random.default_rng(code.n)
        m, n = code.generator.shape
        want_table = CodingPlan(GF256, code.generator, kernel="table")
        for width in self.CRC_WIDTHS:
            backing = rng.integers(0, 256, size=(2 * n, width + 9), dtype=np.uint8)
            rows = [backing[:n, 3 : 3 + width], backing[n:, 3 : 3 + width]]
            want = np.concatenate([want_table.apply(np.ascontiguousarray(r)) for r in rows])
            crcs_want = [zlib.crc32(row.tobytes()) for row in want]
            for backend in _isa_backends(request):
                if not backend.has_crc32:
                    continue
                out = np.zeros(2 * m * width, dtype=np.uint8)
                crcs = np.zeros(2 * m, dtype=np.uint32)
                _gather_plan(code.generator, backend)._native_segments(
                    rows, out, [0, m * width], [width, width] * 2, crcs
                )
                assert np.array_equal(out.reshape(2 * m, width), want), (backend, width)
                assert crcs.tolist() == crcs_want, (backend, width)

    @pytest.mark.parametrize(("gf", "coeffs"), _reconstruct_plans())
    def test_xor_executor_folds_the_crc_of_every_row(self, request, gf, coeffs):
        """Each rebuild run on the XOR executor (LRC local repairs take it
        under ``kernel="auto"``) folds, in one call over segments of ragged
        widths, the CRC-32 of every output row, equal to ``zlib.crc32`` of
        the row's bytes (uint16 rows included): a call under 256 KiB (the
        128-bit fold) with a segment narrower than one executor chunk, and
        a call over it (the 512-bit fold where the build has it) with
        segments wider than a chunk.  Input rows unaligned and apart by
        more than their width; the symbols are the table tier's.  A build
        without the CRC kernel folds none."""
        rng = np.random.default_rng(coeffs.size)
        m, n = coeffs.shape
        table = CodingPlan(gf, coeffs, kernel="table")
        for widths in ((1_024, 4_099, 40_000), (1_100, 70_001, 270_000)):
            segments = []
            for width in widths:
                backing = rng.integers(0, gf.size, size=(n, width + 9), dtype=gf.dtype)
                segments.append(backing[:, 3 : 3 + width])
            want = [table.apply(np.ascontiguousarray(seg)) for seg in segments]
            for backend in _isa_backends(request):
                plan = _xor_plan(coeffs, backend, gf)
                assert plan._folds_crcs() == backend.has_crc32, backend
                outs, crcs = plan._apply_batch(segments, crcs=True)
                for out, rows in zip(outs, want):
                    assert np.array_equal(out, rows), (backend, widths)
                if not backend.has_crc32:
                    assert crcs is None, backend
                    continue
                for folded, rows in zip(crcs, want):
                    assert folded.tolist() == [zlib.crc32(row.tobytes()) for row in rows], (backend, widths)

    @pytest.mark.parametrize("code", _encode_plans())
    def test_every_build_stores_the_same_entries(self, request, code):
        """A striped write's store batch on each build: the gather's row
        CRCs where the build folds them (none without the CRC kernel, and
        then the store hashes with ``zlib``), stored as entries equal to a
        ``put`` per block on a store without the native kernel, each with
        an address wherever the store has the kernel."""
        from repro.cluster import Cluster
        from repro.storage import BlockStore

        stripe = 4_681  # every block over 4 KiB: kept where the native kernel reads it
        grids = np.random.default_rng(7).integers(
            0, 256, size=(3, code.data_stripe_total, stripe), dtype=np.uint8
        )
        reference = None
        for backend in _isa_backends(request):
            (out,), crcs = _gather_plan(code.generator, backend)._apply_batch([grids], crcs=True)
            assert (crcs is not None) == backend.has_crc32, backend
            blocks = out.reshape(-1, code.N, stripe)
            items = [(b % 5, f"g{b // code.n}", b % code.n, block) for b, block in enumerate(blocks)]
            store = BlockStore(Cluster.homogeneous(5))
            store._crc_backend = backend if backend.has_crc32 else None
            store._put_many(items, [blocks], crcs)
            if reference is None:
                reference = BlockStore(Cluster.homogeneous(5))
                reference._crc_backend = None
                for item in items:
                    reference.put(*item)
            for server in range(5):
                assert {key: (record[0], record[1].tobytes()) for key, record in store._disks[server].items()} == {
                    key: (record[0], record[1].tobytes()) for key, record in reference._disks[server].items()
                }, backend
                assert all((record[2] is None) == (store._crc_backend is None)
                           for record in store._disks[server].values())

    def test_crc32_matches_zlib(self, request):
        """Every width by itself (a short call: the 128-bit fold), and all
        of them in one ``crc32_ranges`` call with a 256 KiB block (a long
        call: the 512-bit fold where the build has it)."""
        rng = np.random.default_rng(5)
        blocks = [
            rng.integers(0, 256, size=(3, width + 11), dtype=np.uint8)[:, 7 : 7 + width]  # unaligned rows
            for width in [*range(1, 301), 4_096, 16_380]
        ]
        filler = rng.integers(0, 256, size=(2, (128 << 10) + 3), dtype=np.uint8)
        want = [[zlib.crc32(row.tobytes()) for row in rows] for rows in [*blocks, filler]]
        for backend in _isa_backends(request):
            if not backend.has_crc32:
                continue
            bases, geometry = [], []
            for rows, crcs in zip([*blocks, filler], want):
                assert backend.crc32_rows(rows) == crcs, (backend, rows.shape)
                bases.append(backend.row_buffer(rows))
                geometry += (rows.strides[0], rows.shape[0], rows.shape[1])
            assert backend.crc32_ranges(bases, geometry) == [crc for crcs in want for crc in crcs], backend

    def test_crc32_deliver_copies_each_window_as_it_hashes(self, request):
        """``crc32_deliver`` is a ``crc32_ranges`` check plus a copy of each
        range's window: ranges of every width (unaligned rows apart by more
        than their width, 40 000 bytes a row over two cache blocks), windows
        whole, cut at both ends, inside one row, and empty, in one short
        call and in one past the 512-bit fold's threshold.  It names exactly
        the ranges with a row whose expected CRC differs.  Bytes outside
        the windows are left as they were."""
        rng = np.random.default_rng(11)
        blocks = [
            rng.integers(0, 256, size=(3, width + 9), dtype=np.uint8)[:, 3 : 3 + width]
            for width in self.CRC_WIDTHS
        ]
        for backend in _isa_backends(request):
            if not backend.has_crc32:
                continue
            for ranges in (blocks[:5], blocks):  # a short call; one over 256 KiB
                bases, geometry, windows, want = [], [], [], []
                dest = np.full(sum(rows.size for rows in ranges) + 7, 0xA5, dtype=np.uint8)
                expect = dest.copy()
                at = 7
                for r, rows in enumerate(ranges):
                    size = rows.size
                    lo, hi = ((0, size), (1, size - 2), (size // 3, size // 3 + 1), (size // 2, size // 2))[r % 4]
                    bases.append(backend.row_buffer(rows))
                    geometry += (rows.strides[0], rows.shape[0], rows.shape[1])
                    windows += (at, lo, hi)
                    expect[at : at + hi - lo] = rows.reshape(-1)[lo:hi]
                    want += [zlib.crc32(row.tobytes()) for row in rows]
                    at += hi - lo
                assert backend.crc32_deliver(bases, geometry, dest, windows, want) == [], backend
                assert backend.crc32_ranges(bases, geometry) == want, backend
                assert np.array_equal(dest, expect), backend
                # A range is named when one of its rows differs: the first row
                # of the first range, the last of the third and of the last.
                ends = np.cumsum([rows.shape[0] for rows in ranges])
                wrong = list(want)
                for row in (0, ends[2] - 1, ends[-1] - 1):
                    wrong[row] ^= 1
                assert backend.crc32_deliver(bases, geometry, dest, windows, wrong) == [0, 2, len(ranges) - 1]
                assert np.array_equal(dest, expect), backend
                # A window past the output or past its range's rows writes nothing.
                size = ranges[-1].size
                for bad in ((dest.size - 1, 0, 2), (0, size, size + 1), (0, 2, 1), (-1, 0, 1)):
                    with pytest.raises(ValueError):
                        backend.crc32_deliver(bases, geometry, dest, windows[:-3] + list(bad), want)
                    assert np.array_equal(dest, expect), backend


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_a_batch_checked_by_zlib_reads_and_judges_alike(monkeypatch, dtype):
    """The same batch through the native CRC pass and through the ``zlib``
    fallback: the same views, the same verdicts, the same reads — rows
    under 64 bytes, 1-D and column-slice blocks, rot, a range not held."""
    from repro.cluster import Cluster
    from repro.storage import BlockStore, StorageError

    def store(native: bool) -> BlockStore:
        try:
            with monkeypatch.context() as env:  # the run's own setting comes back on exit
                if not native:
                    env.setenv("REPRO_NATIVE_DISABLE", "1")
                reset_native_backend()
                s = BlockStore(Cluster.homogeneous(2))
        finally:
            reset_native_backend()
        wide = np.random.default_rng(3).integers(0, 1 << 8 * np.dtype(dtype).itemsize, size=(7, 9_000)).astype(dtype)
        s.put(0, "slice", 0, wide[:, 100:4_700])
        s.put(0, "small", 0, np.ascontiguousarray(wide[:, :21]))
        s.put(1, "flat", 0, wide[0, :500])
        s.put(1, "rot", 0, np.ascontiguousarray(wide[:, 5_000:9_000]))
        s.corrupt(1, "rot", 0, offset=2 * 4_000 + 7)
        return s

    ranges = [
        (0, "slice", 0, 2, 3), (0, "small", 0, 0, 7), (1, "flat", 0, 0, 500), (1, "rot", 0, 0, 2),
        (1, "rot", 0, 1, 3), (0, "slice", 0, 6, 1), (0, "ghost", 0, 0, 1), (0, "small", 0, 5, 4),
    ]
    outcomes, verdicts = [], []
    for native in ([True, False] if nat.native_available() and nat.get_backend().has_crc32 else [False]):
        s = store(native)
        assert (s._crc_backend is not None) == native
        read, plain = s._range_reader(ranges, verify=True)
        verdicts.append([booked is not None for booked in plain])  # clean hardware: plain is what the pass vouched for
        got = []
        for i in range(len(ranges)):
            try:
                data, _ = read(i)
                got.append(data.tobytes())
            except StorageError as exc:
                got.append((type(exc).__name__, str(exc)))
        outcomes.append(got)
    assert verdicts[-1] == [True, True, False, True, False, True, False, False]  # 1-D, rot, not held: False
    assert all(v == verdicts[0] for v in verdicts) and all(o == outcomes[0] for o in outcomes)
    assert [type(o) for o in outcomes[0]] == [bytes, bytes, bytes, bytes, tuple, bytes, tuple, tuple]


class TestPoolKnob:
    @needs_native
    def test_tiny_pool_still_byte_exact(self, monkeypatch):
        # A 64 KiB budget forces many cache blocks per stripe on both
        # native paths; results must not depend on the block geometry.
        gf = GF256
        dense = _random(gf, (4, 50), seed=37) | 1
        parity = np.ones((2, 50), dtype=np.uint8)
        payload = _random(gf, (50, LARGE), seed=41)
        monkeypatch.setattr(schedule, "POOL_BUDGET_BYTES", 64 << 10)
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

    def test_cpu_features_key_the_artifact(self, monkeypatch, tmp_path):
        """An artifact compiled with ``-march=native`` runs only on a CPU
        with the features it was built for: another feature set gets
        another directory, and a compiler-less host never loads one built
        for other features, even an intact one."""
        backend = nat.get_backend()  # resolved for this host, before any patch
        monkeypatch.setattr(nat, "_cpu_features", lambda: "avx2 pclmulqdq sse4_2")
        here = nat.native_build_key()
        monkeypatch.setattr(nat, "_cpu_features", lambda: "avx2 avx512f pclmulqdq sse4_2")
        there = nat.native_build_key()
        assert here.split("/")[0] != there.split("/")[0]
        assert here.split("/")[1] == there.split("/")[1]  # one compiler
        foreign = tmp_path / there / "repro_native.so"
        foreign.parent.mkdir(parents=True)
        foreign.write_bytes(backend.so_path.read_bytes() if backend else b"\x7fELF")
        monkeypatch.setattr(nat, "_cpu_features", lambda: "avx2 pclmulqdq sse4_2")
        monkeypatch.setattr(nat, "_compiler", lambda: None)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        reset_native_backend()
        try:
            assert not native_available()
            assert "no C compiler" in native_unavailable_reason()
        finally:
            monkeypatch.undo()
            reset_native_backend()

    def test_a_cache_entry_that_does_not_load_is_passed_over(self, tmp_path):
        """A truncated ``repro_native.so`` in the cache does not turn the tier
        off: with a compiler it is rebuilt, without one the next cached
        build of the same source is loaded."""
        if nat._compiler() is None or nat._disabled():
            pytest.skip("needs a C compiler and the native tier enabled")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, REPRO_NATIVE_CACHE=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        probe = (
            "from repro.gf import native as n\n"
            "assert n.native_available(), n.native_unavailable_reason()\n"
            "print(n.get_backend().so_path)\n"
        )

        def resolve(**extra):
            proc = subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(env, **extra), timeout=600
            )
            assert proc.returncode == 0, proc.stderr
            return Path(proc.stdout.strip())

        built = resolve()
        intact = built.read_bytes()
        built.write_bytes(intact[: len(intact) // 3])
        assert resolve() == built and built.read_bytes() != intact[: len(intact) // 3]  # rebuilt in place
        stale = built.parent.parent / "0" / "repro_native.so"  # sorts before every toolchain key
        stale.parent.mkdir()
        stale.write_bytes(intact[:100])
        assert resolve(CC=str(tmp_path / "no-such-cc")) == built

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
        assert store._crc_backend is None  # bound once, at construction
        block = _random(GF65536, (7, 9_363), seed=71)
        store.put(0, "f", 0, block)
        assert store._disks[0]["f", 0] == ([zlib.crc32(row) for row in block], block, None)
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


def _io_plans():
    """Every plan of the e2e codes with a dense product, as
    ``benchmarks/native_speeds.py`` lists them: the encode, then the decode
    and the rebuild after each single-block loss."""
    from repro.codes import PyramidCode, ReedSolomonCode
    from repro.core import GalloperCode

    for code in (ReedSolomonCode(4, 3), PyramidCode(4, 2, 1), GalloperCode(4, 2, 1)):
        yield f"{code.name} encode", code.generator
        for b in range(code.n):
            yield f"{code.name} decode -{b}", code.compile_decode([i for i in range(code.n) if i != b]).plan.coeffs
            yield f"{code.name} rebuild {b}", code.compile_reconstruct(b, code.repair_plan(b).helpers).coeffs


#: The tier ``kernel="auto"`` picks for each of them with the wide kernels:
#: the gather for every RS(4,3) plan (its decodes and rebuilds sum four terms
#: a row, 1.3-1.6x faster gathered at bulk width), the XOR schedule where a
#: row sums two terms, which the schedule runs as fast.
_XOR_PICKS = {
    "pyramid decode -0", "pyramid rebuild 0", "pyramid decode -1", "pyramid rebuild 1",
    "pyramid rebuild 2", "pyramid decode -3", "pyramid rebuild 3", "pyramid decode -4",
    "pyramid rebuild 4", "pyramid rebuild 5",
    "galloper decode -0", "galloper rebuild 0", "galloper rebuild 1", "galloper decode -2",
    "galloper rebuild 2", "galloper rebuild 3", "galloper rebuild 4", "galloper rebuild 5",
}


@pytest.mark.skipif(
    not (native_available() and nat.get_backend().simd_level == 3), reason="needs the wide kernels (simd_level 3)"
)
def test_wide_kernels_pick_the_faster_tier():
    """Unpatched auto picks on a host with the wide kernels, pinned plan by
    plan (``docs/PERFORMANCE.md``, "A striped write: each byte hashed in the
    gather, each batch stored once")."""
    picks = {label: CodingPlan(GF256, coeffs).kernel for label, coeffs in _io_plans()}
    picks = {label: kind for label, kind in picks.items() if kind != "copy"}
    assert len(picks) == 39
    assert {label for label, kind in picks.items() if kind == "native-xor"} == _XOR_PICKS
    assert {kind for label, kind in picks.items() if label not in _XOR_PICKS} == {"native"}
