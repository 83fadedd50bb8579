"""The native kernels' speeds: both tiers on every ``*_io`` plan, and CRC-32.

For RS(4,3), Pyramid(4,2,1) and Galloper(4,2,1) this takes the encode plan
and, for each block ``b`` a lost server may hold, the decode from the other
blocks and the rebuild of ``b`` from its repair plan's helpers.  Each plan
with a dense product is timed on the native gather (``native``) and on its
XOR schedule run in C (``native-xor``), alternating the two, at the
segment widths of ``bulk_io`` (two groups of 1 MiB blocks) and of
``striped_io`` (128 groups of 16 KiB blocks), through ``apply_batch`` as
the pipeline calls it.  It prints GB/s of input rows per tier and width
and the tier ``kernel="auto"`` picks.  Then, for each encode plan at both
widths, the gather folding the CRC-32 of every row it writes (as a striped
write stores its blocks) against the gather followed by one
``crc32_ranges`` pass over its output, asserting that both give the same
bytes and CRCs, and the same for each rebuild plan on the XOR executor
(which folds its output rows' CRCs as the gather does).  Then
``crc32_rows`` GB/s per row size over about 1 MiB of rows (in cache) and
16 MiB (past L2); then, at the same sizes, a read's delivering pass
(``crc32_deliver`` into a new ``bytes``: ranges of seven rows, the first
and last cut a third of a row in, as an extent's ends are) against the
``crc32_ranges`` check followed by a ``b"".join`` of the windows, asserting
that both give the same bytes and CRCs.  Then the delivering call at an
extent's shape: a 4 KiB window in one range and split over two, over the
2 340- and 16 380-byte rows of ``striped_io``'s Galloper and RS blocks,
timed as the store calls it (``NativeBackend.crc32_deliver``, Python lists
in) and as the bare C call on arguments already converted to C arrays, with
the binding's share of the call (asserting that both write the same bytes
and find every row's CRC as ``zlib`` computes it)::

    PYTHONPATH=src python benchmarks/native_speeds.py [--library SO]

``--library`` loads another build of this revision's generated C (say one
compiled with ``-mno-avx512f -mno-gfni -mno-vpclmulqdq``) in place of the
default one.  Each figure is the median over the rounds of the best of a
few calls.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import time
import zlib

import numpy as np

from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.gf import GF256, CodingPlan, XorSchedule
from repro.gf import native
from repro.storage.filesystem import _new_bytes

CODES = {
    "RS(4,3)": lambda: ReedSolomonCode(4, 3),
    "Pyramid(4,2,1)": lambda: PyramidCode(4, 2, 1),
    "Galloper(4,2,1)": lambda: GalloperCode(4, 2, 1),
}
#: Block bytes and groups of the two workloads (blocks a multiple of 7).
WIDTHS = {"bulk": ((1 << 20) // 7 * 7, 2), "striped": ((16 << 10) // 7 * 7, 128)}
#: CRC row sizes: a short row, the 2 340- and 16 380-byte rows of
#: ``striped_io``'s Galloper and RS blocks, Galloper's 9 363-byte serving
#: stripe, a 64 KiB serving block, a Galloper and an RS ``bulk_io`` row.
CRC_ROWS = (256, 2_340, 9_363, 16_380, 65_536, 149_796, 1_048_572)
CRC_TOTALS = {"in cache": 1 << 20, "past L2": 16 << 20}
#: Rows per range of a delivering read: a Galloper(4,2,1) block's seven.
RANGE_ROWS = 7
#: An extent's window: ``striped_io`` reads 4 KiB extents.
EXTENT_BYTES = 4096
#: Row bytes of ``striped_io``'s Galloper(4,2,1) and RS(4,3) blocks.
EXTENT_ROWS = (2_340, 16_380)
#: Delivering calls per timed loop at an extent's shape.
EXTENT_CALLS = 2000
ROUNDS = 7
REPEATS = 3


def plans(code):
    """``(label, coefficient matrix)`` of every plan of ``code`` with a
    dense product: the encode, then the decode and the rebuild after each
    single-block loss."""
    yield "encode", code.generator
    for b in range(code.n):
        yield f"decode -{b}", code.compile_decode([i for i in range(code.n) if i != b]).plan.coeffs
        helpers = code.repair_plan(b).helpers
        yield f"rebuild {b}", code.compile_reconstruct(b, helpers).coeffs


def pinned(coeffs, backend, schedule: bool) -> CodingPlan:
    """A plan over ``coeffs`` run on ``backend``'s gather, or on its XOR
    schedule, whatever tier it would pick."""
    plan = CodingPlan(GF256, coeffs, kernel="native")
    plan._decide_tier()
    plan._native_backend = backend
    plan._schedule = XorSchedule.compile(plan.gf, plan._sub) if schedule else None
    return plan


def gather_then_crc(plan: CodingPlan, grids: np.ndarray, backend) -> tuple[np.ndarray, list[int]]:
    """The groups' blocks, then the CRC of every row in one ``crc32_ranges``
    call over the whole output: the separate pass the fold replaces."""
    (out,), _ = plan._apply_batch([grids])
    rows = out.reshape(-1, out.shape[-1])
    return out, backend.crc32_ranges([backend.row_buffer(rows)], [rows.strides[0], len(rows), rows.shape[1]])


def gather_folding_crcs(plan: CodingPlan, grids: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The groups' blocks and their row CRCs from one gather call."""
    (out,), (crcs,) = plan._apply_batch([grids], crcs=True)
    return out, crcs.tolist()


def xor_then_crc(plan: CodingPlan, segments, backend) -> tuple[list, list[int]]:
    """A rebuild's blocks from the XOR executor, then the CRC of every row
    in one ``crc32_ranges`` call over them: the pass the fold replaces."""
    outs, _ = plan._apply_batch(segments)
    bases = [backend.row_buffer(out) for out in outs]
    geometry = [n for out in outs for n in (out.strides[0], len(out), out.shape[1])]
    return outs, backend.crc32_ranges(bases, geometry)


def xor_folding_crcs(plan: CodingPlan, segments) -> tuple[list, list[int]]:
    """A rebuild's blocks and their row CRCs from one XOR-executor call."""
    outs, crcs = plan._apply_batch(segments, crcs=True)
    return outs, [crc for folded in crcs for crc in folded.tolist()]


def read_ranges(backend, rows: np.ndarray):
    """``rows`` as a read hands them to the CRC pass: ranges of
    :data:`RANGE_ROWS` rows, their geometry and each range's window of the
    bytes returned — all of it, less a third of a row before the first
    range's and after the last range's (an extent's ends).  Returns
    ``(bases, geometry, windows, bytes returned)``."""
    n, width = rows.shape
    handle, stride, cut = backend.row_buffer(rows), rows.strides[0], width // 3
    bases, geometry, windows, at = [], [], [], 0
    for row0 in range(0, n, RANGE_ROWS):
        count = min(RANGE_ROWS, n - row0)
        lo, hi = cut if row0 == 0 else 0, count * width - (cut if row0 + count == n else 0)
        bases.append(handle + row0 * stride)
        geometry += (stride, count, width)
        windows += (at, lo, hi)
        at += hi - lo
    return bases, geometry, windows, at


def deliver(backend, ranges, expected) -> tuple[bytes, list[int]]:
    """The bytes a read returns, and the ranges whose rows' CRCs differ from
    ``expected``, from one delivering call."""
    bases, geometry, windows, nbytes = ranges
    data = _new_bytes(None, nbytes)
    return data, backend.crc32_deliver(bases, geometry, data, windows, expected)


def extent_ranges(backend, row_bytes: int, split: bool, rng):
    """A 4 KiB extent's ranges over rows of ``row_bytes``: one range from a
    third of a row in, or two, the last 2 KiB of one block's rows and the
    first 2 KiB of the next block's.  Returns ``(bases, geometry, windows,
    expected CRCs, blocks)``."""
    half, start = EXTENT_BYTES // 2, row_bytes // 3
    if split:
        nrows = -(-half // row_bytes)
        parts = [(nrows, nrows * row_bytes - half, nrows * row_bytes), (nrows, 0, half)]
    else:
        parts = [(-(-(start + EXTENT_BYTES) // row_bytes), start, start + EXTENT_BYTES)]
    bases, geometry, windows, expected, blocks, at = [], [], [], [], [], 0
    for nrows, lo, hi in parts:
        block = rng.integers(0, 256, size=(nrows, row_bytes), dtype=np.uint8)
        blocks.append(block)
        bases.append(backend.row_buffer(block))
        geometry += (row_bytes, nrows, row_bytes)
        windows += (at, lo, hi)
        expected += [zlib.crc32(row) for row in block]
        at += hi - lo
    assert at == EXTENT_BYTES
    return bases, geometry, windows, expected, blocks


def extent_table(backend, rng) -> None:
    """The delivering call at an extent's shape: µs per call through the
    binding and as the bare C call, and the binding's share."""
    ffi, call = backend._ffi, backend._lib.repro_crc32_deliver
    print("\n| row bytes | ranges | `crc32_deliver` µs | C call µs | binding share |")
    print("|---" * 5 + "|")
    for row_bytes in EXTENT_ROWS:
        for split in (False, True):
            bases, geometry, windows, expected, blocks = extent_ranges(backend, row_bytes, split, rng)
            flat = [block.reshape(-1) for block in blocks]
            want = b"".join(f[windows[3 * r + 1] : windows[3 * r + 2]].tobytes() for r, f in enumerate(flat))
            dest, bare = bytes(EXTENT_BYTES), bytearray(EXTENT_BYTES)
            assert backend.crc32_deliver(bases, geometry, dest, windows, expected) == [] and dest == want
            c_args = (
                ffi.new("char *[]", bases), ffi.new("int64_t[]", geometry), len(bases),
                ffi.from_buffer(bare), EXTENT_BYTES, ffi.new("int64_t[]", windows),
                ffi.new("uint32_t[]", expected), ffi.NULL,
            )
            assert call(*c_args) == 0 and bytes(bare) == want

            def through_binding():
                for _ in range(EXTENT_CALLS):
                    backend.crc32_deliver(bases, geometry, dest, windows, expected)

            def bare_call():
                for _ in range(EXTENT_CALLS):
                    call(*c_args)

            binding, c_only = (t / EXTENT_CALLS * 1e6 for t in median_best(through_binding, bare_call))
            print(f"| {row_bytes} | {len(bases)} | {binding:.2f} | {c_only:.2f} | "
                  f"{(binding - c_only) / binding:.0%} |", flush=True)


def check_then_join(backend, ranges, chunks) -> tuple[bytes, list[int]]:
    """The same from a ``crc32_ranges`` check, then a join of the windows:
    the two passes the delivering call replaces."""
    bases, geometry, _, _ = ranges
    crcs = backend.crc32_ranges(bases, geometry)
    return b"".join(chunks), crcs


def median_best(*calls) -> list[float]:
    """Seconds per call: the median over the rounds of its best of
    ``REPEATS`` runs, the calls taking turns round by round."""
    rounds = [[] for _ in calls]
    for _ in range(ROUNDS):
        for call, times in zip(calls, rounds):
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
            times.append(best)
    return [statistics.median(times) for times in rounds]


def load(path: pathlib.Path):
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(native._CDEF)
    return native.NativeBackend(ffi, native._dlopen(ffi, path), path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--library", type=pathlib.Path, help="another build of this revision's generated C")
    args = parser.parse_args(argv)
    backend = load(args.library) if args.library else native.get_backend()
    if backend is None:
        print(f"no native backend: {native.native_unavailable_reason()}")
        return 1
    print(f"{backend!r}, simd_level {backend.simd_level}")
    tiers = ("native", "native-xor")
    rng = np.random.default_rng(1)
    print("| code | plan | pick | " + " | ".join(f"{w} {t}" for w in WIDTHS for t in tiers) + " |")
    print("|---" * (3 + len(WIDTHS) * len(tiers)) + "|")
    for name, make in CODES.items():
        code = make()
        for label, coeffs in plans(code):
            pick = CodingPlan(GF256, coeffs).kernel
            if pick == "copy":
                continue
            cells = []
            for block, groups in WIDTHS.values():
                width = block // code.N
                segments = [rng.integers(0, 256, size=(coeffs.shape[1], width), dtype=np.uint8) for _ in range(groups)]
                runs = [pinned(coeffs, backend, tier == "native-xor") for tier in tiers]
                seconds = median_best(*(lambda plan=plan: plan.apply_batch(segments) for plan in runs))
                nbytes = sum(seg.nbytes for seg in segments)
                cells += [f"{nbytes / t / 1e9:.2f}" for t in seconds]
            print(f"| {name} | {label} | `{pick}` | " + " | ".join(cells) + " |", flush=True)
    if backend.has_crc32:
        print("\n| code | width | gather with row CRCs | gather, then `crc32_ranges` | x |")
        print("|---" * 5 + "|")
        for name, make in CODES.items():
            code = make()
            plan = pinned(code.generator, backend, schedule=False)
            for width_name, (block, groups) in WIDTHS.items():
                width = block // code.N
                grids = rng.integers(0, 256, size=(groups, code.data_stripe_total, width), dtype=np.uint8)
                folded, separate = gather_folding_crcs(plan, grids), gather_then_crc(plan, grids, backend)
                assert np.array_equal(folded[0], separate[0]) and folded[1] == separate[1], (name, width_name)
                seconds = median_best(lambda: gather_folding_crcs(plan, grids), lambda: gather_then_crc(plan, grids, backend))
                cells = [f"{grids.nbytes / t / 1e9:.2f}" for t in seconds]
                print(f"| {name} | {width_name} | " + " | ".join(cells) + f" | {seconds[1] / seconds[0]:.2f} |", flush=True)
        print("\n| code | plan | width | XOR executor with row CRCs | XOR executor, then `crc32_ranges` | x |")
        print("|---" * 6 + "|")
        for name, make in CODES.items():
            code = make()
            for label, coeffs in plans(code):
                if not label.startswith("rebuild") or CodingPlan(GF256, coeffs).kernel == "copy":
                    continue
                plan = pinned(coeffs, backend, schedule=True)
                for width_name, (block, groups) in WIDTHS.items():
                    width = block // code.N
                    segments = [rng.integers(0, 256, size=(coeffs.shape[1], width), dtype=np.uint8) for _ in range(groups)]
                    folded, separate = xor_folding_crcs(plan, segments), xor_then_crc(plan, segments, backend)
                    assert all(np.array_equal(a, b) for a, b in zip(folded[0], separate[0])), (name, label, width_name)
                    assert folded[1] == separate[1], (name, label, width_name)
                    seconds = median_best(
                        lambda: xor_folding_crcs(plan, segments), lambda: xor_then_crc(plan, segments, backend)
                    )
                    nbytes = sum(seg.nbytes for seg in segments)
                    cells = [f"{nbytes / t / 1e9:.2f}" for t in seconds]
                    print(f"| {name} | {label} | {width_name} | " + " | ".join(cells)
                          + f" | {seconds[1] / seconds[0]:.2f} |", flush=True)
        print("\n| row bytes | " + " | ".join(f"GB/s, {label}" for label in CRC_TOTALS) + " |")
        print("|---" * (1 + len(CRC_TOTALS)) + "|")
        for row_bytes in CRC_ROWS:
            cells = []
            for total in CRC_TOTALS.values():
                rows = rng.integers(0, 256, size=(max(1, total // row_bytes), row_bytes), dtype=np.uint8)
                (seconds,) = median_best(lambda: backend.crc32_rows(rows))
                cells.append(f"{rows.nbytes / seconds / 1e9:.1f}")
            print(f"| {row_bytes} | " + " | ".join(cells) + " |", flush=True)
        print("\n| row bytes | rows in all | delivering pass | check, then join | x |")
        print("|---" * 5 + "|")
        for row_bytes in CRC_ROWS:
            for label, total in CRC_TOTALS.items():
                rows = rng.integers(0, 256, size=(max(1, total // row_bytes), row_bytes), dtype=np.uint8)
                ranges = read_ranges(backend, rows)
                flat, windows = rows.reshape(-1), ranges[2]
                chunks = [
                    flat[row0 * row_bytes + windows[3 * r + 1] : row0 * row_bytes + windows[3 * r + 2]]
                    for r, row0 in enumerate(range(0, len(rows), RANGE_ROWS))
                ]
                expected = [zlib.crc32(row) for row in rows]
                data, bad = deliver(backend, ranges, expected)
                assert bad == [] and (data, expected) == check_then_join(backend, ranges, chunks), (row_bytes, label)
                seconds = median_best(
                    lambda: deliver(backend, ranges, expected), lambda: check_then_join(backend, ranges, chunks)
                )
                cells = [f"{ranges[3] / t / 1e9:.1f}" for t in seconds]
                print(f"| {row_bytes} | {label} | " + " | ".join(cells) + f" | {seconds[1] / seconds[0]:.2f} |", flush=True)
        extent_table(backend, rng)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
