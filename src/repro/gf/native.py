"""Native (generated-C) kernel tier, compiled at first use via cffi.

This is the fourth rung of the kernel ladder (scalar -> packed tables ->
XOR schedules -> native).  The numpy tiers stream every coding product
through ufunc passes and gather intermediates; ISA-L-class throughput
needs the two hot loops in real machine code:

* **gather-multiply-accumulate** — the packed multi-lane product of
  :class:`repro.gf.kernels.CodingPlan`, as a C loop over per-coefficient
  product tables.  On AVX2 hosts the GF(2^8) kernel runs the classic
  ISA-L ``pshufb`` nibble split (two 16-entry shuffles per 32 symbols);
  GF(2^16) uses the split lo/hi byte tables.  Both are cache-blocked so
  a multi-MB stripe streams through an L2-sized working set: the block
  loop is outermost and every output row segment stays resident across
  the data-row walk.
* **XOR-schedule execution** — the compiled program of
  :class:`repro.gf.schedule.XorSchedule` lowered to a flat instruction
  array (ZERO / COPY / XOR2 / XACC / DOUBLE over data / output / pool
  rows) executed chunk-by-chunk in C, with the same scratch-pool budget
  as the numpy executor (``REPRO_POOL_KB``).

Beside them rides the block store's checksum: ``zlib``'s CRC-32 of every
row of a block in one call, by PCLMULQDQ folding (four 128-bit lanes,
Barrett reduction).  It is compiled only where the compiler targets
PCLMUL (:attr:`NativeBackend.has_crc32`); everywhere else the store
stays on ``zlib.crc32``, whose values it reproduces bit for bit.

The shared object is built lazily on first use: the generated C source
is compiled with the host toolchain (``cc``/``gcc``/``clang``,
``-O3 -march=native`` with a portable retry) into a per-source-version
build directory under ``~/.cache/repro-native`` (override with
``REPRO_NATIVE_CACHE``), then loaded through :mod:`cffi`'s ABI mode.
Later processes dlopen the cached artifact without recompiling.

Everything degrades transparently: no compiler, no cffi, a failed build,
or ``REPRO_NATIVE_DISABLE=1`` all make :func:`get_backend` return
``None`` and the plan layer falls back to the numpy tiers
(:func:`native_unavailable_reason` says why).  Correctness never depends
on this module — the native kernels are byte-exact against the numpy
tiers and the scalar reference (``tests/test_native.py``).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "NativeBackend",
    "NativeBuildError",
    "get_backend",
    "native_available",
    "native_unavailable_reason",
    "reset_native_backend",
    "native_build_key",
    "OP_ZERO",
    "OP_COPY",
    "OP_XOR2",
    "OP_XACC",
    "OP_DOUBLE",
]

#: XOR-program opcodes shared with the C executor (instruction layout:
#: ``op, dst_base, dst_row, a_base, a_row, b_base, b_row`` as int32).
OP_ZERO, OP_COPY, OP_XOR2, OP_XACC, OP_DOUBLE = range(5)

#: Operand bases: payload rows (resolved through ``cols``), output rows
#: (resolved through ``rows``), scratch-pool rows.
BASE_DATA, BASE_OUT, BASE_POOL = range(3)

#: Ints per instruction in the flattened program array.
INSN_WORDS = 7

#: Bump to invalidate cached shared objects when the ABI (not the C
#: text) changes in a way the source hash cannot see.
_ABI_TAG = "repro-native-1"

_CDEF = """
int repro_native_simd(void);
int repro_native_clmul(void);
void repro_crc32_rows(const uint8_t *base, ptrdiff_t row_stride,
                      size_t nrows, size_t row_bytes, uint32_t *out);
void repro_gf8_gather(const uint8_t *tables, const uint8_t *coeffs,
                      const uint8_t *data, ptrdiff_t dstride,
                      const int32_t *cols,
                      uint8_t *out, ptrdiff_t ostride,
                      const int32_t *rows,
                      int32_t m, int32_t n, size_t s, size_t block,
                      uint8_t *started);
void repro_gf16_gather(const uint16_t *lo, const uint16_t *hi,
                       const uint16_t *coeffs,
                       const uint16_t *data, ptrdiff_t dstride,
                       const int32_t *cols,
                       uint16_t *out, ptrdiff_t ostride,
                       const int32_t *rows,
                       int32_t m, int32_t n, size_t s, size_t block,
                       uint8_t *started);
void repro_xor_exec(const uint8_t *data, ptrdiff_t dstride,
                    const int32_t *cols,
                    uint8_t *out, ptrdiff_t ostride,
                    const int32_t *rows,
                    uint8_t *pool, size_t block_bytes,
                    const int32_t *prog, int32_t n_insn,
                    size_t nbytes, int32_t qbits, uint32_t red);
"""


def _crc_table_c() -> str:
    """The 256-entry byte table of zlib's CRC-32, as C initialisers."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        table.append(crc)
    return "\n".join(
        "    " + ", ".join(f"0x{v:08x}u" for v in table[i : i + 6]) + ","
        for i in range(0, 256, 6)
    )


_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

int repro_native_simd(void)
{
#if defined(__AVX2__)
    return 2;
#else
    return 1;
#endif
}

/* ------------------------------------------------------------- gather */

/* dst[t] (^)= tab[src[t]] over one cache block; tab is one coefficient's
 * 256-entry product table.  acc == 0 stores (the first product of an
 * output row lands directly, no zero-fill pass), acc != 0 accumulates. */
static void mla8_scalar(uint8_t *dst, const uint8_t *src, const uint8_t *tab,
                        size_t w, int acc)
{
    size_t t;
    if (acc)
        for (t = 0; t < w; t++) dst[t] ^= tab[src[t]];
    else
        for (t = 0; t < w; t++) dst[t] = tab[src[t]];
}

#if defined(__AVX2__)
/* ISA-L style nibble split: c*x == c*(x_lo) ^ c*(x_hi << 4), each term a
 * 16-entry table -> one pshufb per nibble, 32 symbols per iteration. */
static void mla8_block(uint8_t *dst, const uint8_t *src, const uint8_t *tab,
                       size_t w, int acc)
{
    uint8_t hi_tab[16];
    __m256i lo_t, hi_t, mask;
    size_t t = 0;
    int v;
    if (w < 32) { mla8_scalar(dst, src, tab, w, acc); return; }
    for (v = 0; v < 16; v++) hi_tab[v] = tab[v << 4];
    lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)tab));
    hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)hi_tab));
    mask = _mm256_set1_epi8(0x0f);
    for (; t + 32 <= w; t += 32) {
        __m256i x = _mm256_loadu_si256((const __m256i *)(src + t));
        __m256i lo = _mm256_and_si256(x, mask);
        __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), mask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo_t, lo),
                                     _mm256_shuffle_epi8(hi_t, hi));
        if (acc)
            p = _mm256_xor_si256(p, _mm256_loadu_si256((const __m256i *)(dst + t)));
        _mm256_storeu_si256((__m256i *)(dst + t), p);
    }
    if (t < w) mla8_scalar(dst + t, src + t, tab, w - t, acc);
}
#else
#define mla8_block mla8_scalar
#endif

/* Cache-blocked (m x n) GF(2^8) product: for each L2-sized column block,
 * walk the data rows once; every output-row segment stays resident across
 * the walk.  `started` is an m-byte scratch marking rows whose first
 * product already landed. */
void repro_gf8_gather(const uint8_t *tables, const uint8_t *coeffs,
                      const uint8_t *data, ptrdiff_t dstride,
                      const int32_t *cols,
                      uint8_t *out, ptrdiff_t ostride,
                      const int32_t *rows,
                      int32_t m, int32_t n, size_t s, size_t block,
                      uint8_t *started)
{
    size_t s0;
    for (s0 = 0; s0 < s; s0 += block) {
        size_t w = (s - s0 < block) ? s - s0 : block;
        int32_t i, j;
        memset(started, 0, (size_t)m);
        for (j = 0; j < n; j++) {
            const uint8_t *src = data + (ptrdiff_t)cols[j] * dstride + (ptrdiff_t)s0;
            for (i = 0; i < m; i++) {
                uint8_t c = coeffs[(size_t)i * (size_t)n + (size_t)j];
                uint8_t *dst;
                if (!c) continue;
                dst = out + (ptrdiff_t)rows[i] * ostride + (ptrdiff_t)s0;
                mla8_block(dst, src,
                           tables + ((size_t)i * (size_t)n + (size_t)j) * 256,
                           w, started[i]);
                started[i] = 1;
            }
        }
    }
}

/* GF(2^16): split-table product c*x == lo[x & 0xff] ^ hi[x >> 8].
 * Strides and counts are in uint16 elements. */
static void mla16(uint16_t *dst, const uint16_t *src,
                  const uint16_t *lo, const uint16_t *hi, size_t w, int acc)
{
    size_t t;
    if (acc)
        for (t = 0; t < w; t++) dst[t] ^= (uint16_t)(lo[src[t] & 0xff] ^ hi[src[t] >> 8]);
    else
        for (t = 0; t < w; t++) dst[t] = (uint16_t)(lo[src[t] & 0xff] ^ hi[src[t] >> 8]);
}

void repro_gf16_gather(const uint16_t *lo, const uint16_t *hi,
                       const uint16_t *coeffs,
                       const uint16_t *data, ptrdiff_t dstride,
                       const int32_t *cols,
                       uint16_t *out, ptrdiff_t ostride,
                       const int32_t *rows,
                       int32_t m, int32_t n, size_t s, size_t block,
                       uint8_t *started)
{
    size_t s0;
    for (s0 = 0; s0 < s; s0 += block) {
        size_t w = (s - s0 < block) ? s - s0 : block;
        int32_t i, j;
        memset(started, 0, (size_t)m);
        for (j = 0; j < n; j++) {
            const uint16_t *src = data + (ptrdiff_t)cols[j] * dstride + (ptrdiff_t)s0;
            for (i = 0; i < m; i++) {
                size_t e = (size_t)i * (size_t)n + (size_t)j;
                uint16_t *dst;
                if (!coeffs[e]) continue;
                dst = out + (ptrdiff_t)rows[i] * ostride + (ptrdiff_t)s0;
                mla16(dst, src, lo + e * 256, hi + e * 256, w, started[i]);
                started[i] = 1;
            }
        }
    }
}

/* ---------------------------------------------------- XOR-schedule exec */

static void vxor2(uint8_t *dst, const uint8_t *a, const uint8_t *b, size_t w)
{
    size_t t;
    for (t = 0; t < w; t++) dst[t] = a[t] ^ b[t];
}

static void vxacc(uint8_t *dst, const uint8_t *a, size_t w)
{
    size_t t;
    for (t = 0; t < w; t++) dst[t] ^= a[t];
}

/* dst = src * alpha over GF(2^q): shift each symbol left one bit and XOR
 * the reduction polynomial wherever the old top bit was set.  Safe when
 * dst aliases src (pure elementwise). */
static void vdouble8(uint8_t *dst, const uint8_t *src, size_t w,
                     int32_t qbits, uint32_t red)
{
    uint8_t mask = (uint8_t)(((1u << qbits) - 1u) >> 1);
    int shift = qbits - 1;
    size_t t;
    for (t = 0; t < w; t++) {
        uint8_t v = src[t];
        dst[t] = (uint8_t)(((uint8_t)(v & mask) << 1) ^ (((v >> shift) & 1u) * red));
    }
}

static void vdouble16(uint16_t *dst, const uint16_t *src, size_t w,
                      int32_t qbits, uint32_t red)
{
    uint16_t mask = (uint16_t)(((1u << qbits) - 1u) >> 1);
    int shift = qbits - 1;
    size_t t;
    for (t = 0; t < w; t++) {
        uint16_t v = src[t];
        dst[t] = (uint16_t)(((uint16_t)(v & mask) << 1) ^ (((v >> shift) & 1u) * red));
    }
}

static uint8_t *xref(int32_t base, int32_t row, size_t s0,
                     const uint8_t *data, ptrdiff_t dstride, const int32_t *cols,
                     uint8_t *out, ptrdiff_t ostride, const int32_t *rows,
                     uint8_t *pool, size_t block_bytes)
{
    if (base == 0)
        return (uint8_t *)data + (ptrdiff_t)cols[row] * dstride + (ptrdiff_t)s0;
    if (base == 1)
        return out + (ptrdiff_t)rows[row] * ostride + (ptrdiff_t)s0;
    return pool + (size_t)row * block_bytes;
}

/* Execute a flattened XOR program chunk by chunk.  Pool rows hold one
 * chunk's worth of ladder lanes / CSE intermediates and are recomputed
 * per chunk; data and output rows are addressed at the chunk offset.
 * Strides are in bytes; `nbytes` is the full row length in bytes. */
void repro_xor_exec(const uint8_t *data, ptrdiff_t dstride,
                    const int32_t *cols,
                    uint8_t *out, ptrdiff_t ostride,
                    const int32_t *rows,
                    uint8_t *pool, size_t block_bytes,
                    const int32_t *prog, int32_t n_insn,
                    size_t nbytes, int32_t qbits, uint32_t red)
{
    size_t block = block_bytes ? block_bytes : nbytes;
    size_t s0;
    if (!nbytes) return;
    for (s0 = 0; s0 < nbytes; s0 += block) {
        size_t w = (nbytes - s0 < block) ? nbytes - s0 : block;
        int32_t p;
        for (p = 0; p < n_insn; p++) {
            const int32_t *ins = prog + (size_t)p * 7;
            uint8_t *dst = xref(ins[1], ins[2], s0, data, dstride, cols,
                                out, ostride, rows, pool, block_bytes);
            const uint8_t *a = (ins[0] == 0) ? 0 :
                xref(ins[3], ins[4], s0, data, dstride, cols,
                     out, ostride, rows, pool, block_bytes);
            switch (ins[0]) {
            case 0:  /* ZERO */
                memset(dst, 0, w);
                break;
            case 1:  /* COPY */
                memcpy(dst, a, w);
                break;
            case 2: {  /* XOR2 */
                const uint8_t *b = xref(ins[5], ins[6], s0, data, dstride, cols,
                                        out, ostride, rows, pool, block_bytes);
                vxor2(dst, a, b, w);
                break;
            }
            case 3:  /* XACC */
                vxacc(dst, a, w);
                break;
            case 4:  /* DOUBLE */
                if (qbits <= 8)
                    vdouble8(dst, a, w, qbits, red);
                else
                    vdouble16((uint16_t *)dst, (const uint16_t *)a, w / 2,
                              qbits, red);
                break;
            }
        }
    }
}

/* -------------------------------------------------------------- CRC-32 */

int repro_native_clmul(void)
{
#if defined(__PCLMUL__) && defined(__SSE4_1__)
    return 1;
#else
    return 0;
#endif
}

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>

/* zlib's CRC-32: reflected polynomial 0xEDB88320, register preset to and
 * finally inverted with 0xffffffff.  The byte table finishes what the
 * folding kernel leaves (tails under 16 bytes, rows under 64). */
static const uint32_t crc_table[256] = {
@CRC_TABLE@
};

static uint32_t crc32_bytes(uint32_t crc, const uint8_t *p, size_t n)
{
    while (n--) crc = crc_table[(crc ^ *p++) & 0xff] ^ (crc >> 8);
    return crc;
}

/* Fold `a` forward by the distance encoded in `k` and absorb `next`:
 * a.lo * k.lo ^ a.hi * k.hi ^ next (carry-less products). */
static inline __m128i crc_fold(__m128i a, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         next);
}

/* Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
 * bit-reflected form: four 128-bit lanes folded 512 bits at a time, then
 * into one lane, 128 -> 64 -> 32 bits by Barrett reduction.  `crc` is the
 * running (inverted) register; n >= 64 and a multiple of 16. */
static uint32_t crc32_clmul(uint32_t crc, const uint8_t *p, size_t n)
{
    const __m128i k512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
    const __m128i k128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
    const __m128i k64 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x0 = _mm_loadu_si128((const __m128i *)p);
    __m128i x1 = _mm_loadu_si128((const __m128i *)(p + 16));
    __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 32));
    __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 48));
    __m128i t;
    x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128((int)crc));
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x0 = crc_fold(x0, k512, _mm_loadu_si128((const __m128i *)p));
        x1 = crc_fold(x1, k512, _mm_loadu_si128((const __m128i *)(p + 16)));
        x2 = crc_fold(x2, k512, _mm_loadu_si128((const __m128i *)(p + 32)));
        x3 = crc_fold(x3, k512, _mm_loadu_si128((const __m128i *)(p + 48)));
    }
    x0 = crc_fold(x0, k128, x1);
    x0 = crc_fold(x0, k128, x2);
    x0 = crc_fold(x0, k128, x3);
    for (; n >= 16; p += 16, n -= 16)
        x0 = crc_fold(x0, k128, _mm_loadu_si128((const __m128i *)p));
    /* 128 -> 64 bits */
    t = _mm_clmulepi64_si128(x0, k128, 0x10);
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
    t = _mm_srli_si128(x0, 4);
    x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00);
    x0 = _mm_xor_si128(x0, t);
    /* Barrett: 64 -> 32 bits with mu = poly.hi, P' = poly.lo */
    t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x0, t), 1);
}

/* out[r] = zlib crc32 of the row_bytes bytes at base + r * row_stride. */
void repro_crc32_rows(const uint8_t *base, ptrdiff_t row_stride,
                      size_t nrows, size_t row_bytes, uint32_t *out)
{
    size_t r;
    for (r = 0; r < nrows; r++) {
        const uint8_t *p = base + (ptrdiff_t)r * row_stride;
        size_t body = row_bytes >= 64 ? row_bytes & ~(size_t)15 : 0;
        uint32_t crc = 0xffffffffu;
        if (body) crc = crc32_clmul(crc, p, body);
        out[r] = ~crc32_bytes(crc, p + body, row_bytes - body);
    }
}
#endif
""".replace("@CRC_TABLE@", _crc_table_c())


class NativeBuildError(RuntimeError):
    """Raised internally when the shared object cannot be produced."""


def _source_key() -> str:
    """Hash of the generated C + cdef ABI: the correctness-critical half."""
    blob = "\0".join((_ABI_TAG, _C_SOURCE, _CDEF))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _toolchain_key() -> str:
    """Hash of the compiler identity: the codegen-quality half."""
    cc = _compiler()
    cc_id = ""
    if cc:
        try:
            cc_id = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=30
            ).stdout.splitlines()[0].strip()
        except (OSError, subprocess.SubprocessError, IndexError):
            cc_id = cc
    return hashlib.sha256(f"{cc or ''}\0{cc_id}".encode()).hexdigest()[:8]


def native_build_key() -> str:
    """Relative cache path for this build: ``<source-key>/<toolchain-key>``.

    The outer level hashes the generated C and the cdef ABI — anything
    that could make a stale shared object unsafe to dlopen.  The inner
    level hashes the compiler identity, which only affects codegen
    quality; a compiler-less host may therefore safely dlopen *any*
    cached artifact under the current source key (see :func:`_resolve`).
    """
    return f"{_source_key()}/{_toolchain_key()}"


def _compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        return cc if shutil.which(cc) else None
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            return found
    return None


def _cache_root() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _disabled() -> bool:
    flag = os.environ.get("REPRO_NATIVE_DISABLE", "").strip().lower()
    return flag not in ("", "0", "false", "no")


def _build_shared_object(build_dir: Path) -> Path:
    """Compile the generated C into ``build_dir`` and return the .so path."""
    cc = _compiler()
    if cc is None:
        raise NativeBuildError("no C compiler on PATH (cc/gcc/clang) and $CC unset")
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = build_dir / "repro_native.so"
    if so_path.exists():
        return so_path
    c_path = build_dir / "repro_native.c"
    c_path.write_text(_C_SOURCE)
    base = [cc, "-O3", "-fPIC", "-shared", str(c_path)]
    attempts = (["-march=native", "-funroll-loops"], [])
    last = None
    for extra in attempts:
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(build_dir))
        os.close(fd)
        cmd = base[:1] + extra + base[1:] + ["-o", tmp]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            os.unlink(tmp)
            raise NativeBuildError(f"compiler invocation failed: {exc}") from exc
        if proc.returncode == 0:
            os.replace(tmp, so_path)  # atomic: concurrent builders converge
            (build_dir / "build-info.txt").write_text(
                f"cc: {' '.join(cmd[:-2])}\n"
            )
            return so_path
        os.unlink(tmp)
        last = proc.stderr.strip()
    raise NativeBuildError(f"cc failed: {last or 'unknown error'}")


class NativeBackend:
    """A loaded native library plus numpy-aware call wrappers.

    One instance per process (see :func:`get_backend`); all methods are
    stateless with respect to the backend and release the GIL for the
    duration of the C call (cffi ABI-mode semantics).
    """

    def __init__(self, ffi, lib, so_path: Path):
        self._ffi = ffi
        self._lib = lib
        self.so_path = so_path
        #: 2 when the library was compiled with AVX2, 1 for plain C.
        self.simd_level = int(lib.repro_native_simd())
        #: Whether the library carries the PCLMULQDQ CRC-32 kernel
        #: (:meth:`crc32_rows`); without it callers stay on ``zlib``.
        self.has_crc32 = bool(lib.repro_native_clmul())
        self._crc_out = ffi.typeof("uint32_t[]")

    # ------------------------------------------------------------ helpers

    def _ptr(self, ctype: str, arr: np.ndarray):
        return self._ffi.cast(ctype, arr.ctypes.data)

    # ------------------------------------------------------------- kernels

    def gf8_gather(self, tables, coeffs, data, cols, out, rows, block: int) -> None:
        """``out[rows] (+)= tables @ data[cols]`` over GF(2^8), cache-blocked."""
        m, n = coeffs.shape
        started = np.empty(m, dtype=np.uint8)
        self._lib.repro_gf8_gather(
            self._ptr("const uint8_t *", tables),
            self._ptr("const uint8_t *", coeffs),
            self._ptr("const uint8_t *", data), data.strides[0],
            self._ptr("const int32_t *", cols),
            self._ptr("uint8_t *", out), out.strides[0],
            self._ptr("const int32_t *", rows),
            m, n, data.shape[1], block,
            self._ptr("uint8_t *", started),
        )

    def gf16_gather(self, lo, hi, coeffs, data, cols, out, rows, block: int) -> None:
        """Split-table GF(2^16) product; strides/counts in uint16 elements."""
        m, n = coeffs.shape
        started = np.empty(m, dtype=np.uint8)
        self._lib.repro_gf16_gather(
            self._ptr("const uint16_t *", lo),
            self._ptr("const uint16_t *", hi),
            self._ptr("const uint16_t *", coeffs),
            self._ptr("const uint16_t *", data), data.strides[0] // 2,
            self._ptr("const int32_t *", cols),
            self._ptr("uint16_t *", out), out.strides[0] // 2,
            self._ptr("const int32_t *", rows),
            m, n, data.shape[1], block,
            self._ptr("uint8_t *", started),
        )

    def xor_exec(self, prog, data, cols, out, rows, pool, block_bytes: int,
                 nbytes: int, qbits: int, red: int) -> None:
        """Run a flattened XOR program (see :data:`OP_ZERO` .. :data:`OP_DOUBLE`)."""
        pool_ptr = (
            self._ptr("uint8_t *", pool)
            if pool is not None
            else self._ffi.NULL
        )
        self._lib.repro_xor_exec(
            self._ptr("const uint8_t *", data), data.strides[0],
            self._ptr("const int32_t *", cols),
            self._ptr("uint8_t *", out), out.strides[0],
            self._ptr("const int32_t *", rows),
            pool_ptr, block_bytes,
            self._ptr("const int32_t *", prog), prog.size // INSN_WORDS,
            nbytes, qbits, red,
        )

    def crc32_rows(self, rows: np.ndarray) -> list[int]:
        """``[zlib.crc32(row) for row in rows]`` of a 2-D array in one C call.

        Rows are read in place when they are contiguous, whatever the
        row stride (a column slice of a batched encode); anything else
        is copied first.  Only valid when :attr:`has_crc32`.
        """
        if rows.ndim != 2:
            raise ValueError(f"crc32_rows expects a 2-D array, got shape {rows.shape}")
        ffi = self._ffi
        n, width = rows.shape
        if rows.flags.c_contiguous:
            base = ffi.from_buffer(rows)
        else:
            if rows.strides[1] != rows.itemsize:
                rows = np.ascontiguousarray(rows)
            base = ffi.from_buffer(rows[0])
        out = ffi.new(self._crc_out, n)
        self._lib.repro_crc32_rows(base, rows.strides[0], n, width * rows.itemsize, out)
        return ffi.unpack(out, n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        simd = "avx2" if self.simd_level >= 2 else "scalar"
        return f"NativeBackend({simd}, {self.so_path})"


# Resolution is process-wide and memoized: None = not yet resolved; the
# tuple holds (backend-or-None, reason).  `reset_native_backend` clears
# it for tests that simulate a missing toolchain.
_state: tuple[NativeBackend | None, str] | None = None
_lock = threading.Lock()


def _resolve() -> tuple[NativeBackend | None, str]:
    if _disabled():
        return None, "disabled by REPRO_NATIVE_DISABLE"
    try:
        import cffi
    except ImportError:
        return None, "cffi is not installed"
    try:
        if _compiler() is None:
            # No toolchain — but any cached artifact built from this exact
            # source/ABI (by whichever compiler) is safe to dlopen.
            hits = sorted((_cache_root() / _source_key()).glob("*/repro_native.so"))
            if not hits:
                return None, "no C compiler on PATH (cc/gcc/clang) and $CC unset"
            so_path = hits[0]
        else:
            so_path = _build_shared_object(_cache_root() / native_build_key())
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(str(so_path))
        return NativeBackend(ffi, lib, so_path), ""
    except (NativeBuildError, OSError) as exc:
        return None, str(exc)


def get_backend() -> NativeBackend | None:
    """The process-wide native backend, or ``None`` when unavailable.

    The first call pays the compile (or a dlopen of the cached shared
    object); every later call is a memoized read.  Failure is memoized
    too — a broken toolchain is reported once, not re-probed per plan.
    """
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _resolve()
    return _state[0]


def native_available() -> bool:
    """Whether the native tier can execute in this process."""
    return get_backend() is not None


def native_unavailable_reason() -> str:
    """Why :func:`native_available` is False (empty string when it is True)."""
    get_backend()
    return _state[1] if _state else ""


def reset_native_backend() -> None:
    """Forget the resolved backend so the next call re-probes the toolchain.

    Test hook: combined with monkeypatching ``shutil.which`` /
    ``REPRO_NATIVE_DISABLE`` it simulates a compiler-less host.  Plans
    compiled before the reset keep their already-bound backend; clear
    plan caches too when simulating a cold process.
    """
    global _state
    with _lock:
        _state = None
