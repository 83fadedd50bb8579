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
  as the numpy executor (``schedule.POOL_BUDGET_BYTES``).

Both code one or more *segments* with one plan in one call — the
pointer-table shape of ISA-L's ``ec_encode_data``, which takes any number
of stripes at once.  They read their input rows through a table of row
pointers, one per input row of every segment, which the C side expands
from per-array ``(base, row stride, rows)`` ranges (as the CRC kernel
below takes its row ranges).  A 2-D payload is one range; the helper
rows of a rebuild, read from several blocks, are one range per read,
handed over where they lie instead of being stacked into one array
first.  Each segment has its own output base, row stride and width, so
a batch of stripe groups lands each group's result in its own
contiguous part of one buffer, and each kernel makes a plan's identity
rows (row copies) itself.

Beside them rides the block store's checksum: ``zlib``'s CRC-32 of every
row of a block in one call, by PCLMULQDQ folding (four 128-bit lanes,
Barrett reduction), or of every row of many row ranges in one call (a
batched read).  It is compiled only where the compiler targets
PCLMUL (:attr:`NativeBackend.has_crc32`); everywhere else the store
stays on ``zlib.crc32``, whose values it reproduces bit for bit.

The shared object is built lazily on first use: the generated C source
is compiled with the host toolchain (``cc``/``gcc``/``clang``,
``-O3 -march=native`` with a portable retry) into a build directory per
source version and host CPU feature set under ``~/.cache/repro-native``
(override with ``REPRO_NATIVE_CACHE``), then loaded through :mod:`cffi`'s
ABI mode.  Later processes on a CPU with the same features dlopen the
cached artifact without recompiling.

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
import platform
import shutil
import struct
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
void repro_crc32_ranges(char **bases, const int64_t *geometry, size_t nranges,
                        uint32_t *out);
int repro_gf8_gather(const uint8_t *tables, const uint8_t *coeffs,
                     char **bases, const int64_t *geometry, size_t nranges,
                     const int32_t *cols, const int32_t *rows, int32_t m, int32_t n,
                     const int32_t *copies, int32_t ncopy,
                     char **outs, const int64_t *oshape, size_t nseg, size_t block);
int repro_gf16_gather(const uint16_t *lo, const uint16_t *hi,
                      const uint16_t *coeffs,
                      char **bases, const int64_t *geometry, size_t nranges,
                      const int32_t *cols, const int32_t *rows, int32_t m, int32_t n,
                      const int32_t *copies, int32_t ncopy,
                      char **outs, const int64_t *oshape, size_t nseg, size_t block);
int repro_xor_exec(char **bases, const int64_t *geometry, size_t nranges,
                   const int32_t *cols, const int32_t *rows,
                   const int32_t *copies, int32_t ncopy,
                   char **outs, const int64_t *oshape, size_t nseg,
                   uint8_t *pool, size_t block_bytes,
                   const int32_t *prog, int32_t n_insn,
                   int32_t qbits, uint32_t red);
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
#include <stdlib.h>
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

/* --------------------------------------------------------- input rows */

/* The gather and XOR kernels code `nseg` segments with one plan in one
 * call, reading every input row where it lies through a table of row
 * pointers.  The caller passes the rows as `nranges` row ranges laid end
 * to end -- a 2-D array is one range -- range r starting at bases[r],
 * geometry[2r] bytes from one row to the next, geometry[2r + 1] rows.
 * Segment g's input rows are the g-th nin = (rows of all ranges) / nseg
 * of them.  Segment g's output starts at outs[g], oshape[2g] bytes from
 * one output row to the next and oshape[2g + 1] bytes wide. */
static size_t range_rows(const int64_t *geometry, size_t nranges)
{
    size_t r, total = 0;
    for (r = 0; r < nranges; r++) total += (size_t)geometry[2 * r + 1];
    return total;
}

/* A malloc'ed table of one pointer per input row with `extra` bytes of
 * scratch after it (at row + range_rows(...)); NULL when out of memory. */
static const uint8_t **row_table(char **bases, const int64_t *geometry,
                                 size_t nranges, size_t extra)
{
    size_t r, i = 0;
    const uint8_t **row = malloc(range_rows(geometry, nranges) * sizeof *row + extra + 1);
    if (!row) return NULL;
    for (r = 0; r < nranges; r++) {
        const uint8_t *p = (const uint8_t *)bases[r];
        int64_t k;
        for (k = 0; k < geometry[2 * r + 1]; k++, p += geometry[2 * r])
            row[i++] = p;
    }
    return row;
}

/* The identity rows of a plan: out row copies[2c] = input row
 * copies[2c + 1], `nbytes` bytes each. */
static void copy_rows(const uint8_t **in, const int32_t *copies, int32_t ncopy,
                      uint8_t *out, ptrdiff_t ostride, size_t nbytes)
{
    int32_t c;
    for (c = 0; c < ncopy; c++)
        memcpy(out + (ptrdiff_t)copies[2 * c] * ostride, in[copies[2 * c + 1]], nbytes);
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

/* Cache-blocked (m x n) GF(2^8) product per segment: for each L2-sized
 * column block, walk the input rows cols[0..n) once; every output-row
 * segment stays resident across the walk.  `started` marks rows whose
 * first product already landed.  Returns -1 when the row table cannot
 * be allocated. */
int repro_gf8_gather(const uint8_t *tables, const uint8_t *coeffs,
                     char **bases, const int64_t *geometry, size_t nranges,
                     const int32_t *cols, const int32_t *rows, int32_t m, int32_t n,
                     const int32_t *copies, int32_t ncopy,
                     char **outs, const int64_t *oshape, size_t nseg, size_t block)
{
    size_t nin = nseg ? range_rows(geometry, nranges) / nseg : 0;
    const uint8_t **row = row_table(bases, geometry, nranges, (size_t)m);
    uint8_t *started;
    size_t g;
    if (!row) return -1;
    started = (uint8_t *)(row + range_rows(geometry, nranges));
    for (g = 0; g < nseg; g++) {
        const uint8_t **in = row + g * nin;
        uint8_t *out = (uint8_t *)outs[g];
        ptrdiff_t ostride = (ptrdiff_t)oshape[2 * g];
        size_t s = (size_t)oshape[2 * g + 1], s0;
        copy_rows(in, copies, ncopy, out, ostride, s);
        for (s0 = 0; s0 < s; s0 += block) {
            size_t w = (s - s0 < block) ? s - s0 : block;
            int32_t i, j;
            memset(started, 0, (size_t)m);
            for (j = 0; j < n; j++) {
                const uint8_t *src = in[cols[j]] + s0;
                for (i = 0; i < m; i++) {
                    uint8_t c = coeffs[(size_t)i * (size_t)n + (size_t)j];
                    if (!c) continue;
                    mla8_block(out + (ptrdiff_t)rows[i] * ostride + (ptrdiff_t)s0, src,
                               tables + ((size_t)i * (size_t)n + (size_t)j) * 256,
                               w, started[i]);
                    started[i] = 1;
                }
            }
        }
    }
    free(row);
    return 0;
}

/* GF(2^16): split-table product c*x == lo[x & 0xff] ^ hi[x >> 8].
 * Block widths and counts are in uint16 elements (row ranges and output
 * shapes, as everywhere, in bytes). */
static void mla16(uint16_t *dst, const uint16_t *src,
                  const uint16_t *lo, const uint16_t *hi, size_t w, int acc)
{
    size_t t;
    if (acc)
        for (t = 0; t < w; t++) dst[t] ^= (uint16_t)(lo[src[t] & 0xff] ^ hi[src[t] >> 8]);
    else
        for (t = 0; t < w; t++) dst[t] = (uint16_t)(lo[src[t] & 0xff] ^ hi[src[t] >> 8]);
}

int repro_gf16_gather(const uint16_t *lo, const uint16_t *hi,
                      const uint16_t *coeffs,
                      char **bases, const int64_t *geometry, size_t nranges,
                      const int32_t *cols, const int32_t *rows, int32_t m, int32_t n,
                      const int32_t *copies, int32_t ncopy,
                      char **outs, const int64_t *oshape, size_t nseg, size_t block)
{
    size_t nin = nseg ? range_rows(geometry, nranges) / nseg : 0;
    const uint8_t **row = row_table(bases, geometry, nranges, (size_t)m);
    uint8_t *started;
    size_t g;
    if (!row) return -1;
    started = (uint8_t *)(row + range_rows(geometry, nranges));
    for (g = 0; g < nseg; g++) {
        const uint8_t **in = row + g * nin;
        uint8_t *out = (uint8_t *)outs[g];
        ptrdiff_t ostride = (ptrdiff_t)oshape[2 * g];
        size_t s = (size_t)oshape[2 * g + 1] / 2, s0;
        copy_rows(in, copies, ncopy, out, ostride, 2 * s);
        for (s0 = 0; s0 < s; s0 += block) {
            size_t w = (s - s0 < block) ? s - s0 : block;
            int32_t i, j;
            memset(started, 0, (size_t)m);
            for (j = 0; j < n; j++) {
                const uint16_t *src = (const uint16_t *)in[cols[j]] + s0;
                for (i = 0; i < m; i++) {
                    size_t e = (size_t)i * (size_t)n + (size_t)j;
                    if (!coeffs[e]) continue;
                    mla16((uint16_t *)(out + (ptrdiff_t)rows[i] * ostride) + s0, src,
                          lo + e * 256, hi + e * 256, w, started[i]);
                    started[i] = 1;
                }
            }
        }
    }
    free(row);
    return 0;
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

static uint8_t *xref(int32_t base, int32_t r, size_t s0,
                     const uint8_t **in, const int32_t *cols,
                     uint8_t *out, ptrdiff_t ostride, const int32_t *rows,
                     uint8_t *pool, size_t block_bytes)
{
    if (base == 0)
        return (uint8_t *)in[cols[r]] + s0;
    if (base == 1)
        return out + (ptrdiff_t)rows[r] * ostride + (ptrdiff_t)s0;
    return pool + (size_t)r * block_bytes;
}

/* Execute a flattened XOR program per segment, chunk by chunk.  Pool rows
 * hold one chunk's worth of ladder lanes / CSE intermediates and are
 * recomputed per chunk; input and output rows are addressed at the chunk
 * offset.  block_bytes == 0 runs each segment in one pass.  Returns -1
 * when the row table cannot be allocated. */
int repro_xor_exec(char **bases, const int64_t *geometry, size_t nranges,
                   const int32_t *cols, const int32_t *rows,
                   const int32_t *copies, int32_t ncopy,
                   char **outs, const int64_t *oshape, size_t nseg,
                   uint8_t *pool, size_t block_bytes,
                   const int32_t *prog, int32_t n_insn,
                   int32_t qbits, uint32_t red)
{
    size_t nin = nseg ? range_rows(geometry, nranges) / nseg : 0;
    const uint8_t **row = row_table(bases, geometry, nranges, 0);
    size_t g;
    if (!row) return -1;
    for (g = 0; g < nseg; g++) {
        const uint8_t **in = row + g * nin;
        uint8_t *out = (uint8_t *)outs[g];
        ptrdiff_t ostride = (ptrdiff_t)oshape[2 * g];
        size_t nbytes = (size_t)oshape[2 * g + 1], s0;
        size_t block = block_bytes ? block_bytes : nbytes;
        copy_rows(in, copies, ncopy, out, ostride, nbytes);
        for (s0 = 0; s0 < nbytes; s0 += block) {
            size_t w = (nbytes - s0 < block) ? nbytes - s0 : block;
            int32_t p;
            for (p = 0; p < n_insn; p++) {
                const int32_t *ins = prog + (size_t)p * 7;
                uint8_t *dst = xref(ins[1], ins[2], s0, in, cols,
                                    out, ostride, rows, pool, block_bytes);
                const uint8_t *a = (ins[0] == 0) ? 0 :
                    xref(ins[3], ins[4], s0, in, cols,
                         out, ostride, rows, pool, block_bytes);
                switch (ins[0]) {
                case 0:  /* ZERO */
                    memset(dst, 0, w);
                    break;
                case 1:  /* COPY */
                    memcpy(dst, a, w);
                    break;
                case 2: {  /* XOR2 */
                    const uint8_t *b = xref(ins[5], ins[6], s0, in, cols,
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
    free(row);
    return 0;
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

/* repro_crc32_rows over many row ranges, their CRCs back to back in `out`.
 * Range r starts at bases[r]; `geometry` holds three int64 per range:
 * row stride, rows, bytes per row. */
void repro_crc32_ranges(char **bases, const int64_t *geometry, size_t nranges,
                        uint32_t *out)
{
    size_t r;
    for (r = 0; r < nranges; r++, geometry += 3) {
        repro_crc32_rows((const uint8_t *)bases[r], (ptrdiff_t)geometry[0],
                         (size_t)geometry[1], (size_t)geometry[2], out);
        out += geometry[1];
    }
}
#endif
""".replace("@CRC_TABLE@", _crc_table_c())


class NativeBuildError(RuntimeError):
    """Raised internally when the shared object cannot be produced."""


def _cpu_features() -> str:
    """The host CPU's feature flags, which ``-march=native`` compiles for:
    the ``flags`` (x86) or ``Features`` (Arm) line of ``/proc/cpuinfo``,
    else the machine and processor names."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                name, _, value = line.partition(":")
                if name.strip() in ("flags", "Features"):
                    return " ".join(sorted(value.split()))
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _source_key() -> str:
    """Hash of the generated C, the cdef ABI and the CPU features: the
    correctness-critical half (an artifact built for instructions the
    host lacks dies of SIGILL)."""
    blob = "\0".join((_ABI_TAG, _C_SOURCE, _CDEF, _cpu_features()))
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

    The outer level hashes the generated C, the cdef ABI and the host's
    CPU features — anything that could make a shared object unsafe to
    dlopen here, a stale one or one built on a CPU with instructions
    this one lacks.  The inner level hashes the compiler identity, which
    only affects codegen quality; a compiler-less host may therefore
    safely dlopen *any* cached artifact under its own outer key (see
    :func:`_resolve`), and never one built for other CPU features.
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
        """A ``ctype`` (``"uint8_t[]"``, ...) over C-contiguous ``arr``;
        the cdata keeps the array alive."""
        return self._ffi.from_buffer(ctype, arr)

    def _row_ranges(self, chunks) -> tuple[list, list[int]]:
        """The ``bases`` and ``geometry`` the gather and XOR kernels take:
        one range per non-empty array of ``chunks``, whose rows laid end
        to end are the input rows of every segment, segment by segment (a
        2-D payload is one chunk).

        Rows are read where they lie, whatever the row stride (a column
        slice of a batched encode, the rows of a helper read); a chunk
        whose rows are not each contiguous is copied first.
        """
        from_buffer = self._ffi.from_buffer
        bases, geometry = [], []
        for chunk in chunks:
            if not chunk.shape[0]:
                continue
            if chunk.strides[1] != chunk.itemsize:
                chunk = np.ascontiguousarray(chunk)
            bases.append(from_buffer(chunk[0]))
            geometry += (chunk.strides[0], chunk.shape[0])
        return bases, geometry

    def _outputs(self, out, offsets: list[int]) -> tuple[object, object]:
        """The ``outs`` table of the kernels: segment ``g``'s output starts
        ``offsets[g]`` bytes into ``out`` (a flat buffer, or a 2-D output
        whose rows are each contiguous, through its row 0).  Returns the
        table and the handle it points into; keep both for the call."""
        handle = self._ffi.from_buffer(out if out.ndim == 1 else out[0])
        return self._ffi.new("char *[]", [handle + off for off in offsets]), handle

    # ------------------------------------------------------------- kernels

    def gf8_gather(self, tables, coeffs, chunks, cols, rows, copies, out, offsets, oshape, block: int) -> None:
        """``out[rows] = tables @ input[cols]`` over GF(2^8) for every
        segment, cache-blocked, after the identity rows ``copies`` (``(out
        row, input row)`` pairs, flat).

        The input rows are those of ``chunks`` laid end to end
        (:meth:`_row_ranges`), ``len(offsets)`` equal shares of them.
        Segment ``g``'s output starts ``offsets[g]`` bytes into ``out``
        (:meth:`_outputs`), ``oshape[2g]`` bytes from row to row and
        ``oshape[2g + 1]`` bytes wide.
        """
        m, n = coeffs.shape
        bases, geometry = self._row_ranges(chunks)
        outs, _handle = self._outputs(out, offsets)
        p = self._ptr
        if self._lib.repro_gf8_gather(
            p("uint8_t[]", tables), p("uint8_t[]", coeffs),
            bases, geometry, len(bases),
            p("int32_t[]", cols), p("int32_t[]", rows), m, n,
            p("int32_t[]", copies), copies.size // 2,
            outs, oshape, len(offsets), block,
        ):
            raise MemoryError("native gather: no memory for the row table")

    def gf16_gather(self, lo, hi, coeffs, chunks, cols, rows, copies, out, offsets, oshape, block: int) -> None:
        """Split-table GF(2^16) :meth:`gf8_gather`; ``block`` counts uint16
        elements."""
        m, n = coeffs.shape
        bases, geometry = self._row_ranges(chunks)
        outs, _handle = self._outputs(out, offsets)
        p = self._ptr
        if self._lib.repro_gf16_gather(
            p("uint16_t[]", lo), p("uint16_t[]", hi), p("uint16_t[]", coeffs),
            bases, geometry, len(bases),
            p("int32_t[]", cols), p("int32_t[]", rows), m, n,
            p("int32_t[]", copies), copies.size // 2,
            outs, oshape, len(offsets), block,
        ):
            raise MemoryError("native gather: no memory for the row table")

    def xor_exec(self, prog, chunks, cols, rows, copies, out, offsets, oshape, pool,
                 block_bytes: int, qbits: int, red: int) -> None:
        """Run a flattened XOR program (see :data:`OP_ZERO` .. :data:`OP_DOUBLE`)
        over every segment, laid out as :meth:`gf8_gather` takes them."""
        bases, geometry = self._row_ranges(chunks)
        outs, _handle = self._outputs(out, offsets)
        p = self._ptr
        if self._lib.repro_xor_exec(
            bases, geometry, len(bases),
            p("int32_t[]", cols), p("int32_t[]", rows),
            p("int32_t[]", copies), copies.size // 2,
            outs, oshape, len(offsets),
            self._ffi.NULL if pool is None else p("uint8_t[]", pool), block_bytes,
            p("int32_t[]", prog), prog.size // INSN_WORDS,
            qbits, red,
        ):
            raise MemoryError("native XOR schedule: no memory for the row table")

    def crc32_rows(self, rows: np.ndarray) -> list[int]:
        """``[zlib.crc32(row) for row in rows]`` of a 2-D array in one C call.

        Rows are read in place when they are contiguous, whatever the
        row stride (a column slice of a batched encode); anything else
        is copied first.  Only valid when :attr:`has_crc32`.
        """
        return self.crc32_rows_in_place(rows)[0]

    def crc32_rows_in_place(self, rows: np.ndarray) -> tuple[list[int], object]:
        """:meth:`crc32_rows`, and the handle the kernel read the rows
        through: a ``char[]`` on row 0 that keeps the array's buffer alive
        (plus ``r * rows.strides[0]``, row ``r``; :meth:`crc32_ranges`
        takes it), or ``None`` when the rows were copied first."""
        if rows.ndim != 2:
            raise ValueError(f"crc32_rows expects a 2-D array, got shape {rows.shape}")
        ffi = self._ffi
        n, width = rows.shape
        handle = None
        if rows.flags.c_contiguous:
            handle = base = ffi.from_buffer(rows)
        elif rows.strides[1] == rows.itemsize:
            handle = base = ffi.from_buffer(rows[0])
        else:
            rows = np.ascontiguousarray(rows)
            base = ffi.from_buffer(rows)
        out = ffi.new(self._crc_out, n)
        self._lib.repro_crc32_rows(base, rows.strides[0], n, width * rows.itemsize, out)
        return ffi.unpack(out, n), handle

    def row_buffer(self, rows: np.ndarray):
        """The handle :meth:`crc32_rows_in_place` returns, without the
        CRCs, for a non-empty 2-D array whose rows are each contiguous
        (``strides[1] == itemsize``; the caller checks), or for a
        C-contiguous stack of such blocks: a ``char[]`` on ``rows[0]``."""
        return self._ffi.from_buffer(rows[0])

    def crc32_ranges(self, bases: list, geometry: list[int]) -> list[int]:
        """:meth:`crc32_rows` of many row ranges in one C call, the CRCs of
        every row of every range back to back.

        ``bases[r]`` points at range ``r``'s first row (a handle from
        :meth:`crc32_rows_in_place` or :meth:`row_buffer` plus a byte
        offset) and ``geometry``
        holds three ints per range: row stride, row count, bytes per row.
        The caller keeps every range inside the array its handle came
        from.  Only valid when :attr:`has_crc32`.
        """
        if len(geometry) != 3 * len(bases):
            raise ValueError(f"crc32_ranges expects 3 ints per range, got {len(geometry)} for {len(bases)}")
        ffi = self._ffi
        total = sum(geometry[1::3])
        out = ffi.new(self._crc_out, total)
        self._lib.repro_crc32_ranges(
            ffi.new("char *[]", bases), ffi.new("int64_t[]", geometry), len(bases), out
        )
        return ffi.unpack(out, total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        simd = "avx2" if self.simd_level >= 2 else "scalar"
        return f"NativeBackend({simd}, {self.so_path})"


def _dlopen(ffi, so_path: Path):
    """``ffi.dlopen(so_path)``, refusing a 64-bit ELF file cut short first.

    The ELF header says where the section header table ends, which is the
    end of the file the linker wrote; mapping a shorter file can kill the
    process with SIGBUS instead of failing to load.
    """
    with open(so_path, "rb") as f:
        head = f.read(64)
    if len(head) == 64 and head[:5] == b"\x7fELF\x02":
        order = "<" if head[5] == 1 else ">"
        (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
        shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
        if os.path.getsize(so_path) < shoff + shentsize * shnum:
            raise OSError(f"cannot load library {so_path}: file is truncated")
    return ffi.dlopen(str(so_path))


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
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    try:
        if _compiler() is None:
            # No toolchain — but any cached artifact built from this exact
            # source/ABI for these CPU features (by whichever compiler) is
            # safe to dlopen.  One that does not load (a half-written or
            # truncated file) is passed over for the next.
            hits = sorted((_cache_root() / _source_key()).glob("*/repro_native.so"))
            if not hits:
                return None, "no C compiler on PATH (cc/gcc/clang) and $CC unset"
            for so_path in hits:
                try:
                    return NativeBackend(ffi, _dlopen(ffi, so_path), so_path), ""
                except OSError as exc:
                    failure = exc
            raise failure
        build_dir = _cache_root() / native_build_key()
        so_path = _build_shared_object(build_dir)
        try:
            lib = _dlopen(ffi, so_path)
        except OSError:
            # A cached artifact that does not load is rebuilt, once.
            so_path.unlink(missing_ok=True)
            so_path = _build_shared_object(build_dir)
            lib = _dlopen(ffi, so_path)
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
