"""Native (generated-C) kernel tier, compiled at first use via cffi.

This is the fourth rung of the kernel ladder (scalar -> packed tables ->
XOR schedules -> native).  The numpy tiers stream every coding product
through ufunc passes and gather intermediates; ISA-L-class throughput
needs the two hot loops in real machine code:

* **gather-multiply-accumulate** — the packed multi-lane product of
  :class:`repro.gf.kernels.CodingPlan`.  GF(2^8) runs one cache block
  (at most 32 KiB of every row) at a time: it makes the block's identity
  copies, then computes each dense output row in register accumulators
  from its nonzero terms and stores every vector of it once.  The
  product is picked at compile time: with GFNI on AVX-512BW, multiplying
  by ``c`` is one ``vgf2p8affineqb`` per 64 symbols with ``c``'s 8x8 bit
  matrix, the row's tail under a byte mask; on AVX2, the ISA-L
  ``pshufb`` nibble split (two 16-entry shuffles per 32 symbols), 128
  symbols per pass over the terms; in plain C, one 256-entry table pass
  per term.  Matrices and nibble tables are made
  once per plan (:func:`gf8_vector_operands`).  GF(2^16) uses split
  lo/hi byte tables, cache-blocked at the width the plan gives.
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
batched read).  The GF(2^8) gather and the XOR executor can fold it too:
after each cache block (executor chunk) they carry every output row's
running CRC over the block they have just written, so an encode or a
rebuild hands the store its blocks' row CRCs without a second pass over
them (the ``crcs`` argument of a kernel call).  Each kernel is bound to a
plan's constant operands once (:meth:`NativeBackend.gf8_gather`,
:meth:`NativeBackend.xor_exec`); a call hands over only the input rows and
the outputs.  Where VPCLMULQDQ runs on 512-bit registers, a call over
256 KiB or more first folds each row of 256 bytes or more 256 bytes a
step by four 512-bit accumulators; shorter calls (a served read checks
one row) stay on 128-bit registers.  The fold constants are derived from
the polynomial (:func:`_fold_constants`).  It is compiled only where the compiler targets
PCLMUL (:attr:`NativeBackend.has_crc32`); everywhere else the store
stays on ``zlib.crc32``, whose values it reproduces bit for bit.
:attr:`NativeBackend.simd_level` says which of these paths a build
carries: 3 for GFNI and the 512-bit fold, 2 for AVX2, 1 for plain C.

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
int64_t repro_crc32_deliver(char **bases, const int64_t *geometry, size_t nranges,
                            char *dest, size_t dest_len, const int64_t *windows,
                            const uint32_t *expected, int64_t *bad);
int repro_gf8_gather(const uint8_t *tables, const uint8_t *vec, const uint8_t *coeffs,
                     char **bases, const int64_t *geometry, size_t nranges,
                     const int32_t *cols, const int32_t *rows, int32_t m, int32_t n,
                     const int32_t *copies, int32_t ncopy,
                     char **outs, const int64_t *oshape, size_t nseg, size_t block,
                     uint32_t *crcs, int32_t mout);
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
                   size_t pool_rows, size_t block_bytes,
                   const int32_t *prog, int32_t n_insn,
                   int32_t qbits, uint32_t red,
                   uint32_t *crcs, int32_t mout);
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


def _fold_constants(bits: int) -> str:
    """The ``_mm_set_epi64x`` operands that fold a 128-bit lane of zlib's
    bit-reflected CRC-32 ``bits`` bits forward: ``x^(bits - 32)`` and
    ``x^(bits + 32)`` modulo the polynomial, each bit-reflected into 33
    bits (high lane first)."""

    def reflected(power: int) -> int:
        rem = 1
        for _ in range(power):
            rem = (rem << 1) ^ (0x104C11DB7 if rem & (1 << 31) else 0)
        return int(f"{rem:032b}"[::-1], 2) << 1

    return f"0x{reflected(bits - 32):09x}, 0x{reflected(bits + 32):09x}"


_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <stdlib.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

/* The host's full vector width: GF(2^8) products by GFNI and the CRC-32
 * fold by VPCLMULQDQ, both on 512-bit registers. */
#if defined(__GFNI__) && defined(__AVX512BW__) && defined(__VPCLMULQDQ__) \
    && defined(__PCLMUL__) && defined(__SSE4_1__)
#define WIDE 1
#else
#define WIDE 0
#endif

/* 3: the wide kernels; 2: AVX2 (pshufb products); 1: plain C. */
int repro_native_simd(void)
{
#if WIDE
    return 3;
#elif defined(__AVX2__)
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

/* A cache block of the GF(2^8) gather is at most GATHER_BLOCK bytes per
 * row: every input row of a block stays in L2 while each dense output row
 * of it is computed from them in turn.  A delivering read copies blocks of
 * the same size and hashes each while it is still in cache. */
#define GATHER_BLOCK 32768

/* The identity rows of a plan: out row copies[2c] = input row
 * copies[2c + 1], `nbytes` bytes each from byte `off` on. */
static void copy_rows(const uint8_t **in, const int32_t *copies, int32_t ncopy,
                      uint8_t *out, ptrdiff_t ostride, size_t off, size_t nbytes)
{
    int32_t c;
    for (c = 0; c < ncopy; c++)
        memcpy(out + (ptrdiff_t)copies[2 * c] * ostride + (ptrdiff_t)off,
               in[copies[2 * c + 1]] + off, nbytes);
}

/* -------------------------------------------------------------- CRC-32 */

/* The carry-less-multiply CRC-32 kernel: the block store's checksums, and
 * the row CRCs the GF(2^8) gather can fold while it writes. */
#if defined(__PCLMUL__) && defined(__SSE4_1__)
#define CLMUL 1
#else
#define CLMUL 0
#endif

int repro_native_clmul(void)
{
    return CLMUL;
}

#if CLMUL
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

#if WIDE
/* crc_fold in each of the four 128-bit lanes of a 512-bit register. */
static inline __m512i crc_fold512(__m512i a, __m512i k, __m512i next)
{
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(a, k, 0x00),
                                     _mm512_clmulepi64_epi128(a, k, 0x11), next, 0x96);
}
#endif

/* Intel, "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
 * bit-reflected form: four 128-bit lanes folded 512 bits at a time, then
 * into one lane, 128 -> 64 -> 32 bits by Barrett reduction.  With the
 * wide kernels and `wide` set, a run of 256 bytes or more is first folded
 * by four 512-bit accumulators (sixteen lanes), 2048 bits a step, and then
 * into the four lanes the 128-bit loop carries on from.  `crc` is the
 * running (inverted) register; n >= 64 and a multiple of 16. */
static uint32_t crc32_clmul(uint32_t crc, const uint8_t *p, size_t n, int wide)
{
    const __m128i k512 = _mm_set_epi64x(@FOLD_512@);
    const __m128i k128 = _mm_set_epi64x(@FOLD_128@);
    const __m128i k64 = _mm_set_epi64x(0, 0x163cd6124);
    const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x0, x1, x2, x3, t;
    (void)wide;  /* read only by the wide kernels */
#if WIDE
    if (wide && n >= 256) {
        const __m512i k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(@FOLD_2048@));
        const __m512i k512x4 = _mm512_broadcast_i32x4(k512);
        __m512i z0 = _mm512_loadu_si512(p), z1 = _mm512_loadu_si512(p + 64);
        __m512i z2 = _mm512_loadu_si512(p + 128), z3 = _mm512_loadu_si512(p + 192);
        z0 = _mm512_xor_si512(z0, _mm512_inserti32x4(_mm512_setzero_si512(),
                                                      _mm_cvtsi32_si128((int)crc), 0));
        for (p += 256, n -= 256; n >= 256; p += 256, n -= 256) {
            z0 = crc_fold512(z0, k2048, _mm512_loadu_si512(p));
            z1 = crc_fold512(z1, k2048, _mm512_loadu_si512(p + 64));
            z2 = crc_fold512(z2, k2048, _mm512_loadu_si512(p + 128));
            z3 = crc_fold512(z3, k2048, _mm512_loadu_si512(p + 192));
        }
        z0 = crc_fold512(z0, k512x4, z1);
        z0 = crc_fold512(z0, k512x4, z2);
        z0 = crc_fold512(z0, k512x4, z3);
        x0 = _mm512_extracti32x4_epi32(z0, 0);
        x1 = _mm512_extracti32x4_epi32(z0, 1);
        x2 = _mm512_extracti32x4_epi32(z0, 2);
        x3 = _mm512_extracti32x4_epi32(z0, 3);
    } else
#endif
    {
        x0 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)p), _mm_cvtsi32_si128((int)crc));
        x1 = _mm_loadu_si128((const __m128i *)(p + 16));
        x2 = _mm_loadu_si128((const __m128i *)(p + 32));
        x3 = _mm_loadu_si128((const __m128i *)(p + 48));
        p += 64;
        n -= 64;
    }
    for (; n >= 64; p += 64, n -= 64) {
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

/* 512-bit instructions pay only in a call long enough to amortise the
 * core's switch to them: a call over fewer bytes than this (a served read
 * checks one row of at most 64 KiB) stays on the 128-bit fold. */
#define WIDE_CALL_BYTES (256 << 10)

/* The running (inverted) register `crc` carried over the n bytes at p:
 * a row hashed in pieces, one after another, ends where one call over the
 * whole row does. */
static uint32_t crc32_run(uint32_t crc, const uint8_t *p, size_t n, int wide)
{
    size_t body = n >= 64 ? n & ~(size_t)15 : 0;
    if (body) crc = crc32_clmul(crc, p, body, wide);
    return crc32_bytes(crc, p + body, n - body);
}

static void crc32_rows(const uint8_t *base, ptrdiff_t row_stride,
                       size_t nrows, size_t row_bytes, uint32_t *out, int wide)
{
    size_t r;
    for (r = 0; r < nrows; r++)
        out[r] = ~crc32_run(0xffffffffu, base + (ptrdiff_t)r * row_stride, row_bytes, wide);
}

/* out[r] = zlib crc32 of the row_bytes bytes at base + r * row_stride. */
void repro_crc32_rows(const uint8_t *base, ptrdiff_t row_stride,
                      size_t nrows, size_t row_bytes, uint32_t *out)
{
    crc32_rows(base, row_stride, nrows, row_bytes, out, nrows * row_bytes >= WIDE_CALL_BYTES);
}

/* repro_crc32_rows over many row ranges, their CRCs back to back in `out`.
 * Range r starts at bases[r]; `geometry` holds three int64 per range:
 * row stride, rows, bytes per row. */
void repro_crc32_ranges(char **bases, const int64_t *geometry, size_t nranges,
                        uint32_t *out)
{
    size_t r, total = 0;
    for (r = 0; r < nranges; r++)
        total += (size_t)geometry[3 * r + 1] * (size_t)geometry[3 * r + 2];
    for (r = 0; r < nranges; r++, geometry += 3) {
        crc32_rows((const uint8_t *)bases[r], (ptrdiff_t)geometry[0], (size_t)geometry[1],
                   (size_t)geometry[2], out, total >= WIDE_CALL_BYTES);
        out += geometry[1];
    }
}

/* A check of range rows that also delivers: range r's rows, laid end to
 * end, have their bytes windows[3r + 1] .. windows[3r + 2] copied to dest +
 * windows[3r].  Each row is taken a block of at most GATHER_BLOCK bytes at
 * a time: the part of the block inside the window is copied, then the
 * whole block is folded into the row's CRC while it is still in cache, so
 * every row is hashed whole and every byte returned is read once.  Each
 * row's CRC is compared with its expected one (`expected` holds those of
 * every row of every range back to back, as repro_crc32_ranges writes
 * them), and unless `bad` is NULL the index of each range with a row that
 * differs goes to `bad`, in order.  Returns -1, having written nothing,
 * when a window does not lie inside its range's rows or inside the
 * dest_len bytes at dest; else the number of ranges with a row that
 * differs. */
int64_t repro_crc32_deliver(char **bases, const int64_t *geometry, size_t nranges,
                            char *dest, size_t dest_len, const int64_t *windows,
                            const uint32_t *expected, int64_t *bad)
{
    size_t r, total = 0;
    int64_t nbad = 0;
    int wide;
    for (r = 0; r < nranges; r++) {
        const int64_t *w = windows + 3 * r;
        int64_t nbytes = geometry[3 * r + 1] * geometry[3 * r + 2];
        if (w[0] < 0 || w[1] < 0 || w[1] > w[2] || w[2] > nbytes || (uint64_t)(w[0] + w[2] - w[1]) > dest_len)
            return -1;
        total += (size_t)nbytes;
    }
    wide = total >= WIDE_CALL_BYTES;
    for (r = 0; r < nranges; r++, geometry += 3, windows += 3) {
        const uint8_t *row = (const uint8_t *)bases[r];
        uint8_t *to = (uint8_t *)dest + windows[0];
        size_t nrows = (size_t)geometry[1], width = (size_t)geometry[2];
        size_t lo = (size_t)windows[1], hi = (size_t)windows[2], at, i;
        int differs = 0;
        /* at: where the row starts among the range's bytes */
        for (i = 0, at = 0; i < nrows; i++, row += geometry[0], at += width) {
            uint32_t crc = 0xffffffffu;
            size_t s0;
            for (s0 = 0; s0 < width; s0 += GATHER_BLOCK) {
                size_t w = width - s0 < GATHER_BLOCK ? width - s0 : GATHER_BLOCK;
                size_t a = at + s0 > lo ? at + s0 : lo, b = at + s0 + w < hi ? at + s0 + w : hi;
                if (a < b) memcpy(to + (a - lo), row + (a - at), b - a);
                crc = crc32_run(crc, row + s0, w, wide);
            }
            differs |= ~crc != *expected++;
        }
        if (differs) {
            if (bad) bad[nbad] = (int64_t)r;
            nbad++;
        }
    }
    return nbad;
}
#endif

/* ------------------------------------------------------------- gather */

/* Bytes per coefficient in the vector kernels' operands: the products of
 * the 16 low nibbles, of the 16 high nibbles, then the coefficient's 8x8
 * GF(2) matrix as vgf2p8affineqb takes it (a little-endian uint64). */
#define VEC_OPERAND 40

/* At most this many terms go into one pass over an output row, so a pass
 * reads few enough input rows at once for the prefetchers to follow; a
 * row with more terms (a wide stripe's parity) is summed in passes. */
#define GATHER_TERMS 4

/* dst[t] (^)= sum over q < k of c_q * src[q][t], t < w: k terms of one
 * dense output row over one cache block, c_q given by op[q] (the
 * coefficient's 256-entry product table in plain C, its VEC_OPERAND
 * record in the vector kernels).  acc == 0 stores the sum, acc != 0 adds
 * it to what dst holds. */
#if WIDE
/* GFNI: multiplying by c is the linear map of c's bit matrix, one
 * vgf2p8affineqb per 64 symbols; the accumulators stay in registers and
 * each 64-byte chunk of the row is stored once, the tail under a mask. */
#define GATHER_VECTOR 1

static inline __m512i mul8(const uint8_t *op, __m512i x)
{
    uint64_t a;
    memcpy(&a, op + 32, sizeof a);
    return _mm512_gf2p8affine_epi64_epi8(x, _mm512_set1_epi64((long long)a), 0);
}

static void dot8(uint8_t *dst, const uint8_t **src, const uint8_t **op, size_t k, size_t w, int acc)
{
    size_t t = 0, q;
    for (; t + 128 <= w; t += 128) {
        __m512i a0 = _mm512_setzero_si512(), a1 = a0;
        if (acc) {
            a0 = _mm512_loadu_si512(dst + t);
            a1 = _mm512_loadu_si512(dst + t + 64);
        }
        for (q = 0; q < k; q++) {
            a0 = _mm512_xor_si512(a0, mul8(op[q], _mm512_loadu_si512(src[q] + t)));
            a1 = _mm512_xor_si512(a1, mul8(op[q], _mm512_loadu_si512(src[q] + t + 64)));
        }
        _mm512_storeu_si512(dst + t, a0);
        _mm512_storeu_si512(dst + t + 64, a1);
    }
    for (; t < w; t += 64) {
        __mmask64 mask = w - t >= 64 ? ~(__mmask64)0 : ((__mmask64)1 << (w - t)) - 1;
        __m512i a = acc ? _mm512_maskz_loadu_epi8(mask, dst + t) : _mm512_setzero_si512();
        for (q = 0; q < k; q++)
            a = _mm512_xor_si512(a, mul8(op[q], _mm512_maskz_loadu_epi8(mask, src[q] + t)));
        _mm512_mask_storeu_epi8(dst + t, mask, a);
    }
}
#elif defined(__AVX2__)
/* ISA-L style nibble split: c*x == c*(x_lo) ^ c*(x_hi << 4), each term a
 * 16-entry table -> one pshufb per nibble, 32 symbols per shuffle; the
 * accumulators stay in registers, AVX2_CHUNK vectors at a time, so a
 * term's tables are loaded once per chunk. */
#define GATHER_VECTOR 1
#define AVX2_CHUNK 4

static inline __m256i nibble_table(const uint8_t *p)
{
    return _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)p));
}

static inline __m256i mul8(__m256i lo_t, __m256i hi_t, __m256i x)
{
    const __m256i nibble = _mm256_set1_epi8(0x0f);
    return _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_t, _mm256_and_si256(x, nibble)),
        _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble)));
}

/* The 32 symbols of the row at t: what dst holds there (acc) or zero,
 * plus every term's product. */
static inline __m256i dot8_vector(const uint8_t *dst, const uint8_t **src, const uint8_t **op,
                                  size_t k, size_t t, int acc)
{
    __m256i a = acc ? _mm256_loadu_si256((const __m256i *)(dst + t)) : _mm256_setzero_si256();
    size_t q;
    for (q = 0; q < k; q++)
        a = _mm256_xor_si256(a, mul8(nibble_table(op[q]), nibble_table(op[q] + 16),
                                     _mm256_loadu_si256((const __m256i *)(src[q] + t))));
    return a;
}

static void dot8(uint8_t *dst, const uint8_t **src, const uint8_t **op, size_t k, size_t w, int acc)
{
    size_t t = 0, q, body = w & ~(size_t)31;
    __m256i last = _mm256_setzero_si256();
    int v;
    /* A ragged end is the row's last 32 symbols, computed before any store
     * and stored last, over symbols the body already holds. */
    if (body < w && w >= 32) last = dot8_vector(dst, src, op, k, w - 32, acc);
    for (; t + 32 * AVX2_CHUNK <= body; t += 32 * AVX2_CHUNK) {
        __m256i a[AVX2_CHUNK];
        for (v = 0; v < AVX2_CHUNK; v++)
            a[v] = acc ? _mm256_loadu_si256((const __m256i *)(dst + t + 32 * v)) : _mm256_setzero_si256();
        for (q = 0; q < k; q++) {
            __m256i lo_t = nibble_table(op[q]), hi_t = nibble_table(op[q] + 16);
            for (v = 0; v < AVX2_CHUNK; v++)
                a[v] = _mm256_xor_si256(a[v], mul8(lo_t, hi_t,
                    _mm256_loadu_si256((const __m256i *)(src[q] + t + 32 * v))));
        }
        for (v = 0; v < AVX2_CHUNK; v++) _mm256_storeu_si256((__m256i *)(dst + t + 32 * v), a[v]);
    }
    for (; t < body; t += 32)
        _mm256_storeu_si256((__m256i *)(dst + t), dot8_vector(dst, src, op, k, t, acc));
    if (body < w && w >= 32) {
        _mm256_storeu_si256((__m256i *)(dst + w - 32), last);
        return;
    }
    for (; t < w; t++) {
        uint8_t a = acc ? dst[t] : 0;
        for (q = 0; q < k; q++) {
            uint8_t x = src[q][t];
            a ^= op[q][x & 15] ^ op[q][16 + (x >> 4)];
        }
        dst[t] = a;
    }
}
#else
/* Plain C: one table pass per term, the first storing unless acc, the
 * rest accumulating. */
#define GATHER_VECTOR 0

static void dot8(uint8_t *dst, const uint8_t **src, const uint8_t **op, size_t k, size_t w, int acc)
{
    size_t t, q;
    if (!k && !acc) memset(dst, 0, w);
    for (q = 0; q < k; q++) {
        const uint8_t *s = src[q], *tab = op[q];
        if (q || acc)
            for (t = 0; t < w; t++) dst[t] ^= tab[s[t]];
        else
            for (t = 0; t < w; t++) dst[t] = tab[s[t]];
    }
}
#endif

/* Cache-blocked (m x n) GF(2^8) product per segment: per block of at most
 * GATHER_BLOCK bytes a row, make the identity copies, then compute each
 * dense output row from its nonzero terms and store it once.  `tables`
 * holds each coefficient's 256-entry product table, `vec` its
 * VEC_OPERAND record; the kernel reads the one it was compiled for.
 *
 * With `crcs` (and the CRC kernel compiled in), each block of each of the
 * segment's `mout` output rows -- copies, dense rows and whatever else the
 * caller left there -- is then folded into that row's running CRC-32
 * while the block is still in cache: crcs[g * mout + r] ends as zlib's
 * crc32 of segment g's output row r.  The fold is the 512-bit one when
 * the call writes WIDE_CALL_BYTES or more.
 * Returns -1 when the row table cannot be allocated. */
int repro_gf8_gather(const uint8_t *tables, const uint8_t *vec, const uint8_t *coeffs,
                     char **bases, const int64_t *geometry, size_t nranges,
                     const int32_t *cols, const int32_t *rows, int32_t m, int32_t n,
                     const int32_t *copies, int32_t ncopy,
                     char **outs, const int64_t *oshape, size_t nseg, size_t block,
                     uint32_t *crcs, int32_t mout)
{
    size_t nrow = range_rows(geometry, nranges);
    size_t nin = nseg ? nrow / nseg : 0, mn = (size_t)m * (size_t)n, nz = 0, g;
#if CLMUL
    size_t written = 0;
    int wide;
    for (g = 0; g < nseg; g++) written += (size_t)mout * (size_t)oshape[2 * g + 1];
    wide = written >= WIDE_CALL_BYTES;
#else
    crcs = NULL;
#endif
    /* Scratch after the row pointers: per nonzero coefficient, row by row,
     * its operand and input row; where each output row's terms end; one
     * row's source pointers. */
    const uint8_t **row = row_table(bases, geometry, nranges,
                                    (mn + (size_t)n) * sizeof *row + (size_t)m * sizeof(size_t)
                                    + mn * sizeof(int32_t));
    const uint8_t **op, **src;
    size_t *end;
    int32_t *term, i, j;
    if (!row) return -1;
    op = row + nrow;
    src = op + mn;
    end = (size_t *)(src + n);
    term = (int32_t *)(end + m);
    for (i = 0; i < m; i++) {
        for (j = 0; j < n; j++) {
            size_t e = (size_t)i * (size_t)n + (size_t)j;
            if (!coeffs[e]) continue;
            term[nz] = cols[j];
            op[nz++] = GATHER_VECTOR ? vec + e * VEC_OPERAND : tables + e * 256;
        }
        end[i] = nz;
    }
    if (block > GATHER_BLOCK) block = GATHER_BLOCK;
    for (g = 0; g < nseg; g++) {
        const uint8_t **in = row + g * nin;
        uint8_t *out = (uint8_t *)outs[g];
        ptrdiff_t ostride = (ptrdiff_t)oshape[2 * g];
        size_t s = (size_t)oshape[2 * g + 1], s0;
        uint32_t *crc = crcs ? crcs + g * (size_t)mout : NULL;
        for (i = 0; crc && i < mout; i++) crc[i] = 0xffffffffu;
        for (s0 = 0; s0 < s; s0 += block) {
            size_t w = (s - s0 < block) ? s - s0 : block, q = 0;
            copy_rows(in, copies, ncopy, out, ostride, s0, w);
            for (i = 0; i < m; i++) {
                uint8_t *dst = out + (ptrdiff_t)rows[i] * ostride + (ptrdiff_t)s0;
                size_t first = q;
                do {
                    size_t k = end[i] - q < GATHER_TERMS ? end[i] - q : GATHER_TERMS, r;
                    for (r = 0; r < k; r++) src[r] = in[term[q + r]] + s0;
                    dot8(dst, src, op + q, k, w, q > first);
                    q += k;
                } while (q < end[i]);
            }
#if CLMUL
            for (i = 0; crc && i < mout; i++)
                crc[i] = crc32_run(crc[i], out + (ptrdiff_t)i * ostride + (ptrdiff_t)s0, w, wide);
#endif
        }
        for (i = 0; crc && i < mout; i++) crc[i] = ~crc[i];
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
        copy_rows(in, copies, ncopy, out, ostride, 0, 2 * s);
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

/* Execute a flattened XOR program per segment, chunk by chunk.  The
 * `pool_rows` pool rows, allocated here, hold one chunk's worth of ladder
 * lanes / CSE intermediates and are recomputed per chunk; input and output
 * rows are addressed at the chunk offset.  A chunk is at most block_bytes
 * wide and no wider than the widest segment rounded up to 8 bytes; a
 * program without pool rows runs each segment in one pass.
 *
 * With `crcs` (and the CRC kernel compiled in), each chunk of each of the
 * segment's `mout` output rows is folded into that row's running CRC-32
 * once the program has written it, while the chunk is in cache, as
 * repro_gf8_gather folds its blocks: crcs[g * mout + r] ends as zlib's
 * crc32 of segment g's output row r.
 * Returns -1 when the row table cannot be allocated. */
int repro_xor_exec(char **bases, const int64_t *geometry, size_t nranges,
                   const int32_t *cols, const int32_t *rows,
                   const int32_t *copies, int32_t ncopy,
                   char **outs, const int64_t *oshape, size_t nseg,
                   size_t pool_rows, size_t block_bytes,
                   const int32_t *prog, int32_t n_insn,
                   int32_t qbits, uint32_t red,
                   uint32_t *crcs, int32_t mout)
{
    size_t nrow = range_rows(geometry, nranges);
    size_t nin = nseg ? nrow / nseg : 0, widest = 0, g;
    const uint8_t **row;
    uint8_t *pool;
    int32_t i;
#if CLMUL
    size_t written = 0;
    int wide;
#else
    crcs = NULL;
#endif
    for (g = 0; g < nseg; g++) {
        size_t w = (size_t)oshape[2 * g + 1];
        if (w > widest) widest = w;
#if CLMUL
        written += (size_t)mout * w;
#endif
    }
#if CLMUL
    wide = written >= WIDE_CALL_BYTES;
#endif
    widest = (widest + 7) & ~(size_t)7;
    if (!pool_rows) block_bytes = 0;
    else if (block_bytes > widest) block_bytes = widest;
    row = row_table(bases, geometry, nranges, pool_rows * block_bytes + 64);
    if (!row) return -1;
    pool = (uint8_t *)(((uintptr_t)(row + nrow) + 63) & ~(uintptr_t)63);
    for (g = 0; g < nseg; g++) {
        const uint8_t **in = row + g * nin;
        uint8_t *out = (uint8_t *)outs[g];
        ptrdiff_t ostride = (ptrdiff_t)oshape[2 * g];
        size_t nbytes = (size_t)oshape[2 * g + 1], s0;
        size_t block = block_bytes ? block_bytes : nbytes;
        uint32_t *crc = crcs ? crcs + g * (size_t)mout : NULL;
        for (i = 0; crc && i < mout; i++) crc[i] = 0xffffffffu;
        copy_rows(in, copies, ncopy, out, ostride, 0, nbytes);
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
#if CLMUL
            for (i = 0; crc && i < mout; i++)
                crc[i] = crc32_run(crc[i], out + (ptrdiff_t)i * ostride + (ptrdiff_t)s0, w, wide);
#endif
        }
        for (i = 0; crc && i < mout; i++) crc[i] = ~crc[i];
    }
    free(row);
    return 0;
}

""".replace("@CRC_TABLE@", _crc_table_c()).replace(
    "@FOLD_2048@", _fold_constants(2048)).replace(
    "@FOLD_512@", _fold_constants(512)).replace(
    "@FOLD_128@", _fold_constants(128))


def gf8_vector_operands(tables: np.ndarray) -> np.ndarray:
    """The vector gather kernels' operand of each GF(2^8) coefficient,
    from its 256-entry product table (``tables[..., x] == c * x``): 40
    bytes, the products of the 16 low nibbles, of the 16 high nibbles
    (``c * (v << 4)``), then the 8x8 GF(2) matrix of ``x -> c * x`` as
    ``vgf2p8affineqb`` reads it: byte ``7 - i`` masks the input bits that
    output bit ``i`` sums."""
    ops = np.empty((*tables.shape[:-1], 40), dtype=np.uint8)
    ops[..., :16] = tables[..., :16]
    ops[..., 16:32] = tables[..., ::16]
    bit = np.arange(8, dtype=np.uint8)
    columns = tables[..., 1 << bit]  # column j: c * x^j
    bits = (columns[..., None, :] >> bit[:, None]) & 1  # [..., i, j]: bit i of column j
    ops[..., 32:] = (bits << bit).sum(axis=-1, dtype=np.uint8)[..., ::-1]
    return ops


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
        #: 3 when the library carries the wide kernels (GFNI products and
        #: the VPCLMULQDQ CRC-32 fold on 512-bit registers), 2 when it was
        #: compiled with AVX2, 1 for plain C.
        self.simd_level = int(lib.repro_native_simd())
        #: Whether the library carries the PCLMULQDQ CRC-32 kernel
        #: (:meth:`crc32_rows`); without it callers stay on ``zlib``.
        self.has_crc32 = bool(lib.repro_native_clmul())
        self._crc_out = ffi.typeof("uint32_t[]")
        self._index_out = ffi.typeof("int64_t[]")

    # ------------------------------------------------------------ helpers

    def _ptr(self, ctype: str, arr: np.ndarray):
        """A ``ctype`` (``"uint8_t[]"``, ...) over C-contiguous ``arr``;
        the cdata keeps the array alive."""
        return self._ffi.from_buffer(ctype, arr)

    def _row_ranges(self, chunks) -> tuple[list, list[int]]:
        """The ``bases`` and ``geometry`` the gather and XOR kernels take:
        one range per array of ``chunks``, whose rows laid end to end are
        the input rows of every segment, segment by segment (a 2-D payload
        is one chunk).

        Rows are read where they lie, whatever the row stride (a column
        slice of a batched encode, the rows of a helper read): a
        C-contiguous chunk is one handle, any other its row 0's, and a
        chunk whose rows are not each contiguous is copied first.
        """
        from_buffer = self._ffi.from_buffer
        bases, geometry = [], []
        for chunk in chunks:
            if chunk.flags.c_contiguous:
                bases.append(from_buffer(chunk))
            else:
                if not chunk.shape[0]:
                    continue
                if chunk.strides[1] != chunk.itemsize:
                    chunk = np.ascontiguousarray(chunk)
                bases.append(from_buffer(chunk[0]))
            geometry += (chunk.strides[0], len(chunk))
        return bases, geometry

    def _outputs(self, out, offsets: list[int]) -> tuple[list, object]:
        """The ``outs`` table of the kernels: segment ``g``'s output starts
        ``offsets[g]`` bytes into ``out`` (a flat buffer, or a 2-D output
        whose rows are each contiguous, through its row 0).  Returns the
        table and the handle it points into; keep both for the call."""
        handle = self._ffi.from_buffer(out if out.ndim == 1 else out[0])
        return [handle + off for off in offsets], handle

    # ------------------------------------------------------------- kernels
    #
    # Each kernel is bound to one plan's constant operands once, when the
    # plan builds its native tables: the call it returns takes handles of
    # the per-call arrays only (one row base and two ints per input chunk,
    # the outputs).

    def gf8_gather(self, tables, vec, coeffs, cols, rows, copies, block: int):
        """The GF(2^8) gather of one plan: ``out[rows] = coeffs @
        input[cols]`` for every segment, cache-blocked at ``block`` symbols,
        after the identity rows ``copies`` (``(out row, input row)`` pairs,
        flat).  ``tables`` holds each coefficient's product table and
        ``vec`` its vector operands (:func:`gf8_vector_operands`).

        Returns ``run(chunks, out, offsets, oshape, crcs=None)``.  The input
        rows are those of ``chunks`` laid end to end (:meth:`_row_ranges`),
        ``len(offsets)`` equal shares of them.  Segment ``g``'s output
        starts ``offsets[g]`` bytes into ``out`` (:meth:`_outputs`),
        ``oshape[2g]`` bytes from row to row and ``oshape[2g + 1]`` bytes
        wide.  ``crcs``, a uint32 array of ``len(offsets) * mout`` entries,
        takes ``zlib.crc32`` of each segment's ``mout`` output rows,
        segment by segment, folded block by block as the kernel writes
        them; only valid when :attr:`has_crc32`.
        """
        m, n = coeffs.shape
        p = self._ptr
        head = (p("uint8_t[]", tables), p("uint8_t[]", vec), p("uint8_t[]", coeffs))
        operands = (p("int32_t[]", cols), p("int32_t[]", rows), m, n, p("int32_t[]", copies), copies.size // 2)
        call, crc_table = self._lib.repro_gf8_gather, self._crc_table

        def run(chunks, out, offsets, oshape, crcs=None):
            bases, geometry = self._row_ranges(chunks)
            outs, _handle = self._outputs(out, offsets)
            if call(*head, bases, geometry, len(bases), *operands,
                    outs, oshape, len(outs), block, *crc_table(crcs, len(outs))):
                raise MemoryError("native gather: no memory for the row table")

        return run

    def gf16_gather(self, lo, hi, coeffs, cols, rows, copies, block: int):
        """The split-table GF(2^16) :meth:`gf8_gather` (``block`` counts
        uint16 elements); its ``run`` takes no ``crcs``."""
        m, n = coeffs.shape
        p = self._ptr
        head = (p("uint16_t[]", lo), p("uint16_t[]", hi), p("uint16_t[]", coeffs))
        operands = (p("int32_t[]", cols), p("int32_t[]", rows), m, n, p("int32_t[]", copies), copies.size // 2)
        call = self._lib.repro_gf16_gather

        def run(chunks, out, offsets, oshape):
            bases, geometry = self._row_ranges(chunks)
            outs, _handle = self._outputs(out, offsets)
            if call(*head, bases, geometry, len(bases), *operands, outs, oshape, len(outs), block):
                raise MemoryError("native gather: no memory for the row table")

        return run

    def xor_exec(self, prog, cols, rows, copies, pool_rows: int, block_bytes: int, qbits: int, red: int):
        """The C executor of one flattened XOR program (see :data:`OP_ZERO`
        .. :data:`OP_DOUBLE`): returns ``run(chunks, out, offsets, oshape,
        crcs=None)``, laid out as :meth:`gf8_gather`'s, ``crcs`` included.
        The executor allocates the program's ``pool_rows`` scratch rows,
        one chunk of at most ``block_bytes`` (and of no more than the
        widest segment) each."""
        p = self._ptr
        operands = (p("int32_t[]", cols), p("int32_t[]", rows), p("int32_t[]", copies), copies.size // 2)
        program = (pool_rows, block_bytes, p("int32_t[]", prog), prog.size // INSN_WORDS, qbits, red)
        call, crc_table = self._lib.repro_xor_exec, self._crc_table

        def run(chunks, out, offsets, oshape, crcs=None):
            bases, geometry = self._row_ranges(chunks)
            outs, _handle = self._outputs(out, offsets)
            if call(bases, geometry, len(bases), *operands, outs, oshape, len(outs),
                    *program, *crc_table(crcs, len(outs))):
                raise MemoryError("native XOR schedule: no memory for the row table")

        return run

    def _crc_table(self, crcs: np.ndarray | None, segments: int) -> tuple:
        """The ``crcs, mout`` arguments of a kernel call: ``NULL`` and 0
        without ``crcs``, else its handle and rows per segment."""
        if crcs is None:
            return self._ffi.NULL, 0
        return self._ffi.from_buffer("uint32_t[]", crcs), crcs.size // segments

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
        elif rows.strides[1] == rows.itemsize:
            base = ffi.from_buffer(rows[0])
        else:
            rows = np.ascontiguousarray(rows)
            base = ffi.from_buffer(rows)
        out = ffi.new(self._crc_out, n)
        self._lib.repro_crc32_rows(base, rows.strides[0], n, width * rows.itemsize, out)
        return ffi.unpack(out, n)

    def row_buffer(self, rows: np.ndarray):
        """The handle :meth:`crc32_ranges` reads rows through (plus ``r *
        rows.strides[0]``, row ``r``), for a non-empty 2-D array whose rows
        are each contiguous (``strides[1] == itemsize``; the caller
        checks), or for a C-contiguous stack of such blocks: a ``char[]``
        on ``rows[0]`` that keeps the array's buffer alive."""
        return self._ffi.from_buffer(rows[0])

    def crc32_ranges(self, bases: list, geometry: list[int]) -> list[int]:
        """:meth:`crc32_rows` of many row ranges in one C call, the CRCs of
        every row of every range back to back.

        ``bases[r]`` points at range ``r``'s first row (a handle from
        :meth:`row_buffer` plus a byte offset) and ``geometry``
        holds three ints per range: row stride, row count, bytes per row.
        The caller keeps every range inside the array its handle came
        from.  Only valid when :attr:`has_crc32`.
        """
        if len(geometry) != 3 * len(bases):
            raise ValueError(f"crc32_ranges expects 3 ints per range, got {len(geometry)} for {len(bases)}")
        ffi = self._ffi
        total = sum(geometry[1::3])
        out = ffi.new(self._crc_out, total)
        self._lib.repro_crc32_ranges(bases, geometry, len(bases), out)  # the lists pass as C arrays
        return ffi.unpack(out, total)

    def crc32_deliver(
        self, bases: list, geometry: list[int], dest, windows: list[int], expected: list[int]
    ) -> list[int]:
        """A check of :meth:`crc32_ranges`'s row ranges against the CRCs
        ``expected`` of every row of every range, back to back, that copies
        the bytes a read returns as it hashes them; returns the indices of
        the ranges with a row whose CRC differs, in order (none: ``[]``).

        Range ``r``'s rows laid end to end, bytes ``windows[3r + 1]`` to
        ``windows[3r + 2]`` of them, land at byte ``windows[3r]`` of
        ``dest`` (a buffer the caller may write, a new ``bytes`` it is
        filling included).  Every row is hashed whole, each cache block of
        it right after its part of the window is copied.  A window outside
        its range or outside ``dest`` raises ``ValueError`` before anything
        is written.  Only valid when :attr:`has_crc32`.
        """
        ffi, call = self._ffi, self._lib.repro_crc32_deliver
        # A bytes object passes as the address of its own buffer, the one
        # from_buffer would give.
        buf = dest if type(dest) is bytes else ffi.from_buffer(dest)
        nbad = call(bases, geometry, len(bases), buf, len(buf), windows, expected, ffi.NULL)
        if nbad < 0:
            raise ValueError("crc32_deliver: a window lies outside its range or outside the output")
        if not nbad:  # the common verdict, which needs no array for the ranges' indices
            return []
        # Rows differ (rot): the same call again, naming them, copies the
        # same bytes to the same places.
        bad = ffi.new(self._index_out, nbad)
        call(bases, geometry, len(bases), buf, len(buf), windows, expected, bad)
        return ffi.unpack(bad, nbad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        simd = {3: "avx512-gfni", 2: "avx2"}.get(self.simd_level, "scalar")
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
