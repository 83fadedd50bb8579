"""GF(2) bitmatrix projection of GF(2^w) coefficient matrices.

Every GF(2^w) element acts on the field (viewed as a w-dimensional vector
space over GF(2)) as a linear map, so a coefficient ``c`` has a w x w
binary *companion expansion* ``M`` with ``bits(c * x) == M @ bits(x)``
over GF(2).  Projecting a whole coefficient matrix this way turns a
coding product into pure XORs of bit-lanes — the classic bitmatrix
technique of Cauchy-Reed-Solomon and repair-optimal array codes over
GF(2).

The execution strategy in :mod:`repro.gf.schedule` uses an equivalent
factorisation of the same expansion that avoids transposing symbols into
bit-planes: since ``c = XOR of alpha^b over the set bits b of c``, every
product ``c * x`` is an XOR of *alpha-power lanes* ``x * alpha^b``.  The
lanes are produced by a vectorised doubling ladder
(:func:`double_symbols` — the companion matrix of ``alpha`` applied to
whole symbol rows at once), and the GF(2) structure that selects lanes
into outputs is :func:`lane_selection_matrix` — a column-permuted slice
of the full :func:`coeff_bitmatrix` expansion.  Outputs accumulate
directly in symbol space, so no bit-plane packing or unpacking ever
touches the data.

This module holds the algebra: companion expansion, density accounting,
and the doubling primitive.  Schedule compilation and execution live in
:mod:`repro.gf.schedule`.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF, GFError

__all__ = [
    "companion_matrix",
    "coeff_bitmatrix",
    "bitmatrix_density",
    "lane_selection_matrix",
    "double_symbols",
]


def companion_matrix(gf: GF, c: int) -> np.ndarray:
    """The ``(w, w)`` GF(2) matrix of multiplication by ``c``.

    Column ``j`` holds the bits of ``c * alpha^j`` (``alpha = 2``, the
    polynomial ``x``), so for any symbol ``x`` with bit vector ``v``,
    ``companion_matrix(gf, c) @ v  (mod 2)`` is the bit vector of
    ``c * x``.  Built from the existing field tables — no polynomial
    arithmetic is redone here.
    """
    c = int(c)
    if not 0 <= c < gf.size:
        raise GFError(f"coefficient {c} outside GF(2^{gf.q})")
    w = gf.q
    out = np.zeros((w, w), dtype=np.uint8)
    for j in range(w):
        prod = gf.mul(c, 1 << j)
        for i in range(w):
            out[i, j] = (prod >> i) & 1
    return out


def coeff_bitmatrix(gf: GF, coeffs: np.ndarray) -> np.ndarray:
    """Expand an ``(m, n)`` coefficient matrix to its ``(m*w, n*w)`` bitmatrix.

    Block ``(i, j)`` is :func:`companion_matrix` of ``coeffs[i, j]``; the
    whole coding product becomes a GF(2) matrix-vector product over the
    concatenated bit-planes of the data rows.  Used by tests and density
    accounting; the execution path uses the factored form instead (see
    the module docstring).
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise GFError("coeff_bitmatrix expects a 2-D coefficient matrix")
    m, n = coeffs.shape
    w = gf.q
    out = np.zeros((m * w, n * w), dtype=np.uint8)
    # Companion blocks repeat for repeated coefficients; expand each
    # distinct value once.
    blocks: dict[int, np.ndarray] = {}
    for i in range(m):
        for j in range(n):
            c = int(coeffs[i, j])
            if c == 0:
                continue
            block = blocks.get(c)
            if block is None:
                block = blocks[c] = companion_matrix(gf, c)
            out[i * w : (i + 1) * w, j * w : (j + 1) * w] = block
    return out


def bitmatrix_density(gf: GF, coeffs: np.ndarray) -> float:
    """Fraction of nonzero entries in the companion expansion of ``coeffs``.

    The density of the naive bitmatrix is what a schedule's XOR count is
    measured against: a dense Cauchy coefficient fills roughly half of
    its ``w x w`` companion block, while XOR-parity coefficients (value
    1) contribute only the identity diagonal.
    """
    bm = coeff_bitmatrix(gf, coeffs)
    return float(np.count_nonzero(bm)) / bm.size if bm.size else 0.0


def lane_selection_matrix(gf: GF, coeffs: np.ndarray) -> np.ndarray:
    """The ``(m, n*w)`` GF(2) matrix selecting alpha-power lanes into outputs.

    Entry ``[i, j*w + b]`` is bit ``b`` of ``coeffs[i, j]``: output row
    ``i`` is the XOR of the lanes ``data[j] * alpha^b`` over the set
    bits.  This is the factored view of :func:`coeff_bitmatrix` the
    XOR-schedule compiler consumes — same GF(2) structure, but the
    ``w x w`` companion blocks are absorbed into the doubling ladder
    that produces the lanes.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2:
        raise GFError("lane_selection_matrix expects a 2-D coefficient matrix")
    m, n = coeffs.shape
    w = gf.q
    bits = np.zeros((m, n * w), dtype=bool)
    c = coeffs.astype(np.int64)
    for b in range(w):
        bits[:, b::w] = (c >> b) & 1
    return bits


# ------------------------------------------------------- doubling primitive

#: Replicated per-symbol masks for the uint64-view doubling path, keyed by
#: symbol width.  uint8 shifts are scalar in numpy (~6x slower than the
#: uint64 ufunc loop), so GF(2^8) doubling runs on 8-symbols-per-word
#: views; the masks keep every symbol's MSB from leaking into its
#: neighbour when the packed word shifts left.
_U64_MASKS = {
    1: (np.uint64(0x7F7F7F7F7F7F7F7F), np.uint64(0x8080808080808080), np.uint64(7)),
    2: (np.uint64(0x7FFF7FFF7FFF7FFF), np.uint64(0x8000800080008000), np.uint64(15)),
}


def double_symbols(gf: GF, src: np.ndarray, dst: np.ndarray, tmp: np.ndarray) -> None:
    """``dst[:] = src * alpha`` over the field, vectorised, no allocation.

    One doubling is the companion matrix of ``alpha`` applied to every
    symbol of ``src`` at once: shift each symbol left one bit and XOR
    the reduction polynomial wherever the old MSB was set.  ``dst`` and
    ``tmp`` must be distinct preallocated arrays of ``src``'s shape and
    dtype; ``src`` is not modified (``dst is src`` is allowed for an
    in-place ladder step, ``tmp`` never aliases either).

    When the three buffers can be reinterpreted as uint64 words (size a
    multiple of 8 bytes — always true for the schedule executor's pool
    rows) the kernel runs 8 bytes per element; otherwise it falls back
    to native-dtype ufuncs, which are bit-identical.
    """
    red = int(gf.primitive_poly) & (gf.size - 1)
    itemsize = src.dtype.itemsize
    try:
        s64, d64, t64 = (a.view(np.uint64) for a in (src, dst, tmp))
    except ValueError:
        w = gf.q
        np.right_shift(src, w - 1, out=tmp)
        np.multiply(tmp, src.dtype.type(red), out=tmp)
        np.bitwise_and(src, src.dtype.type((gf.size - 1) >> 1), out=dst)
        np.left_shift(dst, 1, out=dst)
        np.bitwise_xor(dst, tmp, out=dst)
        return
    lo, hi, shift = _U64_MASKS[itemsize]
    np.bitwise_and(s64, hi, out=t64)
    np.right_shift(t64, shift, out=t64)
    np.multiply(t64, np.uint64(red), out=t64)
    np.bitwise_and(s64, lo, out=d64)
    np.left_shift(d64, np.uint64(1), out=d64)
    np.bitwise_xor(d64, t64, out=d64)
