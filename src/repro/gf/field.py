"""Binary extension field GF(2^q) arithmetic.

A :class:`GF` instance bundles the tables of :mod:`repro.gf.tables` with
scalar and vectorized arithmetic.  All coding-layer code receives a ``GF``
object rather than touching tables directly, so the field width is a
single switch (each width has one primitive polynomial,
:data:`~repro.gf.tables.DEFAULT_PRIMITIVE_POLYS`).

Addition in GF(2^q) is XOR; the interesting operations are multiplication,
division and exponentiation, implemented through discrete logs.  For q <= 8
a full multiplication table additionally accelerates the vector kernels in
:mod:`repro.gf.vector`.
"""

from __future__ import annotations

import numpy as np

from repro.gf import tables as _tables


class GFError(ArithmeticError):
    """Raised on invalid field operations (division by zero, bad symbols)."""


class GF:
    """Arithmetic context for GF(2^q).

    Args:
        q: symbol width in bits (2, 4, 8 or 16).

    Attributes:
        q: symbol width in bits.
        primitive_poly: the width's default primitive polynomial, with
            the leading bit included (e.g. ``0x11d``).
        size: number of field elements, ``2**q``.
        order: size of the multiplicative group, ``2**q - 1``.
        dtype: numpy dtype used for symbol arrays.
    """

    def __init__(self, q: int = 8):
        if q not in _tables.SUPPORTED_WIDTHS:
            raise _tables.TableGenerationError(
                f"unsupported symbol width {q}; choose one of {_tables.SUPPORTED_WIDTHS}"
            )
        self.q = q
        self.size = 1 << q
        self.order = self.size - 1
        self.primitive_poly = _tables.DEFAULT_PRIMITIVE_POLYS[q]
        self.exp, self.log = _tables.exp_log_tables(q, self.primitive_poly)
        self.inv_table = _tables.inverse_table(q, self.primitive_poly)
        self.dtype = _tables._dtype_for(q)
        #: Full multiplication table, or None when q > 8.
        self.mul_table: np.ndarray | None
        self.mul_table = _tables.full_mul_table(q, self.primitive_poly) if q <= 8 else None

    # ------------------------------------------------------------------ scalars

    def check(self, a: int) -> int:
        """Validate that ``a`` is a symbol of this field and return it."""
        if not 0 <= a < self.size:
            raise GFError(f"{a} is not an element of GF(2^{self.q})")
        return a

    def mul(self, a: int, b: int) -> int:
        """Field multiplication of two scalars."""
        self.check(a)
        self.check(b)
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises :class:`GFError` when b == 0."""
        self.check(a)
        self.check(b)
        if b == 0:
            raise GFError("division by zero in GF")
        if a == 0:
            return 0
        return int(self.exp[(self.log[a] - self.log[b]) % self.order])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises :class:`GFError` when a == 0."""
        self.check(a)
        if a == 0:
            raise GFError("zero has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, n: int) -> int:
        """Field exponentiation ``a**n`` for any integer n (negative allowed)."""
        self.check(a)
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise GFError("zero cannot be raised to a negative power")
            return 0
        return int(self.exp[(self.log[a] * n) % self.order])

    # ------------------------------------------------------------- array helpers

    def scalar_mul_array(self, c: int, v: np.ndarray) -> np.ndarray:
        """Multiply every element of ``v`` by the scalar ``c``."""
        self.check(c)
        v = np.asarray(v)
        if c == 0:
            return np.zeros_like(v)
        if c == 1:
            return v.copy()
        if self.mul_table is not None:
            return self.mul_table[c][v]
        logc = int(self.log[c])
        out = self.exp[logc + self.log[v.astype(np.int64)]].astype(self.dtype)
        out[v == 0] = 0
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF(2^{self.q}, poly={self.primitive_poly:#x})"


#: Shared default field: GF(2^8), the paper's choice.
GF256 = GF(8)

#: Wider field for constructions with k + l + g >= 256.
GF65536 = GF(16)
