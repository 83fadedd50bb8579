"""Systematic Reed-Solomon codes (paper Sec. III-A).

A ``(k, r)`` Reed-Solomon code turns ``k`` data blocks into ``k + r``
blocks such that *any* ``k`` of them recover the data (the MDS property).
The parity rows come from a normalized Cauchy matrix.  Every square
submatrix of a Cauchy matrix is nonsingular, so the systematic code is
MDS by construction.  The normalization scales rows and columns so the
first parity row is all ones — for ``r = 1`` this degenerates to the XOR
code used by the paper's examples (RAID-5, local parities).
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import (
    ROLE_DATA,
    ROLE_GLOBAL_PARITY,
    BlockInfo,
    ErasureCode,
    ParameterError,
    default_field,
)
from repro.gf import GF, cauchy


def rs_generator(gf: GF, k: int, r: int) -> np.ndarray:
    """Build the ``(k + r, k)`` systematic generator of a (k, r) RS code."""
    if k < 1 or r < 0:
        raise ParameterError(f"invalid Reed-Solomon parameters k={k}, r={r}")
    if k + r > gf.size:
        raise ParameterError(f"(k={k}, r={r}) does not fit in GF(2^{gf.q})")
    top = np.eye(k, dtype=gf.dtype)
    if r == 0:
        return top
    # x-points for parity rows, y-points for data columns, disjoint sets.
    c = cauchy(gf, list(range(k, k + r)), list(range(k)))
    # Normalize so the first parity row is all ones (XOR parity):
    # scale each column j by 1/c[0, j], then each row i by 1/c'[i, 0].
    # Row/column scaling by nonzero constants preserves the MDS property.
    for j in range(k):
        col_scale = gf.inv(int(c[0, j]))
        c[:, j] = gf.scalar_mul_array(col_scale, c[:, j])
    for i in range(1, r):
        row_scale = gf.inv(int(c[i, 0]))
        c[i] = gf.scalar_mul_array(row_scale, c[i])
    return np.concatenate([top, c], axis=0)


class ReedSolomonCode(ErasureCode):
    """A systematic (k, r) Reed-Solomon code with N = 1 stripe per block."""

    name = "reed-solomon"

    def __init__(self, k: int, r: int, gf: GF | None = None):
        self.gf = gf or default_field()
        if r < 1:
            raise ParameterError("Reed-Solomon needs at least one parity block")
        self.k = k
        self.r = r
        self.n = k + r
        self.N = 1
        self._construct((k, r), self._build)

    def _build(self) -> None:
        k = self.k
        self.generator = rs_generator(self.gf, k, self.r)
        self.block_infos = tuple(
            BlockInfo(
                index=i,
                role=ROLE_DATA if i < k else ROLE_GLOBAL_PARITY,
                group=None,
                data_stripes=1 if i < k else 0,
                total_stripes=1,
                file_stripes=(i,) if i < k else (),
            )
            for i in range(self.n)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReedSolomonCode(k={self.k}, r={self.r})"
