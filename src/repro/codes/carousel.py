"""Carousel codes (Li & Li, ICDCS 2017) — the parallelism baseline.

A ``(k, r)`` Carousel code applies symbol remapping to a Reed-Solomon code
so that original data is spread *evenly* over all ``k + r`` blocks (paper
Sec. III-C).  It achieves full data parallelism but keeps Reed-Solomon's
reconstruction cost: rebuilding any block reads ``k`` full blocks.  It
also cannot adapt to heterogeneous servers — that is exactly the gap
Galloper codes close (Sec. III-D).

The implementation reuses the Galloper machinery with ``l = 0`` and
uniform weights ``w_i = k / (k + r)``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.core.galloper import GalloperCode
from repro.gf import GF


class CarouselCode(GalloperCode):
    """A (k, r) Carousel code: MDS, evenly striped original data."""

    name = "carousel"

    def __init__(self, k: int, r: int, gf: GF | None = None):
        self.r = r
        super().__init__(
            k,
            0,
            r,
            weights=[Fraction(k, k + r)] * (k + r),
            gf=gf,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CarouselCode(k={self.k}, r={self.r}, N={self.N})"
