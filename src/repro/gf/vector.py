"""Vector helpers over GF(2^q): axpy accumulation and random symbols.

The matrix-times-data product that implements encoding, decoding and
reconstruction is :func:`repro.gf.kernels.mat_data_product` (exported as
``repro.gf.mat_data_product``).  Data buffers are numpy arrays whose
dtype matches the field's symbol width (uint8 for GF(2^8)).
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF, GFError


def axpy(gf: GF, c: int, x: np.ndarray, y: np.ndarray) -> None:
    """In-place ``y ^= c * x`` (GF multiply-accumulate).

    ``y`` must be writable and the same shape as ``x``.
    """
    if x.shape != y.shape:
        raise GFError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
    gf.check(c)
    if c == 0:
        return
    if c == 1:
        np.bitwise_xor(y, x, out=y)
        return
    np.bitwise_xor(y, gf.scalar_mul_array(c, x), out=y)


def random_symbols(gf: GF, shape, seed: int | None = None) -> np.ndarray:
    """Uniformly random field symbols, for tests and synthetic payloads."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, gf.size, size=shape, dtype=np.uint32).astype(gf.dtype)
