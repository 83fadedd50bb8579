"""Symbol remapping: the change-of-basis at the heart of Galloper codes.

Paper Sec. III-C / VI: given a stripe-level generator ``Gg`` (the block
generator expanded by ``N``), pick ``k*N`` stripe rows as a new basis
``Gg0`` and form ``Gg @ inv(Gg0)``.  The resulting code is *linearly
equivalent* to the original — every erasure pattern decodable before is
decodable after, and every locality relation is preserved — but the
stripes at the chosen rows now store the original data verbatim.

This module implements the remapping literally, exactly as Sec. VI
describes.  :mod:`repro.core.galloper` uses a structurally equivalent
per-row-position factorization for speed; the test-suite cross-checks the
two on small parameters.
"""

from __future__ import annotations

import numpy as np

from repro.gf import GF, inverse, matmul
from repro.gf.matrix import SingularMatrixError

from repro.codes.base import CodeError


class RemappingError(CodeError):
    """Raised when the chosen stripes do not form a basis."""


def expanded_generator(gf: GF, block_generator: np.ndarray, stripes: int) -> np.ndarray:
    """Expand a block-level generator to stripe level (``G (x) I_N``).

    Each entry ``g`` becomes ``g * I_N``; over GF that is the integer
    Kronecker product, since it only multiplies by 0 and 1.
    """
    return np.kron(np.asarray(block_generator, dtype=gf.dtype), np.eye(stripes, dtype=gf.dtype))


def change_basis(gf: GF, stripe_generator: np.ndarray, chosen_rows) -> np.ndarray:
    """Remap the code so the chosen stripe rows become the data stripes.

    Args:
        gf: arithmetic context.
        stripe_generator: ``(n*N, k*N)`` stripe-level generator.
        chosen_rows: ``k*N`` global row indices, in the order the file's
            stripes should be laid out.

    Returns:
        The remapped ``(n*N, k*N)`` generator ``G @ inv(G[chosen])``; rows
        at the chosen indices become identity rows.

    Raises:
        RemappingError: when the chosen rows are not linearly independent.
    """
    chosen = list(chosen_rows)
    stripe_generator = np.asarray(stripe_generator)
    if len(chosen) != stripe_generator.shape[1]:
        raise RemappingError(
            f"need exactly {stripe_generator.shape[1]} chosen rows, got {len(chosen)}"
        )
    basis = stripe_generator[chosen]
    try:
        basis_inv = inverse(gf, basis)
    except SingularMatrixError as exc:
        raise RemappingError("chosen stripes are not linearly independent") from exc
    return matmul(gf, stripe_generator, basis_inv)


def verify_identity_rows(generator: np.ndarray, chosen_rows) -> bool:
    """Check that each chosen row i is the unit vector e_i (data embedded)."""
    generator = np.asarray(generator)
    for col, row_idx in enumerate(chosen_rows):
        row = generator[row_idx]
        nz = np.nonzero(row)[0]
        if nz.size != 1 or nz[0] != col or row[col] != 1:
            return False
    return True
