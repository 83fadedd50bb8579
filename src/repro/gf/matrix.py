"""Dense linear algebra over GF(2^q).

The Galloper construction is, at its heart, matrix surgery: building a
Reed-Solomon generator, expanding it by the stripe count N, taking the
submatrix of chosen stripe rows, inverting it, and multiplying (paper
Sec. VI).  This module provides exactly those operations: multiplication,
Gauss-Jordan inversion, rank, solving, row selection and the N-fold
identity expansion.

Matrices are plain numpy arrays of field symbols; every function takes the
:class:`~repro.gf.field.GF` context explicitly.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.gf.field import GF, GFError


class SingularMatrixError(GFError):
    """Raised when an inversion / solve target is singular over the field."""


def identity(gf: GF, n: int) -> np.ndarray:
    """The n x n identity matrix over the field."""
    return np.eye(n, dtype=gf.dtype)


def matmul(gf: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF.  Shapes follow the usual (m,n)x(n,p) rule.

    Delegates to the batched gather kernels (:mod:`repro.gf.kernels`), so
    GF(2^16) products run through split tables rather than per-entry
    log/antilog arithmetic.
    """
    from repro.gf.kernels import mat_data_product as _batched

    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise GFError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return _batched(gf, a, b)


def _eliminate(gf: GF, work: np.ndarray, ncols: int) -> int:
    """Forward-eliminate ``work`` in place over its first ``ncols`` columns.

    Returns the rank.  ``work`` may carry extra (augmented) columns past
    ``ncols``; they are transformed along.
    """
    rows = work.shape[0]
    rank = 0
    for col in range(ncols):
        pivot = -1
        for r in range(rank, rows):
            if work[r, col]:
                pivot = r
                break
        if pivot < 0:
            continue
        if pivot != rank:
            work[[rank, pivot]] = work[[pivot, rank]]
        inv = gf.inv(int(work[rank, col]))
        if inv != 1:
            work[rank] = gf.scalar_mul_array(inv, work[rank])
        piv_row = work[rank]
        for r in range(rows):
            if r != rank and work[r, col]:
                factor = int(work[r, col])
                np.bitwise_xor(work[r], gf.scalar_mul_array(factor, piv_row), out=work[r])
        rank += 1
        if rank == rows:
            break
    return rank


def rank(gf: GF, a: np.ndarray) -> int:
    """Rank of a matrix over the field."""
    work = np.array(a, dtype=gf.dtype, copy=True)
    if work.size == 0:
        return 0
    return _eliminate(gf, work, work.shape[1])


def inverse(gf: GF, a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a square matrix over the field.

    Raises:
        SingularMatrixError: if the matrix is singular.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GFError(f"inverse requires a square matrix, got {a.shape}")
    n = a.shape[0]
    work = np.concatenate([a.astype(gf.dtype), identity(gf, n)], axis=1)
    got = _eliminate(gf, work, n)
    if got != n:
        raise SingularMatrixError(f"matrix of shape {a.shape} is singular (rank {got})")
    return np.ascontiguousarray(work[:, n:])


def is_invertible(gf: GF, a: np.ndarray) -> bool:
    """True when the square matrix ``a`` is nonsingular over the field."""
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and rank(gf, a) == a.shape[0]


def cauchy(gf: GF, x_points: Sequence[int], y_points: Sequence[int]) -> np.ndarray:
    """Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)``; every square submatrix
    of a Cauchy matrix is invertible, so it is MDS by construction."""
    xs = list(x_points)
    ys = list(y_points)
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise GFError("Cauchy points must be distinct within each family")
    if set(xs) & set(ys):
        raise GFError("Cauchy x and y point families must be disjoint")
    out = np.zeros((len(xs), len(ys)), dtype=gf.dtype)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            out[i, j] = gf.inv(x ^ y)
    return out


def select_independent_rows(gf: GF, a: np.ndarray, need: int) -> list[int]:
    """Greedily pick indices of ``need`` linearly independent rows of ``a``.

    Rows are considered in order, so callers can bias the selection (e.g.
    prefer identity / data-stripe rows) by pre-ordering.  Raises
    :class:`SingularMatrixError` when fewer than ``need`` independent rows
    exist.
    """
    a = np.asarray(a)
    if need == 0:
        return []
    ncols = a.shape[1]
    basis = np.zeros((0, ncols), dtype=gf.dtype)
    pivots: list[int] = []  # pivot column of each basis row
    chosen: list[int] = []
    for idx in range(a.shape[0]):
        row = a[idx].astype(gf.dtype).copy()
        # Reduce against the accumulated echelon basis.
        for brow, pcol in zip(basis, pivots):
            c = int(row[pcol])
            if c:
                np.bitwise_xor(row, gf.scalar_mul_array(c, brow), out=row)
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        pivot_col = int(nz[0])
        inv = gf.inv(int(row[pivot_col]))
        if inv != 1:
            row = gf.scalar_mul_array(inv, row)
        basis = np.concatenate([basis, row[None, :]], axis=0)
        pivots.append(pivot_col)
        chosen.append(idx)
        if len(chosen) == need:
            return chosen
    raise SingularMatrixError(f"only {len(chosen)} independent rows available, needed {need}")


def solve_consistent(gf: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a possibly non-square / rank-deficient ``a``.

    Returns one solution with free variables set to zero.  Raises
    :class:`SingularMatrixError` if the system is inconsistent.  ``b`` may
    be a vector or a matrix of right-hand sides.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    rhs = b[:, None] if b.ndim == 1 else b
    if rhs.shape[0] != a.shape[0]:
        raise GFError(f"rhs rows {rhs.shape[0]} do not match matrix rows {a.shape[0]}")
    m, n = a.shape
    work = np.concatenate([a.astype(gf.dtype), rhs.astype(gf.dtype)], axis=1)
    _eliminate(gf, work, n)
    # Locate pivot columns row by row of the reduced system.
    x = np.zeros((n, rhs.shape[1]), dtype=gf.dtype)
    for r in range(m):
        nz = np.nonzero(work[r, :n])[0]
        if nz.size == 0:
            if np.any(work[r, n:]):
                raise SingularMatrixError("inconsistent linear system over GF")
            continue
        x[int(nz[0])] = work[r, n:]
    return x[:, 0] if b.ndim == 1 else x


def express_rows(gf: GF, targets: np.ndarray, helpers: np.ndarray) -> np.ndarray:
    """Coefficients ``C`` with ``C @ helpers == targets``.

    This is the reconstruction primitive: the lost block's generator rows
    (``targets``) are written as GF-linear combinations of the surviving
    helper rows.  Raises :class:`SingularMatrixError` when the targets are
    not in the helpers' rowspace.
    """
    targets = np.asarray(targets)
    helpers = np.asarray(helpers)
    # C @ H == T  <=>  H^T @ C^T == T^T
    ct = solve_consistent(gf, helpers.T, targets.T)
    return ct.T


def rows_in_rowspace(gf: GF, candidates: np.ndarray, basis_rows: np.ndarray) -> bool:
    """True when every row of ``candidates`` lies in the rowspace of
    ``basis_rows`` — the locality check used by the code test-suite."""
    basis_rows = np.asarray(basis_rows)
    candidates = np.asarray(candidates)
    base_rank = rank(gf, basis_rows)
    joint = np.concatenate([basis_rows, candidates], axis=0)
    return rank(gf, joint) == base_rank
