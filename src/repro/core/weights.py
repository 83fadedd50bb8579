"""Weight assignment for Galloper codes (paper Sec. IV-C and V-B).

Each block of a Galloper code carries a *weight* ``w_i`` — the fraction of
the block occupied by original data — chosen in proportion to the
performance ``p_i`` of the server that will store the block.  Because a
block cannot hold more than one block's worth of original data
(``w_i <= 1``), over-fast servers must be throttled: the paper minimizes
the total throttling ``sum(d_i)`` subject to feasibility constraints, a
linear program solved here with :func:`scipy.optimize.linprog`.

The LP solution is then *rationalized* (the paper rounds ``p_i - d_i`` to
integers) so that all weights are exact fractions, the stripe count ``N``
is their denominators' LCM, and every stripe count in the construction is
an exact integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from repro.codes.base import ParameterError
from repro.codes.structure import LRCStructure


class WeightError(ParameterError):
    """Raised when a weight vector violates the construction's constraints."""


def solve_throttle_lp(structure: LRCStructure, performances) -> list[float]:
    """Minimize total throttling so that proportional weights are feasible.

    Implements the linear programs of Sec. IV-C (``l == 0``) and Sec. V-B
    (``l > 0``).  Returns the *effective performances* ``p_i - d_i``.
    """
    # Imported here, not at module level: it is most of ``import repro``'s
    # time, and uniform weights never solve an LP.
    from scipy.optimize import linprog

    p = np.asarray(list(performances), dtype=float)
    n = structure.n
    if p.shape != (n,):
        raise WeightError(f"expected {n} performance values, got {p.shape}")
    if np.any(p < 0):
        raise WeightError("performances must be non-negative")
    if not np.any(p > 0):
        raise WeightError("at least one server must have positive performance")
    k = structure.k

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def add_constraint(scale: int, member_set, universe) -> None:
        """Encode  scale * sum_{member}(p-d) <= sum_{universe}(p-d)."""
        # scale*sum_m(p_i - d_i) <= sum_u(p_j - d_j) rearranges to
        #   sum_u d_j - scale*sum_m d_i <= sum_u p_j - scale*sum_m p_i
        coeff = np.zeros(n)
        for i in universe:
            coeff[i] += 1.0
        for i in member_set:
            coeff[i] -= float(scale)
        bound = float(sum(p[i] for i in universe) - scale * sum(p[i] for i in member_set))
        rows.append(coeff)
        rhs.append(bound)

    everyone = list(range(n))
    for i in everyone:
        add_constraint(k, [i], everyone)  # w_i <= 1
    for j in range(structure.num_repair_groups):
        members = structure.group_members(j)
        gd = structure.group_data_count(j)
        add_constraint(k / gd, members, everyone)  # w_g <= 1 (Sec. V-B first family)
        for i in members:
            add_constraint(gd, [i], members)  # w_il <= 1 (second family)

    a_ub = np.stack(rows)
    b_ub = np.asarray(rhs)
    res = linprog(
        c=np.ones(n),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, float(pi)) for pi in p],
        method="highs",
    )
    if not res.success:  # pragma: no cover - scipy failure is unexpected
        raise WeightError(f"throttle LP failed: {res.message}")

    # The optimum of sum(d) is often degenerate: HiGHS may return a vertex
    # that throttles one server completely while leaving an equal peer
    # untouched.  A second lexicographic phase keeps sum(d) at its optimum
    # and minimizes the largest *relative* throttle max_i d_i/p_i, which
    # spreads the throttling evenly across equivalent servers (and keeps
    # weights proportional to real performance, what the paper intends).
    total_throttle = float(res.x.sum())
    pos = p > 0
    a2 = np.zeros((a_ub.shape[0] + int(pos.sum()), n + 1))
    a2[: a_ub.shape[0], :n] = a_ub
    b2 = list(b_ub)
    r = a_ub.shape[0]
    for i in np.nonzero(pos)[0]:
        a2[r, i] = 1.0
        a2[r, n] = -float(p[i])
        b2.append(0.0)
        r += 1
    res2 = linprog(
        c=np.concatenate([np.zeros(n), [1.0]]),
        A_ub=a2,
        b_ub=np.asarray(b2),
        A_eq=np.concatenate([np.ones((1, n)), np.zeros((1, 1))], axis=1),
        b_eq=np.asarray([total_throttle]),
        bounds=[(0.0, float(pi)) for pi in p] + [(0.0, 1.0)],
        method="highs",
    )
    x = res2.x[:n] if res2.success else res.x
    effective = p - x
    # Clamp LP round-off.
    effective[effective < 0] = 0.0
    return effective.tolist()


def rationalize(structure: LRCStructure, effective, precision: int = 64) -> list[Fraction]:
    """Convert effective performances to exact feasible rational weights.

    The paper rounds ``p_i - d_i`` up to integers; we instead snap each
    effective performance to the nearest fraction with denominator at most
    ``precision`` (so integer performance vectors stay exact and the
    resulting stripe count N stays small) and then repair any constraint
    the rounding broke by decrementing the largest offender — each repair
    step strictly reduces the integer mass, so the loop terminates.
    """
    values = [float(v) for v in effective]
    if all(v == 0 for v in values):
        raise WeightError("all effective performances are zero")
    top = max(values)
    fracs = [Fraction(v / top).limit_denominator(precision) for v in values]
    denom = lcm(*[f.denominator for f in fracs])
    q = np.array([int(f * denom) for f in fracs], dtype=int)
    if q.sum() == 0:
        raise WeightError("performance precision too low; increase `precision`")
    k = structure.k

    def violations() -> list[tuple[int, ...]]:
        out = []
        total = int(q.sum())
        for i in range(structure.n):
            if k * q[i] > total:
                out.append((i,))
        for j in range(structure.num_repair_groups):
            members = structure.group_members(j)
            gd = structure.group_data_count(j)
            gsum = int(sum(q[i] for i in members))
            if k * gsum > gd * total:  # w_g <= 1
                out.append(tuple(members))
            for i in members:
                if gd * q[i] > gsum:  # w_il <= 1
                    out.append((i,))
        return out

    guard = 0
    while True:
        bad = violations()
        if not bad:
            break
        # Decrement the largest entry among the first violated constraint's
        # members; this monotonically shrinks the violation.
        members = bad[0]
        target = max(members, key=lambda i: q[i])
        if q[target] == 0:  # pragma: no cover - defensive
            raise WeightError("could not repair rounded weights; increase `precision`")
        q[target] -= 1
        guard += 1
        if guard > precision * structure.n:  # pragma: no cover - defensive
            raise WeightError("weight repair did not converge")

    total = int(q.sum())
    return [Fraction(k * int(qi), total) for qi in q]


@dataclass(frozen=True)
class WeightAssignment:
    """A validated, construction-ready weight vector for a (k, l, g) code.

    Attributes:
        structure: the code geometry the weights were validated against.
        weights: per-block weight ``w_i`` (fraction of original data).
        stripes_per_block: the stripe count ``N`` (LCM of denominators).
        counts: ``w_i * N`` per block — data stripes stored in each block.
        group_weights: per-group step-1 weight ``w_g`` (``l > 0`` only).
        group_counts: ``w_g * N`` per group — data stripes each group data
            block carries after step 1 of the construction.
    """

    structure: LRCStructure
    weights: tuple[Fraction, ...]
    stripes_per_block: int
    counts: tuple[int, ...]
    group_weights: tuple[Fraction, ...]
    group_counts: tuple[int, ...]

    @property
    def N(self) -> int:
        return self.stripes_per_block


def finalize(structure: LRCStructure, weights) -> WeightAssignment:
    """Validate a rational weight vector and derive N and stripe counts.

    Checks the paper's feasibility conditions exactly:

    * ``0 <= w_i <= 1`` and ``sum(w_i) == k``;
    * when ``l > 0``: each group's step-1 weight
      ``w_g = (l/k) * sum_{i in group} w_i`` satisfies ``w_g <= 1`` and
      every member satisfies ``w_i <= w_g`` (so the step-2 weight
      ``w_il = w_i / w_g`` stays within [0, 1]).
    """
    ws = [Fraction(w) for w in weights]
    n = structure.n
    if len(ws) != n:
        raise WeightError(f"expected {n} weights, got {len(ws)}")
    for i, w in enumerate(ws):
        if not 0 <= w <= 1:
            raise WeightError(f"weight w_{i} = {w} outside [0, 1]")
    if sum(ws) != structure.k:
        raise WeightError(f"weights must sum to k={structure.k}, got {sum(ws)}")

    group_ws: list[Fraction] = []
    for j in range(structure.num_repair_groups):
        members = structure.group_members(j)
        gd = structure.group_data_count(j)
        # The group's data-carrying members stage w_g = sum(w)/gd of their
        # capacity in step 1 (for the GP group: w_g = sum(w)/g).
        wg = sum(ws[i] for i in members) / gd
        if wg > 1:
            raise WeightError(f"group {j} step-1 weight {wg} exceeds 1")
        for i in members:
            if ws[i] > wg:
                raise WeightError(
                    f"block {i} weight {ws[i]} exceeds its group's step-1 weight {wg}"
                )
        group_ws.append(wg)

    denominators = [w.denominator for w in ws] + [wg.denominator for wg in group_ws]
    N = lcm(*denominators) if denominators else 1
    counts = tuple(int(w * N) for w in ws)
    group_counts = tuple(int(wg * N) for wg in group_ws)
    return WeightAssignment(
        structure=structure,
        weights=tuple(ws),
        stripes_per_block=N,
        counts=counts,
        group_weights=tuple(group_ws),
        group_counts=group_counts,
    )


def assign_weights(
    structure: LRCStructure,
    performances=None,
    precision: int = 360,
) -> WeightAssignment:
    """End-to-end weight assignment: LP throttle, rationalize, validate.

    With no ``performances`` the cluster is treated as homogeneous, which
    yields the uniform weights ``w_i = k / (k + l + g)`` (e.g. 4/7 for the
    paper's (4, 2, 1) running example).
    """
    if performances is None:
        return finalize(structure, [Fraction(structure.k, structure.n)] * structure.n)
    effective = solve_throttle_lp(structure, performances)
    weights = rationalize(structure, effective, precision=precision)
    return finalize(structure, weights)
