"""Update plans: which stored stripes a small write touches.

Storage systems rarely rewrite whole stripes; a write to one data stripe
must *delta-update* every stripe that linearly depends on it.  For a
stripe-level linear code the dependency set is simply the nonzero entries
of the generator column: if file stripe ``j`` changes by ``delta``,
stored stripe ``i`` changes by ``G[i, j] * delta``.

The per-stripe *write amplification* (stripes touched per update) is a
classic evaluation axis for LRCs: Reed-Solomon touches ``1 + r`` blocks,
a Pyramid code ``1 + 1 + g`` (its block, its local parity, the globals),
and Galloper codes pay a little more because parity stripes of the
remapped code mix more file stripes — measured exactly by
:func:`update_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base import CodeError, ErasureCode


@dataclass(frozen=True)
class UpdatePlan:
    """All stored stripes affected by one file-stripe update.

    Attributes:
        file_stripe: index of the updated file stripe.
        touched: ``(block, row, coefficient)`` triples — stored stripe
            ``(block, row)`` changes by ``coefficient * delta``.
    """

    file_stripe: int
    touched: tuple[tuple[int, int, int], ...]

    @property
    def stripes_touched(self) -> int:
        return len(self.touched)

    @property
    def blocks_touched(self) -> int:
        return len({b for b, _, _ in self.touched})


def update_plan(code: ErasureCode, file_stripe: int) -> UpdatePlan:
    """Which stored stripes depend on one file stripe."""
    if not 0 <= file_stripe < code.data_stripe_total:
        raise CodeError(f"file stripe {file_stripe} out of range")
    col = code.generator[:, file_stripe]
    touched = []
    for i in np.nonzero(col)[0]:
        block, row = divmod(int(i), code.N)
        touched.append((block, row, int(col[i])))
    return UpdatePlan(file_stripe=file_stripe, touched=tuple(touched))


def update_cost(code: ErasureCode) -> dict[str, float]:
    """Average per-stripe write amplification of a code.

    Returns:
        dict with ``avg_stripes`` (stored stripes rewritten per file
        stripe update), ``avg_blocks`` (distinct blocks/servers touched)
        and ``max_blocks`` (worst case).
    """
    stripes = 0
    blocks = 0
    worst = 0
    total = code.data_stripe_total
    for j in range(total):
        plan = update_plan(code, j)
        stripes += plan.stripes_touched
        blocks += plan.blocks_touched
        worst = max(worst, plan.blocks_touched)
    return {
        "avg_stripes": stripes / total,
        "avg_blocks": blocks / total,
        "max_blocks": worst,
    }
