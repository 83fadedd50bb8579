"""Full against split product tables on real GF(2^16) encode plans.

On the numpy table tier a GF(2^16) plan builds one full 65 536-entry
packed table per (data row, row group) while their count stays within
``repro.gf.kernels.FULL_TABLE_LIMIT`` (64), and two 256-entry split tables
per coefficient past it.  This times each shape's encode plan both ways —
the table the rule picks and the other one, forced by setting the limit
to zero or past the count — alternating the two, and prints MB/s of
payload (the ``(k*N, S)`` grid encoded) per shape::

    PYTHONPATH=src python benchmarks/table_speeds.py

Each figure is the median over the rounds of the best of a few applies,
with the range over the rounds in brackets.
"""

from __future__ import annotations

import statistics
import time

from repro.codes import ReedSolomonCode
from repro.core import GalloperCode
from repro.gf import GF65536, CodingPlan, random_symbols
from repro.gf import kernels

SHAPES = {
    "Galloper(4,2,1)": lambda: GalloperCode(4, 2, 1, gf=GF65536),
    "RS(6,4)": lambda: ReedSolomonCode(6, 4, gf=GF65536),
    "RS(12,4)": lambda: ReedSolomonCode(12, 4, gf=GF65536),
}
#: Symbols per stripe row: 64 KiB rows, grids of 0.4-1.8 MiB.
COLUMNS = 1 << 15
ROUNDS = 9
REPEATS = 5


def _plan(code, limit: int) -> tuple[CodingPlan, str]:
    """The code's encode plan on the table tier and its label, its tables
    built under ``limit`` (they stay what they are once it is restored)."""
    saved = kernels.FULL_TABLE_LIMIT
    kernels.FULL_TABLE_LIMIT = limit
    try:
        plan = CodingPlan(code.gf, code.generator, kernel="table")
        label = plan.kernel
        plan.apply(random_symbols(code.gf, (code.data_stripe_total, kernels.SMALL_PRODUCT_ELEMS), seed=1))
    finally:
        kernels.FULL_TABLE_LIMIT = saved
    return plan, label


def _best_seconds(plan, grid) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        plan.apply(grid)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    print(f"FULL_TABLE_LIMIT = {kernels.FULL_TABLE_LIMIT}; MB/s of payload, median of {ROUNDS} rounds [min .. max]")
    print("| code | full tables needed | rule picks | split tables | full tables |")
    print("|---|---|---|---|---|")
    for name, make in SHAPES.items():
        code = make()
        chosen = CodingPlan(code.gf, code.generator, kernel="table")
        tables = chosen._dense_cols.size * chosen._groups
        sides = {"split": _plan(code, 0), "full": _plan(code, 1 << 30)}
        assert {label for _, label in sides.values()} == {"packed-split", "packed-full"}
        grid = random_symbols(code.gf, (code.data_stripe_total, COLUMNS), seed=2)
        mb = grid.nbytes / float(1 << 20)
        rates: dict[str, list[float]] = {side: [] for side in sides}
        for r in range(ROUNDS):
            for side in sorted(sides, reverse=bool(r % 2)):  # alternate which side goes first
                rates[side].append(mb / _best_seconds(sides[side][0], grid))
        split, full = (
            f"{statistics.median(rates[side]):.0f} [{min(rates[side]):.0f} .. {max(rates[side]):.0f}]"
            for side in ("split", "full")
        )
        print(f"| {name} | {tables} | {chosen.kernel} | {split} | {full} |")


if __name__ == "__main__":
    main()
