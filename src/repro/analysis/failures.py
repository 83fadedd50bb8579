"""Exhaustive erasure-pattern analysis of a code.

Locally repairable codes are not maximum-distance-separable: beyond the
guaranteed tolerance, *which* blocks fail matters.  This module
enumerates every failure pattern of a code once and summarizes it as a
survival profile — the input to the reliability (MTTDL) and availability
models in the sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from repro.codes.base import ErasureCode


@dataclass(frozen=True)
class SurvivalProfile:
    """How a code survives every possible erasure pattern.

    Attributes:
        n: total blocks.
        survivable: ``survivable[j]`` = number of j-failure patterns the
            code decodes (out of ``C(n, j)``).
        fatal_extensions: ``fatal_extensions[j]`` = number of
            (survivable-j-pattern, extra-failure) pairs whose extension is
            fatal; used for the conditional fatality of the (j+1)-th
            failure given survival so far.
    """

    n: int
    survivable: tuple[int, ...]
    fatal_extensions: tuple[int, ...]

    @property
    def max_failures(self) -> int:
        return len(self.survivable) - 1

    def survival_fraction(self, j: int) -> float:
        """P(survive | exactly j random failures)."""
        if j >= len(self.survivable):
            return 0.0
        total = comb(self.n, j)
        return self.survivable[j] / total if total else 1.0

    def conditional_fatality(self, j: int) -> float:
        """P(next failure is fatal | currently j failures, still alive).

        This is the hazard the Markov reliability model uses on the
        transition from state j to state j+1.
        """
        if j >= len(self.survivable) or j >= len(self.fatal_extensions):
            return 1.0
        alive = self.survivable[j]
        if alive == 0:
            return 1.0
        total_extensions = alive * (self.n - j)
        return self.fatal_extensions[j] / total_extensions if total_extensions else 1.0

    def guaranteed_tolerance(self) -> int:
        """Largest j with every j-failure pattern survivable."""
        t = 0
        for j in range(1, len(self.survivable)):
            if self.survivable[j] == comb(self.n, j):
                t = j
            else:
                break
        return t


def survival_profile(code: ErasureCode) -> SurvivalProfile:
    """Enumerate erasure patterns of ``code`` up to ``n - k`` failures
    (beyond that, rank is impossible anyway).

    The enumeration stops early once no pattern of some size survives
    (every superset is fatal too).  Cost is ``C(n, j)`` rank computations
    per level — fine for the paper-scale codes (n <= ~15).
    """
    n = code.n
    survivable = [1]
    fatal_ext: list[int] = []
    alive_patterns: list[tuple[int, ...]] = [()]
    for j in range(1, n - code.k + 1):
        next_alive: set[tuple[int, ...]] = set()
        fatal_here = 0
        for pattern in alive_patterns:
            for extra in range(n):
                if extra in pattern:
                    continue
                candidate = tuple(sorted(pattern + (extra,)))
                survivors = [b for b in range(n) if b not in candidate]
                if code.can_decode(survivors):
                    next_alive.add(candidate)
                else:
                    fatal_here += 1
        fatal_ext.append(fatal_here)
        survivable.append(len(next_alive))
        alive_patterns = sorted(next_alive)
        if not alive_patterns:
            break
    # Pad fatality list to align with survivable levels.
    while len(fatal_ext) < len(survivable) - 1:  # pragma: no cover - defensive
        fatal_ext.append(0)
    return SurvivalProfile(
        n=n, survivable=tuple(survivable), fatal_extensions=tuple(fatal_ext)
    )


def pattern_census(code: ErasureCode, failures: int) -> tuple[int, int]:
    """(survivable, total) count of exactly-``failures`` patterns."""
    total = 0
    ok = 0
    for lost in combinations(range(code.n), failures):
        total += 1
        survivors = [b for b in range(code.n) if b not in lost]
        if code.can_decode(survivors):
            ok += 1
    return ok, total
