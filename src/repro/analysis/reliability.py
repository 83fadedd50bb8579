"""Markov reliability model: MTTDL of a coded stripe.

The classical storage-reliability analysis (Patterson's RAID paper [18]
onward): a stripe is a continuous-time Markov chain whose state is the
number of failed blocks.  Failures arrive at rate ``(n - j) * lambda``;
repairs complete at rate ``mu_j``; some fraction of (j+1)-th failures is
*fatal* for non-MDS codes, taken from the exhaustive
:mod:`repro.analysis.failures` profile.  The mean time to data loss
(MTTDL) is the chain's expected absorption time from the all-healthy
state.

Locality enters through the repair rate: a code that reads 2 blocks to
rebuild repairs faster than one that reads k, which is precisely the
operational argument for locally repairable codes — this module turns
Fig. 1's byte counts into years of durability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.analysis.failures import survival_profile
from repro.codes.base import ErasureCode

HOURS_PER_YEAR = 24 * 365


@dataclass(frozen=True)
class ReliabilityParameters:
    """Operational constants of the durability model.

    Attributes:
        disk_mtbf_hours: per-server mean time between failures (the
            literature commonly uses ~500k hours for disks; commodity
            cloud servers are worse — Facebook's cluster average is a few
            percent of servers per month).
        block_size_bytes: size of one coded block.
        repair_bandwidth: bytes/second a repair job can read from helpers.

    Blocks lost together rebuild one at a time.
    """

    disk_mtbf_hours: float = 100_000.0
    block_size_bytes: int = 256 << 20
    repair_bandwidth: float = 50 << 20


def average_repair_reads(code: ErasureCode) -> float:
    """Mean blocks read to rebuild one block, averaged over targets."""
    total = 0.0
    for b in range(code.n):
        plan = code.repair_plan(b)
        total += sum(plan.read_fractions.values())
    return total / code.n


def mttdl_hours(
    code: ErasureCode,
    params: ReliabilityParameters | None = None,
) -> float:
    """Mean time to data loss of one stripe, in hours.

    Builds the absorbing CTMC described in the module docstring and
    solves ``A t = -1`` for the expected absorption times, returning
    ``t[0]``.
    """
    params = params or ReliabilityParameters()
    profile = survival_profile(code)
    lam = 1.0 / params.disk_mtbf_hours

    repair_blocks = average_repair_reads(code)
    repair_seconds = (repair_blocks + 1.0) * params.block_size_bytes / params.repair_bandwidth
    mu = 3600.0 / repair_seconds  # repairs per hour for one block

    # Transient states: 0 .. J failed blocks, where J is the deepest state
    # with any survivable pattern.
    levels = [j for j in range(len(profile.survivable)) if profile.survivable[j] > 0]
    J = max(levels)
    size = J + 1
    # Expected absorption time: A t = -1, with A tridiagonal (birth-death
    # with killing).  Rates span many orders of magnitude and the
    # absorption times of highly durable codes overflow the float
    # solver's conditioning (RS(4,3) came back *negative* from
    # np.linalg.solve), so eliminate exactly in rational arithmetic —
    # the matrix is tiny.
    lam_f = Fraction(1) / Fraction(params.disk_mtbf_hours)
    mu_f = Fraction(3600) / Fraction(repair_seconds)
    lower = [Fraction(0)] * size
    diag = [Fraction(0)] * size
    upper = [Fraction(0)] * size
    rhs = [Fraction(-1)] * size
    for j in range(size):
        fail_rate = (code.n - j) * lam_f
        fatal = Fraction(profile.conditional_fatality(j))
        if j < J:
            upper[j] = fail_rate * (1 - fatal)
        # Fatal transitions leave the transient set (no column).
        repair = mu_f if j else Fraction(0)
        lower[j] = repair
        diag[j] = -(fail_rate + repair)
    for j in range(1, size):  # Thomas elimination, exact
        w = lower[j] / diag[j - 1]
        diag[j] -= w * upper[j - 1]
        rhs[j] -= w * rhs[j - 1]
    t = [Fraction(0)] * size
    t[-1] = rhs[-1] / diag[-1]
    for j in range(size - 2, -1, -1):
        t[j] = (rhs[j] - upper[j] * t[j + 1]) / diag[j]
    return float(t[0])


def mttdl_years(code: ErasureCode, params: ReliabilityParameters | None = None) -> float:
    """MTTDL in years — the headline durability number."""
    return mttdl_hours(code, params) / HOURS_PER_YEAR


def annual_repair_traffic_bytes(
    code: ErasureCode, params: ReliabilityParameters | None = None
) -> float:
    """Expected repair bytes read per stripe per year.

    Each of the n servers fails ~``1/MTBF`` per hour; each failure costs
    the code's average repair read volume.  This is the steady-state
    cluster burden that Fig. 1/Fig. 8 motivate minimizing.
    """
    params = params or ReliabilityParameters()
    failures_per_year = code.n * HOURS_PER_YEAR / params.disk_mtbf_hours
    return failures_per_year * average_repair_reads(code) * params.block_size_bytes


def durability_nines(code: ErasureCode, params: ReliabilityParameters | None = None) -> float:
    """'Number of nines' of 1-year durability: ``log10(MTTDL_years)``.

    For MTTDL >> 1 year the annual loss probability is ~ 1/MTTDL_years,
    so this matches ``-log10 P(loss in a year)``.  The value is *signed*:
    a code whose MTTDL is under a year comes out negative (a stripe
    expected to die monthly scores about -1.1), so fragile codes stay
    distinguishable instead of all flooring at zero nines.
    """
    return float(np.log10(mttdl_years(code, params)))
