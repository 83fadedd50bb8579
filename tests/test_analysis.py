"""Tests for the reliability/availability analysis subsystem."""

from itertools import combinations
from math import comb

import pytest

from repro.analysis import (
    ReliabilityParameters,
    annual_repair_traffic_bytes,
    availability,
    average_repair_reads,
    durability_nines,
    mttdl_hours,
    mttdl_years,
    survival_profile,
)
from repro.codes import PyramidCode, ReedSolomonCode, ReplicationCode
from repro.core import GalloperCode


def pattern_census(code, failures: int) -> tuple[int, int]:
    """(survivable, total) count of exactly-``failures`` patterns, by ``can_decode`` on each."""
    patterns = list(combinations(range(code.n), failures))
    ok = sum(code.can_decode([b for b in range(code.n) if b not in lost]) for lost in patterns)
    return ok, len(patterns)


class TestSurvivalProfile:
    def test_rs_profile_is_binomial_up_to_r(self):
        profile = survival_profile(ReedSolomonCode(4, 2))
        assert profile.survivable[0] == 1
        assert profile.survivable[1] == comb(6, 1)
        assert profile.survivable[2] == comb(6, 2)
        assert profile.guaranteed_tolerance() == 2

    def test_pyramid_profile_matches_census(self):
        code = PyramidCode(4, 2, 1)
        profile = survival_profile(code)
        for j in range(1, 4):
            ok, _ = pattern_census(code, j)
            if j < len(profile.survivable):
                assert profile.survivable[j] == ok

    def test_pyramid_survives_some_triples(self):
        profile = survival_profile(PyramidCode(4, 2, 1))
        assert profile.guaranteed_tolerance() == 2
        # 27 of the 35 triple-failures are survivable (Sec. III-B: "possible
        # to tolerate more than g+1 failures but not all combinations").
        assert 0 < profile.survivable[3] < comb(7, 3)

    def test_conditional_fatality_monotone_levels(self):
        profile = survival_profile(PyramidCode(4, 2, 1))
        assert profile.conditional_fatality(0) == 0.0
        assert profile.conditional_fatality(1) == 0.0
        assert 0.0 < profile.conditional_fatality(2) < 1.0
        assert profile.conditional_fatality(99) == 1.0

    def test_survival_fraction(self):
        profile = survival_profile(ReedSolomonCode(4, 2))
        assert profile.survival_fraction(2) == 1.0
        assert profile.survival_fraction(3) == 0.0

    def test_galloper_profile_equals_pyramid_within_tolerance(self):
        gp = survival_profile(GalloperCode(4, 2, 1))
        pp = survival_profile(PyramidCode(4, 2, 1))
        assert gp.survivable[:3] == pp.survivable[:3]


class TestMTTDL:
    def test_locality_improves_mttdl(self):
        """Faster repairs -> higher durability: LRC beats RS."""
        rs = mttdl_hours(ReedSolomonCode(4, 2))
        lrc = mttdl_hours(PyramidCode(4, 2, 1))
        assert lrc > rs

    def test_galloper_matches_pyramid(self):
        assert mttdl_hours(GalloperCode(4, 2, 1)) == pytest.approx(
            mttdl_hours(PyramidCode(4, 2, 1)), rel=1e-6
        )

    def test_more_parity_helps(self):
        weak = mttdl_hours(ReedSolomonCode(4, 1))
        strong = mttdl_hours(ReedSolomonCode(4, 2))
        assert strong > weak * 100

    def test_faster_repair_bandwidth_helps(self):
        slow = ReliabilityParameters(repair_bandwidth=10 << 20)
        fast = ReliabilityParameters(repair_bandwidth=200 << 20)
        code = PyramidCode(4, 2, 1)
        assert mttdl_hours(code, fast) > mttdl_hours(code, slow)

    def test_shorter_mtbf_hurts(self):
        flaky = ReliabilityParameters(disk_mtbf_hours=1_000)
        solid = ReliabilityParameters(disk_mtbf_hours=1_000_000)
        code = PyramidCode(4, 2, 1)
        assert mttdl_hours(code, solid) > mttdl_hours(code, flaky)

    def test_years_and_nines_consistent(self):
        code = ReedSolomonCode(4, 2)
        years = mttdl_years(code)
        assert years > 1
        assert durability_nines(code) == pytest.approx(
            __import__("math").log10(years), rel=1e-6
        )

    def test_fragile_code_has_negative_nines(self):
        """Satellite regression: nines are *signed* log10(MTTDL_years).

        A single-parity code on flaky disks dies well inside a year; the
        old ``max(years, 1.0)`` floor reported it as 0.0 nines —
        indistinguishable from a code lasting exactly one year.  It must
        come out negative.
        """
        flaky = ReliabilityParameters(
            disk_mtbf_hours=100.0, repair_bandwidth=1 << 20, block_size_bytes=256 << 20
        )
        code = ReedSolomonCode(4, 1)
        assert mttdl_years(code, flaky) < 1.0
        nines = durability_nines(code, flaky)
        assert nines < 0.0
        # Still consistent with the signed definition.
        assert nines == pytest.approx(
            __import__("math").log10(mttdl_years(code, flaky)), rel=1e-9
        )

    def test_all_symbol_durability_tradeoff(self):
        """All-symbol locality lowers repair I/O (2.5 -> 2.0 avg blocks)
        and, at equal (k, l, g), comes out MORE durable: the extra
        GP-group parity deepens the survivable failure levels by more
        than the added block's failure exposure costs.  (The exact
        rational CTMC solve settles this; at these magnitudes —
        MTTDL ~1e24 hours — the previous float solve returned noise,
        which is what the old version of this test had pinned.)"""
        plain = GalloperCode(4, 2, 2)
        allsym = GalloperCode(4, 2, 2, all_symbol=True)
        assert average_repair_reads(allsym) < average_repair_reads(plain)
        assert mttdl_hours(allsym) > mttdl_hours(plain)
        # Both are vastly more durable than the one-global-parity code.
        assert mttdl_hours(allsym) > mttdl_hours(GalloperCode(4, 2, 1)) * 10


class TestRepairTraffic:
    def test_average_repair_reads(self):
        assert average_repair_reads(ReedSolomonCode(4, 2)) == pytest.approx(4.0)
        assert average_repair_reads(ReplicationCode(4, 3)) == pytest.approx(1.0)
        # Pyramid: 6 blocks read 2, one reads 4 -> (6*2+4)/7.
        assert average_repair_reads(PyramidCode(4, 2, 1)) == pytest.approx(16 / 7)

    def test_annual_traffic_ordering(self):
        rs = annual_repair_traffic_bytes(ReedSolomonCode(4, 2))
        lrc = annual_repair_traffic_bytes(PyramidCode(4, 2, 1))
        # LRC has one more block (more failures) but each repair is far
        # cheaper; net traffic is still lower.
        assert lrc < rs


class TestAvailability:
    def test_probabilities_sum_to_one(self):
        rep = availability(PyramidCode(4, 2, 1), 0.05)
        assert rep.normal_read + rep.degraded_read + rep.unavailable == pytest.approx(1.0)

    def test_zero_failure_probability(self):
        rep = availability(ReedSolomonCode(4, 2), 0.0)
        assert rep.normal_read == 1.0
        assert rep.expected_parallelism == 4.0

    def test_availability_decreases_with_p(self):
        code = PyramidCode(4, 2, 1)
        a = availability(code, 0.01)
        b = availability(code, 0.2)
        assert a.available > b.available

    def test_galloper_parallelism_advantage(self):
        p = 0.05
        pyr = availability(PyramidCode(4, 2, 1), p)
        gal = availability(GalloperCode(4, 2, 1), p)
        # Same availability (equivalent codes) ...
        assert gal.available == pytest.approx(pyr.available, abs=1e-9)
        # ... but ~7/4 of the map-capable servers.
        assert gal.expected_parallelism == pytest.approx(pyr.expected_parallelism * 7 / 4, rel=1e-6)

    def test_galloper_degrades_more_reads(self):
        """The flip side of spreading data everywhere: any failure forces
        degraded reads, while Pyramid only degrades when a *data* block's
        server is down."""
        p = 0.05
        pyr = availability(PyramidCode(4, 2, 1), p)
        gal = availability(GalloperCode(4, 2, 1), p)
        assert gal.normal_read < pyr.normal_read

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            availability(ReedSolomonCode(4, 2), 1.5)
