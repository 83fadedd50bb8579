"""Tests for Galloper weight assignment (Sec. IV-C / V-B)."""

from fractions import Fraction

import pytest

from repro.codes import LRCStructure
from repro.core.weights import (
    WeightError,
    assign_weights,
    finalize,
    rationalize,
    solve_throttle_lp,
)


class TestThrottleLP:
    def test_homogeneous_no_throttle(self):
        st = LRCStructure(4, 0, 1)
        eff = solve_throttle_lp(st, [1.0] * 5)
        assert eff == pytest.approx([1.0] * 5)

    def test_paper_toy_needs_no_throttle(self):
        st = LRCStructure(4, 0, 1)
        eff = solve_throttle_lp(st, [6, 6, 6, 6, 4])
        assert eff == pytest.approx([6, 6, 6, 6, 4])

    def test_overfast_server_throttled(self):
        """k * p_i <= sum(p) must hold; a dominant server gets capped."""
        st = LRCStructure(4, 0, 1)
        eff = solve_throttle_lp(st, [100, 1, 1, 1, 1])
        total = sum(eff)
        assert 4 * eff[0] <= total + 1e-6

    def test_grouped_constraints(self):
        st = LRCStructure(4, 2, 1)
        perf = [1, 1, 1, 1, 0.4, 0.4, 0.4]
        eff = solve_throttle_lp(st, perf)
        total = sum(eff)
        for j in range(2):
            gsum = sum(eff[i] for i in st.group_members(j))
            assert 2 * gsum <= total + 1e-6  # w_ig <= 1
            for i in st.group_members(j):
                assert 2 * eff[i] <= gsum + 1e-6  # w_il <= 1

    def test_degenerate_optimum_balanced(self):
        """Equal servers in one group should receive equal throttling."""
        st = LRCStructure(4, 2, 1)
        eff = solve_throttle_lp(st, [1, 1, 1, 1, 0.4, 0.4, 0.4])
        assert eff[0] == pytest.approx(eff[1], abs=1e-6)
        assert eff[1] == pytest.approx(eff[2], abs=1e-6)

    def test_wrong_length_rejected(self):
        with pytest.raises(WeightError):
            solve_throttle_lp(LRCStructure(4, 0, 1), [1, 2])

    def test_negative_rejected(self):
        with pytest.raises(WeightError):
            solve_throttle_lp(LRCStructure(4, 0, 1), [1, 1, 1, 1, -2])

    def test_all_zero_rejected(self):
        with pytest.raises(WeightError):
            solve_throttle_lp(LRCStructure(4, 0, 1), [0] * 5)


class TestRationalize:
    def test_integers_stay_exact(self):
        st = LRCStructure(4, 0, 1)
        ws = rationalize(st, [6, 6, 6, 6, 4])
        assert ws == [Fraction(6, 7)] * 4 + [Fraction(4, 7)]

    def test_fractions_snapped(self):
        st = LRCStructure(4, 0, 1)
        ws = rationalize(st, [1, 1, 1, 1, 0.5])
        assert sum(ws) == 4
        assert ws[4] == Fraction(ws[0], 2)

    def test_feasibility_repair(self):
        """Rounded weights may break w_i <= 1; the repair loop fixes it."""
        st = LRCStructure(4, 0, 1)
        ws = rationalize(st, [1, 0.26, 0.26, 0.26, 0.26])
        assert all(0 <= w <= 1 for w in ws)
        assert sum(ws) == 4

    def test_all_zero_rejected(self):
        with pytest.raises(WeightError):
            rationalize(LRCStructure(4, 0, 1), [0.0] * 5)


class TestFinalize:
    def test_uniform_paper_example(self):
        st = LRCStructure(4, 2, 1)
        wa = finalize(st, [Fraction(4, 7)] * 7)
        assert wa.N == 7
        assert wa.counts == (4,) * 7
        assert wa.group_weights == (Fraction(6, 7), Fraction(6, 7))
        assert wa.group_counts == (6, 6)

    def test_special_case_toy(self):
        st = LRCStructure(4, 0, 1)
        wa = finalize(st, [Fraction(6, 7)] * 4 + [Fraction(4, 7)])
        assert wa.N == 7
        assert wa.counts == (6, 6, 6, 6, 4)
        assert wa.group_weights == ()

    def test_sum_must_equal_k(self):
        st = LRCStructure(4, 0, 1)
        with pytest.raises(WeightError):
            finalize(st, [Fraction(1, 2)] * 5)

    def test_weight_range_enforced(self):
        st = LRCStructure(2, 0, 1)
        with pytest.raises(WeightError):
            finalize(st, [Fraction(3, 2), Fraction(1, 4), Fraction(1, 4)])

    def test_group_weight_cap(self):
        """w_ig > 1 is rejected: a group cannot stage more than N stripes."""
        st = LRCStructure(4, 2, 1)
        # Group 0 blocks very heavy: w_g = (2/4)*(1+1+0.5) > 1.
        ws = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)]
        with pytest.raises(WeightError):
            finalize(st, ws)

    def test_member_above_group_weight_rejected(self):
        st = LRCStructure(4, 2, 1)
        # Group 0: members (0.9, 0.1, 0.1) -> w_g = 0.55 < 0.9 = w_0.
        ws = [
            Fraction(9, 10),
            Fraction(1, 10),
            Fraction(1, 10),
            Fraction(7, 10),
            Fraction(7, 10),
            Fraction(7, 10),
            Fraction(8, 10),
        ]
        with pytest.raises(WeightError):
            finalize(st, ws)

    def test_wrong_length(self):
        with pytest.raises(WeightError):
            finalize(LRCStructure(4, 2, 1), [Fraction(4, 7)] * 6)


class TestAssignWeights:
    def test_default_uniform(self):
        st = LRCStructure(4, 2, 1)
        wa = assign_weights(st)
        assert wa.weights == (Fraction(4, 7),) * 7

    def test_proportional_when_feasible(self):
        st = LRCStructure(4, 0, 1)
        wa = assign_weights(st, [6, 6, 6, 6, 4])
        assert wa.weights == (Fraction(6, 7),) * 4 + (Fraction(4, 7),)

    def test_weights_track_performance_order(self):
        st = LRCStructure(4, 2, 1)
        wa = assign_weights(st, [1, 1, 1, 1, 0.4, 0.4, 0.4])
        assert wa.weights[0] > wa.weights[4]
        assert sum(wa.weights) == 4



def test_uniform_weights_never_import_the_lp_solver():
    """``scipy.optimize`` is most of ``import repro``'s time and only a
    non-uniform weight assignment needs it: a fresh interpreter that imports
    the package and builds a uniform Galloper code has not loaded it."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys, repro\n"
        "assert 'scipy.optimize' not in sys.modules, 'import repro'\n"
        "from repro.core import GalloperCode\n"
        "GalloperCode(4, 2, 1)\n"
        "assert 'scipy.optimize' not in sys.modules, 'uniform GalloperCode(4, 2, 1)'\n"
        "from repro.core.weights import solve_throttle_lp\n"
        "from repro.codes import LRCStructure\n"
        "solve_throttle_lp(LRCStructure(4, 2, 1), [1, 2, 1, 2, 1, 1, 1])\n"
        "assert 'scipy.optimize' in sys.modules, 'an LP solve'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
