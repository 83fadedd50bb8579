"""Tests for the Monte Carlo durability campaign.

The ``campaign`` figure runs one stripe per trial on deliberately flaky
hardware (100 h MTBF, 256 MiB blocks, 1 MiB/s repair, one repair crew)
through :func:`repro.reliability.campaign.simulate_validation`, the
regime ``run_validation`` checks against the Markov chain.
"""

import dataclasses

from repro.analysis import mttdl_hours
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.reliability import campaign
from repro.reliability.campaign import VALIDATION_PARAMS, simulate_validation


class TestCampaign:
    def test_deterministic(self):
        code = ReedSolomonCode(4, 2)
        a = simulate_validation(code, trials=10, horizon_years=2.0, seed=11)
        b = simulate_validation(code, trials=10, horizon_years=2.0, seed=11)
        assert a.losses > 0
        assert a.summary() == b.summary()
        assert a.loss_times == b.loss_times

    def test_losses_observed_on_flaky_hardware(self):
        res = simulate_validation(ReedSolomonCode(4, 2), trials=40, horizon_years=1.0, seed=1)
        assert res.losses > 0
        assert all(0 < t <= res.horizon_hours for t in res.loss_times)
        assert res.repairs_completed > 0

    def test_no_losses_on_solid_hardware(self, monkeypatch):
        solid = dataclasses.replace(VALIDATION_PARAMS, disk_mtbf_hours=1_000_000.0)
        monkeypatch.setattr(campaign, "VALIDATION_PARAMS", solid)
        res = simulate_validation(PyramidCode(4, 2, 1), trials=30, horizon_years=1.0, seed=2)
        assert res.losses == 0
        assert res.mttdl_hours == float("inf")

    def test_empirical_matches_analytic_order_of_magnitude(self):
        code = ReedSolomonCode(4, 2)
        res = simulate_validation(code, trials=100, horizon_years=1.0, seed=3)
        analytic = mttdl_hours(code, VALIDATION_PARAMS)
        assert res.losses >= 5  # enough events to estimate
        ratio = res.mttdl_hours / analytic
        assert 0.2 < ratio < 5.0

    def test_lrc_loses_less_than_rs(self):
        """Local repairs shrink the window a second and third failure must
        land in: Pyramid(4, 2, 1) loses no more stripes than RS(4, 2), the
        pair the ``campaign`` figure compares.  The nightly slice repeats
        the check on 300 trials."""
        rs = simulate_validation(ReedSolomonCode(4, 2), trials=100, horizon_years=1.0, seed=4)
        lrc = simulate_validation(PyramidCode(4, 2, 1), trials=100, horizon_years=1.0, seed=4)
        assert rs.losses > 0
        assert lrc.losses <= rs.losses

    def test_galloper_campaign_runs(self):
        """Same decodable patterns, same repair reads: Galloper loses
        exactly Pyramid's stripes at the same seed."""
        pyramid = simulate_validation(PyramidCode(4, 2, 1), trials=10, horizon_years=2.0, seed=5)
        galloper = simulate_validation(GalloperCode(4, 2, 1), trials=10, horizon_years=2.0, seed=5)
        assert pyramid.losses > 0
        assert galloper.trials == 10 and 0.0 < galloper.loss_fraction <= 1.0
        assert galloper.loss_times == pyramid.loss_times
        assert galloper.repairs_completed == pyramid.repairs_completed

    def test_loss_probability(self):
        res = simulate_validation(ReedSolomonCode(4, 1), trials=50, horizon_years=0.1, seed=6)
        assert 0 < res.losses < 50
        assert res.loss_fraction == res.losses / 50  # one stripe per trial
