"""Long-horizon reliability campaign tests (nightly CI).

Marked ``reliability``: the quick campaign still simulates decades of
cluster time (~15s), so these run in the nightly job via
``pytest --reliability -m reliability`` instead of slowing tier-1.
"""

import pytest

from repro.cli import main as cli_main
from repro.codes import PyramidCode, ReedSolomonCode
from repro.reliability import run_reliability_campaign, run_validation
from repro.reliability.campaign import simulate_validation
from repro.reliability.simulator import _Trial

pytestmark = pytest.mark.reliability


@pytest.fixture(scope="module")
def campaign():
    return run_reliability_campaign(quick=True, seed=2026)


class TestCampaignRecord:
    def test_schema(self, campaign):
        assert campaign["schema"] == 1
        assert campaign["codes"] == [
            "rs(4,3)", "pyramid(4,2,1)", "galloper(4,2,1)", "carousel(4,3)",
        ]
        assert campaign["placements"] == ["random", "spread", "copyset"]
        assert set(campaign["lifetimes"]) >= {"exponential", "weibull_wearout"}
        expected = (
            len(campaign["codes"]) * len(campaign["placements"]) * len(campaign["lifetimes"])
        )
        assert len(campaign["configs"]) == expected
        for entry in campaign["configs"]:
            for key in ("code", "placement", "lifetime", "losses", "nines",
                        "stripe_hours", "bytes_read_per_repair", "degraded_stripe_hours"):
                assert key in entry

    def test_deterministic(self, campaign):
        again = run_reliability_campaign(quick=True, seed=2026)
        again.pop("validation")
        ref = dict(campaign)
        ref.pop("validation")
        assert again == ref

    def test_losses_are_observable(self, campaign):
        # The flaky-hardware parameters must keep producing loss events,
        # or every durability comparison degenerates to detection floors.
        assert sum(c["losses"] for c in campaign["configs"]) > 50

    def test_analytic_agreement(self, campaign):
        v = campaign["validation"]
        assert v["losses"] > 5
        assert 1 / 3 < v["ratio"] < 3
        assert campaign["analytic_agreement"] > 0.30

    def test_placement_beats_random_under_rack_failures(self, campaign):
        assert campaign["rack_placement_nines_gain"] > 0.0
        assert campaign["spread_placement_nines_gain"] > 0.0

    def test_locality_saves_repair_traffic_and_risk(self, campaign):
        # RS reads k = 4 blocks per repair, Pyramid's average is 12/7:
        # the traffic ratio sits near 5/3 and the degraded-hours ratio
        # stays above 1 (local repairs close windows faster).
        assert campaign["locality_repair_ratio"] > 1.3
        assert campaign["locality_risk_ratio"] > 1.0

    def test_galloper_inherits_pyramid_durability(self, campaign):
        """Galloper's weighting changes throughput, not failure-domain
        combinatorics: its durability must track Pyramid's exactly."""
        by_key = {
            (c["code"], c["placement"], c["lifetime"]): c["losses"]
            for c in campaign["configs"]
        }
        for (code, placement, lifetime), losses in by_key.items():
            if code == "galloper(4,2,1)":
                assert losses == by_key[("pyramid(4,2,1)", placement, lifetime)]


class TestValidationRun:
    def test_more_trials_do_not_flip_the_verdict(self):
        v = run_validation(quick=True, seed=7)
        assert v["losses"] > 0
        assert 1 / 4 < v["ratio"] < 4

    def test_exponential_repair_durations_close_the_gap(self, monkeypatch):
        """The explanation of ``analytic_agreement``, tested: the Markov
        chain draws each repair's duration from an exponential, the
        simulator does not.  Give the simulator exponential durations of
        the same mean and the two agree; with fixed ones they do not.

        Seeds 2026 / 7 / 11 read 0.99 / 0.87 / 0.96 exponential against
        0.59 / 0.45 / 0.35 fixed on the full (800-trial) validation run; at
        250 trials the two ranges overlap, so only the full run decides.
        """
        fixed = run_validation(quick=False, seed=2026)["agreement"]
        mean_seconds = _Trial._repair_seconds

        def exponential(trial, bytes_read):
            return trial.rng.expovariate(1.0 / mean_seconds(trial, bytes_read))

        monkeypatch.setattr(_Trial, "_repair_seconds", exponential)
        drawn = run_validation(quick=False, seed=2026)["agreement"]
        assert fixed <= 0.70
        assert drawn >= 0.85

    def test_lrc_loses_no_more_stripes_than_rs(self):
        """Local repairs shrink the window a second and third failure must
        land in: in the validation regime (independent failures, one crew)
        Pyramid(4, 2, 1) loses no more stripes than RS(4, 2), the pair the
        ``campaign`` figure compares.  Tier-1 checks it on 100 one-year
        trials (``test_campaign.py``); this repeats it on 300 of two."""
        rs = simulate_validation(ReedSolomonCode(4, 2), trials=300, horizon_years=2.0, seed=4)
        lrc = simulate_validation(PyramidCode(4, 2, 1), trials=300, horizon_years=2.0, seed=4)
        assert rs.losses > 0
        assert lrc.losses <= rs.losses


class TestCLI:
    def test_reliability_command(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        assert cli_main(["reliability", "--seed", "2026", "--out", str(out)]) == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "analytic_agreement" in printed
        assert "rs(4,3)/copyset/exponential" in printed
