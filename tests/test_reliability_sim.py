"""Tier-1 tests for the years-scale reliability simulator.

Everything here is seeded and runs in seconds: lifetime-model
calibration, simulator determinism, the analytic cross-validation
satellite, correlated rack-failure placement behaviour and the
admission cap under it, and the latent sector error / scrub detection
channels.  The validation regime the ``campaign`` figure runs is tested
in ``test_campaign.py``; the long-horizon campaign assertions live in
``test_reliability_long.py`` behind the ``reliability`` marker.
"""

import random

import pytest

from repro.analysis.reliability import mttdl_hours
from repro.cluster import RandomPlacement, RoundRobinPlacement, SpreadPlacement
from repro.codes import ReedSolomonCode
from repro.reliability import (
    ExponentialLifetime,
    ReliabilityConfig,
    WeibullLifetime,
    simulate_reliability,
)
from repro.reliability import simulator
from repro.reliability.campaign import VALIDATION_PARAMS, simulate_validation
from repro.storage.repair import RepairAdmissionController
from tests.conftest import max_live_leases

GB = 1 << 30
MB = 1 << 20


class TestLifetimeModels:
    def test_exponential_mean(self):
        model = ExponentialLifetime(1_000.0)
        assert model.mean_hours() == 1_000.0
        rng = random.Random(1)
        mean = sum(model.sample(rng) for _ in range(20_000)) / 20_000
        assert mean == pytest.approx(1_000.0, rel=0.05)

    def test_weibull_from_mean_calibration(self):
        for shape in (0.7, 1.0, 2.0, 4.0):
            model = WeibullLifetime.from_mean(1_000.0, shape)
            assert model.mean_hours() == pytest.approx(1_000.0, rel=1e-9)
            rng = random.Random(2)
            mean = sum(model.sample(rng) for _ in range(20_000)) / 20_000
            assert mean == pytest.approx(1_000.0, rel=0.05)

    def test_shape_selects_regime(self):
        # Infant mortality front-loads deaths: the median sits far below
        # the mean; wear-out concentrates them: the median approaches it.
        infant = WeibullLifetime.infant_mortality(1_000.0)
        wearout = WeibullLifetime.wear_out(1_000.0)
        assert infant.shape < 1.0 < wearout.shape

        def median(model):
            rng = random.Random(3)
            xs = sorted(model.sample(rng) for _ in range(4_001))
            return xs[2_000]

        assert median(infant) < 0.7 * 1_000.0
        assert median(wearout) > 0.8 * 1_000.0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExponentialLifetime(0.0)
        with pytest.raises(ValueError):
            WeibullLifetime(1_000.0, -1.0)

    def test_describe(self):
        d = WeibullLifetime.wear_out(500.0).describe()
        assert d["model"] == "weibull"
        assert d["shape"] == 2.0
        assert d["mean_hours"] == pytest.approx(500.0)


class TestConfigValidation:
    def test_lifetime_required(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(horizon_years=1.0)

    def test_bad_kill_fraction(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(
                disk_lifetime=ExponentialLifetime(100.0), rack_kill_fraction=1.5
            )

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(disk_lifetime=ExponentialLifetime(100.0), horizon_years=0.0)

    @pytest.mark.parametrize(
        "knob", [{"repair_bandwidth": 0}, {"block_size_bytes": 0}, {"replacement_hours": -1}]
    )
    def test_degenerate_parameters_rejected_up_front(self, knob):
        """Each of these used to get through and fail mid-run (a division
        by zero, a repair or a replacement scheduled in the past)."""
        with pytest.raises(ValueError):
            ReliabilityConfig(disk_lifetime=ExponentialLifetime(100.0), **knob)


def _run(code, placement, config, **kw):
    kw.setdefault("num_racks", 4)
    kw.setdefault("servers_per_rack", 6)
    kw.setdefault("stripes", 12)
    kw.setdefault("trials", 2)
    kw.setdefault("seed", 11)
    return simulate_reliability(code, placement, config, **kw)


class TestSimulator:
    def test_deterministic(self):
        config = ReliabilityConfig(
            horizon_years=1.0,
            disk_lifetime=ExponentialLifetime(800.0),
            rack_mtbf_hours=3_000.0,
            rack_kill_fraction=0.5,
            lse_rate_per_block_hour=1e-4,
            scrub_interval_hours=200.0,
            block_size_bytes=GB,
            repair_bandwidth=20 * MB,
        )
        a = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=5), config)
        b = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=5), config)
        assert a.summary() == b.summary()

    def test_quiet_cluster_loses_nothing(self):
        config = ReliabilityConfig(
            horizon_years=2.0, disk_lifetime=ExponentialLifetime(1e12)
        )
        r = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=1), config)
        assert r.losses == 0
        assert r.repairs_completed == 0
        assert r.stripe_hours == pytest.approx(2 * 12 * r.horizon_hours)
        assert r.summary()["mttdl_hours"] is None
        # Zero observed losses reports the detection-floor nines, not inf.
        assert 0 < r.nines < 10

    def test_disk_failures_are_repaired(self):
        config = ReliabilityConfig(
            horizon_years=2.0,
            disk_lifetime=ExponentialLifetime(2_000.0),
            replacement_hours=4.0,
            block_size_bytes=64 * MB,
            repair_bandwidth=100 * MB,
        )
        r = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=2), config)
        assert r.disk_failures > 0
        assert r.repairs_completed > 0
        assert r.losses == 0  # fast repairs, independent failures only
        assert r.repair_bytes_read > 0
        # RS(4, 3) reads k = 4 helper blocks per rebuilt block.
        assert r.bytes_read_per_repair == pytest.approx(4 * 64 * MB)

    def test_analytic_cross_validation(self):
        """Satellite: sim-vs-Markov MTTDL agreement, tolerance factor 3.

        Independent exponential failures, instant replacement, a single
        repair crew — the Markov chain's regime.  The simulator's
        deterministic repair durations (no exponential tail) make it
        slightly *more* durable than the chain, so agreement lands
        around 1.5-2x; a factor-3 band is the stated tolerance, and the
        pinned seed makes the check exact-deterministic in CI.
        """
        code = ReedSolomonCode(4, 2)
        r = simulate_validation(code, trials=200, horizon_years=1.0, seed=2026)
        analytic = mttdl_hours(code, VALIDATION_PARAMS)
        assert r.losses >= 5  # enough events for the estimate to mean anything
        ratio = r.mttdl_hours / analytic
        assert 1 / 3 < ratio < 3


class TestCorrelatedFailures:
    def _rack_config(self, **overrides):
        base = dict(
            horizon_years=1.0,
            disk_lifetime=ExponentialLifetime(1e12),  # rack events only
            replacement_hours=2.0,
            rack_mtbf_hours=1_500.0,
            rack_downtime_hours=4.0,
            rack_kill_fraction=1.0,
            block_size_bytes=64 * MB,
            repair_bandwidth=100 * MB,
        )
        base.update(overrides)
        return ReliabilityConfig(**base)

    def test_rack_spread_survives_concentration_dies(self):
        """A full-rack kill is fatal iff the stripe concentrates there.

        Round-robin piles 6 of RS(4,3)'s 7 blocks into rack 0 (beyond
        the 3-failure tolerance); spread caps every rack at 2 blocks, so
        a single rack event is always survivable.
        """
        code = ReedSolomonCode(4, 3)
        concentrated = _run(code, RoundRobinPlacement(), self._rack_config(), seed=4)
        spread = _run(code, SpreadPlacement(seed=4), self._rack_config(), seed=4)
        assert concentrated.rack_events > 0
        assert concentrated.losses > 0
        assert spread.losses < concentrated.losses
        assert spread.losses == 0

    def test_rack_events_destroy_disks(self):
        r = _run(
            ReedSolomonCode(4, 3), SpreadPlacement(seed=4), self._rack_config(), seed=4
        )
        assert r.rack_events > 0
        assert r.racked_disks_killed > 0
        assert r.disk_failures == r.racked_disks_killed  # no independent deaths
        assert r.repairs_completed > 0

    def test_repair_storm_waits_on_admission(self, monkeypatch):
        """A rack kill floods repairs; per-server token caps make the
        storm queue, which the admission controller's wait histogram and
        the queue-depth gauge both witness."""
        monkeypatch.setattr(simulator, "MAX_INFLIGHT_PER_SERVER", 1)
        r = _run(
            ReedSolomonCode(4, 3),
            SpreadPlacement(seed=4),
            self._rack_config(repair_bandwidth=10 * MB, block_size_bytes=GB),
            stripes=30,
            seed=4,
        )
        assert r.max_repair_queue_depth > 1
        assert r.metrics["repair_wait_p99_s"] > 0.0
        assert r.degraded_stripe_hours > 0.0

    def test_admission_cap_holds_at_every_grant(self, monkeypatch):
        """Replay every lease a rack-storm run is granted: no server ever
        holds more than ``MAX_INFLIGHT_PER_SERVER`` at once.  A controller
        that prunes leases up to a grant instead of the request instant
        lets 7 through here: the next event, earlier than that grant, no
        longer sees the leases still running at its own instant."""
        intervals: dict[tuple[int, int], list[tuple[float, float]]] = {}
        acquire = RepairAdmissionController.acquire

        def recorded(controller, now, server_durations):
            grant = acquire(controller, now, server_durations)
            for sid, duration in server_durations.items():
                intervals.setdefault((id(controller), sid), []).append((grant, grant + duration))
            return grant

        monkeypatch.setattr(RepairAdmissionController, "acquire", recorded)
        r = _run(
            ReedSolomonCode(4, 3),
            SpreadPlacement(seed=4),
            self._rack_config(repair_bandwidth=10 * MB, block_size_bytes=GB),
            seed=4,
        )
        assert r.metrics["repairs_throttled"] > 0  # the cap binds
        assert max_live_leases(intervals) == 4


class TestLatentErrorsAndScrub:
    def test_scrub_detects_and_heals(self):
        config = ReliabilityConfig(
            horizon_years=1.0,
            disk_lifetime=ExponentialLifetime(1e12),
            lse_rate_per_block_hour=3e-4,
            scrub_interval_hours=50.0,
            block_size_bytes=64 * MB,
            repair_bandwidth=100 * MB,
        )
        r = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=3), config, seed=9)
        assert r.lse_injected > 0
        assert r.lse_detected_scrub > 0
        assert r.scrub_scans > 0
        assert r.repairs_completed > 0  # detected latents get rebuilt
        assert r.losses == 0

    def test_repair_reads_discover_latents_without_scrub(self):
        config = ReliabilityConfig(
            horizon_years=1.0,
            disk_lifetime=ExponentialLifetime(700.0),
            replacement_hours=4.0,
            lse_rate_per_block_hour=1e-3,
            scrub_interval_hours=None,
            block_size_bytes=64 * MB,
            repair_bandwidth=100 * MB,
        )
        r = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=3), config, seed=9)
        assert r.lse_injected > 0
        assert r.lse_detected_scrub == 0
        assert r.lse_detected_repair > 0

    def test_unscrubbed_latents_accumulate_into_loss(self):
        """With no scrubbing and no disk churn, latent errors are never
        discovered and silently pile up past the code's tolerance."""
        config = ReliabilityConfig(
            horizon_years=4.0,
            disk_lifetime=ExponentialLifetime(1e12),
            lse_rate_per_block_hour=1e-3,
            scrub_interval_hours=None,
        )
        silent = _run(ReedSolomonCode(4, 3), RandomPlacement(seed=3), config, seed=13)
        scrubbed = _run(
            ReedSolomonCode(4, 3),
            RandomPlacement(seed=3),
            ReliabilityConfig(
                horizon_years=4.0,
                disk_lifetime=ExponentialLifetime(1e12),
                lse_rate_per_block_hour=1e-3,
                scrub_interval_hours=50.0,
                block_size_bytes=64 * MB,
                repair_bandwidth=100 * MB,
            ),
            seed=13,
        )
        assert silent.losses > 0
        assert scrubbed.losses < silent.losses
