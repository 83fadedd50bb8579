"""The durability campaign: code x placement x lifetime sweep.

Runs the long-horizon simulator over every combination of

* **code** — RS / Pyramid / Galloper / Carousel at equal storage
  overhead (all ``n = 7``, 1.75x), so the sweep ranks code *structure*,
  not redundancy budget;
* **placement** — random scatter, rack-spread, and bounded-scatter
  copysets;
* **lifetime model** — exponential and Weibull (wear-out; the full
  sweep adds infant mortality), calibrated to the same MTBF;

under correlated rack events, latent sector errors and a periodic scrub
schedule, all with deliberately flaky hardware so multi-decade loss
statistics are observable in seconds of wall time.  A separate
*validation* run — single RS stripe, independent exponential failures,
one repair crew — is the configuration where the analytic Markov chain
(:func:`repro.analysis.reliability.mttdl_hours`) is exact, and the
campaign cross-checks the simulator against it; the ``campaign`` figure
(:func:`repro.bench.extension_durability_campaign`) runs the same regime
for RS, Pyramid and Galloper through :func:`simulate_validation`.

Everything is seeded; ``run_reliability_campaign`` is bit-reproducible
for a given (quick, seed) pair, which is what lets
``benchmarks/check_regression.py`` gate the headline orderings.
"""

from __future__ import annotations

from repro.analysis.reliability import ReliabilityParameters, mttdl_hours
from repro.cluster.placement import CopysetPlacement, RandomPlacement, SpreadPlacement
from repro.codes import CarouselCode, PyramidCode, ReedSolomonCode
from repro.codes.base import ErasureCode
from repro.core import GalloperCode
from repro.reliability.lifetime import ExponentialLifetime, WeibullLifetime
from repro.reliability.simulator import ReliabilityConfig, ReliabilityResult, simulate_reliability
from repro.storage.metrics import MetricsRegistry

__all__ = ["CAMPAIGN_CODES", "run_reliability_campaign", "run_validation"]

#: Equal-overhead contenders (n = 7, 1.75x) — structure is the variable.
CAMPAIGN_CODES = (
    ("rs(4,3)", lambda: ReedSolomonCode(4, 3)),
    ("pyramid(4,2,1)", lambda: PyramidCode(4, 2, 1)),
    ("galloper(4,2,1)", lambda: GalloperCode(4, 2, 1)),
    ("carousel(4,3)", lambda: CarouselCode(4, 3)),
)

#: Flaky-hardware constants shared by the sweep (not the validation run).
#: Disk-sized blocks and tight repair bandwidth make the repair storm
#: after a rack event last hours — the regime where locality and
#: admission control actually move the durability needle.
DISK_MTBF_HOURS = 1_500.0
BLOCK_BYTES = 64 << 30
REPAIR_BANDWIDTH = 50 << 20
REPLACEMENT_HOURS = 12.0
RACK_MTBF_HOURS = 6_000.0
RACK_DOWNTIME_HOURS = 12.0
RACK_KILL_FRACTION = 1.0
LSE_RATE_PER_BLOCK_HOUR = 2e-5
SCRUB_INTERVAL_HOURS = 336.0
NUM_RACKS = 4
SERVERS_PER_RACK = 6

#: Validation hardware: the regime where the Markov model is exact
#: (independent exponential failures, one repair crew, instant disk
#: replacement) with disks flaky enough that losses are frequent.
VALIDATION_PARAMS = ReliabilityParameters(
    disk_mtbf_hours=100.0, block_size_bytes=256 << 20, repair_bandwidth=1 << 20
)


def _lifetimes(quick: bool) -> list[tuple[str, object]]:
    models = [
        ("exponential", ExponentialLifetime(DISK_MTBF_HOURS)),
        ("weibull_wearout", WeibullLifetime.wear_out(DISK_MTBF_HOURS)),
    ]
    if not quick:
        models.append(("weibull_infant", WeibullLifetime.infant_mortality(DISK_MTBF_HOURS)))
    return models


def _placements(seed: int) -> list[tuple[str, object]]:
    return [
        ("random", RandomPlacement(seed=seed)),
        ("spread", SpreadPlacement(seed=seed)),
        ("copyset", CopysetPlacement(scatter_width=12, seed=seed, rack_isolated=True)),
    ]


def simulate_validation(
    code: ErasureCode, *, trials: int, horizon_years: float, seed: int
) -> ReliabilityResult:
    """``trials`` lifetimes of one stripe of ``code`` on the validation hardware.

    One server per block, exponential lifetimes, independent failures
    (no racks, no LSEs), instant replacement, one repair crew: the
    assumptions under which :data:`VALIDATION_PARAMS` give the exact
    ``mttdl_hours``.
    """
    config = ReliabilityConfig(
        horizon_years=horizon_years,
        disk_lifetime=ExponentialLifetime(VALIDATION_PARAMS.disk_mtbf_hours),
        replacement_hours=0.0,
        block_size_bytes=VALIDATION_PARAMS.block_size_bytes,
        repair_bandwidth=VALIDATION_PARAMS.repair_bandwidth,
        max_concurrent_repairs=1,
    )
    return simulate_reliability(
        code,
        RandomPlacement(seed=seed),
        config,
        num_racks=1,
        servers_per_rack=code.n,
        stripes=1,
        trials=trials,
        seed=seed,
    )


def run_validation(quick: bool = True, seed: int = 2026) -> dict:
    """Simulated vs analytic MTTDL where the Markov assumptions hold.

    A single RS(4, 2) stripe for a year through :func:`simulate_validation`
    — the simulator should land within a small factor of
    ``mttdl_hours``.  ``agreement`` is ``min(ratio, 1/ratio)``: 1.0 is
    perfect, and any drift (either direction) pulls it toward 0.
    """
    code = ReedSolomonCode(4, 2)
    trials = 250 if quick else 800
    result = simulate_validation(code, trials=trials, horizon_years=1.0, seed=seed)
    analytic = mttdl_hours(code, VALIDATION_PARAMS)
    ratio = result.mttdl_hours / analytic if result.losses else float("inf")
    agreement = min(ratio, 1.0 / ratio) if result.losses else 0.0
    return {
        "code": "rs(4,2)",
        "trials": trials,
        "losses": result.losses,
        "sim_mttdl_hours": result.mttdl_hours if result.losses else None,
        "analytic_mttdl_hours": analytic,
        "ratio": ratio if result.losses else None,
        "agreement": agreement,
    }


def run_reliability_campaign(quick: bool = True, seed: int = 2026) -> dict:
    """Run the full sweep plus validation; return the campaign record.

    The record carries one entry per (code, placement, lifetime) config
    and the derived headline metrics the regression gate holds:

    * ``analytic_agreement`` — sim-vs-Markov MTTDL agreement in [0, 1];
    * ``rack_placement_nines_gain`` — mean nines advantage of copyset
      over random placement under rack-correlated failures;
    * ``spread_placement_nines_gain`` — same for rack-spread placement;
    * ``locality_repair_ratio`` — RS helper bytes per rebuilt block over
      Pyramid's (locality's repair-traffic win, > 1);
    * ``locality_risk_ratio`` — RS degraded stripe-hours over Pyramid's
      (faster local repairs close vulnerability windows sooner, > 1).
    """
    stripes = 40 if quick else 80
    trials = 2 if quick else 4
    horizon_years = 2.0 if quick else 5.0

    configs: list[dict] = []
    nines: dict[tuple[str, str, str], float] = {}
    by_key: dict[tuple[str, str, str], dict] = {}

    for code_name, make_code in CAMPAIGN_CODES:
        code = make_code()
        for lifetime_name, lifetime in _lifetimes(quick):
            for placement_name, placement in _placements(seed):
                config = ReliabilityConfig(
                    horizon_years=horizon_years,
                    disk_lifetime=lifetime,
                    replacement_hours=REPLACEMENT_HOURS,
                    rack_mtbf_hours=RACK_MTBF_HOURS,
                    rack_downtime_hours=RACK_DOWNTIME_HOURS,
                    rack_kill_fraction=RACK_KILL_FRACTION,
                    lse_rate_per_block_hour=LSE_RATE_PER_BLOCK_HOUR,
                    scrub_interval_hours=SCRUB_INTERVAL_HOURS,
                    block_size_bytes=BLOCK_BYTES,
                    repair_bandwidth=REPAIR_BANDWIDTH,
                )
                metrics = MetricsRegistry()
                result = simulate_reliability(
                    code,
                    placement,
                    config,
                    num_racks=NUM_RACKS,
                    servers_per_rack=SERVERS_PER_RACK,
                    stripes=stripes,
                    trials=trials,
                    seed=seed,
                    metrics=metrics,
                )
                entry = result.summary()
                entry.update(
                    code=code_name,
                    placement=placement_name,
                    lifetime=lifetime_name,
                    repairs_throttled=result.metrics.get("repairs_throttled", 0),
                    repair_queue_depth_p99=result.metrics.get("repair_queue_depth_p99", 0.0),
                    time_at_risk_p99_hours=result.metrics.get("time_at_risk_p99_hours", 0.0),
                )
                configs.append(entry)
                key = (code_name, placement_name, lifetime_name)
                nines[key] = result.nines
                by_key[key] = entry

    def _placement_gain(placement_name: str) -> float:
        gains = [
            nines[(c, placement_name, lt)] - nines[(c, "random", lt)]
            for c, _ in CAMPAIGN_CODES
            for lt, _ in _lifetimes(quick)
        ]
        return sum(gains) / len(gains)

    rs_copy = by_key[("rs(4,3)", "copyset", "exponential")]
    pyr_copy = by_key[("pyramid(4,2,1)", "copyset", "exponential")]
    locality_repair_ratio = (
        rs_copy["bytes_read_per_repair"] / pyr_copy["bytes_read_per_repair"]
        if pyr_copy["bytes_read_per_repair"]
        else 0.0
    )
    locality_risk_ratio = (
        rs_copy["degraded_stripe_hours"] / pyr_copy["degraded_stripe_hours"]
        if pyr_copy["degraded_stripe_hours"]
        else 0.0
    )

    validation = run_validation(quick=quick, seed=seed)

    return {
        "schema": 1,
        "quick": quick,
        "seed": seed,
        "cluster": {"racks": NUM_RACKS, "servers_per_rack": SERVERS_PER_RACK},
        "stripes": stripes,
        "trials": trials,
        "horizon_years": horizon_years,
        "hardware": {
            "disk_mtbf_hours": DISK_MTBF_HOURS,
            "block_bytes": BLOCK_BYTES,
            "repair_bandwidth": REPAIR_BANDWIDTH,
            "replacement_hours": REPLACEMENT_HOURS,
            "rack_mtbf_hours": RACK_MTBF_HOURS,
            "rack_downtime_hours": RACK_DOWNTIME_HOURS,
            "rack_kill_fraction": RACK_KILL_FRACTION,
            "lse_rate_per_block_hour": LSE_RATE_PER_BLOCK_HOUR,
            "scrub_interval_hours": SCRUB_INTERVAL_HOURS,
        },
        "codes": [name for name, _ in CAMPAIGN_CODES],
        "placements": [name for name, _ in _placements(seed)],
        "lifetimes": [name for name, _ in _lifetimes(quick)],
        "configs": configs,
        "validation": validation,
        "analytic_agreement": validation["agreement"],
        "rack_placement_nines_gain": _placement_gain("copyset"),
        "spread_placement_nines_gain": _placement_gain("spread"),
        "locality_repair_ratio": locality_repair_ratio,
        "locality_risk_ratio": locality_risk_ratio,
        "pyramid_vs_rs_nines_gain": (
            nines[("pyramid(4,2,1)", "copyset", "exponential")]
            - nines[("rs(4,3)", "copyset", "exponential")]
        ),
    }
