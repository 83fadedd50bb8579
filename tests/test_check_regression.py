"""Tests for the CI regression gate (benchmarks/check_regression.py).

The gate must pass on the committed baselines fed back to itself and
fail on an injected synthetic slowdown — the acceptance criteria for
the benchmark CI wiring.  No live benchmark runs here: the tests use
the ``--fresh-*`` file hooks and monkeypatched measure functions.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py")
cr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cr)


@pytest.fixture(scope="module")
def kernels_baseline():
    return json.loads((REPO_ROOT / "BENCH_kernels.json").read_text())


@pytest.fixture(scope="module")
def striped_baseline():
    return json.loads((REPO_ROOT / "BENCH_striped.json").read_text())


@pytest.fixture(scope="module")
def reliability_baseline():
    return json.loads((REPO_ROOT / "BENCH_reliability.json").read_text())


@pytest.fixture(scope="module")
def serving_baseline():
    return json.loads((REPO_ROOT / "BENCH_serving.json").read_text())


def serving_record(**over) -> dict:
    """A synthetic serving headline record (all gated metrics present)."""
    rec = {
        "p50_zipf_galloper": 0.001,
        "p99_zipf_rs": 0.010,
        "p99_zipf_galloper": 0.008,
        "p99_chaos_galloper": 0.020,
        "galloper_vs_rs_p99_gain": 1.6,
        "cache_hit_ratio": 0.8,
        "availability_chaos": 1.0,
    }
    rec.update(over)
    return rec


#: The striped file's lower-is-better read ratios, for synthetic records
#: whose test is about the speedups.
READ_RATIOS = {"galloper_read_vs_rs": 1.8, "galloper_degraded_read_vs_rs": 2.1}


def slowed(record: dict, factor: float = 0.5) -> dict:
    """A copy of ``record`` with every headline ratio scaled by ``factor``."""
    out = dict(record)
    for metrics in cr.HEADLINE.values():
        for metric in metrics:
            if metric in out:
                out[metric] = float(out[metric]) * factor
    return out


class TestCompare:
    def test_baseline_vs_itself_passes(self, kernels_baseline, striped_baseline):
        assert cr.compare("kernels", kernels_baseline, kernels_baseline) == []
        assert cr.compare("striped", striped_baseline, striped_baseline) == []

    def test_drop_beyond_tolerance_fails(self, striped_baseline):
        fails = cr.compare("striped", striped_baseline, slowed(striped_baseline, 0.5))
        assert fails
        assert any("min_encode_speedup" in f for f in fails)

    def test_drop_within_tolerance_passes(self):
        baseline = {"min_encode_speedup": 4.0, "min_repair_speedup": 3.0, **READ_RATIOS}
        fresh = {"min_encode_speedup": 3.2, "min_repair_speedup": 2.4, **READ_RATIOS}  # -20%
        assert cr.compare("striped", baseline, fresh, tolerance=0.25) == []

    def test_tolerance_knob(self):
        baseline = {"min_encode_speedup": 4.0, "min_repair_speedup": 4.0, **READ_RATIOS}
        fresh = {"min_encode_speedup": 3.5, "min_repair_speedup": 3.5, **READ_RATIOS}  # -12.5%
        assert cr.compare("striped", baseline, fresh, tolerance=0.25) == []
        assert cr.compare("striped", baseline, fresh, tolerance=0.05)

    def test_floor_violation_despite_tolerance(self):
        # Within 25% of a weak baseline, but under the absolute 2x floor.
        baseline = {"min_encode_speedup": 2.4, "min_repair_speedup": 2.4, **READ_RATIOS}
        fresh = {"min_encode_speedup": 1.9, "min_repair_speedup": 2.1, **READ_RATIOS}
        fails = cr.compare("striped", baseline, fresh, tolerance=0.25)
        assert len(fails) == 1
        assert "absolute floor" in fails[0]
        assert "min_encode_speedup" in fails[0]

    def test_floors_skippable_for_quick_runs(self):
        baseline = {"min_encode_speedup": 1.6, "min_repair_speedup": 2.0, **READ_RATIOS}
        fresh = {"min_encode_speedup": 1.55, "min_repair_speedup": 1.9, **READ_RATIOS}
        assert cr.compare("striped", baseline, fresh, floors=False) == []
        assert cr.compare("striped", baseline, fresh, floors=True)

    def test_galloper_read_ratios_are_gated_as_ceilings(self):
        """The read gap cannot silently return: a slower Galloper read (a
        larger time ratio) fails relative to the baseline, and on full runs
        against the absolute 2.5x / 3.0x ceilings whatever the baseline says."""
        good = {"min_encode_speedup": 4.0, "min_repair_speedup": 4.0, **READ_RATIOS}
        assert cr.compare("striped", good, good) == []
        regressed = {**good, "galloper_read_vs_rs": 4.0, "galloper_degraded_read_vs_rs": 4.5}
        fails = cr.compare("striped", good, regressed)
        assert any("galloper_read_vs_rs" in f and "lower is better" in f for f in fails)
        assert any("galloper_degraded_read_vs_rs" in f and "lower is better" in f for f in fails)
        stale = cr.compare("striped", regressed, regressed, floors=True)
        assert len(stale) == 2 and all("absolute ceiling" in f for f in stale)
        assert cr.compare("striped", regressed, regressed, floors=False) == []
        improved = {**good, "galloper_read_vs_rs": 1.2, "galloper_degraded_read_vs_rs": 1.3}
        assert cr.compare("striped", good, improved) == []

    def test_read_time_ratios_come_with_both_times(self, striped_baseline, capsys, tmp_path):
        """A time ratio rises when Reed-Solomon gets faster: the gate prints
        numerator and denominator, fresh and committed, beside each."""
        run = {
            "galloper_read_vs_rs": 2.0,
            "end_to_end": [
                {"code": "rs", "read_batched_s": 0.0004, "degraded_read_batched_s": 0.0006},
                {"code": "galloper", "read_batched_s": 0.0008, "degraded_read_batched_s": 0.0015},
            ],
        }
        assert cr.read_times(run, "galloper_read_vs_rs") == "galloper 0.800 ms / rs 0.400 ms"
        assert cr.read_times(run, "galloper_degraded_read_vs_rs") == "galloper 1.500 ms / rs 0.600 ms"
        # A trajectory file's top level is the latest full run's headline.
        full = [r for r in striped_baseline["runs"] if not r.get("quick")][-1]
        assert cr.read_times(striped_baseline, "galloper_read_vs_rs") == cr.read_times(
            full, "galloper_read_vs_rs"
        )
        assert cr.read_times({"runs": [], **READ_RATIOS}, "galloper_read_vs_rs") == "times not recorded"
        fresh = tmp_path / "s.json"
        fresh.write_text(json.dumps(striped_baseline))
        assert cr.main(["--only", "striped", "--fresh-striped", str(fresh)]) == 0
        out = capsys.readouterr().out
        times = cr.read_times(full, "galloper_degraded_read_vs_rs")
        assert f"    fresh {times}; baseline {times}" in out and "ms / rs" in times

    def test_missing_metric_flagged(self, kernels_baseline):
        fresh = {k: v for k, v in kernels_baseline.items() if k != "plan_cache_speedup"}
        fails = cr.compare("kernels", kernels_baseline, fresh)
        assert any("missing headline metric" in f and "plan_cache_speedup" in f
                   for f in fails)
        fails = cr.compare("kernels", fresh, kernels_baseline)
        assert any(
            "baseline" in f and "missing headline metric" in f and "run_kernels.py" in f
            for f in fails
        )

    def test_every_headline_metric_has_a_baseline(
        self, kernels_baseline, striped_baseline, reliability_baseline, serving_baseline
    ):
        # The committed trajectories must actually carry the gated metrics.
        for metric in cr.HEADLINE["kernels"]:
            assert metric in kernels_baseline
        for metric in cr.HEADLINE["striped"]:
            assert metric in striped_baseline
        for metric in cr.HEADLINE["reliability"]:
            assert metric in reliability_baseline
        for metric in cr.HEADLINE["serving"]:
            assert metric in serving_baseline

    def test_reliability_baseline_vs_itself_passes(self, reliability_baseline):
        assert cr.compare("reliability", reliability_baseline, reliability_baseline) == []

    def test_reliability_ordering_collapse_fails(self, reliability_baseline):
        # A sign flip in a placement gain must fail even within tolerance,
        # via the absolute floors.
        broken = dict(reliability_baseline)
        broken["rack_placement_nines_gain"] = -0.1
        fails = cr.compare(
            "reliability", reliability_baseline, broken,
            tolerance=cr.TOLERANCES["reliability"],
        )
        assert any("rack_placement_nines_gain" in f for f in fails)


class TestServingGate:
    """The serving family gates latency in the lower-is-better direction."""

    TOL = 0.5  # TOLERANCES["serving"]

    def test_identical_record_passes(self):
        rec = serving_record()
        assert cr.compare("serving", rec, serving_record(), tolerance=self.TOL) == []

    def test_committed_baseline_vs_itself_passes(self, serving_baseline):
        assert cr.compare(
            "serving", serving_baseline, dict(serving_baseline), tolerance=self.TOL
        ) == []

    def test_latency_increase_beyond_tolerance_fails(self):
        fresh = serving_record(p99_zipf_galloper=0.008 * 2.5)
        fails = cr.compare("serving", serving_record(), fresh, tolerance=self.TOL)
        assert len(fails) == 1
        assert "p99_zipf_galloper" in fails[0] and "lower is better" in fails[0]

    def test_latency_improvement_never_fails(self):
        # Halving every latency is an improvement, not a regression —
        # the higher-is-better rule would flag exactly this.
        fresh = serving_record(
            p50_zipf_galloper=0.0005, p99_zipf_rs=0.005,
            p99_zipf_galloper=0.004, p99_chaos_galloper=0.010,
        )
        assert cr.compare("serving", serving_record(), fresh, tolerance=self.TOL) == []

    def test_absolute_ceiling_on_full_sweeps(self):
        # Baseline matched so the relative check passes; the absolute
        # ceiling (hedge-storm backstop) must still trip on full sweeps.
        base = serving_record(p99_zipf_galloper=0.30)
        fresh = serving_record(p99_zipf_galloper=0.30)
        fails = cr.compare("serving", base, fresh, tolerance=self.TOL, floors=True)
        assert any("absolute ceiling" in f for f in fails)
        assert cr.compare("serving", base, fresh, tolerance=self.TOL, floors=False) == []

    def test_gain_floor_catches_a_fallback_to_parity_with_rs(self, serving_baseline):
        # 1.05 passes the 50% relative gate against any baseline up to 2.1;
        # only the floor says that the load-spreading result is gone.
        base = serving_record(galloper_vs_rs_p99_gain=1.05)
        fails = cr.compare("serving", base, dict(base), tolerance=self.TOL, floors=True)
        assert any("galloper_vs_rs_p99_gain" in f and "absolute floor 1.25x" in f for f in fails)
        assert serving_baseline["galloper_vs_rs_p99_gain"] * 0.75 >= cr.FLOORS["galloper_vs_rs_p99_gain"] - 0.01

    def test_gain_floor_catches_tail_inversion(self):
        base = serving_record(galloper_vs_rs_p99_gain=1.8)
        fresh = serving_record(galloper_vs_rs_p99_gain=0.9)
        fails = cr.compare("serving", base, fresh, tolerance=self.TOL, floors=True)
        assert any("galloper_vs_rs_p99_gain" in f and "absolute floor" in f for f in fails)

    def test_non_numeric_value_is_a_clear_failure(self):
        # A null/corrupt metric must produce a readable gate line, not a
        # TypeError traceback.
        base = serving_record(cache_hit_ratio=None)
        fails = cr.compare("serving", base, serving_record(), tolerance=self.TOL)
        assert len(fails) == 1
        assert "non-numeric value" in fails[0] and "cache_hit_ratio" in fails[0]

    def test_missing_baseline_metric_names_the_fix(self):
        base = serving_record()
        del base["availability_chaos"]
        fails = cr.compare("serving", base, serving_record(), tolerance=self.TOL)
        assert any(
            "missing headline metric" in f and "run_serving.py" in f for f in fails
        )


class TestNativeMetricsSkip:
    """Native-tier metrics gate only when both runs had a native backend."""

    def test_compilerless_fresh_run_passes(self, kernels_baseline):
        fresh = {k: v for k, v in kernels_baseline.items() if k not in cr.NATIVE_METRICS}
        fresh["native_available"] = False
        assert cr.compare("kernels", kernels_baseline, fresh) == []

    def test_compilerless_baseline_passes(self, kernels_baseline):
        base = {k: v for k, v in kernels_baseline.items() if k not in cr.NATIVE_METRICS}
        base["native_available"] = False
        assert cr.compare("kernels", base, kernels_baseline) == []

    def test_native_regression_fails_when_both_available(self, kernels_baseline):
        # The committed baseline must have been measured with the backend,
        # otherwise the gate would never watch the native tier at all.
        assert kernels_baseline.get("native_available") is True
        broken = dict(kernels_baseline)
        broken["native_wide_speedup"] = float(kernels_baseline["native_wide_speedup"]) * 0.5
        fails = cr.compare("kernels", kernels_baseline, broken)
        assert any("native_wide_speedup" in f for f in fails)

    def test_native_floor_violation(self, kernels_baseline):
        broken = dict(kernels_baseline)
        broken["native_wide_gbps"] = 0.5  # under the 1.0 GB/s absolute floor
        fails = cr.compare("kernels", kernels_baseline, broken)
        assert any("native_wide_gbps" in f and "absolute floor" in f for f in fails)

    def test_library_without_the_crc_kernel_skips_only_the_crc_metrics(self, kernels_baseline):
        # An ARM host: native tier built, PCLMUL CRC-32 not in it.
        assert kernels_baseline.get("native_crc32_available") is True
        fresh = {k: v for k, v in kernels_baseline.items() if k not in cr.NATIVE_CRC32_METRICS}
        fresh["native_crc32_available"] = False
        assert cr.compare("kernels", kernels_baseline, fresh) == []
        assert cr.compare("kernels", fresh, kernels_baseline) == []
        fresh["native_wide_gbps"] = 0.5  # the rest of the native tier is still watched
        assert any("native_wide_gbps" in f for f in cr.compare("kernels", kernels_baseline, fresh))

    @pytest.mark.parametrize(
        "metric,value",
        [("crc32_native_vs_zlib_1mib", 1.6), ("crc32_native_vs_zlib_2kib", 0.8)],
    )
    def test_crc_floor_violations(self, kernels_baseline, metric, value):
        # Under 2x zlib on 1 MiB rows; or a wrapper that makes one small
        # verified read slower than zlib alone.
        broken = dict(kernels_baseline)
        broken[metric] = value
        fails = cr.compare("kernels", broken, broken)
        assert any(metric in f and "absolute floor" in f for f in fails)
        assert cr.compare("kernels", broken, broken, floors=False) == []


class TestBaselineRecord:
    def test_full_run_uses_top_level(self, striped_baseline):
        assert cr.baseline_record("striped", striped_baseline, quick=False) is striped_baseline

    def test_quick_kernels_picks_latest_quick_run(self):
        data = {
            "xor_encode_speedup": 6.0,
            "runs": [
                {"quick": False, "xor_encode_speedup": 6.0},
                {"quick": True, "xor_encode_speedup": 3.0},
                {"quick": True, "xor_encode_speedup": 3.5},
            ],
        }
        picked = cr.baseline_record("kernels", data, quick=True)
        assert picked["xor_encode_speedup"] == 3.5

    def test_committed_kernels_baseline_has_quick_run(self, kernels_baseline):
        # bench-smoke CI runs run_kernels.py --quick and compares against
        # the latest quick entry; one must be committed.
        assert cr.baseline_record("kernels", kernels_baseline, quick=True) is not None

    def test_quick_striped_picks_latest_quick_run(self):
        data = {
            "min_encode_speedup": 4.9,
            "runs": [
                {"quick": False, "min_encode_speedup": 4.9},
                {"quick": True, "min_encode_speedup": 1.5},
                {"quick": True, "min_encode_speedup": 1.6},
            ],
        }
        picked = cr.baseline_record("striped", data, quick=True)
        assert picked["min_encode_speedup"] == 1.6

    def test_quick_striped_without_quick_history_is_none(self):
        data = {"min_encode_speedup": 4.9, "runs": [{"quick": False}]}
        assert cr.baseline_record("striped", data, quick=True) is None
        assert cr.baseline_record("striped", {"runs": []}, quick=True) is None

    def test_committed_striped_baseline_has_quick_run(self, striped_baseline):
        # bench-smoke CI depends on a quick baseline existing in the history.
        assert cr.baseline_record("striped", striped_baseline, quick=True) is not None

    def test_committed_reliability_baseline_has_quick_run(self, reliability_baseline):
        assert cr.baseline_record("reliability", reliability_baseline, quick=True) is not None

    def test_committed_serving_baseline_has_quick_run(self, serving_baseline):
        # The serving-smoke CI job gates quick-vs-quick; a quick record
        # must be committed in the trajectory history.
        assert cr.baseline_record("serving", serving_baseline, quick=True) is not None


class TestMain:
    def _write(self, tmp_path, name, record):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return path

    def _fresh_args(self, tmp_path, kernels, striped, reliability, serving):
        return [
            "--fresh-kernels", str(self._write(tmp_path, "k.json", kernels)),
            "--fresh-striped", str(self._write(tmp_path, "s.json", striped)),
            "--fresh-reliability", str(self._write(tmp_path, "r.json", reliability)),
            "--fresh-serving", str(self._write(tmp_path, "v.json", serving)),
        ]

    def test_committed_baselines_pass(
        self, tmp_path, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline, capsys,
    ):
        args = self._fresh_args(
            tmp_path, kernels_baseline, striped_baseline, reliability_baseline,
            serving_baseline,
        )
        assert cr.main(args) == 0
        captured = capsys.readouterr()
        assert "regression gate passed" in captured.out
        assert "kernels.plan_cache_speedup" in captured.out
        assert "reliability.analytic_agreement" in captured.out
        assert "serving.p99_zipf_galloper" in captured.out

    def test_injected_slowdown_fails(
        self, tmp_path, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline, capsys,
    ):
        args = self._fresh_args(
            tmp_path, slowed(kernels_baseline, 0.5), striped_baseline,
            reliability_baseline, serving_baseline,
        )
        assert cr.main(args) == 1
        captured = capsys.readouterr()
        assert "REGRESSION GATE FAILED" in captured.err
        assert "gf16_kernel_speedup" in captured.err

    def test_injected_latency_blowup_fails(
        self, tmp_path, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline, capsys,
    ):
        # A 10x serving tail inflation must trip the lower-is-better gate.
        blown = dict(serving_baseline)
        blown["p99_zipf_galloper"] = float(serving_baseline["p99_zipf_galloper"]) * 10
        args = self._fresh_args(
            tmp_path, kernels_baseline, striped_baseline, reliability_baseline, blown
        )
        assert cr.main(args) == 1
        assert "p99_zipf_galloper" in capsys.readouterr().err

    def test_only_filters_family(
        self, tmp_path, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline,
    ):
        # A slowed striped file is never read when gating kernels only.
        args = self._fresh_args(
            tmp_path, kernels_baseline, slowed(striped_baseline, 0.1),
            reliability_baseline, serving_baseline,
        )
        assert cr.main(["--only", "kernels", *args]) == 0
        assert cr.main(["--only", "striped", *args]) == 1

    def test_monkeypatched_measurement_slowdown_fails(
        self, monkeypatch, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline, capsys,
    ):
        # The full no-hooks path: live measurement comes back slow -> exit 1.
        monkeypatch.setattr(cr, "measure_kernels", lambda quick: slowed(kernels_baseline, 0.5))
        monkeypatch.setattr(cr, "measure_striped", lambda quick: slowed(striped_baseline, 0.5))
        monkeypatch.setattr(cr, "measure_reliability", lambda quick: dict(reliability_baseline))
        monkeypatch.setattr(cr, "measure_serving", lambda quick: dict(serving_baseline))
        assert cr.main([]) == 1
        assert "REGRESSION GATE FAILED" in capsys.readouterr().err

    def test_monkeypatched_measurement_steady_passes(
        self, monkeypatch, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline,
    ):
        monkeypatch.setattr(cr, "measure_kernels", lambda quick: dict(kernels_baseline))
        monkeypatch.setattr(cr, "measure_striped", lambda quick: dict(striped_baseline))
        monkeypatch.setattr(cr, "measure_reliability", lambda quick: dict(reliability_baseline))
        monkeypatch.setattr(cr, "measure_serving", lambda quick: dict(serving_baseline))
        assert cr.main([]) == 0

    def test_quick_mode_compares_against_quick_history(
        self, monkeypatch, kernels_baseline, striped_baseline, reliability_baseline,
        serving_baseline,
    ):
        quick_base = cr.baseline_record("striped", striped_baseline, quick=True)
        quick_kern = cr.baseline_record("kernels", kernels_baseline, quick=True)
        quick_rel = cr.baseline_record("reliability", reliability_baseline, quick=True)
        quick_srv = cr.baseline_record("serving", serving_baseline, quick=True)
        assert None not in (quick_base, quick_kern, quick_rel, quick_srv)
        monkeypatch.setattr(cr, "measure_kernels", lambda quick: dict(quick_kern))
        monkeypatch.setattr(cr, "measure_striped", lambda quick: dict(quick_base))
        monkeypatch.setattr(cr, "measure_reliability", lambda quick: dict(quick_rel))
        monkeypatch.setattr(cr, "measure_serving", lambda quick: dict(quick_srv))
        # Quick ratios sit far below the full-run floors; --quick must still pass.
        assert cr.main(["--quick"]) == 0

    def test_tolerance_validation(self):
        with pytest.raises(SystemExit):
            cr.main(["--tolerance", "1.5"])
        with pytest.raises(SystemExit):
            cr.main(["--tolerance", "-0.1"])

    def test_invalid_fresh_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            cr.main(["--only", "kernels", "--fresh-kernels", str(bad)])
        with pytest.raises(SystemExit):
            cr.main(["--only", "kernels", "--fresh-kernels", str(tmp_path / "missing.json")])
