"""Seeded chaos smoke campaign (the ``chaos``-marked CI slice)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.chaos import CAMPAIGN_CODES, baseline_read_latency, run_campaign, run_schedule
from repro.faults import generate_schedule


@pytest.mark.chaos
def test_smoke_campaign_is_byte_exact_and_exercises_every_defence():
    record = run_campaign(schedules=6, base_seed=2018)
    assert record["mismatches"] == 0
    assert record["unavailable"] == 0
    assert record["reads"] == 6 * 8 * len(CAMPAIGN_CODES)
    # Every resilience mechanism actually fired during the campaign, each
    # counted by the campaign's own filesystem.
    for counter in (
        "retries", "breaker_opens", "checksum_failures",
        "degraded_reads", "reconstructions",
    ):
        assert record["metrics"][counter] > 0, counter
    # Its repairs run one at a time: nothing is there to throttle.
    assert "repairs_throttled" not in record["metrics"]
    for code, stats in record["per_code"].items():
        assert stats["mismatches"] == 0
        assert stats["degraded_read_overhead"] > 1.0  # the latency cost is recorded


@pytest.mark.chaos
def test_campaign_is_deterministic():
    a = run_campaign(schedules=2, base_seed=7)
    b = run_campaign(schedules=2, base_seed=7)
    assert a["metrics"] == b["metrics"]
    assert a["per_code"] == b["per_code"]


def test_single_schedule_run():
    """One scenario end-to-end, without the chaos marker, so the default
    suite always covers the campaign plumbing."""
    schedule = generate_schedule(range(10), 2018, horizon=30.0)
    name, make = CAMPAIGN_CODES[0]
    result = run_schedule(schedule, name, make, checkpoints=4)
    assert result.mismatches == 0
    assert result.reads == 4
    assert result.metrics["blocks_read"] > 0 and "repairs_throttled" not in result.metrics
    assert baseline_read_latency(make) > 0


def test_run_chaos_gates_on_the_committed_record():
    """``benchmarks/run_chaos.py`` compares a run with its committed twin."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("run_chaos", root / "benchmarks" / "run_chaos.py")
    run_chaos = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_chaos)

    committed = json.loads((root / "BENCH_chaos.json").read_text())["runs"]
    latest = committed[-1]
    assert run_chaos.drift(latest, committed) == []
    moved = copy.deepcopy(latest)
    moved["metrics"]["retries"] += 1
    moved["per_code"]["rs(4,2)"]["degraded_read_overhead"] *= 2
    names = [line.split(":")[0] for line in run_chaos.drift(moved, committed)]
    assert names == ["retries", "rs(4,2)"]
    assert run_chaos.drift({**latest, "schedules": latest["schedules"] + 1}, committed) is None
