"""``benchmarks/pairs.py``: the gain test it prints, on two synthetic records,
and the untimed warm-up of each clone."""

import importlib.util
import statistics
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("pairs", REPO_ROOT / "benchmarks" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

DIRECTIONS = {"write_MBps": "higher", "read_MBps": "higher", "repair_MBps": "higher", "peak_rss_MB": "lower"}
PARENT = {
    "write_MBps": [740, 760, 730, 750, 745, 755, 735, 765, 742, 748],
    "read_MBps": [1200, 1210, 1190, 1205, 1195, 1200, 1215, 1185, 1202, 1198],
    "repair_MBps": [190, 150, 230, 170, 210, 180, 200, 160, 220, 195],
    "peak_rss_MB": [126.4] * 10,
}
CHANGE = {
    "write_MBps": [900, 910, 950, 750, 905, 930, 870, 920, 900, 915],  # one pair tied
    "read_MBps": [1300, 1310, 1290, 1100, 1295, 1300, 1315, 1150, 1302, 1298],  # behind in two
    "repair_MBps": [200, 160, 240, 180, 220, 190, 210, 170, 230, 205],  # ahead in all, inside the spread
    "peak_rss_MB": [120.0] * 10,
}


def runs(values: dict[str, list[float]], workload: str = "striped_io") -> list[dict]:
    count = len(next(iter(values.values())))
    return [
        {
            "workloads": {workload: {"end_to_end": {metric: v[i] for metric, v in values.items()}}},
            "provenance": {"seed": 5000 + i},
        }
        for i in range(count)
    ]


def test_the_gain_rule_on_synthetic_pairs(capsys):
    rows = {row["metric"]: row for row in pairs.gain_test(runs(PARENT), runs(CHANGE), "striped_io", DIRECTIONS)}
    write = rows["write_MBps"]
    q1, _, q3 = statistics.quantiles(PARENT["write_MBps"], n=4)
    assert write["parent"] == (q1, statistics.median(PARENT["write_MBps"]), q3)
    assert write["ratio"] == statistics.median(CHANGE["write_MBps"]) / statistics.median(PARENT["write_MBps"])
    assert (write["ahead"], write["behind"], write["tied"]) == (9, 0, 1)
    assert write["gain"]  # 9 of 10, ties counting for neither
    assert (rows["read_MBps"]["ahead"], rows["read_MBps"]["behind"]) == (8, 2)
    assert not rows["read_MBps"]["gain"]  # 8 of 10
    assert rows["repair_MBps"]["ahead"] == 10 and not rows["repair_MBps"]["gain"]  # medians 10 apart, quartiles 40
    assert rows["peak_rss_MB"]["gain"] and rows["peak_rss_MB"]["ratio"] < 1  # lower is better
    pairs.print_gain_test(list(rows.values()), 10, "striped_io")
    out = capsys.readouterr().out
    assert out.count("gain rule holds") == 2 and out.count("no gain") == 2


def test_a_metric_one_side_lacks_is_left_out():
    parent = runs({"write_MBps": [1.0, 2.0]})
    change = runs({"read_MBps": [1.0, 2.0]})
    assert pairs.gain_test(parent, change, "striped_io", DIRECTIONS) == []


def test_each_clone_is_warmed_before_the_first_timed_run(tmp_path, monkeypatch):
    events = []

    class FirstRun(Exception):
        pass

    def run_once(checkout, *_):
        events.append(("run", checkout.name))
        raise FirstRun

    monkeypatch.setattr(pairs, "clone", lambda rev, into: events.append(("clone", into.name)) or rev)
    monkeypatch.setattr(pairs, "warm", lambda checkout: events.append(("warm", checkout.name)))
    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = ["--parent", "a", "--change", "b", "--workload", "bulk_io", "--seeds", "1-2", "--workdir", str(tmp_path)]
    try:
        pairs.main(argv)
    except FirstRun:
        pass
    assert events == [
        ("clone", "parent"), ("clone", "change"),
        ("warm", "parent"), ("warm", "change"), ("warm", "change"), ("warm", "parent"),
        ("run", "parent"),
    ]


def test_warming_builds_where_run_py_loads_from(tmp_path, monkeypatch):
    calls = []
    monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
    monkeypatch.setattr(pairs.subprocess, "run", lambda cmd, **kw: calls.append((cmd, kw)))
    pairs.warm(tmp_path)
    ((cmd, kw),) = calls
    assert kw["cwd"] == tmp_path and kw["check"]
    assert kw["env"]["PYTHONPATH"] == str(tmp_path / "src")
    # benchmarks/e2e/run.py's default, which it sets before importing repro.
    assert kw["env"]["REPRO_NATIVE_CACHE"] == str(tmp_path / ".bench_build" / "repro-native")
    assert '"REPRO_NATIVE_CACHE", str(REPO_ROOT / ".bench_build" / "repro-native")' in (
        REPO_ROOT / "benchmarks" / "e2e" / "run.py"
    ).read_text()
    assert "native_available()" in cmd[-1] and "compileall" in cmd[-1]


def test_fewer_than_ten_pairs_support_no_claim(capsys):
    parent = runs({"write_MBps": [700.0, 710.0, 720.0]})
    change = runs({"write_MBps": [900.0, 910.0, 920.0]})  # all three ahead, far outside the spread
    rows = pairs.gain_test(parent, change, "striped_io", DIRECTIONS)
    assert rows[0]["ahead"] == 3 and not rows[0]["gain"]
    pairs.print_gain_test(rows, 3, "striped_io")
    out = capsys.readouterr().out
    assert "too few pairs for a claim (3 < 10)" in out
    assert "gain rule holds" not in out and "no gain" not in out
