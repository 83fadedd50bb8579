"""Tests for the observability layer: tracer, metrics, kernel time.

Covers the guarantees docs/OBSERVABILITY.md makes: span nesting and the
dual-clock export, the Chrome-trace JSON shape, the disabled-tracing
no-op path (byte-identical workload output, nothing retained), histogram
percentiles, the registry's single snapshot API, kernel time from the
``gf.apply`` spans of ``CodingPlan.apply``, and the span tree the ``repro trace``
workload emits across the full block lifecycle.
"""

import json

import numpy as np
import pytest

from repro.cli import _kernel_profile, main, run_striped_stats, run_traced_striped
from repro.cluster import Cluster
from repro.core import GalloperCode
from repro.obs import Tracer, use_tracer
from repro.obs import metrics
from repro.obs.metrics import Gauge, Histogram
from repro.obs.trace import NULL_TRACER, NullTracer, get_tracer, set_tracer
from repro.storage import DistributedFileSystem, StripedFileSystem
from repro.storage.metrics import MetricsRegistry


class FakeClock:
    """A ``.now`` holder standing in for VirtualClock / Simulation."""

    def __init__(self, now=0.0):
        self.now = now


# ------------------------------------------------------------------- tracer


class TestSpanNesting:
    def test_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent is None and outer.depth == 0
        assert mid.parent is outer and mid.depth == 1
        assert inner.parent is mid and inner.depth == 2
        assert sibling.parent is outer and sibling.depth == 1
        assert tracer.children_of(outer) == [mid, sibling]
        assert [s.name for s in tracer.spans] == ["outer", "mid", "inner", "sibling"]

    def test_stack_unwinds(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b") as b:
            pass
        assert b.parent is None
        assert tracer._stack == []

    def test_set_updates_attrs_chainable(self):
        tracer = Tracer()
        with tracer.span("op", category="x", first=1) as sp:
            assert sp.set(second=2) is sp
        assert sp.attrs == {"first": 1, "second": 2}

    def test_wall_duration_recorded(self):
        tracer = Tracer()
        with tracer.span("timed") as sp:
            pass
        assert sp.wall_start is not None
        assert sp.wall_dur >= 0.0

    def test_sim_clock_recorded(self):
        tracer = Tracer()
        clock = FakeClock(10.0)
        with tracer.span("simmed", clock=clock) as sp:
            clock.now = 13.5
        assert sp.sim_start == 10.0
        assert sp.sim_dur == pytest.approx(3.5)

    def test_no_clock_leaves_sim_axis_empty(self):
        tracer = Tracer()
        with tracer.span("wall-only") as sp:
            pass
        assert sp.sim_start is None

    def test_find_and_categories(self):
        tracer = Tracer()
        with tracer.span("a", category="io"):
            pass
        with tracer.span("a", category="io"):
            pass
        with tracer.span("b", category="cpu"):
            pass
        assert len(tracer.find("a")) == 2
        assert tracer.find("missing") == []
        assert tracer.categories() == {"cpu": 1, "io": 2}

    def test_instant_records_point_event(self):
        tracer = Tracer()
        clock = FakeClock(2.0)
        with tracer.span("parent") as parent:
            inst = tracer.instant("retry", category="resilient", clock=clock, attempt=1)
        assert inst in tracer.spans
        assert inst.parent is parent
        assert inst.wall_dur == 0.0
        assert inst.sim_start == 2.0
        assert inst.attrs == {"attempt": 1}

    def test_sim_span_post_hoc(self):
        tracer = Tracer()
        sp = tracer.sim_span("map-0", "mapreduce.map", start=1.0, end=4.0,
                             track=3, track_name="server 3", local=True)
        assert sp.sim_start == 1.0
        assert sp.sim_dur == pytest.approx(3.0)
        assert sp.track == 3
        assert sp.wall_start is None  # sim-time axis only
        # A reversed interval clamps to zero rather than exporting negative time.
        assert tracer.sim_span("weird", "x", start=5.0, end=4.0).sim_dur == 0.0


class TestChromeExport:
    def _trace(self):
        tracer = Tracer()
        clock = FakeClock(0.0)
        with tracer.span("write", category="storage", clock=clock, bytes=128):
            clock.now = 0.25
            with tracer.span("encode", category="coding", helpers=(1, 2)):
                pass
        tracer.sim_span("map-0", "mapreduce.map", start=0.0, end=1.0,
                        track=7, track_name="server 7")
        return tracer

    def test_event_structure(self):
        trace = self._trace().to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {(e["pid"], e["name"]) for e in meta} >= {
            (Tracer.WALL_PID, "process_name"),
            (Tracer.SIM_PID, "process_name"),
            (Tracer.SIM_PID, "thread_name"),
        }
        # Every X event carries the required Chrome-trace fields.
        for e in spans:
            assert {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"} <= set(e)
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0

    def test_dual_clock_span_lands_on_both_pids(self):
        events = self._trace().to_chrome_trace()["traceEvents"]
        writes = [e for e in events if e.get("name") == "write" and e["ph"] == "X"]
        assert {e["pid"] for e in writes} == {Tracer.WALL_PID, Tracer.SIM_PID}
        sim = next(e for e in writes if e["pid"] == Tracer.SIM_PID)
        assert sim["ts"] == 0.0
        assert sim["dur"] == pytest.approx(0.25e6)  # microseconds

    def test_sim_span_track_becomes_tid(self):
        events = self._trace().to_chrome_trace()["traceEvents"]
        task = next(e for e in events if e.get("name") == "map-0" and e["ph"] == "X")
        assert task["pid"] == Tracer.SIM_PID
        assert task["tid"] == 7
        label = next(e for e in events
                     if e["ph"] == "M" and e["name"] == "thread_name" and e.get("tid") == 7)
        assert label["args"]["name"] == "server 7"

    def test_args_are_json_safe(self):
        events = self._trace().to_chrome_trace()["traceEvents"]
        encode = next(e for e in events if e.get("name") == "encode")
        assert encode["args"]["helpers"] == [1, 2]  # tuple coerced to list
        tracer = Tracer()
        with tracer.span("odd", obj=object(), arr=np.arange(2)):
            pass
        odd = next(e for e in tracer.to_chrome_trace()["traceEvents"]
                   if e.get("name") == "odd")
        json.dumps(odd)  # everything coerced to something serializable

    def test_export_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        tracer = self._trace()
        tracer.export(path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded == json.loads(json.dumps(tracer.to_chrome_trace()))


class TestNullTracer:
    def test_default_global_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_span_is_shared_noop(self):
        a = NULL_TRACER.span("x", category="y", clock=FakeClock(), attr=1)
        b = NULL_TRACER.span("z")
        assert a is b  # one shared instance, no allocation per call
        with a as entered:
            assert entered.set(anything=1) is entered
        assert NULL_TRACER.spans == ()  # nothing retained

    def test_instant_and_sim_span_are_noops(self):
        assert NULL_TRACER.instant("x") is None
        assert NULL_TRACER.sim_span("x", "cat", 0.0, 1.0) is None
        assert NULL_TRACER.spans == ()

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with use_tracer(None):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_type_is_reusable(self):
        assert isinstance(NULL_TRACER, NullTracer)


class TestDisabledOverhead:
    """Tracing off must not change behaviour: the acceptance criterion."""

    def test_traced_and_untraced_runs_identical(self):
        kwargs = dict(groups=4, block_bytes=2048, seed=3)
        untraced = run_striped_stats(lambda: GalloperCode(4, 2, 1), **kwargs)

        tracer = Tracer()
        with use_tracer(tracer):
            traced = run_striped_stats(lambda: GalloperCode(4, 2, 1), **kwargs)

        # Same workload facts, same byte accounting, same histograms and
        # gauges — tracing observed everything and perturbed nothing.
        assert traced == untraced
        assert len(tracer.spans) > 0
        assert get_tracer() is NULL_TRACER

    def test_disabled_run_retains_no_spans(self):
        before = get_tracer()
        run_traced_striped(lambda: GalloperCode(4, 2, 1), groups=2, block_bytes=2048)
        assert get_tracer() is before
        assert get_tracer().spans == ()


# ------------------------------------------------------------------ metrics


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        hist = Histogram()
        for v in range(1, 101):  # 1..100
            hist.observe(v)
        assert hist.percentile(50) == 50
        assert hist.percentile(95) == 95
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100
        s = hist.summary()
        assert s["count"] == 100
        assert s["sum"] == pytest.approx(5050.0)
        assert s["min"] == 1 and s["max"] == 100
        assert s["mean"] == pytest.approx(50.5)
        assert s["p50"] == 50 and s["p95"] == 95 and s["p99"] == 99

    def test_single_observation(self):
        hist = Histogram()
        hist.observe(4.2)
        assert hist.percentile(1) == pytest.approx(4.2)
        assert hist.percentile(99) == pytest.approx(4.2)

    def test_empty_summary_is_zeroed(self):
        s = Histogram().summary()
        assert s == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                     "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_unsorted_input_sorted_for_percentiles(self):
        hist = Histogram()
        for v in (9, 1, 5, 7, 3):
            hist.observe(v)
        assert hist.percentile(50) == 5
        hist.observe(2)  # re-dirty after a percentile query
        assert hist.percentile(100) == 9

    def test_bounded_buffer_keeps_exact_aggregates(self, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SAMPLES", 10)
        hist = Histogram()
        for v in range(100):
            hist.observe(v)
        assert hist.count == 100          # exact beyond the cap
        assert hist.max == 99
        assert hist.total == pytest.approx(sum(range(100)))
        assert len(hist._values) == 10    # percentile buffer bounded
        assert hist.percentile(100) == 9  # over the sampled prefix

    @pytest.mark.parametrize("n", [1_000, 6_000, 360_000])
    def test_fractional_percentiles_rank_exactly(self, n, monkeypatch):
        """``ceil(n * q / 100)`` with q read as a decimal: the 99.9th of
        1 000 is the 999th.  (``99.9 / 100 * n`` in binary floating point
        lands just above the integer whenever 1 000 divides n, and its
        ceiling is one rank too high.  ``q / 100`` for q = 50, 95, 99
        rounds *down*, so those ranks were always exact.)"""
        from repro.serving import WorkloadResult

        values = [float(v) for v in range(1, n + 1)]  # the value at rank r is r
        monkeypatch.setattr(metrics, "MAX_SAMPLES", n)
        hist = Histogram()
        for v in values:
            hist.observe(v)
        result = WorkloadResult(latencies=values[::-1])
        for q, rank in ((50, n // 2), (95, n * 95 // 100), (99, n * 99 // 100), (99.9, n * 999 // 1000)):
            assert hist.percentile(q) == rank
            assert result.percentile(q) == rank
        from repro.obs.metrics import nearest_rank  # the one rank function under both

        assert nearest_rank(n, 99.9) == n * 999 // 1000
        assert nearest_rank(7, 99.9) == 7 and nearest_rank(1_000, 0.01) == 1  # ceil, at least 1


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge()
        assert g.value == 0.0
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestMetricsRegistry:
    def test_per_server_counter_maps(self):
        reg = MetricsRegistry()
        reg.add("disk_bytes_read", 100, server_id=1)
        reg.add("disk_bytes_read", 50, server_id=2)
        reg.add("disk_bytes_read", 25, server_id=1)
        reg.add("disk_bytes_read", 5)  # global-only increment
        assert reg.total("disk_bytes_read") == 180
        assert reg.by_server("disk_bytes_read") == {1: 125, 2: 50}

    def test_snapshot_counters_only_backcompat(self):
        reg = MetricsRegistry()
        reg.add("b", 2)
        reg.add("a", 1)
        reg.observe("lat", 0.5)
        reg.set_gauge("ratio", 0.9)
        snap = reg.snapshot()
        assert snap == {"a": 1, "b": 2}  # histograms/gauges stay out
        assert list(snap) == ["a", "b"]  # sorted

    def test_snapshot_all_single_api(self):
        reg = MetricsRegistry()
        reg.add("reads", 3)
        reg.observe("read_latency_s", 0.1)
        reg.observe("read_latency_s", 0.3)
        reg.set_gauge("plan_cache_hit_ratio", 0.75)
        snap = reg.snapshot_all()
        assert set(snap) == {"counters", "histograms", "gauges"}
        assert snap["counters"] == {"reads": 3}
        assert snap["histograms"]["read_latency_s"]["count"] == 2
        assert snap["histograms"]["read_latency_s"]["max"] == pytest.approx(0.3)
        assert snap["gauges"] == {"plan_cache_hit_ratio": 0.75}

    def test_histogram_created_on_first_access(self):
        reg = MetricsRegistry()
        assert reg.histogram("fresh").count == 0
        reg.observe("fresh", 1.0)
        assert reg.histogram("fresh").count == 1

    def test_gauge_default_and_reset(self):
        reg = MetricsRegistry()
        assert reg.snapshot_all()["gauges"] == {}
        reg.set_gauge("x", 2.0)
        reg.add("c", 1)
        reg.observe("h", 1)
        reg.reset()
        assert reg.snapshot_all() == {"counters": {}, "histograms": {}, "gauges": {}}


# -------------------------------------------------------------- kernel time


class TestKernelTimeFromSpans:
    """Each kernel apply is recorded once, by its ``gf.apply`` span."""

    def test_aggregation_and_throughput(self):
        tracer = Tracer()
        for kernel, seconds, nbytes in [
            ("packed-full", 0.5, 1 << 20), ("packed-full", 0.5, 1 << 20), ("copy", 0.0, 4096),
        ]:
            with tracer.span("gf.apply", category="gf", kernel=kernel, bytes=nbytes) as span:
                pass
            span.wall_dur = seconds
        with tracer.span("dfs.read_file", kernel="not a kernel", bytes=1):
            pass
        profile = _kernel_profile(tracer)
        assert list(profile) == ["copy", "packed-full"]
        assert profile["packed-full"] == {
            "calls": 2, "seconds": 1.0, "bytes": 2 << 20, "mb_per_s": pytest.approx(2.0),
        }
        assert profile["copy"]["mb_per_s"] == 0.0  # zero elapsed, no div-by-zero

    def test_coding_plan_apply_records(self):
        code = GalloperCode(4, 2, 1)
        rows = code.data_stripe_total
        grid = (np.arange(rows * 2048, dtype=np.int64).reshape(rows, 2048)
                % int(code.gf.order)).astype(code.gf.dtype)
        tracer = Tracer()
        with use_tracer(tracer):
            code.encode(grid)
        spans = tracer.find("gf.apply")
        assert spans, "encode recorded no kernel calls"
        known = {"copy", "packed-full", "packed-split", "direct-small", "xor",
                 "native", "native-xor"}
        assert {span.attrs["kernel"] for span in spans} <= known
        for span in spans:
            assert span.attrs["bytes"] > 0
            assert span.wall_dur >= 0.0


class TestPlanCacheInfo:
    def test_keys_and_hit_accounting(self):
        code = GalloperCode(4, 2, 1)
        info = code.plan_cache_info()
        assert set(info) == {"size", "maxsize", "hits", "misses"}
        grid = np.zeros((code.data_stripe_total, 16), dtype=code.gf.dtype)
        blocks = code.encode(grid)
        survivors = {i: blocks[i] for i in range(code.n) if i != 0}
        code.decode(survivors)
        code.decode(survivors)  # same pattern: second decode must hit
        after = code.plan_cache_info()
        assert after["misses"] >= 1
        assert after["hits"] >= 1
        assert after["size"] <= after["maxsize"]


# ------------------------------------------------------- traced CLI workload


class TestTraceWorkload:
    @pytest.fixture(scope="class")
    def striped_trace(self):
        tracer = Tracer()
        with use_tracer(tracer):
            summary = run_traced_striped(
                lambda: GalloperCode(4, 2, 1), groups=4, block_bytes=2048, seed=0)
        return tracer, summary

    def test_lifecycle_span_coverage(self, striped_trace):
        tracer, summary = striped_trace
        names = {s.name for s in tracer.spans}
        # encode → place → store on the write path
        assert {"sfs.write_file", "pipeline.batch_encode", "dfs.place",
                "dfs.store_blocks", "gf.apply"} <= names
        # single-loss degraded read: the lost block rebuilt from its
        # repair helpers, fused across groups — no full decode
        assert {"sfs.read_file", "sfs.batch_degraded_decode"} <= names
        (degraded,) = tracer.find("sfs.batch_degraded_decode")
        (local,) = tracer.find("dfs.local_repair")
        assert local.parent is degraded and local.attrs["files"] == degraded.attrs["groups"]
        (reconstruct,) = [s for s in tracer.find("pipeline.batch_reconstruct") if s.parent is local]
        assert reconstruct.attrs["groups"] == degraded.attrs["groups"]
        assert not {"pipeline.batch_decode", "dfs.degraded_decode"} & names
        # repair tree: server → bulk → bucket → reads/decode/write
        assert {"repair.server", "repair.bulk", "repair.bucket",
                "repair.helper_reads", "repair.decode", "repair.write",
                "pipeline.batch_reconstruct"} <= names
        assert summary["degraded_reads"] > 0
        assert summary["blocks_rebuilt"] > 0

    def test_two_loss_degraded_read_still_decodes_in_full(self):
        cluster = Cluster.homogeneous(30)
        dfs = DistributedFileSystem(cluster)
        sfs = StripedFileSystem(dfs)
        payload = bytes(range(256)) * 112
        sfs.write_file("f", payload, lambda: GalloperCode(4, 2, 1), max_block_bytes=2048)
        group0 = dfs.file("f#g0000")
        cluster.fail(group0.server_of(0))
        cluster.fail(group0.server_of(1))
        tracer = Tracer()
        with use_tracer(tracer):
            assert sfs.read_file("f") == payload
        (degraded,) = tracer.find("sfs.batch_degraded_decode")
        (decode_stage,) = tracer.find("dfs.degraded_decode")
        assert decode_stage.parent is degraded
        assert any(s.parent is decode_stage for s in tracer.find("pipeline.batch_decode"))

    def test_repair_tree_nesting(self, striped_trace):
        tracer, _ = striped_trace
        (server,) = tracer.find("repair.server")
        (bulk,) = tracer.find("repair.bulk")
        assert bulk.parent is server
        for bucket in tracer.find("repair.bucket"):
            assert bucket.parent is bulk
        for decode in tracer.find("repair.decode"):
            assert decode.parent.name == "repair.bucket"

    def test_gf_applies_carry_kernel_attrs(self, striped_trace):
        tracer, _ = striped_trace
        applies = tracer.find("gf.apply")
        assert applies
        for sp in applies:
            assert sp.category == "gf"
            assert {"kernel", "rows", "columns", "bytes"} <= set(sp.attrs)

    def test_exported_trace_is_loadable(self, striped_trace, tmp_path):
        tracer, _ = striped_trace
        path = tmp_path / "striped.json"
        tracer.export(path)
        events = json.loads(path.read_text())["traceEvents"]
        assert any(e.get("name") == "repair.server" for e in events)


class TestTraceCLI:
    def test_trace_striped_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "striped", "--groups", "3",
                     "--block-bytes", "2048", "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        names = {e.get("name") for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert {"sfs.write_file", "dfs.place", "sfs.batch_degraded_decode",
                "repair.server"} <= names
        assert "spans" in capsys.readouterr().out

    def test_trace_mapreduce_emits_per_server_tasks(self, tmp_path, capsys):
        out = tmp_path / "mr.json"
        assert main(["trace", "mapreduce", "--groups", "2",
                     "--block-bytes", "2048", "--out", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        maps = [e for e in events
                if e.get("ph") == "X" and e.get("cat") == "mapreduce.map"]
        assert maps
        assert all(e["pid"] == Tracer.SIM_PID for e in maps)
        assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in events)

    def test_metrics_cli_schema(self, capsys):
        assert main(["metrics", "--groups", "4", "--block-bytes", "2048"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"code", "metrics", "plan_cache", "kernel_profile", "derived"}
        assert set(payload["metrics"]) == {"counters", "histograms", "gauges"}
        assert "plan_cache_hit_ratio" in payload["metrics"]["gauges"]
        assert payload["kernel_profile"], "no gf.apply span was recorded"
        for entry in payload["kernel_profile"].values():
            assert {"calls", "seconds", "bytes", "mb_per_s"} == set(entry)
