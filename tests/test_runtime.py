"""Tests for the MapReduce runtime: timing model and real execution."""

import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode
from repro.core import GalloperCode
from repro.mapreduce import (
    DataBlockInputFormat,
    GalloperInputFormat,
    MapReduceRuntime,
)
from repro.mapreduce.workloads import (
    generate_text,
    grep_job,
    grep_reference,
    wordcount_job,
    wordcount_reference,
)
from repro.mapreduce import runtime
from repro.storage import DistributedFileSystem


@pytest.fixture
def env():
    cluster = Cluster.homogeneous(10)
    dfs = DistributedFileSystem(cluster)
    text = generate_text(60_000, seed=1)
    dfs.write_file("text", text, code=GalloperCode(4, 2, 1))
    dfs.write_file("text-pyr", text, code=PyramidCode(4, 2, 1))
    return cluster, dfs, text


class TestRealExecution:
    def test_wordcount_matches_reference(self, env):
        _, dfs, text = env
        rt = MapReduceRuntime(dfs)
        res = rt.run(wordcount_job("text"), GalloperInputFormat())
        assert res.output == wordcount_reference(text)

    def test_output_independent_of_input_format(self, env):
        _, dfs, text = env
        rt = MapReduceRuntime(dfs)
        a = rt.run(wordcount_job("text"), GalloperInputFormat())
        b = rt.run(wordcount_job("text-pyr"), DataBlockInputFormat())
        assert a.output == b.output

    def test_output_independent_of_reducer_count(self, env):
        _, dfs, text = env
        rt = MapReduceRuntime(dfs)
        a = rt.run(wordcount_job("text", num_reducers=1), GalloperInputFormat())
        b = rt.run(wordcount_job("text", num_reducers=7), GalloperInputFormat())
        assert a.output == b.output

    def test_grep(self, env):
        _, dfs, text = env
        rt = MapReduceRuntime(dfs)
        res = rt.run(grep_job("text", "stripe"), GalloperInputFormat())
        assert res.output["stripe"] == grep_reference(text, "stripe")



class TestTimingModel:
    def test_galloper_fans_out_wider(self, env):
        _, dfs, _ = env
        rt = MapReduceRuntime(dfs, execute=False)
        g = rt.run(wordcount_job("text"), GalloperInputFormat())
        p = rt.run(wordcount_job("text-pyr"), DataBlockInputFormat())
        assert len(g.map_servers()) == 7
        assert len(p.map_servers()) == 4
        assert g.num_map_tasks == 7
        assert p.num_map_tasks == 4

    def test_map_durations_scale_with_split_size(self):
        cluster = Cluster.homogeneous(10)
        dfs = DistributedFileSystem(cluster)
        dfs.write_virtual_file("big", 400 << 20, code=PyramidCode(4, 2, 1))
        rt = MapReduceRuntime(dfs, execute=False)
        res = rt.run(wordcount_job("big"), DataBlockInputFormat())
        durations = [t.duration for t in res.tasks if t.kind == "map"]
        assert all(d > 1.0 for d in durations)
        expected = 1.0 + (100 << 20) / (10 << 20)  # overhead + bytes/rate
        assert durations[0] == pytest.approx(expected, rel=0.01)

    def test_cpu_speed_slows_tasks(self):
        cluster = Cluster.heterogeneous([1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0])
        dfs = DistributedFileSystem(cluster)
        dfs.write_virtual_file("v", 4 << 20, code=GalloperCode(4, 2, 1))
        rt = MapReduceRuntime(dfs, execute=False)
        res = rt.run(wordcount_job("v"), GalloperInputFormat())
        by_server = res.map_times_by_server()
        assert by_server[4][0] > by_server[0][0]

    def test_job_time_is_phase_sum(self, env):
        _, dfs, _ = env
        rt = MapReduceRuntime(dfs, execute=False)
        res = rt.run(wordcount_job("text"), GalloperInputFormat())
        assert res.job_time == pytest.approx(
            res.map_phase_time + res.shuffle_time + res.reduce_phase_time
        )

    def test_reduce_tasks_recorded(self, env):
        _, dfs, _ = env
        rt = MapReduceRuntime(dfs, execute=False)
        res = rt.run(wordcount_job("text", num_reducers=3), GalloperInputFormat())
        assert sum(1 for t in res.tasks if t.kind == "reduce") == 3

    def test_cost_model_override(self, env, monkeypatch):
        _, dfs, _ = env
        rt = MapReduceRuntime(dfs, execute=False)
        monkeypatch.setattr(runtime, "MAP_RATE", 1 << 20)
        s = rt.run(wordcount_job("text"), GalloperInputFormat())
        monkeypatch.setattr(runtime, "MAP_RATE", 100 << 20)
        f = rt.run(wordcount_job("text"), GalloperInputFormat())
        assert s.map_phase_time > f.map_phase_time

    def test_no_splits_raises(self, env):
        _, dfs, _ = env
        rt = MapReduceRuntime(dfs)
        with pytest.raises(Exception):
            rt.run(wordcount_job("nonexistent"), GalloperInputFormat())

    def test_deterministic_timings(self, env):
        _, dfs, _ = env
        rt = MapReduceRuntime(dfs, execute=False)
        a = rt.run(wordcount_job("text"), GalloperInputFormat())
        b = rt.run(wordcount_job("text"), GalloperInputFormat())
        assert a.job_time == b.job_time
        assert [t.finish for t in a.tasks] == [t.finish for t in b.tasks]
