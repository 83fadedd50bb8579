"""Tests for the locality-aware task scheduler."""

import pytest

from repro.cluster import Cluster
from repro.mapreduce import LocalityScheduler, ScheduledTask, SchedulingError
from repro.sim import Simulation


def fixed_duration(seconds, remote_penalty=0.0):
    def fn(server, local):
        return seconds + (0.0 if local else remote_penalty)

    return fn


def make_task(tid, server, nbytes=100, duration=10.0, remote_penalty=0.0):
    return ScheduledTask(
        task_id=tid,
        preferred_server=server,
        input_bytes=nbytes,
        duration_fn=fixed_duration(duration, remote_penalty),
    )


class TestLocality:
    def test_tasks_run_on_preferred_servers(self):
        cluster = Cluster.homogeneous(4, map_slots=2)
        sched = LocalityScheduler(Simulation(), cluster)
        tasks = [make_task(f"t{i}", i) for i in range(4)]
        assignments = sched.run_phase(tasks)
        for a in assignments:
            assert a.server == a.task.preferred_server
            assert a.local

    def test_slots_limit_concurrency(self):
        cluster = Cluster.homogeneous(1, map_slots=2)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(4)]
        assignments = sched.run_phase(tasks)
        finishes = sorted(a.finish for a in assignments)
        assert finishes == [10.0, 10.0, 20.0, 20.0]

    def test_larger_tasks_scheduled_first(self):
        cluster = Cluster.homogeneous(1, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster)
        tasks = [
            make_task("small", 0, nbytes=10),
            make_task("big", 0, nbytes=1000),
        ]
        assignments = sched.run_phase(tasks)
        assert assignments[0].task.task_id == "big"


class TestStealing:
    def test_idle_server_steals_from_saturated(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster)
        # Three tasks all prefer server 0; server 1 is idle.
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        assignments = sched.run_phase(tasks)
        servers = {a.server for a in assignments}
        assert servers == {0, 1}
        stolen = [a for a in assignments if a.server == 1]
        assert all(not a.local for a in stolen)

    def test_dead_server_tasks_move(self):
        cluster = Cluster.homogeneous(3, map_slots=1)
        cluster.fail(0)
        sched = LocalityScheduler(Simulation(), cluster)
        tasks = [make_task("t0", 0, duration=5.0)]
        assignments = sched.run_phase(tasks)
        assert assignments[0].server != 0
        assert not assignments[0].local

    def test_stranded_without_remote_raises(self):
        """A dead owner and a distrusted survivor: no server may run it."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        cluster.fail(0)
        sched = LocalityScheduler(Simulation(), cluster, health=TestHealthAwarePlacement._monitor(1))
        with pytest.raises(SchedulingError):
            sched.run_phase([make_task("t0", 0)])

    def test_local_tasks_win_over_steals(self):
        """A server with local work pending must not steal remote work."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster)
        tasks = [
            make_task("local-1", 1, nbytes=50),
            make_task("remote-candidate", 0, nbytes=500),
        ]
        assignments = sched.run_phase(tasks)
        by_id = {a.task.task_id: a for a in assignments}
        assert by_id["local-1"].server == 1
        assert by_id["remote-candidate"].server == 0


class TestSpeculativeExecution:
    def _hetero(self):
        # Server 0 is slow; server 1 fast and idle.
        return Cluster.heterogeneous([0.25, 1.0])

    @staticmethod
    def _speed_task(tid, server, nbytes=100):
        def duration(sid, local):
            cluster_speeds = {0: 0.25, 1: 1.0}
            return 10.0 / cluster_speeds[sid]

        return ScheduledTask(tid, server, nbytes, duration)

    def test_backup_launched_for_straggler(self):
        cluster = self._hetero()
        sched = LocalityScheduler(Simulation(), cluster, speculative=True)
        assignments = sched.run_phase([self._speed_task("t0", 0)])
        assert len(assignments) == 2
        assert any(a.speculative for a in assignments)
        winner = sched.effective_assignments()["t0"]
        assert winner.server == 1  # the fast backup wins
        assert winner.finish == pytest.approx(10.0)
        assert sched.speculative_copies == 1

    def test_no_backup_when_disabled(self):
        cluster = self._hetero()
        sched = LocalityScheduler(Simulation(), cluster, speculative=False)
        assignments = sched.run_phase([self._speed_task("t0", 0)])
        assert len(assignments) == 1
        assert sched.speculative_copies == 0

    def test_at_most_one_backup(self):
        cluster = Cluster.heterogeneous([0.25, 1.0, 1.0], map_slots=2)
        sched = LocalityScheduler(Simulation(), cluster, speculative=True)
        sched.run_phase([self._speed_task("t0", 0)])
        assert sched.speculative_copies <= 1

    def test_no_backup_without_expected_gain(self):
        """Equal-speed servers: a backup could never finish earlier."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster, speculative=True)
        assignments = sched.run_phase([make_task("t0", 0, duration=10.0)])
        assert len(assignments) == 1

    def test_pending_work_preferred_over_speculation(self):
        cluster = self._hetero()
        sched = LocalityScheduler(Simulation(), cluster, speculative=True)
        tasks = [self._speed_task("slow", 0, nbytes=500), self._speed_task("own", 1, nbytes=100)]
        assignments = sched.run_phase(tasks)
        first_on_fast = min((a for a in assignments if a.server == 1), key=lambda a: a.start)
        assert first_on_fast.task.task_id == "own"
        assert not first_on_fast.speculative

    def test_runtime_reports_copies(self):
        from repro.core import GalloperCode
        from repro.mapreduce import GalloperInputFormat, MapReduceRuntime
        from repro.mapreduce.workloads import wordcount_job
        from repro.storage import DistributedFileSystem

        cluster = Cluster.heterogeneous([1, 1, 1, 1, 0.4, 0.4, 0.4])
        dfs = DistributedFileSystem(cluster)
        dfs.write_virtual_file("v", 400 << 20, code=GalloperCode(4, 2, 1))
        plain = MapReduceRuntime(dfs, execute=False).run(wordcount_job("v"), GalloperInputFormat())
        spec = MapReduceRuntime(dfs, execute=False, speculative=True).run(
            wordcount_job("v"), GalloperInputFormat()
        )
        assert spec.speculative_copies > 0
        assert spec.map_phase_time < plain.map_phase_time
        # One TaskRecord per task, even with backups.
        assert spec.num_map_tasks == plain.num_map_tasks


class TestHealthAwarePlacement:
    @staticmethod
    def _monitor(open_server):
        from repro.faults import VirtualClock
        from repro.storage import HealthMonitor
        from repro.storage.health import CONSECUTIVE_LIMIT

        # The monitor's clock never moves, so the breaker stays open.
        health = HealthMonitor(VirtualClock())
        for _ in range(CONSECUTIVE_LIMIT):
            health.record_error(open_server)
        return health

    def test_breaker_open_server_does_not_steal(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster, health=self._monitor(1))
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        assignments = sched.run_phase(tasks)
        assert {a.server for a in assignments} == {0}

    def test_breaker_open_owner_tasks_stealable_immediately(self):
        """Tasks homed on a distrusted server move even while it has free
        slots, like tasks of a dead server."""
        cluster = Cluster.homogeneous(2, map_slots=2)
        sched = LocalityScheduler(Simulation(), cluster, health=self._monitor(0))
        # Server 0's breaker is open and both its slots are free, but the
        # healthy server 1 dispatches first and takes both tasks at t=0.
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(2)]
        assignments = sched.run_phase(tasks)
        assert [(a.server, a.start) for a in assignments] == [(1, 0.0), (1, 0.0)]

    def test_free_owner_keeps_its_tasks_without_monitor(self):
        cluster = Cluster.homogeneous(2, map_slots=2)
        sched = LocalityScheduler(Simulation(), cluster)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(2)]
        assert {a.server for a in sched.run_phase(tasks)} == {0}

    def test_without_monitor_behaviour_unchanged(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        plain = LocalityScheduler(Simulation(), cluster)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        assignments = plain.run_phase(tasks)
        assert {a.server for a in assignments} == {0, 1}


class TestPhases:
    def test_state_cleared_between_phases(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster)
        sched.run_phase([make_task(f"a{i}", 0, duration=2.0) for i in range(3)])
        second = sched.run_phase([make_task(f"b{i}", 0, duration=2.0) for i in range(3)])
        assert sorted(a.task.task_id for a in second) == ["b0", "b1", "b2"]
        assert sorted(sched.effective_assignments()) == ["b0", "b1", "b2"]


class TestDeterminism:
    def test_same_inputs_same_schedule(self):
        def run():
            cluster = Cluster.homogeneous(3, map_slots=2)
            sched = LocalityScheduler(Simulation(), cluster)
            tasks = [make_task(f"t{i}", i % 3, nbytes=100 - i, duration=3.0 + i) for i in range(9)]
            return [(a.task.task_id, a.server, a.start, a.finish) for a in sched.run_phase(tasks)]

        assert run() == run()
