"""Tests for the locality-aware task scheduler."""

import pytest

from repro.cluster import Cluster
from repro.mapreduce import LocalityScheduler, ScheduledTask
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

    def test_no_stealing_when_disabled(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster, allow_remote=False)
        tasks = [make_task(f"t{i}", 0, duration=5.0) for i in range(3)]
        assignments = sched.run_phase(tasks)
        assert {a.server for a in assignments} == {0}
        assert max(a.finish for a in assignments) == 15.0

    def test_dead_server_tasks_move(self):
        cluster = Cluster.homogeneous(3, map_slots=1)
        cluster.fail(0)
        sched = LocalityScheduler(Simulation(), cluster)
        tasks = [make_task("t0", 0, duration=5.0)]
        assignments = sched.run_phase(tasks)
        assert assignments[0].server != 0
        assert not assignments[0].local

    def test_stranded_without_remote_raises(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        cluster.fail(0)
        sched = LocalityScheduler(Simulation(), cluster, allow_remote=False)
        with pytest.raises(RuntimeError):
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


class TestDelayScheduling:
    def test_delay_prevents_early_stealing(self):
        """With a long locality delay, an idle server waits and the busy
        server ends up running all its local tasks itself."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster, locality_delay=100.0)
        tasks = [make_task(f"t{i}", 0, duration=5.0) for i in range(3)]
        assignments = sched.run_phase(tasks)
        assert {a.server for a in assignments} == {0}

    def test_short_delay_allows_stealing_later(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster, locality_delay=2.0)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        assignments = sched.run_phase(tasks)
        stolen = [a for a in assignments if a.server == 1]
        assert len(stolen) == 1
        # The steal happens at the delay boundary, not at t=0.
        assert stolen[0].start == pytest.approx(2.0)

    def test_dead_owner_exempt_from_delay(self):
        """Delay only helps tasks whose home server might free up; a dead
        owner's tasks move immediately."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        cluster.fail(0)
        sched = LocalityScheduler(Simulation(), cluster, locality_delay=50.0)
        assignments = sched.run_phase([make_task("t0", 0, duration=5.0)])
        assert assignments[0].server == 1
        assert assignments[0].start == 0.0

    def test_zero_delay_matches_old_behaviour(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(Simulation(), cluster, locality_delay=0.0)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        assignments = sched.run_phase(tasks)
        assert {a.server for a in assignments} == {0, 1}

    def test_delay_tradeoff_visible_in_makespan(self):
        """Delay scheduling trades makespan for locality: with stealing
        the phase is shorter, but the stolen task reads remotely."""

        def run(delay):
            cluster = Cluster.homogeneous(2, map_slots=1)
            sched = LocalityScheduler(Simulation(), cluster, locality_delay=delay)
            tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(2)]
            return max(a.finish for a in sched.run_phase(tasks))

        assert run(0.0) == 10.0  # stolen immediately, runs in parallel
        assert run(1000.0) == 20.0  # fully local, serialized


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


class TestRetryBookkeeping:
    def test_retry_marker_pruned_when_fired(self):
        """The locality-delay retry marker must not leak past its firing:
        a server whose retry fired can re-arm one in a later wait window."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster, locality_delay=2.0)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        sched.run_phase(tasks)
        assert sched._retry_scheduled == set()

    def test_retry_state_cleared_between_phases(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster, locality_delay=5.0)
        sched.run_phase([make_task(f"a{i}", 0, duration=2.0) for i in range(3)])
        first = dict(sched.task_retries)
        sched.run_phase([make_task(f"b{i}", 0, duration=2.0) for i in range(3)])
        assert sched.task_retries == {}
        assert first == {}
        assert sched.failed_tasks == []


class TestServerFailure:
    def test_inflight_tasks_requeued(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster)
        tasks = [make_task("t0", 0, duration=10.0), make_task("t1", 1, duration=10.0)]
        sched.reset()
        sched._pending = sorted(tasks, key=lambda t: -t.input_bytes)
        sched._phase_start = sim.now
        for sid in sched._dispatch_order():
            sched._dispatch(sid)
        sim.run(until=3.0)
        cluster.fail(0)
        requeued = sched.handle_server_failure(0)
        assert requeued == ["t0"]
        sim.run()
        winners = sched.effective_assignments()
        assert winners["t0"].server == 1
        assert not winners["t0"].failed
        # The crashed attempt stays in the log, marked failed.
        crashed = [a for a in sched.assignments if a.server == 0]
        assert crashed and all(a.failed for a in crashed)

    def test_retry_cap_fails_task_terminally(self):
        cluster = Cluster.homogeneous(1, map_slots=1)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster, max_task_retries=0)
        sched.reset()
        sched._pending = [make_task("t0", 0, duration=10.0)]
        for sid in sched._dispatch_order():
            sched._dispatch(sid)
        sim.run(until=1.0)
        cluster.fail(0)
        assert sched.handle_server_failure(0) == []
        assert [t.task_id for t in sched.failed_tasks] == ["t0"]

    def test_speculative_twin_survives_crash(self):
        """When a backup attempt is running elsewhere, the task is not
        re-queued after its primary's server dies."""
        cluster = Cluster.heterogeneous([0.25, 1.0])
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster, speculative=True)

        def duration(sid, local):
            return 10.0 / {0: 0.25, 1: 1.0}[sid]

        sched.reset()
        sched._pending = [ScheduledTask("t0", 0, 100, duration)]
        for sid in sched._dispatch_order():
            sched._dispatch(sid)
        sim.run(until=1.0)
        assert len(sched.assignments) == 2  # primary + backup
        cluster.fail(0)
        assert sched.handle_server_failure(0) == []
        sim.run()
        assert sched.effective_assignments()["t0"].server == 1
        assert sched.failed_tasks == []

    def test_completion_on_withdrawn_server_is_ignored(self):
        """The already-scheduled completion event of a crashed server must
        not resurrect its slot."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        sim = Simulation()
        sched = LocalityScheduler(sim, cluster)
        sched.reset()
        sched._pending = [make_task("t0", 0, duration=5.0), make_task("t1", 1, duration=5.0)]
        for sid in sched._dispatch_order():
            sched._dispatch(sid)
        sim.run(until=1.0)
        cluster.fail(0)
        sched.handle_server_failure(0)
        sim.run()  # t0's stale completion event fires harmlessly
        assert 0 not in sched._slots
        assert sched.effective_assignments()["t0"].server == 1


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
        """Tasks homed on a distrusted server move without waiting for the
        locality delay, like tasks of a dead server."""
        cluster = Cluster.homogeneous(2, map_slots=1)
        sched = LocalityScheduler(
            Simulation(), cluster, locality_delay=50.0, health=self._monitor(0)
        )
        # Server 0's breaker is open: it still runs its local task, but its
        # queued surplus is taken over by server 1 at t=0.
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(2)]
        assignments = sched.run_phase(tasks)
        stolen = [a for a in assignments if a.server == 1]
        assert len(stolen) == 1
        assert stolen[0].start == 0.0

    def test_without_monitor_behaviour_unchanged(self):
        cluster = Cluster.homogeneous(2, map_slots=1)
        plain = LocalityScheduler(Simulation(), cluster)
        tasks = [make_task(f"t{i}", 0, duration=10.0) for i in range(3)]
        assignments = plain.run_phase(tasks)
        assert {a.server for a in assignments} == {0, 1}


class TestDeterminism:
    def test_same_inputs_same_schedule(self):
        def run():
            cluster = Cluster.homogeneous(3, map_slots=2)
            sched = LocalityScheduler(Simulation(), cluster)
            tasks = [make_task(f"t{i}", i % 3, nbytes=100 - i, duration=3.0 + i) for i in range(9)]
            return [(a.task.task_id, a.server, a.start, a.finish) for a in sched.run_phase(tasks)]

        assert run() == run()
