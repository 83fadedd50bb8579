"""Locality-aware task scheduling.

Map tasks prefer the server storing their split (Hadoop's data-locality
rule, paper Sec. I).  Each server runs at most ``map_slots`` tasks at a
time; when a server has free slots and no local work left it *steals*
a pending task whose own server is saturated or dead, paying a network
read for the split — Hadoop's non-local scheduling.  The whole phase runs
on the deterministic event engine, so identical inputs produce identical
schedules.

The scheduler is health-aware: a
:class:`~repro.storage.health.HealthMonitor` (optional) steers placement
away from servers with open circuit breakers — their pending tasks are
immediately stealable, and they never steal remote work.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.cluster.topology import Cluster
from repro.sim.engine import Simulation


class SchedulingError(RuntimeError):
    """Raised when tasks cannot be scheduled on any live server."""


@dataclass
class ScheduledTask:
    """One schedulable unit of work.

    ``duration_fn(server, local)`` computes the run time on a given server
    so the scheduler stays agnostic of the cost model.
    """

    task_id: str
    preferred_server: int
    input_bytes: int
    duration_fn: Callable[[int, bool], float]


@dataclass
class Assignment:
    task: ScheduledTask
    server: int
    start: float
    finish: float
    local: bool
    speculative: bool = False


class LocalityScheduler:
    """Slot-based FIFO scheduler with locality preference and stealing."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        speculative: bool = False,
        health=None,
        metrics=None,
    ):
        """Args:
            sim: event engine the phase runs on.
            cluster: servers providing ``map_slots`` slots each.
            speculative: launch backup copies of straggling tasks on idle
                servers (Hadoop's speculative execution).  A task
                completes at its earliest attempt's finish; the duplicate
                attempt's work is wasted, which the runtime reports.
            health: optional :class:`~repro.storage.health.HealthMonitor`;
                breaker-open servers neither steal remote tasks nor pin
                their own pending tasks to locality.
            metrics: optional :class:`~repro.storage.metrics.MetricsRegistry`;
                each dispatch observes the pending-queue depth
                (``scheduler_queue_depth`` histogram).
        """
        self.sim = sim
        self.cluster = cluster
        self.speculative = speculative
        self.health = health
        self.metrics = metrics
        self._slots = {s.server_id: s.map_slots for s in cluster.alive()}
        self._pending: list[ScheduledTask] = []
        self.assignments: list[Assignment] = []
        self._attempts: dict[str, list[Assignment]] = {}

    def reset(self) -> None:
        """Clear per-phase bookkeeping (pending tasks and attempts)."""
        self._pending = []
        self.assignments = []
        self._attempts = {}

    def run_phase(self, tasks: list[ScheduledTask]) -> list[Assignment]:
        """Run all tasks to completion; returns their assignments.

        Raises:
            SchedulingError: tasks stranded without a live server that
                may run them.
        """
        # Large tasks first within each server's queue, like Hadoop's
        # split-size-descending task ordering.
        self.reset()
        self._pending = sorted(tasks, key=lambda t: -t.input_bytes)
        for sid in self._dispatch_order():
            self._dispatch(sid)
        self.sim.run()
        if self._pending:
            stranded = [t.task_id for t in self._pending]
            raise SchedulingError(f"tasks could not be scheduled: {stranded}")
        return self.assignments

    def effective_assignments(self) -> dict[str, Assignment]:
        """Winning attempt per task (the earliest finish)."""
        return {tid: min(attempts, key=lambda a: a.finish) for tid, attempts in self._attempts.items()}

    @property
    def speculative_copies(self) -> int:
        """Backup attempts launched (their work is wasted when they lose)."""
        return sum(len(a) - 1 for a in self._attempts.values())

    # ----------------------------------------------------------- internals

    def _dispatch_order(self) -> list[int]:
        """Live servers, healthiest first when a monitor is wired."""
        sids = list(self._slots)
        if self.health is None:
            return sids
        return self.health.rank(sids)

    def _breaker_open(self, server_id: int) -> bool:
        return self.health is not None and self.health.is_open(server_id)

    def _dispatch(self, server_id: int) -> None:
        if self.metrics is not None:
            self.metrics.observe("scheduler_queue_depth", float(len(self._pending)))
        while self._slots.get(server_id, 0) > 0:
            task, local = self._pick(server_id)
            speculative = False
            if task is None and self.speculative and not self._pending:
                task, local = self._pick_speculative(server_id)
                speculative = task is not None
            if task is None:
                return
            if not speculative:
                self._pending.remove(task)
            self._slots[server_id] -= 1
            duration = task.duration_fn(server_id, local)
            start = self.sim.now
            assignment = Assignment(
                task=task,
                server=server_id,
                start=start,
                finish=start + duration,
                local=local,
                speculative=speculative,
            )
            self.assignments.append(assignment)
            self._attempts.setdefault(task.task_id, []).append(assignment)
            self.sim.schedule(
                duration,
                lambda sid=server_id: self._complete(sid),
                name=f"task:{task.task_id}",
            )

    def _pick_speculative(self, server_id: int) -> tuple[ScheduledTask | None, bool]:
        """Back up the running task this server could beat by the most."""
        now = self.sim.now
        best: Assignment | None = None
        best_gain = 0.0
        for attempts in self._attempts.values():
            if len(attempts) != 1:
                continue  # one backup max, like Hadoop
            primary = attempts[0]
            if primary.finish <= now or primary.server == server_id:
                continue
            new_finish = now + primary.task.duration_fn(server_id, False)
            gain = primary.finish - new_finish
            if gain > best_gain:
                best, best_gain = primary, gain
        if best is None:
            return None, False
        return best.task, False

    def _complete(self, server_id: int) -> None:
        self._slots[server_id] += 1
        self._dispatch(server_id)
        # A freed slot may also unblock stealing elsewhere — but stealing
        # is pull-based, so only this server needs re-dispatching.

    def _pick(self, server_id: int) -> tuple[ScheduledTask | None, bool]:
        for task in self._pending:
            if task.preferred_server == server_id:
                return task, True
        if self._breaker_open(server_id):
            # A distrusted server keeps serving its local data but does
            # not pull extra remote work onto a failing disk.
            return None, False
        for task in self._pending:
            owner = task.preferred_server
            if (
                owner not in self._slots
                or self.cluster.server(owner).failed
                or self._breaker_open(owner)
                or self._slots[owner] == 0
            ):
                return task, False  # its owner is dead, distrusted or saturated
        return None, False
