"""Job, task and result models for the MapReduce runtime."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from statistics import mean
from typing import Any

from repro.mapreduce.records import LineRecordReader, RecordReader


@dataclass
class JobSpec:
    """A MapReduce job description.

    Attributes:
        name: job label.
        input_file: DFS file the job reads.
        mapper: ``record -> iterable of (key, value)``.
        reducer: ``(key, values) -> value``.
        record_reader: how split bytes become records.
        num_reducers: reduce-task fan-out.
        map_output_ratio: intermediate-to-input size ratio, used to size
            the shuffle when the job runs in simulated mode (terasort ~1.0,
            wordcount ~0.05).
    """

    name: str
    input_file: str
    mapper: Callable[[bytes], Iterable[tuple[Any, Any]]]
    reducer: Callable[[Any, list], Any]
    record_reader: RecordReader = field(default_factory=LineRecordReader)
    num_reducers: int = 4
    map_output_ratio: float = 1.0


@dataclass
class TaskRecord:
    """Execution record of one task, for reporting and assertions."""

    task_id: str
    kind: str  # "map" | "reduce"
    server: int
    start: float
    finish: float
    input_bytes: int
    local: bool = True

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class JobResult:
    """Timings and (optionally) real output of one job run.

    The paper's Fig. 9 reports the average completion time of map tasks,
    of reduce tasks, and of the whole job; Fig. 10 breaks average map time
    down by server class.  All three views are derivable from ``tasks``.
    """

    job: str
    tasks: list[TaskRecord]
    map_phase_time: float
    shuffle_time: float
    reduce_phase_time: float
    job_time: float
    output: dict | None = None
    #: Backup map attempts launched by speculative execution (wasted work).
    speculative_copies: int = 0

    def _durations(self, kind: str) -> list[float]:
        return [t.duration for t in self.tasks if t.kind == kind]

    @property
    def avg_map_time(self) -> float:
        d = self._durations("map")
        return mean(d) if d else 0.0

    @property
    def num_map_tasks(self) -> int:
        return sum(1 for t in self.tasks if t.kind == "map")

    def map_times_by_server(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = defaultdict(list)
        for t in self.tasks:
            if t.kind == "map":
                out[t.server].append(t.duration)
        return dict(out)

    def map_servers(self) -> set[int]:
        """Servers that ran at least one map task (the realized parallelism)."""
        return {t.server for t in self.tasks if t.kind == "map"}
