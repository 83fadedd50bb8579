"""The MapReduce runtime: the reproduction's Hadoop stand-in.

``run`` executes a :class:`~repro.mapreduce.job.JobSpec` over an encoded
DFS file in two coupled dimensions:

* **Simulated time** — map tasks are scheduled locality-first onto server
  slots by :class:`~repro.mapreduce.scheduler.LocalityScheduler`; task
  durations follow a throughput model (disk scan + compute scaled by the
  server's ``cpu_speed``, plus a network read for non-local tasks).  The
  shuffle and reduce phases follow.  These timings produce Figs. 9/10.
* **Real execution** (``execute=True``) — mappers and reducers actually
  run over the bytes read from the encoded blocks, so the tests can
  assert that a job over a Galloper-coded file computes *exactly* the
  same answer as over the plaintext, degraded reads included.

The cost model's constants are deliberately simple: what the paper's
experiment measures is how original data volume per server drives map
time, and that is carried entirely by the split sizes and cpu speeds.
"""

from __future__ import annotations

import zlib
from collections import defaultdict

from repro.cluster.server import MB
from repro.mapreduce.inputformat import InputFormat, InputSplit
from repro.mapreduce.job import JobResult, JobSpec, TaskRecord
from repro.mapreduce.scheduler import LocalityScheduler, ScheduledTask
from repro.obs.trace import get_tracer
from repro.sim.engine import Simulation
from repro.storage.filesystem import DistributedFileSystem


#: Throughput constants of the timing model (bytes/second, seconds).
MAP_RATE = 10 * MB  # mapper processing rate per slot at cpu 1.0
REDUCE_RATE = 20 * MB  # reducer processing rate at cpu 1.0
TASK_OVERHEAD = 1.0  # JVM-ish startup cost per task
SHUFFLE_PARALLELISM = 1.0  # effective concurrent fetch streams


class MapReduceRuntime:
    """Runs jobs over one DFS."""

    def __init__(self, dfs: DistributedFileSystem, execute: bool = True, speculative: bool = False):
        self.dfs = dfs
        self.cluster = dfs.cluster
        self.execute = execute
        self.speculative = speculative

    # ---------------------------------------------------------------- phases

    def run(self, spec: JobSpec, input_format: InputFormat) -> JobResult:
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span("mr.job", category="mapreduce", job=spec.name) as sp:
                result = self._run(spec, input_format)
                sp.set(tasks=len(result.tasks), job_time=result.job_time)
                self._emit_task_timeline(tracer, result)
                return result
        return self._run(spec, input_format)

    def _emit_task_timeline(self, tracer, result: JobResult) -> None:
        """Replay the finished job's task records onto sim-time tracks.

        One trace row per server, so a Fig. 9-style run opens in Perfetto
        as the cluster Gantt chart the paper draws by hand.
        """
        for rec in result.tasks:
            tracer.sim_span(
                rec.task_id,
                category=f"mapreduce.{rec.kind}",
                start=rec.start,
                end=rec.finish,
                track=rec.server,
                track_name=f"server {rec.server}",
                input_bytes=rec.input_bytes,
                local=rec.local,
            )
        if result.shuffle_time:
            tracer.sim_span(
                "shuffle",
                category="mapreduce.shuffle",
                start=result.map_phase_time,
                end=result.map_phase_time + result.shuffle_time,
                track=-1,
                track_name="shuffle",
            )

    def _run(self, spec: JobSpec, input_format: InputFormat) -> JobResult:
        splits = input_format.splits(self.dfs, spec.input_file)
        if not splits:
            raise ValueError(f"job {spec.name!r}: no input splits for {spec.input_file!r}")
        sim = Simulation()

        # ------------------------------------------------------- map phase
        partitions: list[dict] = [defaultdict(list) for _ in range(spec.num_reducers)]
        shuffle_bytes = [0.0] * spec.num_reducers

        if self.execute:
            for split in splits:
                self._execute_map(spec, split, partitions, shuffle_bytes)
        else:
            for i, split in enumerate(splits):
                for r in range(spec.num_reducers):
                    shuffle_bytes[r] += split.length * spec.map_output_ratio / spec.num_reducers

        tasks = [
            ScheduledTask(
                task_id=f"map-{i}",
                preferred_server=split.server,
                input_bytes=split.length,
                duration_fn=self._map_duration_fn(split),
            )
            for i, split in enumerate(splits)
        ]
        scheduler = LocalityScheduler(
            sim,
            self.cluster,
            self.speculative,
            health=getattr(self.dfs, "health", None),
            metrics=getattr(self.dfs, "metrics", None),
        )
        scheduler.run_phase(tasks)
        # With speculative execution a task may run twice; only the
        # winning attempt defines its completion (and its TaskRecord).
        winners = scheduler.effective_assignments()
        map_end = max(a.finish for a in winners.values())

        records = [
            TaskRecord(
                task_id=a.task.task_id,
                kind="map",
                server=a.server,
                start=a.start,
                finish=a.finish,
                input_bytes=a.task.input_bytes,
                local=a.local,
            )
            for a in winners.values()
        ]

        # ----------------------------------------------------- shuffle phase
        # Reducers go to the fastest alive servers, round-robin.
        reducer_servers = self._reducer_servers(spec.num_reducers)
        shuffle_times = []
        for r in range(spec.num_reducers):
            srv = self.cluster.server(reducer_servers[r])
            shuffle_times.append(
                shuffle_bytes[r] / (srv.network_bandwidth * SHUFFLE_PARALLELISM)
            )
        shuffle_time = max(shuffle_times, default=0.0)
        shuffle_end = map_end + shuffle_time

        # ------------------------------------------------------ reduce phase
        output: dict | None = {} if self.execute else None
        reduce_finish = shuffle_end
        for r in range(spec.num_reducers):
            srv = self.cluster.server(reducer_servers[r])
            dur = TASK_OVERHEAD + shuffle_bytes[r] / (REDUCE_RATE * srv.cpu_speed)
            records.append(
                TaskRecord(
                    task_id=f"reduce-{r}",
                    kind="reduce",
                    server=srv.server_id,
                    start=shuffle_end,
                    finish=shuffle_end + dur,
                    input_bytes=int(shuffle_bytes[r]),
                )
            )
            reduce_finish = max(reduce_finish, shuffle_end + dur)
            if self.execute:
                for key, values in partitions[r].items():
                    output[key] = spec.reducer(key, values)

        return JobResult(
            job=spec.name,
            tasks=records,
            map_phase_time=map_end,
            shuffle_time=shuffle_time,
            reduce_phase_time=reduce_finish - shuffle_end,
            job_time=reduce_finish,
            output=output,
            speculative_copies=scheduler.speculative_copies,
        )

    # -------------------------------------------------------------- helpers

    def _map_duration_fn(self, split: InputSplit):
        def duration(server_id: int, local: bool) -> float:
            srv = self.cluster.server(server_id)
            t = TASK_OVERHEAD + split.length / (MAP_RATE * srv.cpu_speed)
            if not local:
                # Non-local task: the split is fetched over the network first.
                t += split.length / srv.network_bandwidth
            return t

        return duration

    def _reducer_servers(self, num: int) -> list[int]:
        alive = sorted(self.cluster.alive(), key=lambda s: (-s.cpu_speed, s.server_id))
        if not alive:
            raise RuntimeError("no alive servers to run reducers")
        return [alive[i % len(alive)].server_id for i in range(num)]

    def _execute_map(self, spec: JobSpec, split: InputSplit, partitions, shuffle_bytes) -> tuple[int, int]:
        """Actually run the mapper over a split's records.

        Returns ``(records_read, pairs_emitted)``.
        """
        nrec = 0
        npairs = 0
        for record in spec.record_reader.records(self.dfs, spec.input_file, split.start, split.end):
            nrec += 1
            for key, value in spec.mapper(record):
                npairs += 1
                r = _partition(key, spec.num_reducers)
                partitions[r][key].append(value)
                shuffle_bytes[r] += _kv_size(key, value)
        return nrec, npairs


def _partition(key, num_reducers: int) -> int:
    """Deterministic hash partitioner (Python's builtin hash is salted)."""
    data = key if isinstance(key, bytes) else str(key).encode()
    return zlib.crc32(data) % num_reducers


def _kv_size(key, value) -> int:
    """Approximate serialized size of one intermediate pair."""
    klen = len(key) if isinstance(key, (bytes, str)) else 8
    vlen = len(value) if isinstance(value, (bytes, str)) else 8
    return klen + vlen + 4
