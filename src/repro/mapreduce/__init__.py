"""MapReduce runtime over encoded files (the Hadoop-prototype analog)."""

from repro.mapreduce.inputformat import DataBlockInputFormat, GalloperInputFormat, InputFormat, InputSplit
from repro.mapreduce.job import JobResult, JobSpec, TaskRecord
from repro.mapreduce.records import (
    FixedLengthRecordReader,
    LineRecordReader,
    RecordReader,
    WholeSplitReader,
)
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.scheduler import Assignment, LocalityScheduler, ScheduledTask, SchedulingError
from repro.mapreduce import workloads

__all__ = [
    "DataBlockInputFormat",
    "GalloperInputFormat",
    "InputFormat",
    "InputSplit",
    "JobResult",
    "JobSpec",
    "TaskRecord",
    "FixedLengthRecordReader",
    "LineRecordReader",
    "RecordReader",
    "WholeSplitReader",
    "MapReduceRuntime",
    "Assignment",
    "LocalityScheduler",
    "ScheduledTask",
    "SchedulingError",
    "workloads",
]
