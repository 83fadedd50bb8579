"""Fault injection: the behaviours real clusters exhibit between "up" and "down".

The storage stack's degraded-read and repair paths are only trustworthy
if they survive more than clean fail-stop crashes.  This package models
the rest of the failure spectrum — transient read errors, latency spikes,
slow disks, gray up-but-slow servers, silent corruption — as seeded,
composable components (:mod:`repro.faults.model`), provides the virtual
clocks the retry/backoff machinery runs on (:mod:`repro.faults.clock`),
and generates whole chaos scenarios mixing crash traces with transient
faults (:mod:`repro.faults.schedule`).
"""

from repro.faults.clock import VirtualClock
from repro.faults.model import (
    CLEAN,
    FaultComponent,
    FaultDecision,
    FaultModel,
    FaultStats,
    GraySlowdown,
    LatencySpikes,
    SilentCorruption,
    TransientErrors,
)
from repro.faults.schedule import (
    ChaosRunner,
    ChaosSchedule,
    bound_concurrent_crashes,
    generate_schedule,
    generate_schedules,
)

__all__ = [
    "VirtualClock",
    "CLEAN",
    "FaultComponent",
    "FaultDecision",
    "FaultModel",
    "FaultStats",
    "GraySlowdown",
    "LatencySpikes",
    "SilentCorruption",
    "TransientErrors",
    "ChaosRunner",
    "ChaosSchedule",
    "bound_concurrent_crashes",
    "generate_schedule",
    "generate_schedules",
]
