"""Reliability and availability analysis of erasure codes.

Turns the codes' combinatorial structure (which erasure patterns decode,
how many blocks a repair reads) into operational numbers: MTTDL,
durability nines, annual repair traffic, and read-availability under
transient server failures.
"""

from repro.analysis.availability import AvailabilityReport, availability
from repro.analysis.failures import SurvivalProfile, pattern_census, survival_profile
from repro.analysis.reliability import (
    HOURS_PER_YEAR,
    ReliabilityParameters,
    annual_loss_probability,
    annual_repair_traffic_bytes,
    average_repair_reads,
    durability_nines,
    mttdl_hours,
    mttdl_years,
)

__all__ = [
    "AvailabilityReport",
    "availability",
    "SurvivalProfile",
    "pattern_census",
    "survival_profile",
    "HOURS_PER_YEAR",
    "ReliabilityParameters",
    "annual_loss_probability",
    "annual_repair_traffic_bytes",
    "average_repair_reads",
    "durability_nines",
    "mttdl_hours",
    "mttdl_years",
]
