"""Distributed storage system: block stores, DFS namespace, repair, resilience."""

from repro.storage import pipeline
from repro.storage.blockstore import BlockStore, BlockUnavailableError, StorageError, TransientReadError
from repro.storage.filesystem import DistributedFileSystem, EncodedFile, FileSystemError
from repro.storage.health import CLOSED, HALF_OPEN, OPEN, HealthMonitor, ServerHealth
from repro.storage.metrics import Counter, MetricsRegistry
from repro.storage.repair import (
    LeaseTable,
    RepairAdmissionController,
    RepairManager,
    RepairReport,
    ServerRepairReport,
)
from repro.storage.resilient import ResilientBlockClient
from repro.storage.scrub import ScrubReport, Scrubber
from repro.storage.striped import StripedFileMeta, StripedFileSystem, StripedInputFormat

__all__ = [
    "pipeline",
    "BlockStore",
    "BlockUnavailableError",
    "StorageError",
    "TransientReadError",
    "DistributedFileSystem",
    "EncodedFile",
    "FileSystemError",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "HealthMonitor",
    "ServerHealth",
    "Counter",
    "MetricsRegistry",
    "LeaseTable",
    "RepairAdmissionController",
    "RepairManager",
    "RepairReport",
    "ServerRepairReport",
    "ResilientBlockClient",
    "ScrubReport",
    "Scrubber",
    "StripedFileMeta",
    "StripedFileSystem",
    "StripedInputFormat",
]
