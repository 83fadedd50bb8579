"""Which callables of ``repro`` the traced run wraps, and the layer each belongs to.

Layers are the repo's modules.  Every entry is ``(owner, attribute, layer)``;
an owner or attribute the code no longer has is skipped by the recorder and
listed as missing, never an error.  All targets are public, except three
underscore methods of ``DistributedFileSystem`` that ``StripedFileSystem``
calls across the layer boundary: unwrapped, their time would be booked to
``storage.striped``.
"""

from __future__ import annotations

import importlib

CODE_CLASSES = (
    ("repro.codes", "ReedSolomonCode"),
    ("repro.codes", "PyramidCode"),
    ("repro.core", "GalloperCode"),
)
CODE_METHODS = (
    "encode", "decode", "reconstruct", "compile_encode", "compile_decode",
    "compile_reconstruct", "repair_plan", "can_decode",
)


def _lookup(module: str, name: str | None):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return owner if name is None else getattr(owner, name, None)


def _methods(module: str, name: str | None, layer: str, *attrs: str):
    owner = _lookup(module, name)
    if owner is None:
        return [(None, f"{name or module}.{attr}", layer) for attr in attrs]
    return [(owner, attr, layer) for attr in attrs]


def _code_targets():
    """``ErasureCode``'s operations, on whichever class of each code's MRO defines them."""
    owners: dict[tuple[type, str], None] = {}
    for module, name in CODE_CLASSES:
        concrete = _lookup(module, name)
        for cls in concrete.__mro__ if concrete is not None else ():
            for attr in CODE_METHODS:
                if attr in vars(cls):
                    owners[(cls, attr)] = None
    return [(cls, attr, "codes") for cls, attr in owners]


def _shared_targets():
    return (
        _methods("repro.gf.kernels", "CodingPlan", "gf", "apply", "apply_batch")
        + _code_targets()
        + _methods(
            "repro.storage.blockstore", "BlockStore", "storage.blockstore",
            "put", "get", "read_rows", "timed_get", "timed_read_rows", "holds",
        )
        + _methods("repro.storage.resilient", "ResilientBlockClient", "storage.resilient", "get", "read_rows")
    )


def io_targets():
    """Layers on the write / read / degraded read / repair / extent paths."""
    return (
        _shared_targets()
        + _methods(
            "repro.storage.pipeline", None, "storage.pipeline",
            "batch_encode", "batch_decode", "batch_reconstruct",
        )
        + _methods(
            "repro.storage.filesystem", "DistributedFileSystem", "storage.filesystem",
            "write_file", "write_encoded", "read_file", "read_file_into", "read_stripes", "read_bytes",
            "file", "list_files", "stripe_holders",
            "_read_available_stripes", "_plan_decode_blocks", "_degraded_decode",
        )
        + _methods(
            "repro.storage.striped", "StripedFileSystem", "storage.striped",
            "write_file", "read_file", "read_bytes", "file",
        )
        + _methods(
            "repro.storage.repair", "RepairManager", "storage.repair",
            "repair_server", "repair_blocks_bulk", "repair_block",
        )
        + _methods("repro.storage.repair", "RepairAdmissionController", "storage.repair", "acquire", "inflight")
    )


def serve_targets():
    """Synchronous calls under the gateway's coroutines.

    ``LeaseTable`` lives in ``repro.storage.repair`` but on the serving path
    only ``TenantThrottle`` uses it, so it counts as ``serving.qos`` here.
    """
    return (
        _shared_targets()
        + _methods("repro.storage.metrics", "MetricsRegistry", "storage.metrics", "add", "observe", "set_gauge")
        + _methods("repro.serving.cache", "HotBlockCache", "serving.cache", "get", "offer")
        + _methods("repro.serving.coalesce", "RequestCoalescer", "serving.coalesce", "lease", "complete", "fail")
        + _methods("repro.serving.qos", "TenantThrottle", "serving.qos", "release", "cap", "inflight")
        + _methods(
            "repro.storage.repair", "LeaseTable", "serving.qos",
            "active", "count", "earliest", "grant", "release",
        )
        + _methods("repro.sim.engine", "Simulation", "sim.schedule", "schedule", "schedule_at")
    )
