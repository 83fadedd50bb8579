"""Kernel profiling hooks: per-kernel wall time and bytes processed.

The GF coding kernels (:mod:`repro.gf.kernels`) are the arithmetic floor
of every encode/decode/reconstruct; this aggregator answers *which
kernel burned the time and at what throughput* without a trace viewer.
:meth:`CodingPlan.apply <repro.gf.kernels.CodingPlan.apply>` records one
entry per apply — kernel kind (``copy`` / ``packed-full`` /
``packed-split`` / ``xor`` for the XOR-schedule tier / ``native`` /
``native-xor`` for the generated-C tier / ``direct-small``), elapsed
seconds, and bytes touched (payload + output) — whenever the profiler
is enabled.

Disabled (the default), the hot path pays a single attribute check.
``repro metrics`` enables it around a seeded workload and dumps the
aggregate; tests use :func:`profiled` for scoped capture.
"""

from __future__ import annotations

from contextlib import contextmanager

MB = float(1 << 20)


class KernelProfiler:
    """Aggregates (calls, seconds, bytes) per kernel kind."""

    def __init__(self):
        self.enabled = False
        self._stats: dict[str, list] = {}

    def record(self, kernel: str, seconds: float, nbytes: int) -> None:
        entry = self._stats.get(kernel)
        if entry is None:
            entry = self._stats[kernel] = [0, 0.0, 0]
        entry[0] += 1
        entry[1] += seconds
        entry[2] += nbytes

    def reset(self) -> None:
        self._stats.clear()

    def snapshot(self) -> dict:
        """Per-kernel totals plus derived throughput, sorted by name."""
        out = {}
        for kernel in sorted(self._stats):
            calls, seconds, nbytes = self._stats[kernel]
            out[kernel] = {
                "calls": calls,
                "seconds": seconds,
                "bytes": nbytes,
                "mb_per_s": (nbytes / MB / seconds) if seconds > 0 else 0.0,
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KernelProfiler(enabled={self.enabled}, kernels={sorted(self._stats)})"


_PROFILER = KernelProfiler()


def get_profiler() -> KernelProfiler:
    """The process-wide kernel profiler (disabled by default)."""
    return _PROFILER


@contextmanager
def profiled():
    """Enable the profiler for a block, from zero; restores the previous
    enabled state after.

    Yields the profiler so callers can snapshot inside or after the block.
    """
    prev = _PROFILER.enabled
    _PROFILER.reset()
    _PROFILER.enabled = True
    try:
        yield _PROFILER
    finally:
        _PROFILER.enabled = prev
