"""Closed-loop workload generation for the serving benchmark.

Serving systems are evaluated under *skew*: real object stores see
Zipf-distributed key popularity, a diurnal load curve, and occasional
flash crowds where one key suddenly dominates.  This module drives a
:class:`~repro.serving.gateway.ServingGateway` with exactly that:

* **Zipf popularity** — per-request file choice by inverse-CDF sampling
  of ``p_i ∝ 1/rank^s`` (``s ≈ 1.1`` matches measured CDN/object-store
  traces; higher = hotter head).
* **Diurnal curve** — client think time is modulated by a sinusoid, so
  offered load breathes between trough and peak within one run.
* **Flash crowd** — inside a time window, a fraction of requests is
  redirected to one key regardless of rank, the cache-admission and
  coalescing stress case.

Clients are *closed-loop*: each waits for its response (plus think
time) before the next request, so overload shows up as rising latency
rather than an unbounded queue.  All randomness is pre-generated from
one numpy seed — runs are deterministic, and sampling 10^5–10^6 request
choices is a handful of vectorized draws instead of per-request RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import nearest_rank
from repro.serving.gateway import ServingError, ServingGateway
from repro.sim.aio import SimLoop


@dataclass(frozen=True)
class FlashCrowd:
    """A sudden hot key: within the window, requests defect to it."""

    start: float
    end: float
    key_index: int = 0
    fraction: float = 0.8


@dataclass(frozen=True)
class WorkloadSpec:
    """One serving scenario.

    Attributes:
        tenants: tenant names, assigned to clients round-robin.
        files_per_tenant: catalog size behind each tenant.
        clients: concurrent closed-loop clients.
        requests_per_client: reads each client issues before exiting.
        read_size: bytes per read (offsets are uniform within a file).
        file_size: original bytes per file (for offset sampling).
        zipf_s: Zipf exponent of file popularity (0 = uniform).
        think_time: mean seconds between a response and the next request.
        diurnal_amplitude: think-time modulation depth in [0, 1); 0
            disables the curve.
        diurnal_period: seconds per diurnal cycle.
        flash_crowd: optional hot-key episode.
        seed: numpy seed for all request choices.
    """

    tenants: tuple[str, ...] = ("alpha", "beta")
    files_per_tenant: int = 16
    clients: int = 1000
    requests_per_client: int = 3
    read_size: int = 4096
    file_size: int = 65536
    zipf_s: float = 1.1
    think_time: float = 0.05
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 60.0
    flash_crowd: FlashCrowd | None = None
    seed: int = 0

    def key(self, index: int) -> str:
        return f"f{index:04d}"


@dataclass
class WorkloadResult:
    """Raw outcomes of one run (latencies in sim seconds).

    Latencies are kept as a plain list — the metrics registry's
    histograms cap their sample reservoirs, and tail percentiles over
    10^5+ requests must be exact.
    """

    latencies: list[float] = field(default_factory=list)
    failures: int = 0
    completed_clients: int = 0
    duration: float = 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over all request latencies."""
        if not self.latencies:
            return 0.0
        return sorted(self.latencies)[nearest_rank(len(self.latencies), q) - 1]

    def availability(self) -> float:
        total = len(self.latencies) + self.failures
        return len(self.latencies) / total if total else 1.0


def _zipf_choices(rng: np.random.Generator, n_items: int, s: float, count: int) -> np.ndarray:
    """``count`` item indices with ``p_i ∝ 1/(i+1)^s`` (rank 0 hottest)."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    pmf = ranks ** -s if s > 0 else np.ones(n_items)
    cdf = np.cumsum(pmf / pmf.sum())
    return np.searchsorted(cdf, rng.random(count), side="right").clip(0, n_items - 1)


class WorkloadGenerator:
    """Pre-generated request plans plus the client coroutines."""

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        rng = np.random.default_rng(spec.seed)
        total = spec.clients * spec.requests_per_client
        self._files = _zipf_choices(rng, spec.files_per_tenant, spec.zipf_s, total)
        max_offset = max(1, spec.file_size - spec.read_size)
        self._offsets = rng.integers(0, max_offset, size=total)
        # Exponential think times (closed-loop Poisson-ish arrivals),
        # pre-drawn; the diurnal curve scales them at request time.
        self._thinks = rng.exponential(spec.think_time, size=total) if spec.think_time > 0 else np.zeros(total)
        # One uniform draw per request decides flash-crowd defection.
        self._defects = rng.random(total)
        # Staggered start offsets so 10^5 clients do not arrive at t=0
        # in one burst.
        self._starts = rng.random(spec.clients) * max(spec.think_time, 1e-3)

    def _think_scale(self, now: float) -> float:
        amp = self.spec.diurnal_amplitude
        if amp <= 0:
            return 1.0
        # Load peaks mid-cycle: think time shrinks when the sinusoid is
        # high, stretching at the trough.
        load = 1.0 + amp * np.sin(2 * np.pi * now / self.spec.diurnal_period)
        return 1.0 / max(load, 1e-6)

    def _request(self, index: int, now: float) -> tuple[str, int]:
        """``(file key, offset)`` of request ``index`` issued at ``now``."""
        spec = self.spec
        file_index = int(self._files[index])
        crowd = spec.flash_crowd
        if (
            crowd is not None
            and crowd.start <= now < crowd.end
            and self._defects[index] < crowd.fraction
        ):
            file_index = crowd.key_index
        return spec.key(file_index), int(self._offsets[index])

    async def _client(self, gateway: ServingGateway, client_id: int, result: WorkloadResult):
        spec = self.spec
        loop = gateway.loop
        tenant = spec.tenants[client_id % len(spec.tenants)]
        await loop.sleep(float(self._starts[client_id]))
        for r in range(spec.requests_per_client):
            index = client_id * spec.requests_per_client + r
            think = float(self._thinks[index]) * self._think_scale(loop.now)
            if think > 0:
                await loop.sleep(think)
            key, offset = self._request(index, loop.now)
            t0 = loop.now
            try:
                await gateway.read(tenant, key, offset, spec.read_size)
            except ServingError:
                result.failures += 1
                continue
            result.latencies.append(loop.now - t0)
        result.completed_clients += 1

    def run(self, gateway: ServingGateway) -> WorkloadResult:
        """Drive the full client population to completion (sim time)."""
        result = WorkloadResult()
        loop: SimLoop = gateway.loop
        tasks = [
            loop.create_task(self._client(gateway, c, result), name=f"client:{c}")
            for c in range(self.spec.clients)
        ]
        loop.run()
        pending = [t for t in tasks if not t.done()]
        if pending:
            raise RuntimeError(f"{len(pending)} clients deadlocked (first: {pending[0].name})")
        failed = [t for t in tasks if t.exception() is not None]
        if failed:
            raise failed[0].exception()
        result.duration = loop.now
        return result


def populate(
    gateway: ServingGateway, spec: WorkloadSpec, make_code, seed: int = 1234, placement=None
) -> None:
    """Write every tenant's catalog through the gateway.

    ``make_code()`` is called once per file, but the filesystem keeps one
    code object per parameter set: files whose codes have equal
    generators and layouts share the first one written, and its compiled
    plans.  What is per file is the placement and the stripe size.
    Payloads are deterministic per (tenant, file) so correctness checks
    can regenerate expected bytes.  Pass a *shared* placement policy
    instance (e.g. a seeded
    :class:`~repro.cluster.placement.RandomPlacement`) to scatter files
    across a cluster wider than one code's ``n``.
    """
    for t, tenant in enumerate(spec.tenants):
        for i in range(spec.files_per_tenant):
            payload = file_payload(tenant, i, spec.file_size, seed)
            gateway.put(tenant, spec.key(i), payload, code=make_code(), placement=placement)


def file_payload(tenant: str, index: int, size: int, seed: int = 1234) -> bytes:
    """The deterministic content of one catalog file."""
    mix = (hash_str(tenant) * 1000003 + index) ^ seed
    rng = np.random.default_rng(mix & 0x7FFFFFFF)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def hash_str(s: str) -> int:
    """A stable (non-randomized) string hash for payload seeding."""
    h = 2166136261
    for ch in s.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h
