"""Composable fault model for the storage layer.

Real clusters rarely fail cleanly: disks return transient I/O errors,
reads stall on overloaded spindles, bits rot silently, and "gray" servers
stay up while serving every request slowly.  The components below each
model one such behaviour; a :class:`FaultModel` composes any number of
them and is installed on a :class:`~repro.storage.blockstore.BlockStore`
via its ``fault_model`` hook.  Every read then asks the model for a
:class:`FaultDecision` — sampled from a seeded RNG, so identical seeds
reproduce identical fault sequences — and the block store turns the
decision into raised errors, added latency, or corrupted payloads.

Components accept optional ``servers`` scopes and ``start``/``until``
time windows, letting a schedule express "server 3 is gray between
t=2 and t=10" or "rack-wide flakiness for the first five seconds".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FaultDecision:
    """What a fault model decided for one read.

    Attributes:
        error: raise a transient read error instead of returning data.
        corrupt: silently flip bits in the returned payload (the stored
            copy stays intact — this models a bad transfer, not rot).
        extra_latency: seconds added on top of the disk's base latency.
    """

    error: bool = False
    corrupt: bool = False
    extra_latency: float = 0.0

    def merge(self, other: "FaultDecision") -> "FaultDecision":
        return FaultDecision(
            error=self.error or other.error,
            corrupt=self.corrupt or other.corrupt,
            extra_latency=self.extra_latency + other.extra_latency,
        )


#: The no-fault decision, shared to avoid churn on the clean path.
CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultComponent:
    """Base for one fault behaviour.

    Attributes:
        servers: server ids the component applies to (``None`` = all).
        start: simulated time the behaviour switches on.
        until: simulated time it switches off (``None`` = forever).
    """

    servers: frozenset[int] | None = None
    start: float = 0.0
    until: float | None = None

    def applies(self, server_id: int, now: float) -> bool:
        if self.servers is not None and server_id not in self.servers:
            return False
        if now < self.start:
            return False
        return self.until is None or now < self.until

    def sample(self, rng: random.Random, server_id: int, nbytes: int, now: float) -> FaultDecision:
        raise NotImplementedError


def _scope(servers) -> frozenset[int] | None:
    return None if servers is None else frozenset(servers)


@dataclass(frozen=True)
class TransientErrors(FaultComponent):
    """Reads fail with probability ``rate`` (retryable I/O errors)."""

    rate: float = 0.0

    def sample(self, rng, server_id, nbytes, now):
        if self.rate and rng.random() < self.rate:
            return FaultDecision(error=True)
        return CLEAN


@dataclass(frozen=True)
class LatencySpikes(FaultComponent):
    """Occasional slow reads: probability ``rate`` of adding ``latency``."""

    rate: float = 0.0
    latency: float = 0.05

    def sample(self, rng, server_id, nbytes, now):
        if self.rate and rng.random() < self.rate:
            return FaultDecision(extra_latency=self.latency)
        return CLEAN


@dataclass(frozen=True)
class GraySlowdown(FaultComponent):
    """An up-but-slow server: every read pays ``extra_latency`` seconds.

    This is the gray failure that health checks miss — the server answers
    every probe, just slowly enough to drag whole stripes down with it.
    """

    extra_latency: float = 0.05

    def sample(self, rng, server_id, nbytes, now):
        return FaultDecision(extra_latency=self.extra_latency)


@dataclass(frozen=True)
class SilentCorruption(FaultComponent):
    """Returned payloads are corrupted with probability ``rate``.

    The stored block is untouched; a retry reads clean data.  Detection is
    the read path's job (checksum verification in the resilient client).
    """

    rate: float = 0.0

    def sample(self, rng, server_id, nbytes, now):
        if self.rate and rng.random() < self.rate:
            return FaultDecision(corrupt=True)
        return CLEAN


class FaultModel:
    """A seeded composition of fault components.

    Args:
        components: any number of :class:`FaultComponent` instances.
        seed: RNG seed; the sampled fault sequence is a pure function of
            ``(seed, read order)``, which the chaos campaign relies on.
    """

    def __init__(self, *components: FaultComponent, seed: int = 0):
        self.components: tuple[FaultComponent, ...] = tuple(components)
        self.seed = seed
        self._rng = random.Random(seed)
        self.decisions = 0
        self.injected_errors = 0
        self.injected_corruptions = 0
        self.injected_latency = 0.0

    def on_read(self, server_id: int, nbytes: int, now: float = 0.0) -> FaultDecision:
        """Sample the composite decision for one read."""
        self.decisions += 1
        decision = CLEAN
        for comp in self.components:
            if comp.applies(server_id, now):
                decision = decision.merge(comp.sample(self._rng, server_id, nbytes, now))
        if decision.error:
            self.injected_errors += 1
        if decision.corrupt:
            self.injected_corruptions += 1
        self.injected_latency += decision.extra_latency
        return decision

    def describe(self) -> dict:
        """Summary of the configuration and what has been injected so far."""
        return {
            "seed": self.seed,
            "components": [type(c).__name__ for c in self.components],
            "decisions": self.decisions,
            "injected_errors": self.injected_errors,
            "injected_corruptions": self.injected_corruptions,
            "injected_latency": self.injected_latency,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(type(c).__name__ for c in self.components)
        return f"FaultModel([{names}], seed={self.seed})"


@dataclass
class FaultStats:
    """Mutable tally used by campaign code when aggregating many models."""

    decisions: int = 0
    errors: int = 0
    corruptions: int = 0
    latency: float = 0.0
    models: int = 0
    extra: dict = field(default_factory=dict)

    def absorb(self, model: FaultModel) -> None:
        self.models += 1
        self.decisions += model.decisions
        self.errors += model.injected_errors
        self.corruptions += model.injected_corruptions
        self.latency += model.injected_latency
