"""Years-scale durability simulation with correlated failure domains.

The analytic Markov chain in :mod:`repro.analysis.reliability` answers
"how durable is one stripe under independent exponential failures with
one repair crew".  Operators ask a harder question: how many nines does
a *code + placement* give over a decade on a real cluster, where

* disks follow Weibull lifetimes (infant mortality / wear-out),
* whole racks fail together (power events destroy correlated groups),
* latent sector errors corrupt blocks silently until a scrub or a
  repair read touches them, and
* repair storms after a rack loss queue behind per-server admission
  caps, so the window of vulnerability depends on repair *bandwidth*,
  not just repair *volume*.

This module simulates exactly that, event-driven on the shared
:class:`~repro.sim.engine.Simulation` heap (time unit: **hours**), and
reuses the storage layer's
:class:`~repro.storage.repair.RepairAdmissionController` so repairs and
scrub scans compete for the same per-server tokens: each asks for its
leases at its event's instant and is scheduled to finish a duration
after the grant the controller computes.  Stripes are tracked
combinatorially — block states, not payload bytes — so multi-decade
campaigns with thousands of failure events run in seconds while
preserving the code's exact decodability via
:meth:`~repro.codes.base.ErasureCode.can_decode`.

Loss semantics are *factual*: a stripe is lost the instant the blocks
that are neither destroyed nor latently corrupt stop being decodable,
whether or not anything has noticed yet.  Detection timing still
matters — scrubs heal latent errors and repairs close failure windows,
so the scrub interval and admission caps move the measured MTTDL.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.reliability import HOURS_PER_YEAR
from repro.cluster.placement import PlacementPolicy
from repro.cluster.topology import Cluster
from repro.codes.base import DecodingError, ErasureCode, RepairPlan
from repro.reliability.lifetime import LifetimeModel
from repro.sim.engine import Simulation
from repro.storage.metrics import MetricsRegistry
from repro.storage.repair import RepairAdmissionController

__all__ = ["ReliabilityConfig", "ReliabilityResult", "simulate_reliability"]

SECONDS_PER_HOUR = 3600.0

#: Bytes/second a scrub scan reads per server (sequential local reads —
#: faster than repair's cross-server traffic).
SCRUB_BANDWIDTH = 200 << 20

#: Admission-controller token cap: the per-server bound on concurrent
#: repair/scrub leases.
MAX_INFLIGHT_PER_SERVER = 4


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of one long-horizon reliability run.

    Attributes:
        horizon_years: simulated duration per trial.
        disk_lifetime: time-to-failure distribution of a server's disk;
            resampled on every replacement (renewal process).
        replacement_hours: lead time before a dead disk's replacement is
            installed; rebuilt blocks are written back to the same server
            slot, so placement-policy invariants (copyset membership,
            rack spread) hold for the whole campaign.
        rack_mtbf_hours: per-rack mean time between correlated rack
            events (power/switch domain); ``None`` disables them.
        rack_downtime_hours: how long a failed rack stays dark.
        rack_kill_fraction: probability that a rack event destroys each
            disk in the rack (power surge) rather than just unplugging
            it; this is what makes rack events *correlated data loss*,
            not merely unavailability.
        lse_rate_per_block_hour: Poisson rate of latent sector errors per
            block; a latent block silently holds garbage until a scrub
            scan or a repair read discovers it.
        scrub_interval_hours: period of the scrubbing schedule; ``None``
            disables scrubbing (latent errors then only surface via
            repair reads).
        block_size_bytes: size of one coded block.
        repair_bandwidth: bytes/second one repair stream moves.
        max_concurrent_repairs: optional cluster-wide repair concurrency
            cap.  Set to 1 to mimic the analytic model's single repair
            crew when cross-validating against ``mttdl_hours``.
    """

    horizon_years: float = 10.0
    disk_lifetime: LifetimeModel = None  # type: ignore[assignment]
    replacement_hours: float = 24.0
    rack_mtbf_hours: float | None = None
    rack_downtime_hours: float = 8.0
    rack_kill_fraction: float = 0.0
    lse_rate_per_block_hour: float = 0.0
    scrub_interval_hours: float | None = None
    block_size_bytes: int = 256 << 20
    repair_bandwidth: float = 50 << 20
    max_concurrent_repairs: int | None = None

    def __post_init__(self):
        if self.disk_lifetime is None:
            raise ValueError("disk_lifetime model is required")
        if not 0.0 <= self.rack_kill_fraction <= 1.0:
            raise ValueError("rack_kill_fraction must be in [0, 1]")
        if self.horizon_years <= 0:
            raise ValueError("horizon_years must be positive")
        if self.replacement_hours < 0:
            raise ValueError("replacement_hours must be non-negative")
        if self.block_size_bytes <= 0:
            raise ValueError("block_size_bytes must be positive")
        if self.repair_bandwidth <= 0:
            raise ValueError("repair_bandwidth must be positive")
        if self.rack_mtbf_hours is not None and self.rack_mtbf_hours <= 0:
            raise ValueError("rack_mtbf_hours must be positive")
        if self.rack_downtime_hours < 0:
            raise ValueError("rack_downtime_hours must be non-negative")
        if self.lse_rate_per_block_hour < 0:
            raise ValueError("lse_rate_per_block_hour must be non-negative")
        if self.scrub_interval_hours is not None and self.scrub_interval_hours <= 0:
            raise ValueError("scrub_interval_hours must be positive")
        if self.max_concurrent_repairs is not None and self.max_concurrent_repairs < 1:
            raise ValueError("max_concurrent_repairs must be at least 1")


@dataclass
class ReliabilityResult:
    """Aggregated outcome of a multi-trial reliability simulation.

    Counts accumulate over ``trials`` independent cluster lifetimes of
    ``stripes`` stripes each; the headline estimators (MTTDL, annual
    loss rate, nines) are the standard censored-data forms over total
    stripe-hours.
    """

    code: str
    trials: int
    stripes: int
    horizon_hours: float
    losses: int = 0
    loss_times: list[float] = field(default_factory=list)
    trials_with_loss: int = 0
    stripe_hours: float = 0.0
    degraded_stripe_hours: float = 0.0
    disk_failures: int = 0
    rack_events: int = 0
    racked_disks_killed: int = 0
    repairs_completed: int = 0
    repairs_requeued: int = 0
    repair_bytes_read: float = 0.0
    lse_injected: int = 0
    lse_detected_scrub: int = 0
    lse_detected_repair: int = 0
    scrub_scans: int = 0
    max_repair_queue_depth: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def loss_fraction(self) -> float:
        """Fraction of simulated stripe lifetimes that lost data."""
        total = self.trials * self.stripes
        return self.losses / total if total else 0.0

    @property
    def mttdl_hours(self) -> float:
        """Censored MTTDL estimate: survived stripe-hours per loss."""
        return self.stripe_hours / self.losses if self.losses else float("inf")

    @property
    def annual_loss_rate(self) -> float:
        """Stripe losses per stripe-year (the rate behind the nines)."""
        if not self.stripe_hours:
            return 0.0
        return self.losses * HOURS_PER_YEAR / self.stripe_hours

    @property
    def nines(self) -> float:
        """Nines of one-year durability: ``-log10 P(loss within a year)``.

        With zero observed losses this is the *detection floor* — the
        nines implied by at most one loss over the simulated exposure —
        so configurations remain comparable (and honest) instead of
        reporting infinity.  Check :attr:`losses` before quoting.
        """
        if not self.stripe_hours:
            return 0.0
        rate = max(self.losses, 1) * HOURS_PER_YEAR / self.stripe_hours
        return -math.log10(-math.expm1(-rate))

    @property
    def bytes_read_per_repair(self) -> float:
        """Mean helper bytes read per completed block rebuild."""
        if not self.repairs_completed:
            return 0.0
        return self.repair_bytes_read / self.repairs_completed

    def summary(self) -> dict:
        """JSON-friendly record for campaign output files."""
        return {
            "code": self.code,
            "trials": self.trials,
            "stripes": self.stripes,
            "horizon_hours": self.horizon_hours,
            "losses": self.losses,
            "loss_fraction": self.loss_fraction,
            "mttdl_hours": self.mttdl_hours if self.losses else None,
            "annual_loss_rate": self.annual_loss_rate,
            "nines": self.nines,
            "stripe_hours": self.stripe_hours,
            "degraded_stripe_hours": self.degraded_stripe_hours,
            "disk_failures": self.disk_failures,
            "rack_events": self.rack_events,
            "racked_disks_killed": self.racked_disks_killed,
            "repairs_completed": self.repairs_completed,
            "repairs_requeued": self.repairs_requeued,
            "repair_bytes_read": self.repair_bytes_read,
            "bytes_read_per_repair": self.bytes_read_per_repair,
            "lse_injected": self.lse_injected,
            "lse_detected_scrub": self.lse_detected_scrub,
            "lse_detected_repair": self.lse_detected_repair,
            "scrub_scans": self.scrub_scans,
            "max_repair_queue_depth": self.max_repair_queue_depth,
        }


@dataclass
class _ServerState:
    rack: int
    disk_ok: bool = True
    rack_down: bool = False
    #: Bumped on every disk death; a repair that started against an
    #: older epoch discovers at completion that its target died again.
    epoch: int = 0

    @property
    def available(self) -> bool:
        return self.disk_ok and not self.rack_down


@dataclass
class _StripeState:
    index: int
    placement: tuple[int, ...]
    #: Blocks whose bytes are destroyed (dead disk, or detected-latent
    #: copies dropped for rebuild) and not yet reconstructed.
    missing: set[int] = field(default_factory=set)
    #: Blocks silently corrupt on an otherwise healthy disk.
    latent: set[int] = field(default_factory=set)
    #: Blocks with a queued or in-flight repair (dedup guard).
    repairing: set[int] = field(default_factory=set)
    lost_at: float | None = None
    degraded_since: float | None = None
    degraded_hours: float = 0.0

    @property
    def lost(self) -> bool:
        return self.lost_at is not None


class _Trial:
    """One simulated cluster lifetime; accumulates into a shared result."""

    def __init__(
        self,
        code: ErasureCode,
        cluster: Cluster,
        placement: PlacementPolicy,
        config: ReliabilityConfig,
        stripes: int,
        rng: random.Random,
        result: ReliabilityResult,
        metrics: MetricsRegistry,
        decode_memo: dict,
        plan_memo: dict,
    ):
        self.code = code
        self.cfg = config
        self.rng = rng
        self.result = result
        self.metrics = metrics
        self._decode_memo = decode_memo
        self._plan_memo = plan_memo

        self.sim = Simulation()
        self.horizon = config.horizon_years * HOURS_PER_YEAR
        # The controller thinks in seconds; it is asked at the event's instant.
        self.controller = RepairAdmissionController(MAX_INFLIGHT_PER_SERVER, metrics=metrics)
        self.block_read_seconds = config.block_size_bytes / config.repair_bandwidth

        self.servers: dict[int, _ServerState] = {
            s.server_id: _ServerState(rack=s.rack) for s in cluster
        }
        self.racks: dict[int, list[int]] = {}
        for sid, st in self.servers.items():
            self.racks.setdefault(st.rack, []).append(sid)

        self.stripes = [
            _StripeState(index=i, placement=tuple(placement.place(cluster, code.n)))
            for i in range(stripes)
        ]
        self.by_server: dict[int, list[tuple[int, int]]] = {sid: [] for sid in self.servers}
        self.rack_stripes: dict[int, set[int]] = {r: set() for r in self.racks}
        for st in self.stripes:
            for b, sid in enumerate(st.placement):
                self.by_server[sid].append((st.index, b))
                self.rack_stripes[self.servers[sid].rack].add(st.index)

        self.queue: deque[tuple[int, int]] = deque()
        self.inflight = 0

    # ------------------------------------------------------------ decodability

    def _decodable(self, bad: set[int]) -> bool:
        key = frozenset(bad)
        hit = self._decode_memo.get(key)
        if hit is None:
            alive = [b for b in range(self.code.n) if b not in key]
            hit = self._decode_memo[key] = self.code.can_decode(alive)
        return hit

    def _plan(self, target: int, failed: frozenset[int]) -> RepairPlan | None:
        key = (target, failed)
        if key not in self._plan_memo:
            try:
                self._plan_memo[key] = self.code.repair_plan(target, failed)
            except DecodingError:
                self._plan_memo[key] = None
        return self._plan_memo[key]

    # ------------------------------------------------------- degraded windows

    def _refresh_degraded(self, st: _StripeState) -> None:
        """Open/close the stripe's time-at-risk window on state changes."""
        if st.lost:
            return
        degraded = bool(st.missing or st.latent) or any(
            not self.servers[sid].available for sid in st.placement
        )
        now = self.sim.now
        if degraded and st.degraded_since is None:
            st.degraded_since = now
        elif not degraded and st.degraded_since is not None:
            st.degraded_hours += now - st.degraded_since
            st.degraded_since = None

    def _close_stripe(self, st: _StripeState, at: float) -> None:
        if st.degraded_since is not None:
            st.degraded_hours += at - st.degraded_since
            st.degraded_since = None

    # --------------------------------------------------------------- data loss

    def _check_loss(self, st: _StripeState) -> None:
        """Factual loss rule: destroyed + latent blocks undecodable."""
        if st.lost:
            return
        bad = st.missing | st.latent
        if self._decodable(bad):
            return
        st.lost_at = self.sim.now
        self._close_stripe(st, self.sim.now)
        self.result.losses += 1
        self.result.loss_times.append(self.sim.now)

    # ----------------------------------------------------------------- repairs

    def _enqueue_repair(self, st: _StripeState, block: int) -> None:
        if st.lost or block in st.repairing:
            return
        st.repairing.add(block)
        self.queue.append((st.index, block))
        depth = len(self.queue) + self.inflight
        self.metrics.observe("repair_queue_depth", float(depth))
        if depth > self.result.max_repair_queue_depth:
            self.result.max_repair_queue_depth = depth

    def _pump(self) -> None:
        """Start every queued repair the caps and topology allow."""
        if not self.queue:
            return
        deferred: deque[tuple[int, int]] = deque()
        while self.queue:
            cap = self.cfg.max_concurrent_repairs
            if cap is not None and self.inflight >= cap:
                deferred.extend(self.queue)
                self.queue.clear()
                break
            task = self.queue.popleft()
            if not self._try_start(*task):
                deferred.append(task)
        self.queue = deferred

    def _try_start(self, stripe_idx: int, block: int) -> bool:
        st = self.stripes[stripe_idx]
        if st.lost:
            st.repairing.discard(block)
            return True  # drop the task entirely
        target_sid = st.placement[block]
        target = self.servers[target_sid]
        if not target.available:
            return False  # replacement pending or domain down; pumped on recovery
        # Plan around everything known-bad *or* currently unreachable.
        known_bad = set(st.missing)
        known_bad.update(
            b for b, sid in enumerate(st.placement) if not self.servers[sid].available
        )
        # Latent helpers are invisible to the planner; a repair read
        # discovers them (checksum mismatch), drops the copy, and
        # re-plans — the repair-path detection channel for LSEs.
        while True:
            plan = self._plan(block, frozenset(known_bad - {block}))
            if plan is None:
                return False  # helpers temporarily insufficient; retry later
            touched_latent = [h for h in plan.helpers if h in st.latent]
            if not touched_latent:
                break
            for h in touched_latent:
                st.latent.discard(h)
                st.missing.add(h)
                self.result.lse_detected_repair += 1
                self.metrics.add("lse_detected_repair", 1)
                self._enqueue_repair(st, h)
                known_bad.add(h)

        fractions = plan.read_fractions
        read_seconds = {
            st.placement[h]: fractions[h] * self.block_read_seconds for h in plan.helpers
        }
        bytes_read = sum(fractions.values()) * self.cfg.block_size_bytes
        duration_s = self._repair_seconds(bytes_read)
        leases = dict(read_seconds)
        leases[target_sid] = max(leases.get(target_sid, 0.0), duration_s)

        grant_s = self.controller.acquire(self.sim.now * SECONDS_PER_HOUR, leases)
        done_h = (grant_s + duration_s) / SECONDS_PER_HOUR
        self.inflight += 1
        epoch = target.epoch
        self.sim.schedule_at(
            done_h,
            lambda: self._repair_done(stripe_idx, block, target_sid, epoch, bytes_read),
            name=f"repair:{stripe_idx}.{block}",
        )
        return True

    def _repair_seconds(self, bytes_read: float) -> float:
        """How long one rebuild takes: the same serialization the analytic
        model charges — helper reads plus the rebuilt block's write, one
        stream — but a fixed duration where the Markov chain draws an
        exponential one with this mean."""
        return bytes_read / self.cfg.repair_bandwidth + self.block_read_seconds

    def _repair_done(
        self, stripe_idx: int, block: int, target_sid: int, epoch: int, bytes_read: float
    ) -> None:
        self.inflight -= 1
        st = self.stripes[stripe_idx]
        target = self.servers[target_sid]
        if st.lost:
            st.repairing.discard(block)
            self._pump()
            return
        if target.epoch != epoch or not target.disk_ok:
            # Target died again mid-rebuild; the write is void — requeue.
            self.result.repairs_requeued += 1
            st.repairing.discard(block)
            self._enqueue_repair(st, block)
            self._pump()
            return
        st.missing.discard(block)
        st.repairing.discard(block)
        self.result.repairs_completed += 1
        self.result.repair_bytes_read += bytes_read
        self.metrics.add("disk_bytes_read", bytes_read)
        self.metrics.add("blocks_written", 1, target_sid)
        self._refresh_degraded(st)
        self._pump()

    # ------------------------------------------------------------ disk deaths

    def _kill_disk(self, sid: int) -> None:
        """Destroy a server's disk: every block it holds goes missing."""
        state = self.servers[sid]
        if not state.disk_ok:
            return
        state.disk_ok = False
        state.epoch += 1
        self.result.disk_failures += 1
        for stripe_idx, block in self.by_server[sid]:
            st = self.stripes[stripe_idx]
            if st.lost or block in st.missing:
                continue
            st.latent.discard(block)  # destroyed outright, latent or not
            st.missing.add(block)
            self._check_loss(st)
            if not st.lost:
                self._refresh_degraded(st)
                self._enqueue_repair(st, block)
        self.sim.schedule(
            self.cfg.replacement_hours, lambda: self._replace_disk(sid), name=f"replace:{sid}"
        )

    def _replace_disk(self, sid: int) -> None:
        state = self.servers[sid]
        state.disk_ok = True
        self._schedule_disk_failure(sid)
        for stripe_idx, _ in self.by_server[sid]:
            self._refresh_degraded(self.stripes[stripe_idx])
        self._pump()

    def _schedule_disk_failure(self, sid: int) -> None:
        delay = self.cfg.disk_lifetime.sample(self.rng)
        when = self.sim.now + delay
        if when <= self.horizon:
            self.sim.schedule(delay, lambda: self._kill_disk(sid), name=f"disk:{sid}")

    # ------------------------------------------------------------ rack events

    def _schedule_rack_failure(self, rack: int) -> None:
        if self.cfg.rack_mtbf_hours is None:
            return
        delay = self.rng.expovariate(1.0 / self.cfg.rack_mtbf_hours)
        if self.sim.now + delay <= self.horizon:
            self.sim.schedule(delay, lambda: self._rack_down(rack), name=f"rack:{rack}")

    def _rack_down(self, rack: int) -> None:
        self.result.rack_events += 1
        self.metrics.add("rack_events", 1)
        for sid in self.racks[rack]:
            self.servers[sid].rack_down = True
        # Correlated destruction: the power event takes some disks with it.
        for sid in self.racks[rack]:
            if self.servers[sid].disk_ok and self.rng.random() < self.cfg.rack_kill_fraction:
                self.result.racked_disks_killed += 1
                self._kill_disk(sid)
        for stripe_idx in self.rack_stripes[rack]:
            self._refresh_degraded(self.stripes[stripe_idx])
        self.sim.schedule(
            self.cfg.rack_downtime_hours, lambda: self._rack_up(rack), name=f"rack_up:{rack}"
        )

    def _rack_up(self, rack: int) -> None:
        for sid in self.racks[rack]:
            self.servers[sid].rack_down = False
        for stripe_idx in self.rack_stripes[rack]:
            self._refresh_degraded(self.stripes[stripe_idx])
        self._schedule_rack_failure(rack)
        self._pump()

    # -------------------------------------------------- latent sector errors

    def _schedule_lse(self) -> None:
        rate = self.cfg.lse_rate_per_block_hour * len(self.stripes) * self.code.n
        if rate <= 0:
            return
        delay = self.rng.expovariate(rate)
        if self.sim.now + delay <= self.horizon:
            self.sim.schedule(delay, self._lse_arrival, name="lse")

    def _lse_arrival(self) -> None:
        st = self.stripes[self.rng.randrange(len(self.stripes))]
        block = self.rng.randrange(self.code.n)
        self._schedule_lse()
        if st.lost or block in st.missing or block in st.latent:
            return
        st.latent.add(block)
        self.result.lse_injected += 1
        self.metrics.add("lse_injected", 1)
        self._check_loss(st)
        if not st.lost:
            self._refresh_degraded(st)

    # ---------------------------------------------------------------- scrubbing

    def _schedule_scrub(self) -> None:
        if self.cfg.scrub_interval_hours is None:
            return
        if self.sim.now + self.cfg.scrub_interval_hours <= self.horizon:
            self.sim.schedule(self.cfg.scrub_interval_hours, self._scrub_pass, name="scrub")

    def _scrub_pass(self) -> None:
        """Per-server scans, each leasing one admission token.

        A repair storm holding a server's tokens delays that server's
        scan — and therefore latent-error detection — which is exactly
        the scrub-vs-repair contention the campaign measures.
        """
        self._schedule_scrub()
        for sid, blocks in self.by_server.items():
            state = self.servers[sid]
            if not state.available or not blocks:
                continue
            scan_s = len(blocks) * self.cfg.block_size_bytes / SCRUB_BANDWIDTH
            grant_s = self.controller.acquire(self.sim.now * SECONDS_PER_HOUR, {sid: scan_s})
            done_h = (grant_s + scan_s) / SECONDS_PER_HOUR
            epoch = state.epoch
            self.sim.schedule_at(
                done_h, lambda s=sid, e=epoch: self._scan_done(s, e), name=f"scan:{sid}"
            )

    def _scan_done(self, sid: int, epoch: int) -> None:
        state = self.servers[sid]
        self.result.scrub_scans += 1
        if state.epoch != epoch or not state.disk_ok:
            return  # the disk died mid-scan; its blocks are repair's job now
        for stripe_idx, block in self.by_server[sid]:
            st = self.stripes[stripe_idx]
            if st.lost or block not in st.latent:
                continue
            # Checksum mismatch: drop the corrupt copy, rebuild from peers.
            st.latent.discard(block)
            st.missing.add(block)
            self.result.lse_detected_scrub += 1
            self.metrics.add("lse_detected_scrub", 1)
            self._enqueue_repair(st, block)
        self._pump()

    # --------------------------------------------------------------------- run

    def run(self) -> None:
        for sid in self.servers:
            self._schedule_disk_failure(sid)
        for rack in self.racks:
            self._schedule_rack_failure(rack)
        self._schedule_lse()
        self._schedule_scrub()
        self.sim.run(until=self.horizon)

        lost_any = False
        for st in self.stripes:
            if st.lost:
                lost_any = True
                self.result.stripe_hours += st.lost_at
            else:
                self._close_stripe(st, self.horizon)
                self.result.stripe_hours += self.horizon
            self.result.degraded_stripe_hours += st.degraded_hours
            self.metrics.observe("time_at_risk_hours", st.degraded_hours)
        if lost_any:
            self.result.trials_with_loss += 1


def simulate_reliability(
    code: ErasureCode,
    placement: PlacementPolicy,
    config: ReliabilityConfig,
    *,
    num_racks: int,
    servers_per_rack: int,
    stripes: int = 50,
    trials: int = 1,
    seed: int = 0,
    metrics: MetricsRegistry | None = None,
) -> ReliabilityResult:
    """Run ``trials`` seeded cluster lifetimes and aggregate the outcome.

    Each trial builds a fresh ``num_racks x servers_per_rack`` cluster,
    places ``stripes`` stripes through ``placement``, and plays
    ``config.horizon_years`` of failures forward on the event heap.
    The trials share one memo of decodability and one of repair plans,
    both keyed purely on failure patterns.

    Determinism: trial ``i`` uses ``random.Random(f"{seed}:{i}")``, so
    results are bit-identical across runs and platforms for a given
    (code, placement, config, seed).
    """
    metrics = metrics or MetricsRegistry()
    decode_memo: dict[frozenset[int], bool] = {}
    plan_memo: dict[tuple[int, frozenset[int]], RepairPlan | None] = {}
    result = ReliabilityResult(
        code=repr(code),
        trials=trials,
        stripes=stripes,
        horizon_hours=config.horizon_years * HOURS_PER_YEAR,
    )
    cluster = Cluster.racked(num_racks, servers_per_rack)
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        _Trial(
            code, cluster, placement, config, stripes, rng, result, metrics,
            decode_memo, plan_memo,
        ).run()
    snap = metrics.snapshot()
    gauges = {
        "repair_queue_depth_p99": metrics.histogram("repair_queue_depth").percentile(99.0),
        "time_at_risk_p99_hours": metrics.histogram("time_at_risk_hours").percentile(99.0),
        "repair_wait_p99_s": metrics.histogram("repair_wait_s").percentile(99.0),
    }
    metrics.set_gauge("max_repair_queue_depth", float(result.max_repair_queue_depth))
    result.metrics = {**snap, **gauges}
    return result
