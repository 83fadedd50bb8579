"""Per-tenant QoS admission control for the serving gateway.

The repair pipeline already solved this problem once: its admission
controller leases expiring tokens per server so a reconstruction storm
degrades into bounded waves (see
:class:`~repro.storage.repair.RepairAdmissionController`).  The serving
gateway reuses the same :class:`~repro.storage.repair.LeaseTable`
bookkeeping, keyed by *tenant* instead of server and waited on
*asynchronously*: a request over its tenant's in-flight cap parks its
coroutine until the earliest lease expires, rather than being handed a
later grant instant — hundreds of other requests keep flowing meanwhile.

Because repair traffic enters the gateway as just another tenant (the
``repair`` tenant in the chaos scenario), repair and foreground reads
compete through the *same* lease table and the same per-server disk
queues — the "competes honestly" requirement of the serving benchmark.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim.aio import SimLoop
from repro.storage.metrics import MetricsRegistry
from repro.storage.repair import LeaseTable


@dataclass(frozen=True)
class TenantLease:
    """Handle for one admitted request (release on completion)."""

    tenant: str
    handle: int


class TenantThrottle:
    """Token-lease admission control, per tenant, on the sim loop.

    Args:
        loop: the serving gateway's event loop.
        max_inflight: default concurrent-request cap per tenant.
        limits: per-tenant overrides (``{"free": 4, "repair": 2}``).
        metrics: shared registry; throttle stalls are recorded as
            ``tenant_throttle_waits`` (counter) and
            ``tenant_throttle_wait_s`` (histogram), plus a per-tenant
            ``tenant_throttle_wait_s[<tenant>]`` histogram.
    """

    def __init__(
        self,
        loop: SimLoop,
        max_inflight: int = 64,
        limits: dict[str, int] | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        for tenant, cap in (limits or {}).items():
            if cap < 1:
                raise ValueError(f"tenant {tenant!r}: cap must be >= 1")
        self.loop = loop
        self.max_inflight = max_inflight
        self.limits = dict(limits or {})
        self.metrics = metrics or MetricsRegistry()
        self._leases = LeaseTable()
        self._waiters: dict[str, deque] = {}
        #: Per tenant, the name of its wait histogram.
        self._tenant_wait: dict[str, str] = {}

    def cap(self, tenant: str) -> int:
        return self.limits.get(tenant, self.max_inflight)

    def inflight(self, tenant: str) -> int:
        return self._leases.count(tenant, self.loop.now)

    def _admit(self, tenant: str, duration: float, since: float) -> TenantLease | None:
        """The lease of a request submitted at ``since``, granted now if
        ``tenant`` is under its cap; ``None`` if it is at it.

        A plain call, no coroutine: under the cap, admission waits for
        nothing.  The gateway's reads ask here first and call
        :meth:`acquire` only to wait.
        """
        now = self.loop.now
        if self._leases.count(tenant, now) >= self.cap(tenant):
            return None
        waited = now - since
        self.metrics.observe("tenant_throttle_wait_s", waited)
        tenant_wait = self._tenant_wait.get(tenant)
        if tenant_wait is None:
            tenant_wait = self._tenant_wait[tenant] = f"tenant_throttle_wait_s[{tenant}]"
        self.metrics.observe(tenant_wait, waited)
        return TenantLease(tenant=tenant, handle=self._leases.grant(tenant, now + duration))

    async def acquire(self, tenant: str, duration: float) -> TenantLease:
        """Admit one request, waiting while the tenant is at its cap.

        ``duration`` is the lease's self-expiry — an *estimate* of the
        request's service time.  Like repair leases, expiry bounds the
        damage of a leaked lease; well-behaved callers release early via
        :meth:`release` the moment the request completes.
        """
        submitted = self.loop.now
        lease = self._admit(tenant, duration, submitted)
        if lease is not None:
            return lease
        self.metrics.add("tenant_throttle_waits", 1)
        while lease is None:
            fut = self.loop.future(name="throttle")
            self._waiters.setdefault(tenant, deque()).append(fut)
            # An early release wakes the head waiter immediately; the
            # timer below bounds the wait at the earliest lease expiry.
            expiry = self._leases.earliest(tenant, self.loop.now)
            if expiry is not None:
                self.loop.sim.schedule(
                    max(1e-9, expiry - self.loop.now),
                    lambda f=fut: f.done() or f.set_result(None),
                    name="throttle-expiry",
                )
            await fut
            queue = self._waiters.get(tenant)
            if queue and fut in queue:
                queue.remove(fut)
            lease = self._admit(tenant, duration, submitted)
        return lease

    def release(self, lease: TenantLease) -> None:
        """Return a lease ahead of its expiry (idempotent)."""
        self._leases.release(lease.tenant, lease.handle)
        queue = self._waiters.get(lease.tenant)
        if queue:
            fut = queue.popleft()
            if not fut.done():
                fut.set_result(None)
