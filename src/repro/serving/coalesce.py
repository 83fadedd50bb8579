"""Request coalescing for co-stripe reads.

Under Zipf skew many clients ask for the *same* hot stripe within one
disk-service window; issuing every read would melt the holder server
for identical bytes.  The coalescer keeps one in-flight future per
stripe key: the first requester (the *leader*) performs the actual read
and everyone who arrives while it is outstanding (the *followers*)
awaits the same future.  Followers are counted in
``serving_coalesced_reads`` — in the serving benchmark this is the
difference between a flash crowd and a hot-spot meltdown.
"""

from __future__ import annotations

from repro.sim.aio import SimFuture, SimLoop
from repro.storage.metrics import MetricsRegistry


class RequestCoalescer:
    """One shared in-flight future per key."""

    def __init__(self, loop: SimLoop, metrics: MetricsRegistry | None = None):
        self.loop = loop
        self.metrics = metrics or MetricsRegistry()
        self._inflight: dict[object, SimFuture] = {}

    def lease(self, key) -> tuple[bool, SimFuture]:
        """``(is_leader, future)`` for one read of ``key``.

        The leader must eventually call :meth:`complete` or :meth:`fail`;
        followers just await the returned future.
        """
        fut = self._inflight.get(key)
        if fut is not None:
            self.metrics.add("serving_coalesced_reads", 1)
            return False, fut
        fut = self.loop.future(name="coalesce")
        self._inflight[key] = fut
        return True, fut

    def complete(self, key, value) -> None:
        """Resolve the in-flight read, releasing every follower."""
        fut = self._inflight.pop(key)
        fut.set_result(value)

    def fail(self, key, exc: BaseException) -> None:
        """Fail the in-flight read; followers see the same exception."""
        fut = self._inflight.pop(key)
        fut.set_exception(exc)
