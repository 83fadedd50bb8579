"""LeaseTable against the list-scanning implementation it replaced.

Admission control asks the table once per request, so it answers from a
per-key expiry heap instead of walking the live leases.  The walk is kept
here as the model: any interleaving of grant / release / count / earliest
/ active, on a clock that only moves forward, must read the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.repair import LeaseTable


class ScanningLeaseTable:
    """The previous implementation: every query prunes and copies the live leases."""

    def __init__(self):
        self._leases: dict[object, dict[int, float]] = {}
        self._next_handle = 0

    def active(self, key, now):
        held = self._leases.get(key)
        if not held:
            return []
        for h in [h for h, t in held.items() if t <= now]:
            del held[h]
        return list(held.values())

    def count(self, key, now):
        return len(self.active(key, now))

    def earliest(self, key, now):
        live = self.active(key, now)
        return min(live) if live else None

    def grant(self, key, expiry):
        self._next_handle += 1
        self._leases.setdefault(key, {})[self._next_handle] = expiry
        return self._next_handle

    def release(self, key, handle):
        held = self._leases.get(key)
        if held is not None:
            held.pop(handle, None)


KEYS = st.sampled_from(["alpha", "beta", 3])
# Quarter-second grid: expiries collide with each other and with the clock.
TICKS = st.integers(min_value=0, max_value=12).map(lambda t: t / 4)
STEPS = st.one_of(
    st.tuples(st.just("grant"), KEYS, TICKS),  # lease lasting that long (0: dead on arrival)
    st.tuples(st.just("release"), KEYS, st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("advance"), TICKS),
    st.tuples(st.just("count"), KEYS),
    st.tuples(st.just("earliest"), KEYS),
    st.tuples(st.just("active"), KEYS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STEPS, max_size=60))
def test_matches_the_scanning_model(steps):
    table, model = LeaseTable(), ScanningLeaseTable()
    now = 0.0
    granted: list[tuple[object, int]] = []
    for step in steps:
        op = step[0]
        if op == "advance":
            now += step[1]
        elif op == "grant":
            handle = table.grant(step[1], now + step[2])
            assert handle == model.grant(step[1], now + step[2])
            granted.append((step[1], handle))
        elif op == "release":
            # Mostly a lease that was granted (perhaps already released or
            # expired); sometimes a handle the key never held.
            key, handle = granted[step[2] % len(granted)] if granted and step[2] % 5 else (step[1], step[2])
            table.release(key, handle)
            model.release(key, handle)
        else:
            assert getattr(table, op)(step[1], now) == getattr(model, op)(step[1], now), (op, now)
    for key in ("alpha", "beta", 3):
        assert table.active(key, now) == model.active(key, now)
        assert table.earliest(key, now) == model.earliest(key, now)
        assert table.count(key, now) == model.count(key, now)


def test_early_releases_do_not_pile_up():
    """A released lease's heap entry goes once the clock passes its expiry."""
    table = LeaseTable()
    for i in range(1000):
        now = i * 0.01
        assert table.count("t", now) == 0
        table.release("t", table.grant("t", now + 0.05))
    _, heap = table._leases["t"]
    assert len(heap) <= 6  # only the leases of the last 0.05 s are still queued
    assert table.earliest("t", 11.0) is None
    assert heap == []
