"""A batched read is its ranges read one at a time.

``DistributedFileSystem._read_available_stripes`` reads every run of every
file it is given as one ``ResilientBlockClient._read_ranges`` batch: one CRC
pass over all of it, lookups bound once.  Each range still takes every step
a lone ``client.read_rows`` takes, once each and in the same order — the
breaker check, the up / missing / range checks, the three store counters,
the fault draw, timeout / retry with backoff, the clock advance, the
``read_latency_s`` sample and the health update.  So twin filesystems built
from the same seed, one reading in a batch and one range by range, end in
the same state, on clean hardware and under every fault this stack models.
The same holds for the extents ``read_bytes`` delivers in one or two
ranges: the batch that copies them into the ``bytes`` returned as it checks
them books what reading each range alone, then copying it, books.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode, RotatedPyramidCode
from repro.core import GalloperCode
from repro.faults import FaultModel
from repro.faults.model import GraySlowdown, LatencySpikes, SilentCorruption, TransientErrors
from repro.gf import GF256, GF65536
from repro.storage import BlockUnavailableError, DistributedFileSystem, StorageError, StripedFileSystem
from repro.storage.health import CONSECUTIVE_LIMIT, RESET_TIMEOUT
from tests.conftest import payload_bytes

CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
    "rotated": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}
CONDITIONS = ("clean", "faults", "rot", "crashed", "breaker_open")


def faults() -> FaultModel:
    """Retryable errors, corrupted transfers, spikes under and past the
    timeout, and one gray server."""
    return FaultModel(
        TransientErrors(rate=0.25),
        SilentCorruption(rate=0.15),
        LatencySpikes(rate=0.15, latency=0.08),
        LatencySpikes(rate=0.05, latency=0.7),
        GraySlowdown(servers=frozenset({3}), extra_latency=0.06),
        seed=29,
    )


def twin(code_name: str, field: str, condition: str):
    """A filesystem with plain files on both sides of the native CRC size
    (contiguous blocks) and a striped file (one batched encode), broken the way
    ``condition`` says; returns it and the files to read.  The striped view
    is ``dfs.striped``."""
    code = CODES[code_name](FIELDS[field])
    cluster = Cluster.homogeneous(3 * code.n)
    dfs = DistributedFileSystem(cluster, fault_model=faults() if condition == "faults" else None)
    sfs = StripedFileSystem(dfs)
    total = code.data_stripe_total
    for stripe in (24, 2_400):
        dfs.write_file(f"plain-{stripe}", payload_bytes(total * stripe - 7, seed=stripe), code=code)
    block = code.N * 1_300
    sfs.write_file("striped", payload_bytes(3 * code.k * block - 101, seed=5), lambda: code, max_block_bytes=block)
    files = [dfs.file(name) for name in dfs.list_files()]
    victim = files[0].server_of(files[0].code.read_plan().runs[0][0])
    if condition == "rot":
        for ef in files[::2]:
            for block_id in (0, code.n - 1):
                dfs.store.corrupt(ef.server_of(block_id), ef.name, block_id, offset=11)
    elif condition == "crashed":
        cluster.fail(victim)
    elif condition == "breaker_open":
        for _ in range(CONSECUTIVE_LIMIT):
            dfs.health.record_error(victim)
        assert dfs.health.is_open(victim)
    dfs.striped = sfs
    return dfs, files


def one_at_a_time(dfs, files) -> list[list]:
    """The range-by-range read: one ``client.read_rows`` per run."""
    out = []
    for ef in files:
        pieces = []
        for block, row0, nrows, _ in ef.code.read_plan().runs:
            try:
                pieces.append(dfs.client.read_rows(ef.placement[block], ef.name, block, row0, nrows))
            except BlockUnavailableError:
                pieces.append(None)
        out.append(pieces)
    return out


def range_by_range(dfs) -> None:
    """Make ``dfs`` read every run of a read alone (one ``client.read_rows``
    each) and deliver nothing, so ``_read`` copies each run it got."""

    def read(spans, into=None):
        pieces = []
        for ef, runs in spans:
            got = []
            for block, row0, nrows, _ in runs:
                try:
                    got.append(dfs.client.read_rows(ef.placement[block], ef.name, block, row0, nrows))
                except BlockUnavailableError:
                    got.append(None)
            pieces.append(got)
        return pieces, None

    dfs._read_available_stripes = read


def extents(code, stripe: int, base: int = 0) -> list[tuple[int, int]]:
    """``(offset, length)`` of three extents of a file (or of the stripe
    group at ``base``) of ``stripe``-symbol stripes: inside one row, across
    two rows of one block (where a run of the read plan holds two), and
    across the end of the first run into the next, another block."""
    runs = code.read_plan().runs
    first = runs[0]
    out = [(base + first[3] * stripe + 3, stripe // 2)]
    two = next((run for run in runs if run[2] >= 2), None)
    if two is not None:
        out.append((base + (two[3] + 1) * stripe - stripe // 4, stripe // 2))
    out.append((base + (first[3] + first[2]) * stripe - stripe // 4, stripe // 2))
    return out


def delivered_extents(dfs, files) -> list[tuple]:
    """``(read_bytes, name, offset, length)`` of the extents of every plain
    file and of the first two groups of the striped one, and one across the
    striped file's first two groups."""
    sfs = dfs.striped
    meta = sfs.file("striped")
    out = []
    for ef in files:
        if "#" not in ef.name:
            out += [(dfs.read_bytes, ef.name, *e) for e in extents(ef.code, ef.stripe_size)]
    group = dfs.file(meta.group_names()[0])
    for g in (0, 1):
        out += [(sfs.read_bytes, "striped", *e) for e in extents(group.code, group.stripe_size, g * meta.group_payload)]
    out.append((sfs.read_bytes, "striped", meta.group_payload - group.stripe_size // 4, group.stripe_size // 2))
    return out


def health_state(health) -> dict[int, dict]:
    """Every field of every server's breaker and EWMA state, by server id."""
    return {sid: dataclasses.asdict(h) for sid, h in sorted(health._servers.items())}


def fault_tallies(model) -> tuple | None:
    """What a fault model has drawn and injected so far."""
    if model is None:
        return None
    return (model.decisions, model.injected_errors, model.injected_corruptions, model.injected_latency)


def state(dfs) -> dict:
    metrics = dfs.metrics
    return {
        "counters": {name: (total, metrics.by_server(name)) for name, total in metrics.snapshot().items()},
        "health": health_state(dfs.health),
        "transitions": list(dfs.health.transitions),
        "clock": dfs.clock.now,
        "backoff_rng": dfs.client._rng.getstate(),
        "latencies": list(metrics.histogram("read_latency_s")._values),  # in observation order
        "faults": fault_tallies(dfs.store.fault_model),
    }


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("code_name", CODES)
def test_a_batch_is_its_ranges_one_at_a_time(code_name, field, condition):
    batched, files = twin(code_name, field, condition)
    looped, twin_files = twin(code_name, field, condition)
    for _ in range(2):  # the second pass reuses the row handles the first one took after rot
        got, _ = batched._read_available_stripes([(ef, ef.code.read_plan().runs) for ef in files])
        want = one_at_a_time(looped, twin_files)
        assert [[p is None for p in pieces] for pieces in got] == [[p is None for p in pieces] for pieces in want]
        for pieces, expect in zip(got, want):
            for piece, other in zip(pieces, expect):
                assert piece is None or np.array_equal(piece, other)
        assert state(batched) == state(looped)
    missing = sum(p is None for pieces in got for p in pieces)
    if condition == "clean":
        assert missing == 0
    elif condition != "faults":  # what broke is read as missing, not retried into success
        assert missing > 0
    else:  # every kind of fault was drawn
        counters = state(batched)["counters"]
        for name in ("retries", "read_timeouts", "checksum_failures", "transient_read_errors"):
            assert counters[name][0] > 0, name
    # Delivered extents of one and two ranges, against the same extents read
    # range by range and copied.
    range_by_range(looped)
    before = state(batched)["counters"]
    for (read, name, offset, length), (twin_read, _, _, _) in zip(
        delivered_extents(batched, files), delivered_extents(looped, twin_files)
    ):
        assert read(name, offset, length) == twin_read(name, offset, length)
        assert state(batched) == state(looped)
    after = state(batched)["counters"]
    moved = {name for name in after if after[name][0] != before.get(name, (0,))[0]}
    assert {"blocks_read", "disk_bytes_read"} <= moved
    if condition in ("rot", "crashed", "breaker_open"):  # some extent lost a range and was rebuilt
        assert "degraded_reads" in moved


@pytest.mark.parametrize("field", FIELDS)
def test_a_striped_read_is_one_batch(field, monkeypatch):
    """Clean or degraded, a striped read makes one batch for all its groups;
    the degraded groups then read their helper rows in one batch, each group
    stopping at its first helper that cannot be read."""
    code = CODES["galloper"](FIELDS[field])
    dfs = DistributedFileSystem(Cluster.homogeneous(3 * code.n))
    sfs = StripedFileSystem(dfs)
    payload = payload_bytes(5 * code.k * code.N * 300 + 17, seed=9)  # five full groups and a tail
    sfs.write_file("s", payload, lambda: code, max_block_bytes=code.N * 300)
    batches = []
    real = dfs.client._read_ranges

    def counted(ranges, groups=None, into=None):
        batches.append((len(ranges), groups))
        return real(ranges, groups, into)

    monkeypatch.setattr(dfs.client, "_read_ranges", counted)
    assert sfs.read_file("s") == payload
    victim = dfs.file(sfs.file("s").group_names()[0]).server_of(0)
    degraded = [name for name in sfs.file("s").group_names() if dfs.file(name).blocks_on_server(victim)]
    dfs.cluster.fail(victim)
    assert sfs.read_file("s") == payload
    runs = sfs.file("s").group_count * len(code.read_plan().runs)
    helper_ranges = len(code.repair_plan(0).helper_rows.reads(0, code.block_infos[0].data_stripes))
    assert batches == [(runs, None), (runs, None), (helper_ranges * len(degraded), [helper_ranges] * len(degraded))]


# --------------------------------------------------------------------------
# Plain ranges booked in one pass against the step-by-step bookkeeping.

BOOKED_CODE = GalloperCode(4, 2, 1)

range_specs = st.tuples(
    st.integers(0, 1),  # file
    st.integers(0, BOOKED_CODE.n - 1),  # block
    st.sampled_from([0, 0, 0, 0, 1, 2]),  # server: the holder, one holding nothing, one holding another block
    st.sampled_from(["rows"] * 6 + ["zero", "past_end"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
setups = st.fixed_dictionaries({
    "native": st.booleans(),
    "faults": st.sampled_from([False, False, False, True]),
    "down": st.sampled_from([None, None, 0, 3]),  # a block whose server is failed
    "breaker": st.sampled_from([None, "open", "half_open"]),
    "breaker_block": st.integers(0, BOOKED_CODE.n - 1),
    "rot": st.lists(st.tuples(st.integers(0, 1), st.integers(0, BOOKED_CODE.n - 1), st.integers(0, 10**6)), max_size=3),
    "batches": st.lists(
        st.tuples(st.lists(range_specs, min_size=1, max_size=6), st.lists(st.integers(1, 3), max_size=6)),
        min_size=1, max_size=4,
    ),
})


def booked_twin(setup: dict, step_by_step: bool):
    """A filesystem broken the way ``setup`` says; with ``step_by_step`` its
    store marks no range plain, so every range takes its full step."""
    code = BOOKED_CODE
    cluster = Cluster.homogeneous(code.n + 1)  # the last server holds nothing
    dfs = DistributedFileSystem(cluster, fault_model=faults() if setup["faults"] else None)
    store = dfs.store
    if not setup["native"]:  # the store a host without the native kernel builds: zlib only
        store._crc_backend = None
    for i, stripe in enumerate((24, 1_200)):
        dfs.write_file(f"f{i}", payload_bytes(code.data_stripe_total * stripe, seed=i), code=code)
    for file, block, offset in setup["rot"]:
        ef = dfs.file(f"f{file}")
        store.corrupt(ef.server_of(block), ef.name, block, offset=offset)
    if setup["down"] is not None:
        cluster.fail(dfs.file("f0").server_of(setup["down"]))
    if setup["breaker"] is not None:
        server = dfs.file("f1").server_of(setup["breaker_block"])
        for _ in range(CONSECUTIVE_LIMIT):
            dfs.health.record_error(server)
        if setup["breaker"] == "half_open":
            dfs.clock.advance(RESET_TIMEOUT)  # the next read there is the probe
    if step_by_step:
        real = store._range_reader
        store._range_reader = lambda ranges, verify, into=None: (real(ranges, verify, into)[0], None)
    return dfs


def batch_ranges(dfs, specs) -> list[tuple]:
    n, rows = BOOKED_CODE.n, BOOKED_CODE.N
    ranges = []
    for file, block, where, kind, a, b in specs:
        holder = dfs.file(f"f{file}").server_of(block)
        server = (holder, n, (holder + 1) % n)[where]
        row0 = a % rows
        nrows = {"rows": 1 + b % (rows - row0), "zero": 0, "past_end": rows - row0 + 1}[kind]
        ranges.append((server, f"f{file}", block, row0, nrows))
    return ranges


def ledger(dfs) -> dict:
    """Everything a read books, floats as ``float.hex``."""
    metrics = dfs.metrics
    hist = metrics._histograms.get("read_latency_s")
    return {
        "counters": {
            name: (float(c.total).hex(), {s: float(v).hex() for s, v in c.by_server.items()})
            for name, c in metrics._counters.items()
        },
        "histogram": hist and (
            hist.count, hist.total.hex(), hist.min.hex(), hist.max.hex(), [v.hex() for v in hist._values]
        ),
        "health": {
            s: {k: v.hex() if isinstance(v, float) else v for k, v in h.items()}
            for s, h in health_state(dfs.health).items()
        },
        "transitions": [(t.hex(), s, state) for t, s, state in dfs.health.transitions],
        "clock": dfs.clock.now.hex(),
        "backoff_rng": dfs.client._rng.getstate(),
    }


def outcome(dfs, ranges, cuts):
    """The batch read with no groups (``cuts`` empty), or cut into groups of
    the lengths ``cuts`` gives, the last group taking what is left."""
    groups = None
    if cuts:
        groups, left = [], len(ranges)
        for cut in cuts:
            if left:
                groups.append(min(cut, left))
                left -= groups[-1]
        groups[-1] += left
    try:
        pieces, failures, _ = dfs.client._read_ranges(ranges, groups)
    except StorageError as exc:  # a range past the end of its block raises, grouped or not
        return None, (type(exc).__name__, str(exc))
    return pieces, [(type(exc).__name__, str(exc), vars(exc)) for exc in failures]


def test_a_corrupt_draw_on_a_zero_row_read_returns_no_rows():
    """A transfer of no bytes has nothing to corrupt: the read returns its
    empty rows instead of failing to flip a byte."""
    code = BOOKED_CODE
    dfs = DistributedFileSystem(Cluster.homogeneous(code.n), fault_model=FaultModel(SilentCorruption(rate=1.0), seed=1))
    ef = dfs.write_file("f", payload_bytes(code.data_stripe_total * 24, seed=3), code=code)
    rows = dfs.client.read_rows(ef.server_of(0), "f", 0, 2, 0)
    assert rows.shape == (0, 24)
    assert dfs.metrics.total("corrupted_returns") == 0


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(setup=setups)
def test_plain_ranges_booked_in_one_pass_match_the_step_by_step_books(setup):
    """Batches of one, two and more ranges mixing plain ones with ranges on a
    failed server, behind an open or half-open breaker, with rot, not held,
    out of bounds or of zero rows, or under a fault model, in groups that
    stop at their first failure or not: the same pieces and the same books,
    bit for bit, after every batch."""
    booked = booked_twin(setup, step_by_step=False)
    stepped = booked_twin(setup, step_by_step=True)
    for specs, cuts in setup["batches"]:
        got, got_error = outcome(booked, batch_ranges(booked, specs), cuts)
        want, want_error = outcome(stepped, batch_ranges(stepped, specs), cuts)
        assert got_error == want_error
        if got is not None:
            assert [p is None for p in got] == [p is None for p in want]
            assert all(p is None or np.array_equal(p, q) for p, q in zip(got, want))
        assert ledger(booked) == ledger(stepped)
    assert booked.metrics.snapshot_all() == stepped.metrics.snapshot_all()


# --------------------------------------------------------------------------
# A whole-block read is a row-range read over every row.

WHOLE_CODES = {
    "rs": lambda: ReedSolomonCode(4, 3),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
}
FAULT_COMPONENTS = {
    "none": None,
    "transient": TransientErrors(rate=0.4),
    "corruption": SilentCorruption(rate=0.4),
    "spikes": LatencySpikes(rate=0.3, latency=0.7),  # past the read timeout
    "gray": GraySlowdown(servers=frozenset({1, 2}), extra_latency=0.06),
}

whole_reads = st.fixed_dictionaries({
    "code": st.sampled_from(sorted(WHOLE_CODES)),
    "fault": st.sampled_from(sorted(FAULT_COMPONENTS)),
    "level": st.sampled_from(["client", "store"]),
    "down": st.sampled_from([None, None, 0, 3]),  # a block whose server is failed
    "rot": st.sampled_from([None, None, 1, 4]),  # a block with a flipped byte on disk
    "reads": st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
})


def whole_twin(setup: dict):
    """A file of ``setup["code"]`` and a 1-D block (one checksummed row) on
    a spare server, under the fault component ``setup["fault"]``, broken
    the way ``setup`` says; returns the filesystem and the blocks to read."""
    code = WHOLE_CODES[setup["code"]]()
    cluster = Cluster.homogeneous(code.n + 1)
    component = FAULT_COMPONENTS[setup["fault"]]
    dfs = DistributedFileSystem(cluster, fault_model=component and FaultModel(component, seed=43))
    ef = dfs.write_file("f", payload_bytes(code.data_stripe_total * 600 - 5, seed=8), code=code)
    dfs.store.put(code.n, "flat", 0, np.arange(5_000, dtype=np.uint16).astype(np.uint8))
    if setup["rot"] is not None:
        dfs.store.corrupt(ef.server_of(setup["rot"]), "f", setup["rot"], offset=77)
    if setup["down"] is not None:
        cluster.fail(ef.server_of(setup["down"]))
    targets = [(ef.server_of(b), "f", b) for b in range(code.n)] + [(code.n, "flat", 0)]
    return dfs, targets


def read_whole(dfs, level: str, target: tuple, as_rows: bool):
    """One read of every row of ``target``: whole (``get`` / ``timed_get``)
    or as the row range ``(0, rows)``; returns its bytes and latency, or
    the cause of its failure."""
    rows = len(dfs.store._disks[target[0]][target[1:]][1])
    try:
        if level == "client":
            data = dfs.client.read_rows(*target, 0, rows) if as_rows else dfs.client.get(*target)
            latency = None
        elif as_rows:
            data, latency = dfs.store.timed_read_rows(*target, 0, rows, verify=True)
        else:
            data, latency = dfs.store.timed_get(*target, verify=True)
    except BlockUnavailableError as exc:
        return "failed", exc.cause, exc.server, exc.block
    return np.asarray(data).tobytes(), latency


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(setup=whole_reads)
def test_a_whole_block_read_is_a_read_of_every_row(setup):
    """RS, Pyramid and Galloper blocks and a 1-D block, clean and under each
    fault component, with a server down or rot on disk: reading a block
    whole and reading rows ``(0, rows)`` of it return the same bytes and
    leave the same counters by server, clock, health and fault draws."""
    whole, targets = whole_twin(setup)
    rows, _ = whole_twin(setup)
    for pick in setup["reads"]:
        target = targets[pick % len(targets)]
        assert read_whole(whole, setup["level"], target, False) == read_whole(rows, setup["level"], target, True)
        assert state(whole) == state(rows)


@pytest.mark.parametrize("level", ["client", "store"])
def test_a_whole_block_read_names_why_it_failed(level):
    code = GalloperCode(4, 2, 1)
    cluster = Cluster.homogeneous(code.n)
    dfs = DistributedFileSystem(cluster)
    ef = dfs.write_file("f", payload_bytes(code.data_stripe_total * 60, seed=2), code=code)
    read = dfs.client.get if level == "client" else dfs.store.timed_get
    with pytest.raises(BlockUnavailableError) as missing:
        read(ef.server_of(1), "f", 0)
    assert (missing.value.cause, missing.value.server, missing.value.block) == ("missing", ef.server_of(1), 0)
    cluster.fail(ef.server_of(2))
    with pytest.raises(BlockUnavailableError) as down:
        read(ef.server_of(2), "f", 2)
    assert (down.value.cause, down.value.server, down.value.block) == ("server_down", ef.server_of(2), 2)
    assert dfs.metrics.total("blocks_read") == 0
