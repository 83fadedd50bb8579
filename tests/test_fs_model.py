"""A stateful model of the filesystem.

Hypothesis drives a ``DistributedFileSystem`` with its ``StripedFileSystem``,
``RepairManager`` and ``Scrubber`` over one code (RS(4,3), Pyramid(4,2,1) or
Galloper(4,2,1), over GF(2^8) or GF(2^16)) through interleavings of plain and striped writes,
whole-file and extent reads, server crashes and recoveries, bit rot
(``corrupt``), scrubs, ``repair_server`` and ``repair_all``, and checks
every step against a model: each file's bytes, the servers that are down,
and the blocks whose current copy is corrupt or was dropped by a scrub
that could not heal it.  Where each block lives is the system's choice;
the model follows it through the repair reports.  A GF(2^16) file stores
each payload byte as one 16-bit symbol, so every read of it takes the read
routine's numpy path (each run copied and narrowed into the bytes
returned) where a GF(2^8) read is delivered by the native CRC pass.

* A read returns the model's bytes whenever every stripe group it may
  touch can decode from its live blocks (``ErasureCode.can_decode``); a
  block is live when its server is up with a closed breaker, and its copy
  is neither corrupt nor dropped.  Otherwise the read returns the model's
  bytes or raises a typed error (``StorageError`` or ``CodeError``) —
  rows a read needs may still sit in blocks it can read or rebuild
  locally.
* A repair of blocks whose files can decode, with a spare server each,
  rebuilds exactly the blocks the model says are lost, onto live servers.
* After every repair no file has two blocks on one server, and every
  file's placement is where the model followed its blocks.

Servers whose breaker is open before or after a step count as not live
for it: a read of rotten rows opens its server's breaker, and the
fast-failed reads that follow are the point of the breaker.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.base import CodeError
from repro.core import GalloperCode
from repro.gf import GF256, GF65536
from repro.storage import DistributedFileSystem, RepairManager, Scrubber, StorageError, StripedFileSystem
from repro.storage.health import RESET_TIMEOUT
from tests.conftest import payload_bytes

#: Twice a code's length: the striped file's even groups land on servers
#: 0-6 and its odd ones on 7-13 while every server is up, so an extent
#: over three groups can lose the same block of two of them at different rows.
SERVERS = 14
CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}
#: At most this many servers are down at once: enough to lose groups, few
#: enough to leave writes and spares most of the time.
MOST_DOWN = 4
TYPED = (StorageError, CodeError)
DECODES: dict[tuple[str, str], dict[tuple[int, ...], bool]] = {}

servers = st.integers(0, SERVERS - 1)


class FileSystemMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = Cluster.homogeneous(SERVERS)
        self.dfs = DistributedFileSystem(self.cluster)
        self.sfs = StripedFileSystem(self.dfs)
        self.files: dict[str, bytes] = {}  # the model: name -> bytes
        self.groups: dict[str, list[str]] = {}  # name -> its stripe groups (one for a plain file)
        self.where: dict[tuple[str, int], int] = {}  # (group, block) -> server, followed through repairs
        self.down: set[int] = set()
        self.corrupted: set[tuple[str, int]] = set()  # (group, block) whose current copy is rotten
        self.dropped: set[tuple[str, int]] = set()  # (group, block) whose current copy is gone

    @initialize(
        code_name=st.sampled_from(sorted(CODES)), field=st.sampled_from(sorted(FIELDS)),
        groups=st.integers(3, 8), short=st.integers(0, 20),
        seed=st.integers(0, 255), width=st.sampled_from([3, 10]), crashed=st.sets(servers, max_size=2),
    )
    def start(self, code_name, field, groups, short, seed, width, crashed):
        """Pick the code and its field, write a striped file of three groups
        or more while every server is up, then crash up to two servers."""
        self.factory = lambda: CODES[code_name](FIELDS[field])
        self.code = self.factory()
        self.decodes = DECODES.setdefault((code_name, field), {})  # live blocks -> can_decode
        self.write_striped(groups * self.code.k * self.code.N * width - short, seed, width)
        for server in sorted(crashed):
            self.cluster.fail(server)
            self.down.add(server)

    # ------------------------------------------------------------ the model

    def unavailable(self, name: str, block: int) -> bool:
        server = self.where[name, block]
        return (
            server in self.down
            or self.dfs.health.is_open(server)
            or (name, block) in self.corrupted
            or (name, block) in self.dropped
        )

    def decodable(self, group: str) -> bool:
        live = tuple(b for b in range(self.code.n) if not self.unavailable(group, b))
        if live not in self.decodes:
            self.decodes[live] = self.code.can_decode(live)
        return self.decodes[live]

    def lost(self, group: str, server: int | None = None) -> list[int]:
        """The blocks of ``group`` a repair rebuilds: on a down server, or dropped."""
        return [
            b for b in range(self.code.n)
            if (server is None or self.where[group, b] == server)
            and (self.where[group, b] in self.down or (group, b) in self.dropped)
        ]

    def repairable(self, targets: dict[str, list[int]]) -> bool:
        """Whether every group can rebuild its lost blocks: it decodes from
        the blocks it keeps, and has a spare live server for each."""
        up = SERVERS - len(self.down)
        for group, blocks in targets.items():
            lost = self.lost(group)
            used = {self.where[group, b] for b in range(self.code.n) if b not in lost}
            if not self.decodable(group) or up - len(used) < len(blocks):
                return False
        return True

    def rebuilt(self, blocks) -> None:
        """``(group, block, server)``: a fresh copy of the block now lives on the server."""
        for group, block, server in blocks:
            self.where[group, block] = server
            self.corrupted.discard((group, block))
            self.dropped.discard((group, block))

    def moved(self) -> list[tuple[str, int, int]]:
        """After a repair that raised: the blocks it did install before it gave up."""
        return [
            (group, block, server)
            for group in self.all_groups()
            for block, server in self.dfs.file(group).placement.items()
            if self.where[group, block] != server
        ]

    def all_groups(self) -> list[str]:
        return [group for groups in self.groups.values() for group in groups]

    # ---------------------------------------------------------------- rules

    @rule(size=st.integers(1, 700), seed=st.integers(0, 255))
    def write_plain(self, size, seed):
        name = f"p{len(self.files)}"
        payload = payload_bytes(size, seed)
        if SERVERS - len(self.down) < self.code.n:
            with pytest.raises(TYPED):
                self.dfs.write_file(name, payload, code=self.factory())
            return
        ef = self.dfs.write_file(name, payload, code=self.factory())
        self.add(name, payload, [ef.name])

    @rule(size=st.integers(1, 900), seed=st.integers(0, 255), width=st.sampled_from([3, 10]))
    def write_striped(self, size, seed, width):
        name = f"s{len(self.files)}"
        payload = payload_bytes(size, seed)
        if SERVERS - len(self.down) < self.code.n:
            with pytest.raises(TYPED):
                self.sfs.write_file(name, payload, self.factory, max_block_bytes=self.code.N * width)
            return
        meta = self.sfs.write_file(name, payload, self.factory, max_block_bytes=self.code.N * width)
        self.add(name, payload, meta.group_names())

    def add(self, name: str, payload: bytes, groups: list[str]) -> None:
        self.files[name] = payload
        self.groups[name] = groups
        for group in groups:
            for block, server in self.dfs.file(group).placement.items():
                self.where[group, block] = server

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def read_file(self, data):
        name = data.draw(st.sampled_from(sorted(self.files)))
        read = self.sfs.read_file if name in self.sfs.striped else self.dfs.read_file
        self.expect(name, lambda: read(name), self.files[name])

    @precondition(lambda self: self.files)
    @rule(data=st.data())
    def read_bytes(self, data):
        name = data.draw(st.sampled_from(sorted(self.files)))
        size = len(self.files[name])
        offset = data.draw(st.integers(0, size))
        length = data.draw(st.integers(0, size - offset + 2))
        read = self.sfs.read_bytes if name in self.sfs.striped else self.dfs.read_bytes
        self.expect(name, lambda: read(name, offset, length), self.files[name][offset : offset + length])

    def long_striped(self) -> list[str]:
        return sorted(name for name, meta in self.sfs.striped.items() if meta.group_count >= 3)

    @precondition(lambda self: self.long_striped())
    @rule(data=st.data())
    def read_across_groups(self, data):
        """An extent of a striped file from inside one group to inside the
        second or third after it, which sit on the same servers while all
        are up; it starts in a stripe of a block the model says is lost,
        where there is one, so the groups need different rows of it."""
        name = data.draw(st.sampled_from(self.long_striped()))
        meta = self.sfs.striped[name]
        size, total = meta.group_payload, self.code.data_stripe_total
        first = data.draw(st.integers(0, meta.group_count - 3))
        last = data.draw(st.integers(first + 2, min(first + 3, meta.group_count - 1)))
        group = meta.group_names()[first]
        infos = self.code.block_infos
        lost = [s for b in range(self.code.n) if self.unavailable(group, b) for s in infos[b].file_stripes]
        stripe = data.draw(st.sampled_from(lost or range(total)))
        offset = first * size + stripe * (size // total) + data.draw(st.integers(0, size // total - 1))
        length = last * size + data.draw(st.integers(1, size - 1)) - offset
        want = self.files[name][offset : offset + length]
        self.expect(name, lambda: self.sfs.read_bytes(name, offset, length), want)

    def expect(self, name: str, read, want: bytes) -> None:
        """``read()`` returns ``want``, or raises a typed error where a group may not decode."""
        groups = self.groups[name]
        sure = all(self.decodable(g) for g in groups)
        try:
            got = read()
        except TYPED:
            assert not (sure and all(self.decodable(g) for g in groups)), "a decodable read raised"
            return
        assert got == want

    @precondition(lambda self: len(self.down) < MOST_DOWN)
    @rule(data=st.data())
    def crash(self, data):
        server = data.draw(st.sampled_from(sorted(set(range(SERVERS)) - self.down)))
        self.cluster.fail(server)
        self.down.add(server)

    @precondition(lambda self: self.down)
    @rule(data=st.data())
    def recover(self, data):
        server = data.draw(st.sampled_from(sorted(self.down)))
        self.cluster.recover(server)
        self.down.discard(server)

    def sound(self) -> list[tuple[str, int]]:
        """Blocks whose current copy is neither rotten (a second flip of the
        same byte would heal it) nor dropped."""
        return sorted(self.where.keys() - self.corrupted - self.dropped)

    @precondition(lambda self: self.sound())
    @rule(data=st.data(), offset=st.integers(0, 1 << 16))
    def corrupt(self, data, offset):
        group, block = data.draw(st.sampled_from(self.sound()))
        self.dfs.store.corrupt(self.where[group, block], group, block, offset=offset)
        self.corrupted.add((group, block))

    @precondition(lambda self: self.files)
    @rule()
    def scrub(self):
        found = {
            key for key in self.corrupted
            if self.where[key] not in self.down and not self.dfs.health.is_open(self.where[key])
        }
        groups = {group for group, _ in found}
        sure = all(map(self.decodable, groups))
        try:
            report = Scrubber(self.dfs).scrub()
        except TYPED:
            assert not (sure and all(map(self.decodable, groups))), "a decodable heal raised"
            for key in found:
                self.corrupted.discard(key)
                if not self.dfs.store.holds(self.where[key], *key):
                    self.dropped.add(key)
            self.after_repair()
            return
        assert set(report.corrupted) == found
        assert {(r.file, r.block, r.target_server) for r in report.repairs} == {
            (group, block, self.where[group, block]) for group, block in found
        }
        self.rebuilt((r.file, r.block, r.target_server) for r in report.repairs)
        self.after_repair()

    @precondition(lambda self: self.files)
    @rule(server=servers)
    def repair_server(self, server):
        targets = {g: self.lost(g, server) for g in self.all_groups()}
        targets = {g: blocks for g, blocks in targets.items() if blocks}
        self.repair(targets, lambda: RepairManager(self.dfs).repair_server(server).reports)

    @precondition(lambda self: self.files)
    @rule()
    def repair_all(self):
        targets = {g: self.lost(g) for g in self.all_groups()}
        targets = {g: blocks for g, blocks in targets.items() if blocks}
        self.repair(targets, RepairManager(self.dfs).repair_all)

    def repair(self, targets: dict[str, list[int]], run) -> None:
        sure = self.repairable(targets)
        try:
            reports = run()
        except TYPED:
            assert not (sure and self.repairable(targets)), "a repairable loss raised"
            self.rebuilt(self.moved())
            self.after_repair()
            return
        assert sorted((r.file, r.block) for r in reports) == sorted(
            (g, b) for g, blocks in targets.items() for b in blocks
        )
        for r in reports:
            assert r.target_server not in self.down
        self.rebuilt((r.file, r.block, r.target_server) for r in reports)
        self.after_repair()

    def after_repair(self) -> None:
        """No file has two blocks on one server, and each block is where the model followed it."""
        for group in self.all_groups():
            placement = self.dfs.file(group).placement
            held = [server for block, server in placement.items() if (group, block) not in self.dropped]
            assert len(set(held)) == len(held)
            assert placement == {b: self.where[group, b] for b in placement}

    @rule()
    def wait(self):
        """Let every open breaker's reset timeout pass."""
        self.dfs.clock.advance(RESET_TIMEOUT)

    @invariant()
    def namespace_is_the_model(self):
        assert sorted(self.dfs.files) == sorted(self.all_groups())


MODEL_SETTINGS = settings(
    max_examples=settings.default.max_examples, stateful_step_count=30, deadline=None
)


class TestFileSystemModel(FileSystemMachine.TestCase):
    settings = MODEL_SETTINGS
