"""Background scrubbing: detect and heal silent corruption.

Disks lie: blocks rot in place without any I/O error.  Production
storage systems therefore *scrub* — periodically re-read every block,
compare against a write-time checksum, and rebuild whatever mismatches.
The scrubber below walks the namespace, verifies each block against the
CRC recorded by :class:`~repro.storage.blockstore.BlockStore`, drops the
corrupt copies and routes them through the normal repair pipeline, so a
corrupted block on a Galloper/Pyramid file heals with a cheap
group-local repair.

The scrubber is breaker-aware: blocks on servers whose circuit breaker
is open are not verified (the breaker already distrusts the path) and
are accounted separately from crashed servers.  Once the breaker's reset
timeout has passed they are verified again like any other block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.trace import get_tracer
from repro.storage.blockstore import BlockUnavailableError
from repro.storage.filesystem import DistributedFileSystem
from repro.storage.repair import RepairManager, RepairReport


@dataclass
class ScrubReport:
    """Outcome of one scrub pass.

    Attributes:
        blocks_checked: blocks whose checksum was verified.
        blocks_skipped_crashed: blocks on crashed (fail-stop) servers —
            the repair pipeline's job, not the scrubber's.
        blocks_skipped_breaker: blocks on up-but-distrusted servers whose
            circuit breaker is open.
        corrupted: (file, block) pairs that failed verification.
        repairs: the repairs performed for corrupted blocks.
        reverified: rebuilt blocks whose fresh checksum verified after
            the heal.
    """

    blocks_checked: int = 0
    blocks_skipped_crashed: int = 0
    blocks_skipped_breaker: int = 0
    corrupted: list[tuple[str, int]] = field(default_factory=list)
    repairs: list[RepairReport] = field(default_factory=list)
    reverified: int = 0

    @property
    def blocks_skipped(self) -> int:
        """Total unverified blocks, regardless of why."""
        return self.blocks_skipped_crashed + self.blocks_skipped_breaker

    @property
    def healthy(self) -> bool:
        return not self.corrupted


class Scrubber:
    """Namespace-wide checksum verification with automatic healing.

    Args:
        dfs: the filesystem to scrub; its monitor says which breakers are
            open, and its repair pipeline heals what is corrupt.
    """

    def __init__(self, dfs: DistributedFileSystem):
        self.dfs = dfs
        self.repair = RepairManager(dfs)

    def scrub(self) -> ScrubReport:
        """Verify every block of every file and repair corruption.

        Corrupt copies are dropped the moment they are detected (their
        data cannot be trusted); the rebuilds are collected across the
        whole walk and go through the repair pipeline together, each back
        onto the server that held it (stripe groups sharing a code and
        corruption pattern rebuild in one kernel call), then every rebuilt
        block's fresh checksum is verified in place (``reverified`` / the
        ``scrub_reverified`` metric).
        """
        with get_tracer().span(
            "scrub.pass", category="scrub", clock=self.dfs.clock
        ) as sp:
            report = self._scrub(self.dfs.list_files())
            sp.set(checked=report.blocks_checked, corrupted=len(report.corrupted))
            return report

    def scrub_file(self, name: str) -> ScrubReport:
        """Scrub a single file."""
        return self._scrub([name])

    # ----------------------------------------------------------- internals

    def _scrub(self, names: list[str]) -> ScrubReport:
        report = ScrubReport()
        dropped: list[tuple[str, int, int]] = []
        tracer = get_tracer()
        for name in names:
            with tracer.span("scrub.file", category="scrub", file=name, clock=self.dfs.clock):
                self._scrub_into(name, report, dropped)
        if dropped:
            with tracer.span(
                "scrub.heal", category="scrub", blocks=len(dropped), clock=self.dfs.clock
            ):
                report.repairs = self.repair.repair_blocks_bulk(dropped)
                for rep in report.repairs:
                    if self.dfs.store.verify(rep.target_server, rep.file, rep.block):
                        report.reverified += 1
                        self.dfs.metrics.add("scrub_reverified", 1, rep.target_server)
        return report

    def _scrub_into(self, name: str, report: ScrubReport, dropped: list[tuple[str, int, int]]) -> None:
        """Verify one file's blocks; drop corrupt copies into ``dropped``."""
        ef = self.dfs.file(name)
        for block, server in sorted(ef.placement.items()):
            if self.dfs.cluster.server(server).failed:
                report.blocks_skipped_crashed += 1
                continue
            if self.dfs.health.is_open(server):
                report.blocks_skipped_breaker += 1
                continue
            try:
                ok = self.dfs.store.verify(server, name, block)
            except BlockUnavailableError:
                report.blocks_skipped_crashed += 1
                continue
            report.blocks_checked += 1
            if ok:
                continue
            report.corrupted.append((name, block))
            self.dfs.metrics.add("corruptions_detected", 1, server)
            self.dfs.store.drop(server, name, block)
            dropped.append((name, block, server))
