"""What both workload families share: the three codes and the failure ledger."""

from __future__ import annotations

from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode

# Equal 1.75x overhead: n = 7 blocks storing k = 4 blocks' worth of data.
CODE_FACTORIES = {
    "rs": lambda: ReedSolomonCode(4, 3),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
}

class Failures:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons: list[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, incorrect: bool = True, count: int = 1) -> None:
        """``incorrect`` marks wrong bytes or counts, as opposed to an operation the system refused."""
        self.failed += count
        if incorrect:
            self.incorrect += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)
