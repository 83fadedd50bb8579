"""n-way replication, the classical redundancy baseline (paper Sec. I).

Replication of factor ``r`` stores ``r`` verbatim copies of every block:
3-way replication tolerates any 2 failures at 3x storage overhead, versus
1.5x for a (4, 2) Reed-Solomon code.  Reconstruction reads exactly one
copy, and every copy supports data-parallel tasks — replication is the
parallelism and repair-I/O gold standard that erasure codes trade away
for storage efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import (
    ROLE_DATA,
    ROLE_REPLICA,
    BlockInfo,
    DecodingError,
    ErasureCode,
    ParameterError,
    RepairPlan,
    default_field,
)
from repro.gf import GF


class ReplicationCode(ErasureCode):
    """k logical blocks, each replicated ``factor`` times.

    Blocks are laid out copy-major: block ``c * k + j`` is the ``c``-th
    copy of logical block ``j``, so the first ``k`` blocks look exactly
    like the data blocks of a systematic erasure code.
    """

    name = "replication"

    def __init__(self, k: int, factor: int = 3, gf: GF | None = None):
        if factor < 1:
            raise ParameterError("replication factor must be >= 1")
        self.gf = gf or default_field()
        self.k = k
        self.factor = factor
        self.n = k * factor
        self.N = 1
        eye = np.eye(k, dtype=self.gf.dtype)
        self.generator = np.concatenate([eye] * factor, axis=0)
        self.block_infos = [
            BlockInfo(
                index=i,
                role=ROLE_DATA if i < k else ROLE_REPLICA,
                group=i % k,  # group = logical block id
                data_stripes=1,
                total_stripes=1,
                file_stripes=(i % k,),
            )
            for i in range(self.n)
        ]

    def copies_of(self, logical: int) -> list[int]:
        """All block indices storing copies of one logical block."""
        if not 0 <= logical < self.k:
            raise ParameterError(f"logical block {logical} out of range")
        return [c * self.k + logical for c in range(self.factor)]

    def repair_plan(self, target: int, failed=frozenset(), preference=None) -> RepairPlan:
        """Copy one surviving replica — the cheapest possible repair.

        With a ``preference`` ranking, the best-ranked surviving copy is
        chosen (e.g. the one on the fastest disk).
        """
        from repro.codes.base import _apply_preference

        failed = set(failed) | {target}
        copies = _apply_preference(
            [b for b in self.copies_of(target % self.k) if b not in failed], preference
        )
        if not copies:
            raise DecodingError(f"replication: all copies of block {target % self.k} lost")
        return RepairPlan(target=target, helpers=(copies[0],), code=self)

    def storage_overhead(self) -> float:
        return float(self.factor)

    def failure_tolerance(self) -> int:
        """Arbitrary-failure tolerance (any factor-1 blocks may fail)."""
        return self.factor - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReplicationCode(k={self.k}, factor={self.factor})"
