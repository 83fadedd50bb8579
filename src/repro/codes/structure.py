"""Shared block-layout structure for locally repairable codes.

Both Pyramid codes and Galloper codes arrange their ``k + l + g`` blocks
group-major, matching the index conventions of the paper's Sec. V-B linear
program: for each of the ``l`` local groups, the group's ``k/l`` data
blocks are followed by the group's local parity block; the ``g`` global
parity blocks come last.  For ``(k=4, l=2, g=1)`` the order is::

    [D1, D2, L1, D3, D4, L2, G1]
     '--- group 0 ---'--- group 1 ---'  global

**All-symbol locality** (the paper's stated future work, Sec. VII-A) is
supported via ``all_symbol=True``: the global parities become a repair
group of their own, protected by one extra XOR parity block appended at
the end, so *every* block has small locality::

    [D1, D2, L1, D3, D4, L2, G1, G2, P]     (k=4, l=2, g=2, all_symbol)
     '--- group 0 ---'--- group 1 ---'--- GP group ---'

This module computes roles, group membership and index maps once so both
code families (and the scheduler / repair layers) agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.base import (
    ROLE_DATA,
    ROLE_GLOBAL_PARITY,
    ROLE_LOCAL_PARITY,
    DecodingError,
    ParameterError,
    RepairPlan,
)


@dataclass(frozen=True)
class LRCStructure:
    """Geometry of a (k, l, g) locally repairable code.

    Attributes:
        k: number of data blocks (the file is k blocks of input).
        l: number of local groups / local parity blocks; ``l == 0`` means
            the code degenerates to a (k, g) Reed-Solomon code.
        g: number of global parity blocks.
        all_symbol: when True, an extra XOR parity over the global
            parities is appended, making the global parities a repair
            group with locality ``g`` (all-symbol locality).
    """

    k: int
    l: int
    g: int
    all_symbol: bool = False

    def __post_init__(self):
        if self.k < 1 or self.l < 0 or self.g < 0:
            raise ParameterError(f"invalid LRC parameters (k={self.k}, l={self.l}, g={self.g})")
        if self.l and self.k % self.l:
            raise ParameterError(f"l={self.l} must divide k={self.k} (paper Sec. III-B)")
        if self.l + self.g < 1:
            raise ParameterError("a code needs at least one parity block")
        if self.all_symbol and self.g < 1:
            raise ParameterError("all-symbol locality needs at least one global parity")

    @property
    def n(self) -> int:
        """Total number of blocks (includes the extra GP-group parity)."""
        return self.k + self.l + self.g + (1 if self.all_symbol else 0)

    @property
    def group_data(self) -> int:
        """Data blocks per local group (k/l)."""
        if self.l == 0:
            raise ParameterError("no local groups when l == 0")
        return self.k // self.l

    @property
    def group_size(self) -> int:
        """Blocks per local group including the local parity (k/l + 1)."""
        return self.group_data + 1

    @property
    def num_repair_groups(self) -> int:
        """Local groups plus (with all-symbol locality) the GP group."""
        return self.l + (1 if self.all_symbol else 0)

    @property
    def gp_group_index(self) -> int | None:
        """Group id of the global-parity group, or None."""
        return self.l if self.all_symbol else None

    # ------------------------------------------------------------- indexing

    def role_of(self, block: int) -> str:
        """Role of a block index under group-major ordering."""
        self._check(block)
        if self.all_symbol and block == self.n - 1:
            return ROLE_LOCAL_PARITY  # parity of the GP group
        base = self.l * self.group_size if self.l else self.k
        if block >= base:
            return ROLE_GLOBAL_PARITY
        if self.l == 0:
            return ROLE_DATA
        return ROLE_LOCAL_PARITY if (block % self.group_size) == self.group_data else ROLE_DATA

    def group_of(self, block: int) -> int | None:
        """Repair-group id of a block, or None for ungrouped blocks."""
        self._check(block)
        grouped_span = self.l * self.group_size if self.l else 0
        if block < grouped_span:
            return block // self.group_size
        if self.all_symbol and block >= self.k + self.l:
            return self.gp_group_index
        return None

    def group_members(self, group: int) -> list[int]:
        """All block indices of a repair group (data members then parity)."""
        if 0 <= group < self.l:
            base = group * self.group_size
            return list(range(base, base + self.group_size))
        if self.all_symbol and group == self.gp_group_index:
            start = self.k + self.l
            return list(range(start, start + self.g + 1))
        raise ParameterError(f"group {group} out of range")

    def group_data_count(self, group: int) -> int:
        """Number of data-carrying members in a repair group (its locality)."""
        if 0 <= group < self.l:
            return self.group_data
        if self.all_symbol and group == self.gp_group_index:
            return self.g
        raise ParameterError(f"group {group} out of range")

    def data_blocks(self) -> list[int]:
        """Block indices with the data role, in file order."""
        return [b for b in range(self.n) if self.role_of(b) == ROLE_DATA]

    def global_parity_blocks(self) -> list[int]:
        return [b for b in range(self.n) if self.role_of(b) == ROLE_GLOBAL_PARITY]

    def data_position(self, block: int) -> int:
        """File-order index (0..k-1) of a data-role block."""
        if self.role_of(block) != ROLE_DATA:
            raise ParameterError(f"block {block} is not a data block")
        return self.data_blocks().index(block)

    def _check(self, block: int) -> None:
        if not 0 <= block < self.n:
            raise ParameterError(f"block {block} out of range for n={self.n}")

    def failure_tolerance(self) -> int:
        """Number of arbitrary failures always tolerated (g + 1 when l > 0,
        g when l == 0 i.e. plain Reed-Solomon with r = g)."""
        return self.g + 1 if self.l > 0 else self.g


class GroupRepairMixin:
    """Locality-aware repair planning shared by Pyramid and Galloper codes.

    Requires the host class to provide ``self.structure`` (an
    :class:`LRCStructure`), the :class:`~repro.codes.base.ErasureCode`
    attributes, and ``_fallback_plan``.
    """

    structure: LRCStructure

    def repair_plan(self, target: int, failed=frozenset(), preference=None) -> RepairPlan:
        """Group-local repair when possible; k-block repair otherwise.

        A grouped block is rebuilt from the other members of its repair
        group when they all survive (the low disk-I/O path of Fig. 1b /
        Fig. 8).  An ungrouped global parity, or any block whose group is
        degraded, falls back to a decode-capable helper set — preferring
        data-role blocks (as the paper does) and, within a role, the
        caller's ``preference`` ranking (e.g. fastest disks first).
        """
        from repro.codes.base import _apply_preference

        failed = set(failed) | {target}
        st = self.structure
        group = st.group_of(target)
        if group is not None:
            members = [b for b in st.group_members(group) if b != target]
            if not any(b in failed for b in members):
                return RepairPlan(target=target, helpers=tuple(members), code=self)
        alive = _apply_preference([b for b in range(self.n) if b not in failed], preference)
        alive.sort(key=lambda b: st.role_of(b) != ROLE_DATA)  # stable: keeps preference
        if len(alive) < self.k:
            raise DecodingError(
                f"{self.name}: cannot repair block {target}, only {len(alive)} blocks alive"
            )
        return self._fallback_plan(target, alive)
