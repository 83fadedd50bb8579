"""Pyramid codes (Huang et al.; paper Sec. III-B).

A ``(k, l, g)`` Pyramid code stores ``k`` data blocks, ``l`` local parity
blocks (one XOR parity per group of ``k/l`` data blocks, i.e. a (k/l, 1)
Reed-Solomon code per group) and ``g`` global parity blocks.  Data and
local parity blocks have locality ``k/l``; any ``g + 1`` failures are
tolerated.

Blocks are ordered group-major (see :mod:`repro.codes.structure`), which is
the ordering the Galloper construction and the paper's Sec. V-B linear
program use.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import (
    BlockInfo,
    ErasureCode,
    default_field,
)
from repro.codes.rs import rs_generator
from repro.codes.structure import GroupRepairMixin, LRCStructure
from repro.gf import GF


def pyramid_generator(gf: GF, structure: LRCStructure) -> np.ndarray:
    """Build the ``(k+l+g, k)`` block-level Pyramid generator, group-major.

    This is the construction of Huang et al.: start from a (k, g+1)
    Reed-Solomon code, *split its first parity* into ``l`` local parities
    (the parity row restricted to each group's columns), and keep the
    remaining ``g`` parities as global parity blocks.  Because the RS
    generator here normalizes its first parity row to all ones, each local
    parity is exactly the XOR of its group — the (k/l, 1) Reed-Solomon code
    of the paper's Sec. III-B — while any ``g + 1`` erasures stay decodable.

    Row ``b`` of the result expresses block ``b`` over the ``k`` original
    data blocks in file order.
    """
    k, l, g = structure.k, structure.l, structure.g
    # One extra parity beyond g: its split becomes the local parities.
    rs = rs_generator(gf, k, g + 1) if l else rs_generator(gf, k, g)
    rows = np.zeros((structure.n, k), dtype=gf.dtype)
    data_blocks = structure.data_blocks()
    for pos, b in enumerate(data_blocks):
        rows[b, pos] = 1
    if l:
        per_group = structure.group_data
        split_row = rs[k]  # the all-ones parity row
        for group in range(l):
            lp = structure.group_members(group)[-1]
            for pos in range(group * per_group, (group + 1) * per_group):
                rows[lp, pos] = split_row[pos]
        for i, b in enumerate(structure.global_parity_blocks()):
            rows[b] = rs[k + 1 + i]
    else:
        for i, b in enumerate(structure.global_parity_blocks()):
            rows[b] = rs[k + i]
    if structure.all_symbol:
        # All-symbol locality (future work of Sec. VII-A): one extra XOR
        # parity over the global parities gives them locality g too.
        extra = structure.n - 1
        for b in structure.global_parity_blocks():
            rows[extra] ^= rows[b]
    return rows


class PyramidCode(GroupRepairMixin, ErasureCode):
    """A (k, l, g) Pyramid code with N = 1 stripe per block.

    When ``l == 0`` this is exactly a (k, g) Reed-Solomon code, as in the
    paper's Sec. III-B.
    """

    name = "pyramid"

    def __init__(
        self,
        k: int,
        l: int,
        g: int,
        gf: GF | None = None,
        all_symbol: bool = False,
    ):
        self.gf = gf or default_field()
        self.structure = LRCStructure(k, l, g, all_symbol)
        self.k = k
        self.l = l
        self.g = g
        self.n = self.structure.n
        self.N = 1
        self._construct((k, l, g, all_symbol), self._build)

    def _build(self) -> None:
        self.generator = pyramid_generator(self.gf, self.structure)
        infos = []
        for b in range(self.n):
            role = self.structure.role_of(b)
            is_data = role == "data"
            infos.append(
                BlockInfo(
                    index=b,
                    role=role,
                    group=self.structure.group_of(b),
                    data_stripes=1 if is_data else 0,
                    total_stripes=1,
                    file_stripes=(self.structure.data_position(b),) if is_data else (),
                )
            )
        self.block_infos = tuple(infos)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PyramidCode(k={self.k}, l={self.l}, g={self.g})"
