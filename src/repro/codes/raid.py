"""The rotated-placement strawman of paper Sec. III-D.

RAID systems spread parity by *cyclically rotating* stripe placement: with
``n`` servers and ``N = n`` stripe rows, server ``s`` stores, in row
``t``, the stripe of logical block ``(s + t) mod n``.  Every server then
holds ``k`` data stripes — full data parallelism, like Carousel — and the
paper discusses extending this trick to Pyramid codes.

The paper rejects the idea for a concrete reason this class lets us
measure: rotation breaks the *server-locality* of Pyramid codes.  Each
stripe of a failed server must be repaired from its own group's stripes,
which rotation scatters over different servers row by row, so a single
repair touches (wakes up) nearly every server even though the byte count
stays low.  The ``repair_plan`` below reflects that: helpers are all
servers hosting any required stripe, and the coefficients it compiles
name only those stripes, so each helper is read only fractionally.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import (
    ROLE_DATA,
    BlockInfo,
    ErasureCode,
    RepairPlan,
    default_field,
)
from repro.codes.pyramid import pyramid_generator
from repro.codes.structure import LRCStructure
from repro.gf import GF, express_rows


class RotatedPyramidCode(ErasureCode):
    """A (k, l, g) Pyramid code with RAID-style rotated stripe placement.

    Logical Pyramid blocks are diagonally striped over ``n = k + l + g``
    servers with ``N = n`` rows: server ``s``, row ``t`` holds logical
    block ``(s + t) mod n``'s symbol for stripe row ``t``.  File data is
    laid out row-major over logical data blocks, so each server's data
    stripes map to *scattered* file extents.
    """

    name = "rotated-pyramid"

    def __init__(self, k: int, l: int, g: int, gf: GF | None = None, construction: str = "cauchy"):
        self.gf = gf or default_field()
        self.structure = LRCStructure(k, l, g)
        self.k = k
        self.l = l
        self.g = g
        self.n = self.structure.n
        self.N = self.n
        pyr = pyramid_generator(self.gf, self.structure, construction)
        n, N = self.n, self.N
        gen = np.zeros((n * N, k * N), dtype=self.gf.dtype)
        data_pos = {b: p for p, b in enumerate(self.structure.data_blocks())}
        infos = []
        #: Per server, the (logical block, stripe row) of each stored row,
        #: and which stored row holds each stripe row.
        self._stored: list[list[tuple[int, int]]] = []
        self._row_of: list[dict[int, int]] = []
        for s in range(n):
            file_stripes = []
            rows_here = []  # (logical block, row) in row order
            for t in range(N):
                logical = (s + t) % n
                rows_here.append((logical, t))
            # Data stripes first (rotated to the top), parity stripes after.
            ordered = sorted(
                rows_here, key=lambda bt: (self.structure.role_of(bt[0]) != ROLE_DATA, bt[1])
            )
            self._stored.append(ordered)
            self._row_of.append({t: row for row, (_, t) in enumerate(ordered)})
            for new_row, (logical, t) in enumerate(ordered):
                row = gen[s * N + new_row]
                for j in range(k):
                    coeff = int(pyr[logical, j])
                    if coeff:
                        row[j * N + t] = coeff
                if self.structure.role_of(logical) == ROLE_DATA:
                    file_stripes.append(data_pos[logical] * N + t)
            infos.append(
                BlockInfo(
                    index=s,
                    role=ROLE_DATA,  # every server block carries data
                    group=None,
                    data_stripes=len(file_stripes),
                    total_stripes=N,
                    file_stripes=tuple(file_stripes),
                )
            )
        self.generator = gen
        self.block_infos = infos

    def _row_sources(self, target: int) -> list[list[int]]:
        """Per stored row of ``target``, the servers whose stripe of the
        same stripe row rebuilds it: the group mates of a data or
        local-parity stripe, the ``k`` data stripes of a global parity."""
        st = self.structure
        sources = []
        for logical, t in self._stored[target]:
            if st.l and st.role_of(logical) != "global_parity":
                mates = [b for b in st.group_members(st.group_of(logical)) if b != logical]
            else:
                mates = st.data_blocks()
            sources.append([(b - t) % self.n for b in mates])
        return sources

    def repair_plan(self, target: int, failed=frozenset(), preference=None) -> RepairPlan:
        """Repair the stripes of one server, group by group.

        Each of the server's stripes belongs to some logical Pyramid block;
        a data/local-parity stripe is repaired from its group's stripes in
        the same row, a global-parity stripe from the k data stripes of its
        row.  The helper *servers* are whoever hosts those stripes — which
        rotation spreads over almost the whole cluster, each read for the
        few stripes :meth:`_express_block` names.
        """
        failed = set(failed) | {target}
        servers = {s for row in self._row_sources(target) for s in row}
        if servers & failed:
            # A helper is gone too: give up on row-local repair and
            # decode from whatever survives.
            return self._fallback_plan(target, [s for s in range(self.n) if s not in failed])
        return RepairPlan(target=target, helpers=tuple(sorted(servers)), code=self)

    def _express_block(self, target: int, helpers: tuple[int, ...]) -> np.ndarray:
        """Row-local coefficients when the helpers host every source stripe.

        The generic solve is free to mix stripe rows; writing each stored
        row over its own row's sources keeps the repair at the byte count
        the layout promises.
        """
        sources = self._row_sources(target)
        if not {s for row in sources for s in row} <= set(helpers):
            return super()._express_block(target, helpers)
        N = self.N
        coeffs = np.zeros((N, len(helpers) * N), dtype=self.gf.dtype)
        position = {s: i for i, s in enumerate(helpers)}
        for row, ((_, t), servers) in enumerate(zip(self._stored[target], sources)):
            held = [self._row_of[s][t] for s in servers]
            coeffs[row, [position[s] * N + r for s, r in zip(servers, held)]] = express_rows(
                self.gf,
                self.generator[target * N + row][None, :],
                self.generator[[s * N + r for s, r in zip(servers, held)]],
            )[0]
        return coeffs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RotatedPyramidCode(k={self.k}, l={self.l}, g={self.g})"
