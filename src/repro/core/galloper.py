"""Galloper codes — the paper's contribution (Sec. IV and V).

A ``(k, l, g)`` Galloper code is linearly equivalent to the ``(k, l, g)``
Pyramid code it is built from — same failure tolerance, same locality,
same reconstruction disk I/O — but original data is embedded in *every*
block, with per-block fractions given by a weight vector matched to server
performance.

Construction (following the paper, with an efficient factorization):

**Step 1 (Sec. IV-B)** builds a ``(k, 0, g)`` Galloper code from the
``(k, g)`` Reed-Solomon code formed by the Pyramid code's global parities.
Each block is split into ``N`` stripes; ``w_i * N`` stripes are chosen per
block by the sequential walk of :mod:`repro.core.layout`, and the code is
remapped so the chosen stripes become the data.  Because the walk selects
exactly ``k`` stripes in every stripe row, and stripe rows are independent
Reed-Solomon codewords, the basis change factors into ``N`` small
``k x k`` inversions — the ``Gg @ inv(Gg0)`` of Sec. VI computed without
ever materializing the ``kN x kN`` inverse.  Stripes are then rotated so
data sits at the top of each block.

**Step 2 (Sec. V-A)** splices in the ``l`` local parity blocks (the XOR of
their group's blocks, stripe row by stripe row) and remaps once more
inside every group of ``k/l + 1`` blocks, choosing ``w_i * N`` stripes per
block among the first ``w_g * N`` rows.  The second basis change factors
the same way, into ``w_g * N`` inversions of size ``k/l``.

The resulting generator is checked to be systematic on the advertised
stripe positions at construction time.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.codes.base import (
    ROLE_GLOBAL_PARITY,
    BlockInfo,
    CodeError,
    ErasureCode,
    default_field,
)
from repro.codes.pyramid import pyramid_generator
from repro.codes.structure import GroupRepairMixin, LRCStructure
from repro.core.layout import Selection, rotation_permutation, sequential_selection
from repro.core.weights import WeightAssignment, assign_weights, finalize
from repro.gf import GF, inverse, matmul
from repro.gf.kernels import mat_data_product


class ConstructionError(CodeError):
    """Raised when the Galloper construction produces an inconsistent code."""


class GalloperCode(GroupRepairMixin, ErasureCode):
    """Parallelism-aware locally repairable code.

    Args:
        k: number of blocks of original data.
        l: number of local parity blocks (local groups); ``l == 0`` gives
            the special case of Sec. IV.
        g: number of global parity blocks.
        weights: optional explicit per-block weights (rationals summing to
            ``k``); mutually exclusive with ``performances``.
        performances: optional per-server performance measurements; weights
            are derived via the throttling LP of Sec. IV-C / V-B.  When
            neither is given the cluster is treated as homogeneous and
            every block gets weight ``k / (k + l + g)``.
        gf: arithmetic context (GF(2^8) by default, as the paper).
    """

    name = "galloper"

    def __init__(
        self,
        k: int,
        l: int,
        g: int,
        weights=None,
        performances=None,
        gf: GF | None = None,
        all_symbol: bool = False,
    ):
        if weights is not None and performances is not None:
            raise ConstructionError("pass either explicit weights or performances, not both")
        self.gf = gf or default_field()
        self.structure = LRCStructure(k, l, g, all_symbol)
        self.k = k
        self.l = l
        self.g = g
        self.n = self.structure.n
        if weights is not None:
            self.assignment = finalize(self.structure, [Fraction(w) for w in weights])
        else:
            self.assignment = assign_weights(self.structure, performances)
        self.N = self.assignment.N
        self.pyramid_block_generator = pyramid_generator(self.gf, self.structure)
        self._build()
        if not self.verify_systematic():  # pragma: no cover - construction invariant
            raise ConstructionError("generator is not systematic on the advertised stripes")

    # ------------------------------------------------------------ construction

    def _build(self) -> None:
        st = self.structure
        N = self.N
        counts = self.assignment.counts

        # ---- Step 1: (k, 0, g) Galloper over [data blocks..., global parities...].
        # The step-1 Reed-Solomon generator: identity over the k data blocks
        # plus the Pyramid code's global parity rows — the "(k, g)
        # Reed-Solomon code" of Sec. IV-B, chosen so the final code is
        # linearly equivalent to the Pyramid code.
        global_blocks = st.global_parity_blocks()
        rs_blk = np.concatenate(
            [np.eye(self.k, dtype=self.gf.dtype), self.pyramid_block_generator[global_blocks]],
            axis=0,
        )
        data_blocks = st.data_blocks()  # final indices, file order

        def step1_count(b: int) -> int:
            # Grouped blocks carry w_g*N stripes after step 1; the remainder
            # of their weight moves to their group's parity in step 2.
            # Ungrouped blocks keep their final weight from step 1 on.
            grp = st.group_of(b)
            return self.assignment.group_counts[grp] if grp is not None else counts[b]

        step1_counts = [step1_count(b) for b in data_blocks] + [
            step1_count(b) for b in global_blocks
        ]
        if sum(step1_counts) != self.k * N:
            raise ConstructionError(
                f"step-1 stripe counts sum to {sum(step1_counts)}, expected k*N={self.k * N}"
            )
        sel1 = sequential_selection(step1_counts, N)

        g1 = self._remap_rowwise(
            block_gen=rs_blk,
            selection=sel1,
            row_limit=N,
            total_rows=N,
            num_cols=self.k * N,
            col_base=_prefix_sums(step1_counts),
        )
        # Rotate chosen stripes to the top of every step-1 block.
        for b in range(rs_blk.shape[0]):
            perm = rotation_permutation(sel1.per_block[b], N)
            g1[b * N : (b + 1) * N] = _permute_rows(g1[b * N : (b + 1) * N], perm)

        if st.num_repair_groups == 0:
            self.generator = g1
            self._set_block_infos(step1_counts)
            return

        # ---- Step 2: splice group parities and remap inside each group.
        # Groups are the l local groups plus, with all-symbol locality, the
        # global-parity group (paper future work, Sec. VII-A).
        step1_index = {b: i for i, b in enumerate(data_blocks)}
        for i, b in enumerate(global_blocks):
            step1_index[b] = self.k + i

        ghat = np.zeros((self.n * N, self.k * N), dtype=self.gf.dtype)
        for b in range(self.n):
            role = st.role_of(b)
            if role == "local_parity":
                members = st.group_members(st.group_of(b))[:-1]
                for d in members:
                    src = step1_index[d]
                    np.bitwise_xor(
                        ghat[b * N : (b + 1) * N],
                        g1[src * N : (src + 1) * N],
                        out=ghat[b * N : (b + 1) * N],
                    )
            else:
                src = step1_index[b]
                ghat[b * N : (b + 1) * N] = g1[src * N : (src + 1) * N]

        # Substitution matrix M: step-1 data coordinates -> final coordinates.
        col1 = _prefix_sums(step1_counts)
        col2 = _prefix_sums([counts[b] for b in range(self.n)])
        m = np.zeros((self.k * N, self.k * N), dtype=self.gf.dtype)

        # Ungrouped blocks keep their step-1 data stripes verbatim.
        for b in data_blocks + global_blocks:
            if st.group_of(b) is not None:
                continue
            c = counts[b]
            if c:
                src = col1[step1_index[b]]
                dst = col2[b]
                idx = np.arange(c)
                m[src + idx, dst + idx] = 1

        selections2: dict[int, Selection] = {}
        for j in range(st.num_repair_groups):
            members = st.group_members(j)  # data-carrying members then parity
            gd = st.group_data_count(j)
            row_limit = self.assignment.group_counts[j]
            counts2 = [counts[b] for b in members]
            if sum(counts2) != gd * row_limit:
                raise ConstructionError(
                    f"group {j}: step-2 counts {counts2} inconsistent with w_g*N={row_limit}"
                )
            sel2 = sequential_selection(counts2, row_limit)
            selections2[j] = sel2
            if row_limit == 0:
                continue
            # Per stripe row p, the group's k/l+1 stripes obey the (k/l, 1)
            # XOR code over the k/l step-1 data stripes in that row.
            gp_small = np.concatenate(
                [np.eye(gd, dtype=self.gf.dtype), np.ones((1, gd), dtype=self.gf.dtype)], axis=0
            )
            for p in range(row_limit):
                choosers = sel2.choosers_by_row[p]  # member positions, |.| == k/l
                sub_inv = inverse(self.gf, gp_small[list(choosers)])
                old_cols = [col1[step1_index[d]] + p for d in members[:-1]]
                new_cols = [
                    col2[members[mpos]] + sel2.ordinal(mpos, p) for mpos in choosers
                ]
                for a, oc in enumerate(old_cols):
                    for bb, nc in enumerate(new_cols):
                        m[oc, nc] = sub_inv[a, bb]

        # The step-2 basis change is the construction's one large product
        # ((n*N, k*N) x (k*N, k*N)); run it through the batched gather
        # kernel so wide fields use split tables instead of log/antilog.
        gen = mat_data_product(self.gf, ghat, m)

        # Rotate the step-2 chosen stripes to the top of every grouped block.
        for b in range(self.n):
            j = st.group_of(b)
            if j is None:
                continue  # ungrouped blocks were already rotated in step 1
            mpos = st.group_members(j).index(b)
            perm = rotation_permutation(selections2[j].per_block[mpos], N)
            gen[b * N : (b + 1) * N] = _permute_rows(gen[b * N : (b + 1) * N], perm)

        self.generator = gen
        self._set_block_infos([counts[b] for b in range(self.n)])

    def _remap_rowwise(
        self,
        block_gen: np.ndarray,
        selection: Selection,
        row_limit: int,
        total_rows: int,
        num_cols: int,
        col_base: list[int],
    ) -> np.ndarray:
        """Step-1 basis change, factored per stripe row.

        For stripe row ``t`` the chosen stripes are ``k`` codeword symbols
        of the block-level Reed-Solomon code; expressing all ``k + g``
        symbols of that row over the chosen ones is a small
        ``(k+g, k) @ inv(k, k)`` product.  Assembling those per-row
        matrices into the stripe-level generator yields exactly
        ``Gg @ inv(Gg0)`` (cross-checked against
        :func:`repro.core.remapping.change_basis` in the tests).
        """
        nblocks, k = block_gen.shape
        out = np.zeros((nblocks * total_rows, num_cols), dtype=self.gf.dtype)
        ordinals = [
            {row: o for o, row in enumerate(rows)} for rows in selection.per_block
        ]
        for t in range(row_limit):
            choosers = selection.choosers_by_row[t]
            sub_inv = inverse(self.gf, block_gen[list(choosers)])
            a_t = matmul(self.gf, block_gen, sub_inv)
            cols = [col_base[b] + ordinals[b][t] for b in choosers]
            for b in range(nblocks):
                out[b * total_rows + t, cols] = a_t[b]
        return out

    def _set_block_infos(self, counts) -> None:
        offsets = _prefix_sums(list(counts))
        infos = []
        for b in range(self.n):
            c = int(counts[b])
            infos.append(
                BlockInfo(
                    index=b,
                    role=self.structure.role_of(b),
                    group=self.structure.group_of(b),
                    data_stripes=c,
                    total_stripes=self.N,
                    file_stripes=tuple(range(offsets[b], offsets[b] + c)),
                )
            )
        self.block_infos = infos

    # ---------------------------------------------------------------- helpers

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The per-block weights w_i actually used by the construction."""
        return self.assignment.weights

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GalloperCode(k={self.k}, l={self.l}, g={self.g}, N={self.N}, "
            f"weights={[str(w) for w in self.weights]})"
        )


def _prefix_sums(counts: list[int]) -> list[int]:
    out = [0]
    for c in counts:
        out.append(out[-1] + int(c))
    return out[:-1]


def _permute_rows(block: np.ndarray, perm: list[int]) -> np.ndarray:
    """Return a copy of ``block`` with row ``t`` moved to ``perm[t]``."""
    out = np.empty_like(block)
    for old, new in enumerate(perm):
        out[new] = block[old]
    return out
