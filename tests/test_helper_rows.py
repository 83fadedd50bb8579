"""The row-granular repair plan, checked against the algebra and nothing else.

A :class:`~repro.codes.base.RepairPlan` says which helper blocks rebuild a
block; its :class:`~repro.codes.base.HelperRows` say, per row of that block,
which rows of those helpers.  The oracle here is the generator matrix and an
encoded codeword: each target row must come back byte-exact from *exactly*
the rows its plan names — every other stored symbol is poisoned first — and
from no proper subset of them, which is a rank condition on generator rows
that never runs the code under test.
"""

import numpy as np
import pytest

from repro.codes import CarouselCode, PyramidCode, ReedSolomonCode, ReplicationCode, RotatedPyramidCode
from repro.codes.base import DecodingError
from repro.core import GalloperCode
from repro.gf import GF256, GF65536, random_symbols, rows_in_rowspace

CODES = {
    "rs-4-3": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "rs-6-3": lambda gf: ReedSolomonCode(6, 3, gf=gf),
    "pyramid-4-2-1": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "pyramid-6-2-2": lambda gf: PyramidCode(6, 2, 2, gf=gf),
    "galloper-4-2-1": lambda gf: GalloperCode(4, 2, 1, gf=gf),
    "galloper-hetero": lambda gf: GalloperCode(4, 2, 1, performances=[2, 1, 1, 2, 1, 1, 1], gf=gf),
    "galloper-6-2-1": lambda gf: GalloperCode(6, 2, 1, gf=gf),
    "carousel-4-2": lambda gf: CarouselCode(4, 2, gf=gf),
    "rotated-4-2-1": lambda gf: RotatedPyramidCode(4, 2, 1, gf=gf),
    "replication-3x": lambda gf: ReplicationCode(3, 3, gf=gf),
}
FIELDS = {"gf8": GF256, "gf16": GF65536}

code_matrix = pytest.mark.parametrize("code_name", CODES)
field_matrix = pytest.mark.parametrize("field", FIELDS)


def encoded(code, seed=0):
    data = random_symbols(code.gf, (code.data_stripe_total, 12), seed=seed)
    return code.encode(data)


def only_the_named_rows(code, blocks, pairs):
    """The codeword with every symbol outside ``pairs`` overwritten."""
    poisoned = np.full_like(blocks, code.gf.size - 1)
    for helper, row in pairs:
        poisoned[helper, row] = blocks[helper, row]
    return poisoned


def read_chunks(blocks, reads):
    return [blocks[helper, first : first + count] for helper, first, count in reads]


@code_matrix
@field_matrix
def test_every_row_rebuilds_from_exactly_the_rows_it_names_and_no_fewer(code_name, field):
    code = CODES[code_name](FIELDS[field])
    blocks = encoded(code)
    generator, N = code.generator, code.N
    for target in range(code.n):
        plan = code.repair_plan(target)
        helper_rows = plan.helper_rows
        assert helper_rows.helpers == plan.helpers and len(helper_rows.rows) == N
        for row in range(N):
            pairs = helper_rows.rows[row]
            assert {h for h, _ in pairs} <= set(plan.helpers)
            reads = helper_rows.reads(row, 1)
            assert {(h, first + i) for h, first, count in reads for i in range(count)} == set(pairs)
            survivors = only_the_named_rows(code, blocks, pairs)
            rebuilt = helper_rows.rebuild(row, 1, read_chunks(survivors, reads))
            assert np.array_equal(rebuilt[0], blocks[target, row]), (target, row)
            # Minimal: drop any one named row and the target row leaves the span.
            want = generator[target * N + row][None, :]
            named = [h * N + r for h, r in pairs]
            for dropped in range(len(named)):
                rest = generator[named[:dropped] + named[dropped + 1 :]]
                assert not (rest.size and rows_in_rowspace(code.gf, want, rest)), (target, row, dropped)


@pytest.mark.parametrize("code_name", ["rs-4-3", "rs-6-3", "pyramid-4-2-1", "pyramid-6-2-2",
                                       "galloper-4-2-1", "galloper-hetero", "galloper-6-2-1", "carousel-4-2"])
def test_a_single_failure_costs_one_row_per_helper(code_name):
    """Remapping is a change of basis: the rows of a Galloper block still
    repair like the rows of the Pyramid code underneath, one for one."""
    code = CODES[code_name](GF256)
    for target in range(code.n):
        plan = code.repair_plan(target)
        for pairs in plan.helper_rows.rows:
            assert sorted(h for h, _ in pairs) == sorted(plan.helpers)
        # ... and over a whole block every row of every helper is needed once.
        assert plan.read_fractions == {h: 1.0 for h in plan.helpers}
        assert plan.bytes_read(1000) == 1000 * len(plan.helpers)


@code_matrix
def test_runs_of_rows_rebuild_from_their_merged_reads(code_name):
    code = CODES[code_name](GF256)
    blocks = encoded(code, seed=1)
    for target in range(code.n):
        helper_rows = code.repair_plan(target).helper_rows
        for row0 in range(code.N):
            for nrows in range(1, code.N - row0 + 1):
                reads = helper_rows.reads(row0, nrows)
                assert reads is helper_rows.reads(row0, nrows)  # merged once
                for (h, first, count), (h2, first2, _) in zip(reads, reads[1:]):
                    assert h != h2 or first + count < first2  # maximal runs, in row order
                pairs = {pair for r in range(row0, row0 + nrows) for pair in helper_rows.rows[r]}
                survivors = only_the_named_rows(code, blocks, pairs)
                rebuilt = helper_rows.rebuild(row0, nrows, read_chunks(survivors, reads))
                assert np.array_equal(rebuilt, blocks[target, row0 : row0 + nrows])


@code_matrix
def test_plans_around_a_second_failure_name_only_rows_they_use(code_name):
    """Fallback plans are not row-minimal, but they are honest: every helper
    is read for at least one row, and the named rows suffice."""
    code = CODES[code_name](GF256)
    blocks = encoded(code, seed=2)
    for target in range(code.n):
        for other in range(code.n):
            if other == target:
                continue
            try:
                plan = code.repair_plan(target, {other})
            except DecodingError:
                continue
            assert other not in plan.helpers
            helper_rows = plan.helper_rows
            assert all(0 < plan.read_fractions[h] <= 1.0 for h in plan.helpers)
            for row in range(code.N):
                survivors = only_the_named_rows(code, blocks, helper_rows.rows[row])
                rebuilt = helper_rows.rebuild(row, 1, read_chunks(survivors, helper_rows.reads(row, 1)))
                assert np.array_equal(rebuilt[0], blocks[target, row])


def test_rotated_fractions_are_the_stripes_the_layout_names():
    """What ``RotatedPyramidCode.repair_plan`` used to fill in by hand: a
    helper server is read for the stripe rows in which it hosts a group mate
    (or, for a global-parity stripe, a data stripe) of the lost server's."""
    code = RotatedPyramidCode(4, 2, 1)
    st, n = code.structure, code.n
    for target in range(n):
        needed: dict[int, set[int]] = {}
        for t in range(n):
            logical = (target + t) % n
            if st.role_of(logical) != "global_parity":
                mates = [b for b in st.group_members(st.group_of(logical)) if b != logical]
            else:
                mates = st.data_blocks()
            for b in mates:
                needed.setdefault((b - t) % n, set()).add(t)
        plan = code.repair_plan(target)
        assert plan.helpers == tuple(sorted(needed))
        assert plan.read_fractions == {s: len(rows) / n for s, rows in needed.items()}
        assert plan.bytes_read(7000) == 1000 * sum(len(rows) for rows in needed.values())


def test_helper_rows_ride_on_the_compiled_reconstruct():
    code = GalloperCode(4, 2, 1)
    plan = code.repair_plan(0)
    compiled = code.compile_reconstruct(0, plan.helpers)
    assert compiled.helper_rows is None  # whole-block callers never pay for it
    assert plan.helper_rows is compiled.helper_rows is code.repair_plan(0).helper_rows
    code.clear_plan_cache()
    assert code.repair_plan(0).helper_rows is not compiled.helper_rows  # evicted together
