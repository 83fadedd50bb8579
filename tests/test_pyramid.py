"""Tests for Pyramid codes."""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import DecodingError, PyramidCode
from repro.codes.pyramid import pyramid_generator
from repro.codes.base import ROLE_LOCAL_PARITY
from repro.codes.structure import LRCStructure
from repro.gf import GF256, random_symbols, rows_in_rowspace


class TestGenerator:
    def test_local_parities_are_group_xor(self, gf):
        st = LRCStructure(4, 2, 1)
        g = pyramid_generator(gf, st)
        assert np.array_equal(g[2], np.array([1, 1, 0, 0], dtype=np.uint8))
        assert np.array_equal(g[5], np.array([0, 0, 1, 1], dtype=np.uint8))

    def test_data_rows_identity(self, gf):
        st = LRCStructure(4, 2, 1)
        g = pyramid_generator(gf, st)
        for pos, b in enumerate(st.data_blocks()):
            expect = np.zeros(4, dtype=np.uint8)
            expect[pos] = 1
            assert np.array_equal(g[b], expect)

    def test_local_parities_sum_to_split_row(self, gf):
        """The locals partition one parity of the source (k, g+1) RS code."""
        st = LRCStructure(6, 3, 2)
        g = pyramid_generator(gf, st)
        total = np.zeros(6, dtype=np.uint8)
        for lp in (b for b in range(st.n) if st.role_of(b) == ROLE_LOCAL_PARITY):
            total ^= g[lp]
        assert np.array_equal(total, np.ones(6, dtype=np.uint8))

    def test_l_zero_is_reed_solomon(self, gf):
        from repro.codes.rs import rs_generator

        st = LRCStructure(4, 0, 2)
        assert np.array_equal(pyramid_generator(gf, st), rs_generator(gf, 4, 2))


@pytest.mark.parametrize("k,l,g", [(4, 2, 1), (6, 2, 2), (6, 3, 1), (4, 4, 1)])
class TestFailureTolerance:
    def test_any_g_plus_1_failures_decodable(self, k, l, g):
        code = PyramidCode(k, l, g)
        data = random_symbols(code.gf, (k, 10), seed=k * 100 + l)
        blocks = code.encode(data)
        tol = code.structure.failure_tolerance()
        for lost in combinations(range(code.n), tol):
            ids = [b for b in range(code.n) if b not in lost]
            got = code.decode({b: blocks[b] for b in ids})
            assert np.array_equal(got, data), lost

    def test_locality_rowspace(self, k, l, g):
        code = PyramidCode(k, l, g)
        for b in range(code.n):
            if code.structure.role_of(b) == "global_parity":
                continue
            group = code.structure.group_of(b)
            helpers = [m for m in code.structure.group_members(group) if m != b]
            assert rows_in_rowspace(
                code.gf, code.generator[code.block_rows(b)], code.rows_for_blocks(helpers)
            )


class TestRepairPlans:
    @pytest.fixture
    def code(self):
        return PyramidCode(4, 2, 1)

    def test_local_repair_for_grouped_blocks(self, code):
        for b in range(6):
            plan = code.repair_plan(b)
            assert plan.blocks_read == 2
            group = code.structure.group_of(b)
            assert set(plan.helpers) == set(code.structure.group_members(group)) - {b}

    def test_global_parity_needs_k(self, code):
        plan = code.repair_plan(6)
        assert plan.blocks_read == 4

    def test_degraded_group_falls_back(self, code):
        # Block 1 is also lost, so block 0 cannot use its group.
        plan = code.repair_plan(0, failed={1})
        assert 1 not in plan.helpers
        assert plan.blocks_read >= 4

    def test_repair_executes(self, code):
        data = random_symbols(code.gf, (4, 21), seed=9)
        blocks = code.encode(data)
        for target in range(7):
            avail = {b: blocks[b] for b in range(7) if b != target}
            rebuilt, plan = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target])

    def test_unrepairable_raises(self, code):
        with pytest.raises(DecodingError):
            code.repair_plan(0, failed={1, 2, 3, 4})


class TestKnownPatterns:
    def test_paper_counterexample_not_decodable(self):
        """Losing A, B and the global parity defeats a (4,2,1) Pyramid code
        (paper Sec. III-B)."""
        code = PyramidCode(4, 2, 1)
        assert not code.can_decode([2, 3, 4, 5])

    def test_more_than_g_plus_1_sometimes_decodable(self):
        """Some 3-failure patterns are still decodable (paper Sec. III-B)."""
        code = PyramidCode(4, 2, 1)
        # Lose both local parities and the global parity: data blocks remain.
        assert code.can_decode([0, 1, 3, 4])

    def test_parallelism(self):
        assert PyramidCode(4, 2, 1).parallelism() == 4

    def test_storage_overhead(self):
        assert PyramidCode(4, 2, 1).storage_overhead() == pytest.approx(7 / 4)

    def test_roles_match_structure(self):
        code = PyramidCode(4, 2, 1)
        for info in code.block_infos:
            assert info.role == code.structure.role_of(info.index)
            assert info.group == code.structure.group_of(info.index)
