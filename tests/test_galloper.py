"""Tests for the Galloper code construction (paper Sec. IV and V)."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.codes import PyramidCode
from repro.core import GalloperCode
from repro.core.galloper import ConstructionError
from repro.gf import random_symbols, rows_in_rowspace


class TestSpecialCase:
    """l = 0: the construction of Sec. IV, Figs. 3-4."""

    @pytest.fixture
    def toy(self):
        return GalloperCode(4, 0, 1, weights=[Fraction(6, 7)] * 4 + [Fraction(4, 7)])

    def test_figure3_layout(self, toy):
        assert toy.N == 7
        assert [i.data_stripes for i in toy.block_infos] == [6, 6, 6, 6, 4]

    def test_file_offsets_sequential(self, toy):
        offsets = [i.file_stripes[0] for i in toy.block_infos]
        assert offsets == [0, 6, 12, 18, 24]

    def test_systematic(self, toy):
        assert toy.verify_systematic()

    def test_original_data_at_top_of_blocks(self, toy):
        data = random_symbols(toy.gf, (28, 9), seed=1)
        blocks = toy.encode(data)
        gathered = np.concatenate(
            [blocks[b][: toy.block_infos[b].data_stripes] for b in range(5)], axis=0
        )
        assert np.array_equal(gathered, data)

    def test_mds_property_preserved(self, toy):
        """Linear equivalence to the (4,1) RS code: any 4 blocks decode."""
        data = random_symbols(toy.gf, (28, 5), seed=2)
        blocks = toy.encode(data)
        for ids in combinations(range(5), 4):
            assert np.array_equal(toy.decode({b: blocks[b] for b in ids}), data)

    def test_reconstruction_every_block(self, toy):
        data = random_symbols(toy.gf, (28, 5), seed=3)
        blocks = toy.encode(data)
        for target in range(5):
            avail = {b: blocks[b] for b in range(5) if b != target}
            rebuilt, plan = toy.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target])
            assert plan.blocks_read == 4  # RS-like: l = 0 has no locality

    def test_uniform_weights_default(self):
        code = GalloperCode(4, 0, 1)
        assert code.weights == (Fraction(4, 5),) * 5
        assert code.N == 5

    def test_zero_weight_block(self):
        """A dead-slow server gets weight 0: its block is pure parity."""
        ws = [Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(0)]
        code = GalloperCode(4, 0, 1, weights=ws)
        assert code.block_infos[4].data_stripes == 0
        assert code.parallelism() == 4
        data = random_symbols(code.gf, (code.data_stripe_total, 4), seed=4)
        blocks = code.encode(data)
        for ids in combinations(range(5), 4):
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data)


class TestGeneralCase:
    """l > 0: the two-step construction of Sec. V, Figs. 5-6."""

    @pytest.fixture
    def code(self):
        return GalloperCode(4, 2, 1)

    def test_running_example_geometry(self, code):
        assert code.N == 7
        assert code.weights == (Fraction(4, 7),) * 7
        assert code.assignment.group_counts == (6, 6)
        assert [i.data_stripes for i in code.block_infos] == [4] * 7

    def test_systematic(self, code):
        assert code.verify_systematic()

    def test_parallelism_extends_to_all_blocks(self, code):
        assert code.parallelism() == 7
        assert PyramidCode(4, 2, 1).parallelism() == 4

    def test_failure_tolerance_g_plus_1(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 4), seed=5)
        blocks = code.encode(data)
        for lost in combinations(range(7), 2):
            ids = [b for b in range(7) if b not in lost]
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data), lost

    def test_locality_matches_pyramid(self, code):
        for b in range(6):
            group = code.structure.group_of(b)
            helpers = [m for m in code.structure.group_members(group) if m != b]
            assert rows_in_rowspace(
                code.gf, code.generator[code.block_rows(b)], code.rows_for_blocks(helpers)
            ), b

    def test_local_repair_disk_io(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 6), seed=6)
        blocks = code.encode(data)
        for target in range(6):
            avail = {b: blocks[b] for b in range(7) if b != target}
            rebuilt, plan = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target])
            assert plan.blocks_read == 2

    def test_global_parity_repair(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 6), seed=7)
        blocks = code.encode(data)
        rebuilt, plan = code.reconstruct(6, {b: blocks[b] for b in range(6)})
        assert np.array_equal(rebuilt, blocks[6])
        assert plan.blocks_read == 4

    def test_storage_overhead_matches_pyramid(self, code):
        assert code.storage_overhead() == PyramidCode(4, 2, 1).storage_overhead()

    def test_heterogeneous_weights(self):
        code = GalloperCode(4, 2, 1, performances=[1, 1, 1, 1, 0.4, 0.4, 0.4])
        assert sum(code.weights) == 4
        assert code.weights[0] > code.weights[4]
        assert code.verify_systematic()
        data = random_symbols(code.gf, (code.data_stripe_total, 3), seed=8)
        blocks = code.encode(data)
        for lost in combinations(range(7), 2):
            ids = [b for b in range(7) if b not in lost]
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data)

    @pytest.mark.parametrize("k,l,g", [(6, 2, 2), (6, 3, 1), (8, 2, 1), (4, 4, 1)])
    def test_other_parameters(self, k, l, g):
        code = GalloperCode(k, l, g)
        assert code.verify_systematic()
        data = random_symbols(code.gf, (code.data_stripe_total, 2), seed=k + l + g)
        blocks = code.encode(data)
        tol = code.structure.failure_tolerance()
        for lost in combinations(range(code.n), tol):
            ids = [b for b in range(code.n) if b not in lost]
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data), lost


class TestConstructionGuards:
    def test_weights_and_performances_exclusive(self):
        with pytest.raises(ConstructionError):
            GalloperCode(4, 0, 1, weights=[Fraction(4, 5)] * 5, performances=[1] * 5)

    def test_weights_validated(self):
        from repro.core.weights import WeightError

        with pytest.raises(WeightError):
            GalloperCode(4, 0, 1, weights=[Fraction(1, 2)] * 5)

    def test_repr_mentions_weights(self):
        code = GalloperCode(4, 0, 1)
        assert "4/5" in repr(code)


class TestDataPlacementSemantics:
    def test_file_extents_cover_file_once(self):
        code = GalloperCode(4, 2, 1, performances=[1, 1, 1, 1, 0.4, 0.4, 0.4])
        seen = []
        for info in code.block_infos:
            seen.extend(info.file_stripes)
        assert sorted(seen) == list(range(code.data_stripe_total))

    def test_heavier_blocks_hold_more(self):
        code = GalloperCode(4, 0, 1, performances=[6, 6, 6, 6, 4])
        counts = [i.data_stripes for i in code.block_infos]
        assert counts == [6, 6, 6, 6, 4]

    def test_weight_equals_data_fraction(self):
        code = GalloperCode(4, 2, 1, performances=[1, 1, 1, 1, 0.4, 0.4, 0.4])
        for info, w in zip(code.block_infos, code.weights):
            assert info.data_fraction == pytest.approx(float(w))
