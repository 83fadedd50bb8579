"""Tests for update plans: the stored stripes a one-stripe write touches.

The tests apply ``coefficient * delta`` to the touched stripes themselves
(``apply_update_plan``) and compare with a full re-encode."""

import numpy as np
import pytest

from repro.codes import CarouselCode, PyramidCode, ReedSolomonCode, ReplicationCode
from repro.codes.base import CodeError
from repro.codes.update import update_cost, update_plan
from repro.core import GalloperCode
from repro.gf import random_symbols
from tests.conftest import apply_update_plan

ALL_CODES = [
    pytest.param(lambda: ReedSolomonCode(4, 2), id="rs"),
    pytest.param(lambda: PyramidCode(4, 2, 1), id="pyramid"),
    pytest.param(lambda: GalloperCode(4, 2, 1), id="galloper"),
    pytest.param(lambda: CarouselCode(4, 2), id="carousel"),
    pytest.param(lambda: ReplicationCode(4, 2), id="replication"),
    pytest.param(lambda: GalloperCode(4, 2, 2, all_symbol=True), id="galloper-allsym"),
]


@pytest.fixture(params=ALL_CODES)
def code(request):
    return request.param()


class TestApplyUpdate:
    def test_every_stripe_update_matches_reencode(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 12), seed=3)
        blocks = code.encode(data)
        for j in range(code.data_stripe_total):
            new_value = random_symbols(code.gf, 12, seed=1000 + j)
            apply_update_plan(code, blocks, j, new_value ^ data[j])
            data[j] = new_value
            assert np.array_equal(blocks, code.encode(data)), j

    def test_update_back_and_forth_is_identity(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 8), seed=4)
        blocks = code.encode(data)
        snapshot = blocks.copy()
        new_value = random_symbols(code.gf, 8, seed=5)
        apply_update_plan(code, blocks, 0, new_value ^ data[0])
        assert not np.array_equal(blocks, snapshot)
        apply_update_plan(code, blocks, 0, data[0] ^ new_value)
        assert np.array_equal(blocks, snapshot)

    def test_out_of_range_stripe(self, code):
        with pytest.raises(CodeError):
            update_plan(code, code.data_stripe_total)


class TestUpdatePlans:
    def test_rs_touches_self_plus_parities(self):
        code = ReedSolomonCode(4, 2)
        for j in range(4):
            plan = update_plan(code, j)
            assert plan.blocks_touched == 3  # itself + 2 parity blocks
            assert (j, 0, 1) in plan.touched

    def test_pyramid_touches_local_and_global(self):
        code = PyramidCode(4, 2, 1)
        plan = update_plan(code, 0)
        blocks = {b for b, _, _ in plan.touched}
        assert blocks == {0, 2, 6}  # data block, its local parity, global

    def test_cost_summary_shapes(self):
        rs = update_cost(ReedSolomonCode(4, 2))
        pyr = update_cost(PyramidCode(4, 2, 1))
        gal = update_cost(GalloperCode(4, 2, 1))
        assert rs["avg_blocks"] == 3.0
        assert pyr["avg_blocks"] == 3.0
        # Galloper pays a modest write-amplification premium for
        # spreading data into parity blocks.
        assert 3.0 < gal["avg_blocks"] <= 5.0

    def test_replication_touches_every_copy(self):
        code = ReplicationCode(4, 3)
        plan = update_plan(code, 0)
        assert plan.blocks_touched == 3
        assert all(c == 1 for _, _, c in plan.touched)
