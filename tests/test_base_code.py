"""Generic interface contract tests, parametrized over every code family."""

import numpy as np
import pytest

from repro.codes import (
    CarouselCode,
    DecodingError,
    PyramidCode,
    ReedSolomonCode,
    ReplicationCode,
    RotatedPyramidCode,
)
from repro.codes.base import CodeError, ParameterError, RepairPlan
from repro.core import GalloperCode
from repro.gf import random_symbols

ALL_CODES = [
    pytest.param(lambda: ReedSolomonCode(4, 2), id="rs"),
    pytest.param(lambda: PyramidCode(4, 2, 1), id="pyramid"),
    pytest.param(lambda: GalloperCode(4, 2, 1), id="galloper"),
    pytest.param(lambda: CarouselCode(4, 2), id="carousel"),
    pytest.param(lambda: ReplicationCode(4, 3), id="replication"),
    pytest.param(lambda: RotatedPyramidCode(4, 2, 1), id="rotated"),
]


@pytest.fixture(params=ALL_CODES)
def code(request):
    return request.param()


class TestInterfaceContract:
    def test_generator_shape(self, code):
        assert code.generator.shape == (code.n * code.N, code.k * code.N)

    def test_block_infos_complete(self, code):
        assert len(code.block_infos) == code.n
        for i, info in enumerate(code.block_infos):
            assert info.index == i
            assert info.total_stripes == code.N
            assert 0 <= info.data_stripes <= code.N

    def test_systematic(self, code):
        assert code.verify_systematic()

    def test_encode_decode_roundtrip(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 8), seed=5)
        blocks = code.encode(data)
        assert blocks.shape == (code.n, code.N, 8)
        got = code.decode({b: blocks[b] for b in range(code.n)})
        assert np.array_equal(got, data)

    def test_decode_empty_raises(self, code):
        with pytest.raises(DecodingError):
            code.decode({})

    def test_repair_every_single_failure(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 8), seed=6)
        blocks = code.encode(data)
        for target in range(code.n):
            avail = {b: blocks[b] for b in range(code.n) if b != target}
            rebuilt, plan = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target]), target
            assert isinstance(plan, RepairPlan)
            assert target not in plan.helpers

    def test_repair_plan_helpers_alive(self, code):
        for target in range(code.n):
            plan = code.repair_plan(target)
            assert all(0 <= h < code.n for h in plan.helpers)
            assert all(0 < plan.read_fractions[h] <= 1.0 for h in plan.helpers)

    def test_block_rows_bounds(self, code):
        with pytest.raises(ParameterError):
            code.block_rows(code.n)

    def test_parallelism_counts_data_bearing_blocks(self, code):
        expect = sum(1 for i in code.block_infos if i.data_stripes > 0)
        assert code.parallelism() == expect

    def test_storage_overhead_at_least_one(self, code):
        assert code.storage_overhead() >= 1.0

    def test_bytes_read_accounting(self, code):
        plan = code.repair_plan(0)
        total = plan.bytes_read(1000)
        assert total == int(sum(plan.read_fractions[h] * 1000 for h in plan.helpers))


    def test_payload_divisibility_enforced(self, code):
        """A grid whose row count is not the code's k*N data stripes is refused."""
        with pytest.raises(CodeError):
            code.encode(np.zeros((code.data_stripe_total * 2 + 1, 4), dtype=np.uint8))


class TestDecodeWithExtraBlocks:
    """Decoding with more than k blocks available must still work (and
    prefer cheap identity rows)."""

    def test_overcomplete_decode(self, code):
        data = random_symbols(code.gf, (code.data_stripe_total, 4), seed=8)
        blocks = code.encode(data)
        got = code.decode({b: blocks[b] for b in range(code.n)})
        assert np.array_equal(got, data)


class TestBlockInfoValidation:
    def test_file_stripes_must_match_count(self):
        from repro.codes.base import BlockInfo

        with pytest.raises(ParameterError):
            BlockInfo(
                index=0,
                role="data",
                group=None,
                data_stripes=2,
                total_stripes=4,
                file_stripes=(0,),
            )
