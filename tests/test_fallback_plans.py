"""Tests for the greedy fallback repair planner under compound failures."""

import numpy as np
import pytest

from repro.codes import DecodingError, PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.gf import random_symbols


class TestGreedyFallback:
    def test_helper_set_grows_past_k_when_needed(self):
        """Losing a group peer makes the first 4 survivors insufficient for
        block 0: {D3, D4, L1, L2} is rank-deficient (L2 = D3 + D4), so the
        search must grow to the global parity — and then drops L2, which
        the solution never reads."""
        code = PyramidCode(4, 2, 1)
        plan = code.repair_plan(0, failed={1})
        assert plan.helpers == (3, 4, 2, 6)
        assert all(plan.read_fractions[h] > 0 for h in plan.helpers)

    def test_fallback_plan_actually_reconstructs(self):
        code = PyramidCode(4, 2, 1)
        data = random_symbols(code.gf, (4, 9), seed=70)
        blocks = code.encode(data)
        plan = code.repair_plan(0, failed={1})
        avail = {b: blocks[b] for b in plan.helpers}
        rebuilt, _ = code.reconstruct(0, avail, plan)
        assert np.array_equal(rebuilt, blocks[0])

    def test_galloper_fallback_matches_pyramid_size(self):
        pyramid = PyramidCode(4, 2, 1)
        galloper = GalloperCode(4, 2, 1)
        for failed_peer in (1, 2):
            p = pyramid.repair_plan(0, failed={failed_peer})
            g = galloper.repair_plan(0, failed={failed_peer})
            assert p.blocks_read == g.blocks_read, failed_peer

    def test_beyond_tolerance_plan_fails_cleanly(self):
        code = PyramidCode(4, 2, 1)
        # Pattern {0, 1, 6} is not decodable: planning block 0's repair
        # with {1, 6} already gone must raise, not loop.
        with pytest.raises(DecodingError):
            code.repair_plan(0, failed={1, 6})

    def test_reconstruct_rejects_missing_helper(self):
        code = PyramidCode(4, 2, 1)
        data = random_symbols(code.gf, (4, 5), seed=71)
        blocks = code.encode(data)
        plan = code.repair_plan(0)
        partial = {h: blocks[h] for h in plan.helpers[:-1]}
        with pytest.raises(DecodingError):
            code.reconstruct(0, partial, plan)

    def test_two_group_failures_need_global_help(self):
        """Both data blocks of group 0 lost: each repair must reach into
        the other group / global parity."""
        code = GalloperCode(4, 2, 1)
        data = random_symbols(code.gf, (code.data_stripe_total, 4), seed=72)
        blocks = code.encode(data)
        plan = code.repair_plan(0, failed={1})
        avail = {b: blocks[b] for b in plan.helpers}
        rebuilt, _ = code.reconstruct(0, avail, plan)
        assert np.array_equal(rebuilt, blocks[0])
        assert any(b >= 3 for b in plan.helpers)


class TestFallbackMemo:
    """The greedy search is memoised in the plan LRU; answers are unchanged."""

    CODES = [
        lambda: ReedSolomonCode(4, 3),
        lambda: PyramidCode(4, 2, 1),
        lambda: GalloperCode(4, 2, 1),
    ]

    @pytest.mark.parametrize("make", CODES)
    def test_same_plan_with_and_without_the_memo(self, make):
        warm, cold = make(), make()
        for target in range(warm.n):
            for other in range(warm.n):
                failed = {other} - {target}
                first = warm.repair_plan(target, failed)
                again = warm.repair_plan(target, failed)  # served from the memo
                cold.clear_plan_cache()  # searched from scratch every time
                assert first == again == cold.repair_plan(target, failed)
                assert again.read_fractions is not first.read_fractions  # plans are not shared

    def test_memo_counts_in_plan_cache_info(self):
        code = ReedSolomonCode(4, 3)
        before = code.plan_cache_info()
        code.repair_plan(0, {1})
        after_miss = code.plan_cache_info()
        assert after_miss["misses"] == before["misses"] + 1
        assert after_miss["size"] == before["size"] + 1
        code.repair_plan(0, {1})
        after_hit = code.plan_cache_info()
        assert after_hit["hits"] == after_miss["hits"] + 1
        assert after_hit["misses"] == after_miss["misses"]

    def test_group_local_plans_bypass_the_memo(self):
        code = GalloperCode(4, 2, 1)
        code.repair_plan(0)  # the group is intact: no search, nothing to remember
        assert code.plan_cache_info()["size"] == 0

    def test_preference_order_is_part_of_the_key(self):
        code = ReedSolomonCode(4, 3)
        low = code.repair_plan(0, preference=[1, 2, 3, 4, 5, 6])
        high = code.repair_plan(0, preference=[6, 5, 4, 3, 2, 1])
        assert low.helpers == (1, 2, 3, 4)
        assert high.helpers == (6, 5, 4, 3)
        # Asked again, each order still gets its own answer.
        assert code.repair_plan(0, preference=[1, 2, 3, 4, 5, 6]) == low
        assert code.repair_plan(0, preference=[6, 5, 4, 3, 2, 1]) == high

    def test_decoding_error_is_never_a_hit(self):
        code = PyramidCode(4, 2, 1)
        for _ in range(3):
            with pytest.raises(DecodingError):
                code.repair_plan(0, failed={1, 6})
        info = code.plan_cache_info()
        assert info["hits"] == 0
        assert info["misses"] == 3
        assert info["size"] == 0
