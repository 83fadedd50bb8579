"""Property-based tests for the Galloper construction.

Hypothesis drives random parameters, weights and erasure patterns through
the construction invariants: systematic embedding, weight/stripe
consistency, failure tolerance, and round-trip encode/decode.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codes import LRCStructure, PyramidCode
from repro.core import GalloperCode
from repro.core.weights import assign_weights
from repro.gf import random_symbols


@st.composite
def l0_weight_vectors(draw):
    """Random feasible weight vectors for a (k, 0, g) code."""
    k = draw(st.integers(min_value=2, max_value=5))
    g = draw(st.integers(min_value=1, max_value=2))
    n = k + g
    denom = draw(st.sampled_from([4, 5, 6, 7, 8]))
    # Draw integer stripe counts q_i <= denom with sum k*denom.
    target = k * denom
    counts = []
    remaining = target
    for i in range(n - 1):
        lo = max(0, remaining - (n - 1 - i) * denom)
        hi = min(denom, remaining)
        c = draw(st.integers(min_value=lo, max_value=hi))
        counts.append(c)
        remaining -= c
    if not 0 <= remaining <= denom:
        # Infeasible residue; fall back to uniform.
        counts = [target // n] * (n - 1)
        remaining = target - sum(counts)
    counts.append(remaining)
    return k, g, [Fraction(c, denom) for c in counts]


class TestSpecialCaseProperties:
    @settings(max_examples=25, deadline=None)
    @given(l0_weight_vectors())
    def test_construction_invariants(self, params):
        k, g, weights = params
        code = GalloperCode(k, 0, g, weights=weights)
        # 1. systematic on advertised stripes
        assert code.verify_systematic()
        # 2. stripe counts match weights
        for info, w in zip(code.block_infos, weights):
            assert info.data_stripes == int(w * code.N)
        # 3. file extents tile the file exactly once
        seen = sorted(fs for info in code.block_infos for fs in info.file_stripes)
        assert seen == list(range(code.data_stripe_total))

    @settings(max_examples=15, deadline=None)
    @given(l0_weight_vectors(), st.integers(min_value=0, max_value=10_000))
    def test_any_k_blocks_decode(self, params, seed):
        k, g, weights = params
        code = GalloperCode(k, 0, g, weights=weights)
        data = random_symbols(code.gf, (code.data_stripe_total, 3), seed=seed)
        blocks = code.encode(data)
        rng = np.random.default_rng(seed)
        ids = sorted(rng.choice(code.n, size=k, replace=False).tolist())
        got = code.decode({b: blocks[b] for b in ids})
        assert np.array_equal(got, data)


@st.composite
def general_params(draw):
    k = draw(st.sampled_from([4, 6]))
    l = draw(st.sampled_from([2] if k == 4 else [2, 3]))
    g = draw(st.integers(min_value=1, max_value=2))
    # Random performance vector; the LP makes any of them feasible.
    n = k + l + g
    perf = [draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) for _ in range(n)]
    # The LP's stripe count is cheap to compute; building and decoding an
    # (n*N, k*N) generator is cubic in it.  About 7 % of draws need more
    # than 64 stripes per block and 1 in 200 needs 200+ (tens of minutes);
    # TestLargeStripeCount covers that end with one pinned vector.
    assume(assign_weights(LRCStructure(k, l, g), perf).N <= MAX_STRIPES_PER_BLOCK)
    return k, l, g, perf


MAX_STRIPES_PER_BLOCK = 64


class TestGeneralCaseProperties:
    @settings(max_examples=15, deadline=None)
    @given(general_params())
    def test_lp_weights_always_constructible(self, params):
        k, l, g, perf = params
        code = GalloperCode(k, l, g, performances=perf)
        assert code.verify_systematic()
        assert sum(code.weights) == k
        assert all(0 <= w <= 1 for w in code.weights)

    @settings(max_examples=10, deadline=None)
    @given(general_params(), st.integers(min_value=0, max_value=10_000))
    def test_tolerates_random_g_plus_1_erasures(self, params, seed):
        k, l, g, perf = params
        code = GalloperCode(k, l, g, performances=perf)
        data = random_symbols(code.gf, (code.data_stripe_total, 2), seed=seed)
        blocks = code.encode(data)
        rng = np.random.default_rng(seed)
        lost = set(rng.choice(code.n, size=g + 1, replace=False).tolist())
        ids = [b for b in range(code.n) if b not in lost]
        got = code.decode({b: blocks[b] for b in ids})
        assert np.array_equal(got, data)

    @settings(max_examples=10, deadline=None)
    @given(general_params())
    def test_within_tolerance_decodability_equals_pyramid(self, params):
        """Up to g+1 erasures both codes decode (beyond that, patterns are
        allowed to differ — see test_equivalence)."""
        k, l, g, perf = params
        galloper = GalloperCode(k, l, g, performances=perf)
        pyramid = PyramidCode(k, l, g)
        rng = np.random.default_rng(int(sum(p * 4 for p in perf)))
        n = galloper.n
        for _ in range(8):
            failures = int(rng.integers(1, g + 2))
            lost = set(rng.choice(n, size=failures, replace=False).tolist())
            ids = [b for b in range(n) if b not in lost]
            assert galloper.can_decode(ids)
            assert pyramid.can_decode(ids)


class TestLargeStripeCount:
    """The LP's expensive corner, pinned instead of left to the draw."""

    #: Needs N = 221 stripes per block, past what ``general_params`` admits.
    PERFORMANCES = [0.25, 1.0, 1.0, 0.25, 2.0, 2.0, 1.0]

    def test_large_n_constructs_and_decodes(self):
        k, l, g = 4, 2, 1
        code = GalloperCode(k, l, g, performances=self.PERFORMANCES)
        assert code.N >= 200 > MAX_STRIPES_PER_BLOCK
        assert code.verify_systematic()
        assert sum(code.weights) == k
        # One symbol per stripe: the cost is the algebra, not the payload.
        data = random_symbols(code.gf, (code.data_stripe_total, 1), seed=5)
        blocks = code.encode(data)
        lost = {0, 3}  # g + 1 erasures, one of them a data block of group 0
        got = code.decode({b: blocks[b] for b in range(code.n) if b not in lost})
        assert np.array_equal(got, data)
