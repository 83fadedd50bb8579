"""Property-based tests for update plans."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codes import PyramidCode, ReedSolomonCode
from repro.codes.update import update_plan
from repro.core import GalloperCode
from repro.gf import random_symbols
from tests.conftest import apply_update_plan

CODES = {
    "rs": lambda: ReedSolomonCode(4, 2),
    "pyramid": lambda: PyramidCode(4, 2, 1),
    "galloper": lambda: GalloperCode(4, 2, 1),
}

settings_kwargs = dict(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestUpdateProperties:
    @settings(**settings_kwargs)
    @given(
        code_name=st.sampled_from(sorted(CODES)),
        updates=st.lists(
            st.tuples(st.integers(min_value=0, max_value=27), st.integers(min_value=0, max_value=10_000)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_random_update_sequences_match_reencode(self, code_name, updates):
        code = CODES[code_name]()
        total = code.data_stripe_total
        data = random_symbols(code.gf, (total, 6), seed=1)
        blocks = code.encode(data)
        for stripe_raw, seed in updates:
            stripe = stripe_raw % total
            new_value = random_symbols(code.gf, 6, seed=seed)
            apply_update_plan(code, blocks, stripe, new_value ^ data[stripe])
            data[stripe] = new_value
        assert np.array_equal(blocks, code.encode(data))

    @settings(**settings_kwargs)
    @given(
        code_name=st.sampled_from(sorted(CODES)),
        stripe_raw=st.integers(min_value=0, max_value=1000),
    )
    def test_plan_includes_verbatim_copy_with_unit_coeff(self, code_name, stripe_raw):
        code = CODES[code_name]()
        stripe = stripe_raw % code.data_stripe_total
        plan = update_plan(code, stripe)
        # The stripe's own verbatim copy is always in the plan at coeff 1.
        unit_targets = [(b, r) for b, r, c in plan.touched if c == 1]
        holders = [
            (info.index, row)
            for info in code.block_infos
            for row, fs in enumerate(info.file_stripes)
            if fs == stripe
        ]
        assert holders and all(h in unit_targets for h in holders)
