"""Codes built once per parameter set.

A code's content — class, field, stripes per block, generator and block
layout — is everything it computes from, so its digest pins each
construction bit for bit: a faster or shared construction must land on
the same generator and layout.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from fractions import Fraction

import numpy as np
import pytest

from repro import GalloperCode, PyramidCode, ReedSolomonCode
from repro.codes import CarouselCode, ParameterError, RotatedPyramidCode, base, rs_generator
from repro.core import galloper
from repro.gf import GF256, GF65536, inverse, mat_data_product

#: The Fig. 10 cluster: four full-speed servers and three at 40 %.
FIG10_PERFORMANCES = [1.0] * 4 + [0.4] * 3


def content_digest(code) -> str:
    """sha256 of a code's class, field, N, generator and block layout."""
    cls, generator = type(code), np.ascontiguousarray(code.generator)
    layout = tuple((info.role, info.group, info.file_stripes) for info in code.block_infos)
    digest = hashlib.sha256(
        repr((cls.__module__, cls.__qualname__, code.gf.q, code.gf.primitive_poly, code.N,
              generator.shape, layout)).encode()
    )
    digest.update(generator.tobytes())
    return digest.hexdigest()


BUILDS = {
    "rs(4,3)": lambda: ReedSolomonCode(4, 3),
    "pyramid(4,2,1)": lambda: PyramidCode(4, 2, 1),
    "galloper(4,2,1)": lambda: GalloperCode(4, 2, 1),
    "galloper(4,2,2,all_symbol)": lambda: GalloperCode(4, 2, 2, all_symbol=True),
    "galloper(12,2,2)": lambda: GalloperCode(12, 2, 2),
    "galloper(24,4,2)": lambda: GalloperCode(24, 4, 2),
    "galloper(48,4,4)": lambda: GalloperCode(48, 4, 4),
    "galloper(4,2,1,fig10)": lambda: GalloperCode(4, 2, 1, performances=FIG10_PERFORMANCES),
    "galloper(4,2,1,gf16)": lambda: GalloperCode(4, 2, 1, gf=GF65536),
}

PINNED = {
    "rs(4,3)": "742a7906a7e42aa3f8de7383db752a12ea75f38181ab11b3643eecaa04dc45ba",
    "pyramid(4,2,1)": "4ff40d34864176f6fadfb70867bdddee5386f5d7c41232c1edb7540455d3660a",
    "galloper(4,2,1)": "8bd5af2cdf963793a3b934553afd9ad2f0995eecb0e4473d747e24748a8bbf3f",
    "galloper(4,2,2,all_symbol)": "8a560db6a8cec13efe4317ea48d77f4a735fcdeb854dd843426434dd9e4a6f6e",
    "galloper(12,2,2)": "f5eb6f54e5a4ff2b7be54e6618d0dfbd4c44cfc6b4184a0404039b3bb17bee3d",
    "galloper(24,4,2)": "1fe8d7a206b638a4fb68060029a6a43caf057494107f792812d81619ad873c55",
    "galloper(48,4,4)": "72cbfca47a0cacf8b9058725b7b59fdb91ea2f6b19a43a59f5c8d78c78f84417",
    "galloper(4,2,1,fig10)": "acbf3fc071ca6507ac3fe57688aad15fdb7503e42a8f1506086180931387ccd3",
    "galloper(4,2,1,gf16)": "f83ca1d67114ea3ed2212490a0bc40bea2edbac962d033a74e43f994f52dc539",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_content_key_is_pinned(name):
    assert content_digest(BUILDS[name]()) == PINNED[name]


def test_equal_arguments_share_one_product_and_keep_their_own_plans():
    a = GalloperCode(4, 2, 1)
    b = GalloperCode(4, 2, 1, weights=[Fraction(4, 7)] * 7)
    c = GalloperCode(4, 2, 1, weights=["4/7"] * 7)
    assert b.generator is c.generator and b.block_infos is c.block_infos
    assert b.assignment is c.assignment
    assert b._built is c._built
    # Other arguments, same code: a product of its own, equal content.
    assert a.generator is not b.generator and a._built is not b._built
    assert content_digest(a) == content_digest(b)
    b.compile_decode([1, 2, 3, 4, 5])
    assert b.plan_cache_info()["misses"] == 1
    assert c.plan_cache_info() == {**b.plan_cache_info(), "size": 0, "misses": 0}
    assert c.compile_encode() is not b.compile_encode()


def test_a_hit_builds_nothing(monkeypatch):
    keep = GalloperCode(4, 2, 1, performances=FIG10_PERFORMANCES)
    calls = []
    monkeypatch.setattr(GalloperCode, "_remap", lambda self: calls.append(self))
    again = GalloperCode(4, 2, 1, performances=np.array(FIG10_PERFORMANCES))
    assert calls == [] and again.generator is keep.generator


@pytest.mark.parametrize(
    "first, second",
    [
        (lambda: GalloperCode(4, 2, 1), lambda: GalloperCode(4, 2, 1, performances=FIG10_PERFORMANCES)),
        (
            lambda: GalloperCode(4, 2, 1, performances=FIG10_PERFORMANCES),
            lambda: GalloperCode(4, 2, 1, performances=[1.0] * 5 + [0.4] * 2),
        ),
        (lambda: GalloperCode(4, 2, 1), lambda: GalloperCode(4, 2, 1, gf=GF65536)),
        (lambda: ReedSolomonCode(4, 3), lambda: ReedSolomonCode(4, 3, gf=GF65536)),
        (lambda: PyramidCode(4, 2, 2), lambda: PyramidCode(4, 2, 2, all_symbol=True)),
        (lambda: CarouselCode(4, 3), lambda: GalloperCode(4, 0, 3, weights=[Fraction(4, 7)] * 7)),
    ],
)
def test_different_codes_never_alias(first, second):
    one, other = first(), second()
    assert one._built is not other._built
    assert content_digest(one) != content_digest(other)


@pytest.mark.parametrize("name", ["rs(4,3)", "pyramid(4,2,1)", "galloper(4,2,1)"])
def test_shared_arrays_reject_writes(name):
    code = BUILDS[name]()
    arrays = [code.generator] + ([code.pyramid_block_generator] if hasattr(code, "assignment") else [])
    for array in arrays:
        with pytest.raises(ValueError):
            array[0, 0] ^= 1
    assert isinstance(code.block_infos, tuple)


def test_an_entry_dies_with_the_last_code_holding_it():
    first = RotatedPyramidCode(4, 2, 1)
    second = RotatedPyramidCode(4, 2, 1)
    entry = weakref.ref(first._built)
    assert second._built is entry()
    del first
    gc.collect()
    assert entry() is not None
    del second
    gc.collect()
    assert entry() is None
    assert (RotatedPyramidCode, GF256.q, GF256.primitive_poly, 4, 2, 1) not in base._BUILT


def test_a_failed_construction_stores_nothing():
    with pytest.raises(ParameterError):
        GalloperCode(4, 2, 1, weights=[Fraction(1)] * 7)
    key = (GalloperCode, GF256.q, GF256.primitive_poly, 4, 2, 1, False, (Fraction(1),) * 7, None)
    assert key not in base._BUILT


@pytest.mark.parametrize("gf", [GF256, GF65536], ids=["gf8", "gf16"])
def test_products_match_the_compiled_kernel(gf):
    rng = np.random.default_rng(5)
    a = (rng.integers(1, gf.size, size=(40, 30)) * (rng.random((40, 30)) < 0.1)).astype(gf.dtype)
    b = (rng.integers(1, gf.size, size=(30, 20)) * (rng.random((30, 20)) < 0.2)).astype(gf.dtype)
    assert np.array_equal(galloper._sparse_product(gf, a, b), mat_data_product(gf, a, b))
    assert np.array_equal(galloper._product(gf, a, b), mat_data_product(gf, a, b))
    # [I_k; parity] over k of its rows, as the literal inverse writes it.
    k, g = 6, 3
    gen = np.concatenate([np.eye(k, dtype=gf.dtype), rs_generator(gf, k, g)[k:]])
    for chosen in [(0, 1, 2, 3, 4, 5), (6, 1, 7, 3, 8, 5), (8, 7, 6, 0, 1, 2)]:
        literal = mat_data_product(gf, gen, inverse(gf, gen[list(chosen)]))
        assert np.array_equal(galloper._over_chosen(gf, gen, chosen), literal)
