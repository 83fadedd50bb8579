"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.gf import GF256, GF65536, random_symbols


def pytest_addoption(parser):
    parser.addoption(
        "--reliability",
        action="store_true",
        default=False,
        help="run long-horizon reliability campaign tests (nightly CI)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reliability"):
        return
    skip = pytest.mark.skip(reason="long-horizon campaign; needs --reliability")
    for item in items:
        if "reliability" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def gf():
    """The library's default field, GF(2^8)."""
    return GF256


@pytest.fixture
def gf16():
    """The wide field, GF(2^16)."""
    return GF65536


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0DE)


def payload_bytes(size: int, seed: int = 0) -> bytes:
    """Deterministic pseudo-random byte payload."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


# The codes layer is the reference the storage pipeline is held to: these
# helpers see only what is on the disks and ``ErasureCode`` methods — no
# filesystem read path, no ``repro.storage.pipeline``.


def stored_block(dfs, ef, block: int) -> np.ndarray:
    """The copy of ``block`` on its server's disk, bypassing faults and accounting."""
    return dfs.store._stored(ef.server_of(block), ef.name, block)


def stored_survivors(dfs, ef) -> dict[int, np.ndarray]:
    """Every block of ``ef`` still held by a live server."""
    unreadable = dfs._unreadable_blocks(ef)
    return {b: stored_block(dfs, ef, b) for b in ef.placement if b not in unreadable}


def codes_layer_read(dfs, names) -> bytes:
    """The payload of files ``names`` as ``code.decode`` alone recovers it."""
    out = []
    for name in names:
        ef = dfs.file(name)
        grid = ef.code.decode(stored_survivors(dfs, ef))
        out.append(grid.reshape(-1)[: ef.original_size].astype(np.uint8).tobytes())
    return b"".join(out)


def group_grid(payload: bytes, meta, index: int, code) -> np.ndarray:
    """The ``(k*N, S)`` stripe grid group ``index`` of striped file ``meta`` encodes."""
    chunk = np.frombuffer(payload, dtype=np.uint8)[
        index * meta.group_payload : (index + 1) * meta.group_payload
    ].astype(code.gf.dtype)
    total = code.data_stripe_total
    padded = max(total, -(-chunk.size // total) * total)
    grid = np.zeros(padded, dtype=code.gf.dtype)
    grid[: chunk.size] = chunk
    return grid.reshape(total, padded // total)


@pytest.fixture
def make_payload():
    return payload_bytes


@pytest.fixture
def make_symbols():
    def _make(gf, shape, seed=0):
        return random_symbols(gf, shape, seed=seed)

    return _make
