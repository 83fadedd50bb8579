"""Wide-field (GF(2^16)) codes — Sec. VI: "For larger values of k, l, g,
we can also increase the size of the finite field."

Every code family accepts an explicit arithmetic context; these tests run
the full pipeline over GF(2^16) and check the automatic field selection
helper.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.codes import PyramidCode, ReedSolomonCode
from repro.core import GalloperCode
from repro.gf import GF256, GF65536, field_for_code_width, random_symbols
from repro.storage import DistributedFileSystem


class TestWideFieldCodes:
    def test_rs_roundtrip(self):
        code = ReedSolomonCode(4, 2, gf=GF65536)
        assert code.gf is GF65536
        data = random_symbols(GF65536, (4, 20), seed=1)
        blocks = code.encode(data)
        assert blocks.dtype == np.uint16
        for ids in combinations(range(6), 4):
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data)

    def test_pyramid_tolerance(self):
        code = PyramidCode(4, 2, 1, gf=GF65536)
        data = random_symbols(GF65536, (4, 8), seed=2)
        blocks = code.encode(data)
        for lost in combinations(range(7), 2):
            ids = [b for b in range(7) if b not in lost]
            assert np.array_equal(code.decode({b: blocks[b] for b in ids}), data)

    def test_galloper_construction_and_repair(self):
        code = GalloperCode(4, 2, 1, gf=GF65536)
        assert code.verify_systematic()
        data = random_symbols(GF65536, (code.data_stripe_total, 5), seed=3)
        blocks = code.encode(data)
        for target in range(7):
            avail = {b: blocks[b] for b in range(7) if b != target}
            rebuilt, plan = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target])

    def test_wide_symbols_survive_byte_payloads(self):
        """GF(2^16) symbols are 2 bytes; the filesystem path keeps exact
        byte round-trips through the wide field too."""
        from repro.gf import bytes_to_symbols, symbols_to_bytes

        payload = bytes(range(256)) * 7  # even length
        syms = bytes_to_symbols(GF65536, payload)
        code = ReedSolomonCode(4, 2, gf=GF65536)
        grid = syms[: (syms.size // 4) * 4].reshape(4, -1)
        blocks = code.encode(grid)
        decoded = code.decode({b: blocks[b] for b in (1, 3, 4, 5)})
        assert symbols_to_bytes(GF65536, decoded.reshape(-1)) == payload[: decoded.size * 2]

    def test_large_code_widths_need_wide_field(self):
        """k + r beyond 256 cannot fit GF(2^8) but works in GF(2^16)."""
        from repro.codes.base import ParameterError
        from repro.gf import GF256

        with pytest.raises(ParameterError):
            ReedSolomonCode(250, 10, gf=GF256)
        wide = ReedSolomonCode(250, 10, gf=GF65536)
        assert wide.n == 260
        # Spot-check decodability: drop ten blocks, decode from the rest.
        assert wide.can_decode([b for b in range(260) if b >= 10])

    def test_field_selector(self):
        assert field_for_code_width(10).q == 8
        assert field_for_code_width(255).q == 8
        assert field_for_code_width(256).q == 16


FILESYSTEM_CODES = {
    "rs": lambda gf: ReedSolomonCode(4, 3, gf=gf),
    "pyramid": lambda gf: PyramidCode(4, 2, 1, gf=gf),
    "galloper": lambda gf: GalloperCode(4, 2, 1, gf=gf),
}


class TestFilesystemReadsReturnThePayloadBytes:
    """``read_file`` once returned the widened symbols over GF(2^16): a
    10 240-byte payload came back as 20 480 bytes (``b"\\x00\\x00\\x01\\x00"...``)
    while ``read_bytes`` of the same file was right."""

    @pytest.mark.parametrize("lost", [None, 0, 5], ids=["clean", "lost-data-block", "lost-parity-block"])
    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["gf8", "gf16"])
    @pytest.mark.parametrize("code_name", FILESYSTEM_CODES)
    def test_every_whole_file_read_is_the_payload(self, code_name, field, lost):
        code = FILESYSTEM_CODES[code_name](field)
        cluster = Cluster.homogeneous(code.n + 2)
        dfs = DistributedFileSystem(cluster)
        payload = bytes(range(256)) * 40  # 10 240 bytes, every byte value
        ef = dfs.write_file("f", payload, code=code)
        if lost is not None:
            cluster.fail(ef.server_of(lost))
        assert dfs.read_file("f") == payload
        assert dfs.read_bytes("f", 0, len(payload)) == payload
        buf = bytearray(len(payload))
        assert dfs.read_file_into("f", buf) == len(payload)
        assert bytes(buf) == payload
