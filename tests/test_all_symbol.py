"""Tests for all-symbol locality — the paper's future work, implemented.

Sec. VII-A: "Since the original Pyramid codes achieve information locality
only, Galloper codes can only achieve low disk I/O in the corresponding
blocks as well. ... We will study how to achieve all-symbol locality in
our future work."  The ``all_symbol=True`` construction adds one XOR
parity over the global parities, giving *every* block a small repair
group, and the Galloper remapping extends verbatim (the GP group becomes
one more group in step 2).
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import LRCStructure, PyramidCode
from repro.codes.base import ParameterError
from repro.core import GalloperCode
from repro.gf import random_symbols, rows_in_rowspace


class TestStructure:
    def test_geometry(self):
        st = LRCStructure(4, 2, 2, all_symbol=True)
        assert st.n == 9
        assert st.num_repair_groups == 3
        assert st.gp_group_index == 2
        assert st.group_members(2) == [6, 7, 8]
        assert st.group_data_count(2) == 2

    def test_roles(self):
        st = LRCStructure(4, 2, 2, all_symbol=True)
        assert st.role_of(6) == "global_parity"
        assert st.role_of(8) == "local_parity"
        assert st.group_of(6) == 2
        assert st.group_of(8) == 2

    def test_l0_variant(self):
        st = LRCStructure(4, 0, 2, all_symbol=True)
        assert st.n == 7
        assert st.group_of(0) is None  # data blocks stay ungrouped
        assert st.group_of(4) == 0  # GP group is group 0 when l == 0
        assert st.group_members(0) == [4, 5, 6]

    def test_requires_global_parity(self):
        with pytest.raises(ParameterError):
            LRCStructure(4, 2, 0, all_symbol=True)

    def test_without_flag_unchanged(self):
        st = LRCStructure(4, 2, 1)
        assert st.n == 7
        assert st.num_repair_groups == 2
        assert st.gp_group_index is None


@pytest.mark.parametrize("cls,kwargs", [
    (PyramidCode, {}),
    (GalloperCode, {}),
])
@pytest.mark.parametrize("k,l,g", [(4, 2, 2), (4, 0, 2), (6, 2, 2), (4, 2, 1)])
class TestAllSymbolCodes:
    def test_tolerance_preserved(self, cls, kwargs, k, l, g):
        code = cls(k, l, g, all_symbol=True, **kwargs)
        data = random_symbols(code.gf, (code.data_stripe_total, 3), seed=k + g)
        blocks = code.encode(data)
        assert code.verify_systematic()
        tol = code.structure.failure_tolerance()
        for lost in combinations(range(code.n), tol):
            ids = [b for b in range(code.n) if b not in lost]
            got = code.decode({b: blocks[b] for b in ids})
            assert np.array_equal(got, data), lost

    def test_every_block_has_locality(self, cls, kwargs, k, l, g):
        code = cls(k, l, g, all_symbol=True, **kwargs)
        st = code.structure
        for b in range(code.n):
            group = st.group_of(b)
            if group is None:
                continue  # l=0 data blocks repair like Reed-Solomon
            helpers = [m for m in st.group_members(group) if m != b]
            assert rows_in_rowspace(
                code.gf, code.generator[code.block_rows(b)], code.rows_for_blocks(helpers)
            ), b
            assert code.repair_plan(b).blocks_read == len(helpers)

    def test_reconstruction_executes(self, cls, kwargs, k, l, g):
        code = cls(k, l, g, all_symbol=True, **kwargs)
        data = random_symbols(code.gf, (code.data_stripe_total, 4), seed=l * 10 + g)
        blocks = code.encode(data)
        for target in range(code.n):
            avail = {b: blocks[b] for b in range(code.n) if b != target}
            rebuilt, _ = code.reconstruct(target, avail)
            assert np.array_equal(rebuilt, blocks[target]), target


class TestGalloperAllSymbolSpecifics:
    def test_full_parallelism_including_extra_parity(self):
        code = GalloperCode(4, 2, 2, all_symbol=True)
        assert code.parallelism() == 9
        assert code.weights == tuple([code.weights[0]] * 9)

    def test_global_parity_repair_io_reduced(self):
        """The headline win: GP repair reads g blocks, not k."""
        plain = GalloperCode(4, 2, 2)
        allsym = GalloperCode(4, 2, 2, all_symbol=True)
        gp = plain.structure.global_parity_blocks()[0]
        assert plain.repair_plan(gp).blocks_read == 4
        assert allsym.repair_plan(gp).blocks_read == 2

    def test_storage_cost_of_all_symbol(self):
        """The price: one extra block of storage."""
        plain = GalloperCode(4, 2, 2)
        allsym = GalloperCode(4, 2, 2, all_symbol=True)
        assert allsym.n == plain.n + 1
        assert allsym.storage_overhead() > plain.storage_overhead()

    def test_heterogeneous_weights(self):
        perf = [1, 1, 1, 1, 0.5, 0.5, 1, 0.5, 0.5]
        code = GalloperCode(4, 2, 2, all_symbol=True, performances=perf)
        assert sum(code.weights) == 4
        assert code.verify_systematic()
        # Faster servers carry more data within the GP group too.
        gp_members = code.structure.group_members(2)
        ws = [code.weights[b] for b in gp_members]
        ps = [perf[b] for b in gp_members]
        assert (ws[0] > ws[1]) == (ps[0] > ps[1])

    def test_degraded_gp_group_falls_back(self):
        code = GalloperCode(4, 2, 2, all_symbol=True)
        gp1, gp2, extra = code.structure.group_members(2)
        plan = code.repair_plan(gp1, failed={gp2})
        assert gp2 not in plan.helpers
        assert plan.blocks_read >= 4

    def test_storage_roundtrip_through_filesystem(self):
        from repro.cluster import Cluster
        from repro.storage import DistributedFileSystem, RepairManager

        cluster = Cluster.homogeneous(12)
        dfs = DistributedFileSystem(cluster)
        payload = bytes(range(256)) * 100
        ef = dfs.write_file("f", payload, code=GalloperCode(4, 2, 2, all_symbol=True))
        gp = ef.code.structure.global_parity_blocks()[0]
        cluster.fail(ef.server_of(gp))
        report = RepairManager(dfs).repair_block("f", gp)
        assert len(report.helpers) == 2  # local GP-group repair
        assert dfs.read_file("f") == payload
