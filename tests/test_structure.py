"""Tests for LRC block-layout geometry."""

import pytest

from repro.codes import LRCStructure
from repro.codes.base import ParameterError


class TestParameters:
    def test_l_must_divide_k(self):
        with pytest.raises(ParameterError):
            LRCStructure(5, 2, 1)

    def test_needs_a_parity(self):
        with pytest.raises(ParameterError):
            LRCStructure(4, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            LRCStructure(-1, 0, 1)

    def test_n(self):
        assert LRCStructure(4, 2, 1).n == 7
        assert LRCStructure(6, 3, 2).n == 11

    def test_group_accessors_without_groups(self):
        st = LRCStructure(4, 0, 2)
        with pytest.raises(ParameterError):
            st.group_data
        with pytest.raises(ParameterError):
            st.group_members(0)


class TestGroupMajorOrdering:
    def test_paper_running_example(self):
        st = LRCStructure(4, 2, 1)
        roles = [st.role_of(b) for b in range(7)]
        assert roles == [
            "data",
            "data",
            "local_parity",
            "data",
            "data",
            "local_parity",
            "global_parity",
        ]

    def test_groups(self):
        st = LRCStructure(4, 2, 1)
        assert st.group_members(0) == [0, 1, 2]
        assert st.group_members(1) == [3, 4, 5]
        assert st.group_of(6) is None
        assert st.group_of(4) == 1

    def test_data_blocks_in_file_order(self):
        st = LRCStructure(6, 3, 2)
        assert st.data_blocks() == [0, 1, 3, 4, 6, 7]
        assert st.data_position(3) == 2

    def test_data_position_rejects_parity(self):
        st = LRCStructure(4, 2, 1)
        with pytest.raises(ParameterError):
            st.data_position(2)

    def test_l_zero_is_rs_layout(self):
        st = LRCStructure(4, 0, 2)
        assert [st.role_of(b) for b in range(6)] == ["data"] * 4 + ["global_parity"] * 2
        assert st.group_of(0) is None


class TestDerivedQuantities:
    def test_failure_tolerance(self):
        assert LRCStructure(4, 2, 1).failure_tolerance() == 2
        assert LRCStructure(4, 0, 2).failure_tolerance() == 2
        assert LRCStructure(6, 3, 2).failure_tolerance() == 3

    def test_block_index_bounds(self):
        st = LRCStructure(4, 2, 1)
        with pytest.raises(ParameterError):
            st.role_of(7)
        with pytest.raises(ParameterError):
            st.group_of(-1)
