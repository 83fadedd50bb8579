"""Erasure-code families: the baselines the paper compares against.

The paper's contribution itself (Galloper codes) lives in
:mod:`repro.core`; this package holds the shared code interface plus
Reed-Solomon, Pyramid, Carousel, replication, and the rotated-RAID
strawman of Sec. III-D.
"""

from repro.codes.base import (
    ROLE_DATA,
    ROLE_GLOBAL_PARITY,
    ROLE_LOCAL_PARITY,
    ROLE_REPLICA,
    BlockInfo,
    CodeError,
    DecodingError,
    ErasureCode,
    ParameterError,
    RepairPlan,
)
from repro.codes.carousel import CarouselCode
from repro.codes.pyramid import PyramidCode, pyramid_generator
from repro.codes.raid import RotatedPyramidCode
from repro.codes.replication import ReplicationCode
from repro.codes.rs import ReedSolomonCode, rs_generator
from repro.codes.structure import GroupRepairMixin, LRCStructure
from repro.codes.update import UpdatePlan, update_cost, update_plan

__all__ = [
    "ROLE_DATA",
    "ROLE_GLOBAL_PARITY",
    "ROLE_LOCAL_PARITY",
    "ROLE_REPLICA",
    "BlockInfo",
    "CodeError",
    "DecodingError",
    "ErasureCode",
    "ParameterError",
    "RepairPlan",
    "CarouselCode",
    "PyramidCode",
    "pyramid_generator",
    "RotatedPyramidCode",
    "ReplicationCode",
    "ReedSolomonCode",
    "rs_generator",
    "GroupRepairMixin",
    "LRCStructure",
    "UpdatePlan",
    "update_cost",
    "update_plan",
]
