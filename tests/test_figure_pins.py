"""Exact rows of the figures the MapReduce scheduler and the placements
produce.

The nightly shape tests under ``benchmarks/`` check the paper's claims
(Galloper's map phase beats Pyramid's, group-aware placement saves
time); these pin every number, so a change to the scheduler, the input
formats, the cost model or a placement policy that moves a figure shows
up in tier-1 as a diff against the committed rows.  All five together
run in well under a second.
"""

import pytest

from repro.bench.experiments import (
    ablation_group_placement,
    extension_rack_traffic,
    extension_speculation,
    fig9_mapreduce,
    fig10_heterogeneous,
)

PINNED = {
    "fig9_mapreduce": (
        fig9_mapreduce,
        [
            {"benchmark": "terasort", "code": "pyramid", "map": 46.0, "reduce": 12.25, "job": 58.4697265625},
            {
                "benchmark": "terasort",
                "code": "galloper",
                "map": 26.714285714285715,
                "reduce": 12.250000000000004,
                "job": 39.18401260375977,
            },
            {"benchmark": "wordcount", "code": "pyramid", "map": 46.0, "reduce": 1.5625, "job": 47.573486328125},
            {
                "benchmark": "wordcount",
                "code": "galloper",
                "map": 26.714285714285715,
                "reduce": 1.5625,
                "job": 28.287772369384765,
            },
        ],
    ),
    "fig10_heterogeneous": (
        fig10_heterogeneous,
        [
            {
                "weights": "homogeneous",
                "slow_servers": 65.28571319580078,
                "fast_servers": 26.714286041259765,
                "map_phase": 65.28571510314941,
            },
            {"weights": "heterogeneous", "slow_servers": 46.0, "fast_servers": 32.5, "map_phase": 46.0},
        ],
    ),
    "extension_speculation": (
        extension_speculation,
        [
            {"weights": "uniform", "speculation": False, "map_phase_s": 65.28571510314941, "backup_copies": 0},
            {"weights": "uniform", "speculation": True, "map_phase_s": 53.67968815714121, "backup_copies": 3},
            {"weights": "aware", "speculation": False, "map_phase_s": 46.0, "backup_copies": 0},
            {"weights": "aware", "speculation": True, "map_phase_s": 46.0, "backup_copies": 0},
        ],
    ),
    "ablation_group_placement": (
        ablation_group_placement,
        [
            {
                "speeds": "[1, 1, 1, 1, 0.4, 0.4, 0.4]",
                "fast_first": 1.0,
                "group_aware": 0.7692307692307693,
                "saving_pct": 23.076923076923073,
            },
            {
                "speeds": "[2, 2, 1, 1, 1, 1, 1]",
                "fast_first": 0.5,
                "group_aware": 0.4444444444444444,
                "saving_pct": 11.111111111111116,
            },
            {
                "speeds": "[1, 1, 1, 0.5, 0.5, 0.5, 0.25]",
                "fast_first": 1.1428571428571428,
                "group_aware": 0.8888888888888888,
                "saving_pct": 22.22222222222222,
            },
        ],
    ),
    "extension_rack_traffic": (
        extension_rack_traffic,
        [
            {"code": "rs(4,2) scattered", "bytes_read_kb": 768.0, "cross_rack_kb": 640.0, "cross_fraction": 0.8333333333333334},
            {"code": "pyramid(4,2,1) rack-aware", "bytes_read_kb": 512.0, "cross_rack_kb": 128.0, "cross_fraction": 0.25},
            {
                "code": "galloper(4,2,1) rack-aware",
                "bytes_read_kb": 512.09375,
                "cross_rack_kb": 128.0234375,
                "cross_fraction": 0.25,
            },
            {
                "code": "galloper(4,2,2)+as rack-aware",
                "bytes_read_kb": 576.017578125,
                "cross_rack_kb": 0.0,
                "cross_fraction": 0.0,
            },
        ],
    ),
}


@pytest.mark.parametrize("figure", PINNED)
def test_figure_rows_are_pinned(figure):
    """Every row of the figure, at its default arguments, bit for bit."""
    build, rows = PINNED[figure]
    assert build().rows == rows
