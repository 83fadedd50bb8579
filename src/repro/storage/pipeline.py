"""Batched multi-stripe coding pipeline.

A striped file is many independent codewords (*stripe groups*) sharing
one code instance.  Coding them one at a time costs N interpreter
round-trips, N small kernel launches and N sets of scratch buffers —
exactly the per-call overhead the accelerated GF kernels
(``repro.gf.kernels``) were built to amortize.  Because every group
shares the same coefficient matrix, the payload columns of all N groups
can be stacked side by side into one 2D GF array and pushed through
**one** :meth:`~repro.gf.kernels.CodingPlan.apply_batch` per operation.
Repair-bandwidth literature amortizes repair over many codewords at once
for the same reason; this module does it at the systems layer.

Striped writes, whole-file degraded reads, repairs and scrub heals all
come through here, a single group, block or file as a batch of one
(which costs what the codes layer's ``encode`` / ``decode`` /
``reconstruct`` cost: the helpers are stacked once and the plan applied
once either way).  The per-group methods on
:class:`~repro.codes.base.ErasureCode` are the reference the tests and
``benchmarks/run_striped.py`` compare against:

* :func:`batch_encode` — one generator product for every full group.
* :func:`batch_decode` — groups are bucketed by availability pattern
  (the compiled-plan cache key); each bucket decodes in one apply.
* :func:`batch_reconstruct` — same-pattern block rebuilds across groups
  fuse into one reconstruction product (the repair-storm steady state).

Ragged tails are first-class: segments of different stripe widths mix
freely in one batch (columns concatenate regardless of per-group S), so
the final short group of a file rides in the same kernel call.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import ErasureCode
from repro.gf.kernels import CodingPlan
from repro.obs.trace import get_tracer
from repro.storage.metrics import MetricsRegistry


def _count_batch(metrics: MetricsRegistry | None, groups: int) -> None:
    """Record one fused apply covering ``groups`` stripe groups."""
    if metrics is not None and groups:
        metrics.add("batch_applies", 1)
        metrics.add("batch_groups", groups)


def batch_encode(
    code: ErasureCode, grids, metrics: MetricsRegistry | None = None
) -> list[np.ndarray]:
    """Encode many ``(k*N, S_i)`` stripe grids in one fused kernel call.

    Returns one ``(n, N, S_i)`` block array per grid, as zero-copy views
    into the shared batched output.
    """
    grids = [np.asarray(g) for g in grids]
    total = code.data_stripe_total
    for g in grids:
        if g.ndim != 2 or g.shape[0] != total:
            raise ValueError(f"expected ({total}, S) stripe grids, got shape {g.shape}")
    with get_tracer().span(
        "pipeline.batch_encode", category="pipeline", groups=len(grids),
        bytes=sum(g.nbytes for g in grids),
    ):
        outs = code.compile_encode().apply_batch(grids)
    _count_batch(metrics, len(grids))
    return [o.reshape(code.n, code.N, o.shape[1]) for o in outs]


def batch_decode(
    code: ErasureCode,
    availables,
    metrics: MetricsRegistry | None = None,
) -> list[np.ndarray]:
    """Decode many groups of one code, fusing same-availability groups.

    ``availables`` is a sequence of ``{block id: (N, S_i) array}``
    mappings, one per stripe group.  Groups are bucketed by their
    available-id set (the decode-plan cache key); each bucket runs as one
    :meth:`~repro.gf.kernels.CodingPlan.apply`.  Results come back in
    input order as ``(k*N, S_i)`` grids.

    Raises:
        DecodingError: when some group's blocks cannot decode the data.
    """
    availables = list(availables)
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, available in enumerate(availables):
        ids = tuple(sorted(available))
        buckets.setdefault(ids, []).append(i)
    results: list[np.ndarray | None] = [None] * len(availables)
    with get_tracer().span(
        "pipeline.batch_decode", category="pipeline",
        groups=len(availables), buckets=len(buckets),
    ):
        for ids, members in buckets.items():
            dp = code.compile_decode(ids)
            segments = []
            for i in members:
                available = availables[i]
                stripes = np.concatenate(
                    [np.asarray(available[b]).reshape(code.N, -1) for b in dp.ids], axis=0
                )
                segments.append(stripes[dp.rows])
            outs = dp.plan.apply_batch(segments)
            _count_batch(metrics, len(members))
            for i, grid in zip(members, outs):
                results[i] = grid
    return results  # type: ignore[return-value]


def batch_reconstruct(
    code: ErasureCode,
    target: int,
    helpers,
    availables,
    metrics: MetricsRegistry | None = None,
) -> list[np.ndarray]:
    """Rebuild the same lost block of many groups in one fused apply.

    All groups share ``(target, helpers)`` — the shape of a repair storm,
    where every group of every striped file loses the same block index to
    the dead server.  ``availables`` is one ``{helper id: (N, S_i)}``
    mapping per group; the result is one ``(N, S_i)`` rebuilt block per
    group, in input order.
    """
    helpers = tuple(helpers)
    compiled: CodingPlan = code.compile_reconstruct(target, helpers)
    segments = []
    for available in availables:
        segments.append(
            np.concatenate(
                [np.asarray(available[h]).reshape(code.N, -1) for h in helpers], axis=0
            )
        )
    with get_tracer().span(
        "pipeline.batch_reconstruct", category="pipeline",
        groups=len(segments), target=target,
    ):
        outs = compiled.apply_batch(segments)
    _count_batch(metrics, len(segments))
    return outs
