"""Batched multi-stripe coding pipeline.

A striped file is many independent codewords (*stripe groups*) sharing
one code instance.  Coding them one at a time costs N interpreter
round-trips, N small kernel launches and N sets of scratch buffers —
exactly the per-call overhead the accelerated GF kernels
(``repro.gf.kernels``) were built to amortize.  Because every group
shares the same coefficient matrix, all N groups go through **one**
:meth:`~repro.gf.kernels.CodingPlan.apply_batch` per operation — as ISA-L's
``ec_encode_data`` codes any number of stripes through pointer tables in
one call.
Repair-bandwidth literature amortizes repair over many codewords at once
for the same reason; this module does it at the systems layer.

Striped writes, whole-file degraded reads, repairs and scrub heals all
come through here, a single group, block or file as a batch of one
(which costs what the codes layer's ``encode`` / ``decode`` /
``reconstruct`` cost: the plan is applied once either way).  The
per-group methods on :class:`~repro.codes.base.ErasureCode` are the
reference the tests and ``benchmarks/run_striped.py`` compare against:

* :func:`batch_encode` — one generator product for every full group.
* :func:`batch_decode` — groups are bucketed by availability pattern
  (the compiled-plan cache key); each bucket decodes in one apply.
* :func:`batch_reconstruct` — rebuilds of the same rows of the same lost
  block across groups fuse into one product (the repair-storm steady
  state, and a degraded read after a server failure).

Ragged tails are first-class: segments of different stripe widths mix
freely in one batch (columns concatenate regardless of per-group S), so
the final short group of a file rides in the same kernel call.

Nothing is stacked here.  Each group's rows go to
:meth:`~repro.gf.kernels.CodingPlan.apply_batch` where they lie — a
write's grids as views of the caller's payload, a rebuild's helper rows
as the list of arrays they were read into, a decode's as row slices of
its survivors.  On a native tier every group at least
``_SEGMENT_MIN_ELEMS`` symbols wide is coded by one kernel call over a
segment table, its result written contiguously into one shared buffer,
so a striped write's blocks are each one C-contiguous array, and the
GF(2^8) gather folds the CRC-32 of every row it writes for the store
(:func:`_encode`).  Only a run
of narrower groups is column-stacked, by ``apply_batch`` and straight
from those rows, and the numpy tiers stack each product's rows first:
one copy either way.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import ErasureCode
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
    into the shared batched output (each C-contiguous where
    :meth:`~repro.gf.kernels.CodingPlan.apply_batch` coded its grid in
    place).
    """
    outs = _encode(code, grids, metrics)[0]
    return [blocks for out in outs for blocks in (out if isinstance(out, list) or out.ndim == 4 else (out,))]


def _encode(code: ErasureCode, grids, metrics: MetricsRegistry | None = None, crcs: bool = False):
    """:func:`batch_encode` with one result per entry of ``grids``, and
    with ``crcs`` the CRC-32 of every stored row, per entry: group by
    group, block by block, stripe row by stripe row, as the block store
    keeps them, folded by the kernel
    (:meth:`~repro.gf.kernels.CodingPlan._apply_batch`; ``None`` for an
    entry it did not fold, and in place of the list when it folded none).

    An entry of ``grids`` may also be a ``(groups, k*N, S)`` stack: that
    many groups of one width (a striped write's full groups).  Where the
    native kernel codes them in place their rows are one row range to it,
    and their result is the ``(groups, n, N, S)`` block of the buffer it
    wrote them into; else they are coded group by group, and their result
    is the list of their ``(n, N, S)`` blocks.
    """
    grids = [np.asarray(g) for g in grids]
    total = code.data_stripe_total
    for g in grids:
        if g.ndim not in (2, 3) or g.shape[-2] != total:
            raise ValueError(f"expected ({total}, S) stripe grids, got shape {g.shape}")
    plan = code.compile_encode()
    segments, spans = [], []  # spans: per grid, (first segment, groups) when coded group by group
    for g in grids:
        if g.ndim == 3 and not (len(g) and plan._in_place(g.shape[2])):
            spans.append((len(segments), len(g)))
            segments += list(g)
        else:
            spans.append(None)
            segments.append(g)
    groups = sum(len(g) if g.ndim == 3 else 1 for g in grids)
    with get_tracer().span(
        "pipeline.batch_encode", category="pipeline", groups=groups,
        bytes=sum(g.nbytes for g in grids),
    ):
        outs, row_crcs = plan._apply_batch(segments, crcs)
    _count_batch(metrics, groups)
    n, N = code.n, code.N
    results, grid_crcs, at = [], [], 0
    for g, span in zip(grids, spans):
        if span is not None:
            results.append([o.reshape(n, N, o.shape[1]) for o in outs[at : at + span[1]]])
            grid_crcs.append(None)
            at += span[1]
        else:
            out = outs[at]
            results.append(out.reshape(len(out), n, N, out.shape[2]) if g.ndim == 3 else out.reshape(n, N, out.shape[1]))
            grid_crcs.append(None if row_crcs is None else row_crcs[at])
            at += 1
    return results, None if row_crcs is None else grid_crcs


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
            outs = dp.plan.apply_batch([code._decode_rows(dp, availables[i]) for i in members])
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
    the dead server.  ``availables`` is, per group, the row arrays read
    for ``helper_rows.reads(0, N)`` in order, or a ``{helper id: (N,
    S_i)}`` mapping of whole blocks to slice them from; the result is one
    ``(N, S_i)`` rebuilt block per group, in input order.
    """
    helper_rows = code.compile_helper_rows(target, tuple(helpers))
    reads = helper_rows.reads(0, code.N)
    chunks = [
        [np.asarray(a[h]).reshape(code.N, -1)[first : first + count] for h, first, count in reads]
        if isinstance(a, dict) else a
        for a in availables
    ]
    return _batch_rebuild_rows(helper_rows, target, 0, code.N, chunks, metrics)


def _batch_rebuild_rows(helper_rows, target: int, row0: int, nrows: int, chunks, metrics=None, crcs: bool = False):
    """:func:`batch_reconstruct` of rows ``row0 .. row0 + nrows``, for a
    caller that holds ``helper_rows`` already: ``chunks`` is, per group,
    the row arrays read for ``helper_rows.reads(row0, nrows)``, handed to
    the product as they lie.

    With ``crcs``, returns ``(blocks, row CRCs)`` as :func:`_encode` does
    for a write: a uint32 array of the CRC-32 of every rebuilt row, group
    by group, folded by the native kernel as it wrote them.  It is ``None``
    unless the kernel folded every group's, and where it did the blocks
    are each C-contiguous and lie end to end in one buffer, group by group
    (a store parent, ``BlockStore._put_many``)."""
    with get_tracer().span(
        "pipeline.batch_reconstruct", category="pipeline",
        groups=len(chunks), target=target,
    ):
        outs, row_crcs = helper_rows.plan(row0, nrows)._apply_batch(chunks, crcs)
    _count_batch(metrics, len(chunks))
    if not crcs:
        return outs
    for folded in row_crcs or (None,):
        if folded is None:
            return outs, None
    return outs, row_crcs[0] if len(row_crcs) == 1 else np.concatenate(row_crcs)
