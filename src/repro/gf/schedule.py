"""XOR-schedule compilation for GF(2^q) coding plans.

This is the third kernel tier.  A coefficient matrix whose companion
expansion (:mod:`repro.gf.bitmatrix`) is sparse — XOR parities, 0/1
reconstruction matrices, the local-repair plans of Pyramid and Galloper
codes — can be executed as a short list of word-wide XOR passes instead
of one table gather per (coefficient, data row).  The compiler here:

1. factors the bitmatrix into *alpha-power lanes*: output ``i`` is the
   XOR of ``data[j] * alpha^b`` over the set bits ``b`` of each
   coefficient, so bit-0 lanes are zero-copy views of the data rows and
   higher lanes come from a vectorised doubling ladder
   (:func:`repro.gf.bitmatrix.double_symbols`);
2. runs greedy common-XOR-pair elimination over the lane-selection
   matrix: the pair of operands shared by the most outputs becomes a
   named intermediate, repeatedly, until no pair is shared — the classic
   "Uber-CSE" schedule shrink;
3. prices the resulting schedule against the packed table kernel with a
   measured cost model (units: full passes over the stripe) and reports
   :attr:`XorSchedule.wins` so ``CodingPlan`` can fall back when the
   schedule would lose.

Execution is pure numpy: ladders and intermediates live in a small
preallocated scratch pool processed in cache-sized chunks; schedules
with no ladder (0/1 coefficient matrices — the common repair case) skip
the pool and run full-width XORs straight between data and output rows.
"""

from __future__ import annotations

import os

import numpy as np

from repro.gf.bitmatrix import double_symbols, lane_selection_matrix
from repro.gf.field import GF, GFError

__all__ = [
    "XorSchedule",
    "predicted_win",
    "pool_budget_bytes",
    "GATHER_PASSES",
    "GATHER_PASSES_SPLIT16",
    "DOUBLE_PASSES",
    "XOR_PASSES",
    "COPY_PASSES",
    "XOR_MARGIN",
]

# Cost-model constants, in units of one sequential pass over the stripe
# (read + write of one row's worth of symbols).  Calibrated against this
# codebase's kernels on x86-64/numpy 2.x: a packed-table gather costs
# ~20 passes' worth of time per (data row, lane group) because gathers
# are latency-bound while XOR streams at memory bandwidth; GF(2^16)
# split tables pay two gathers plus a combine; one doubling step is six
# uint64 ufunc passes plus overhead.  The exact values only steer the
# auto heuristic — correctness never depends on them.
GATHER_PASSES = 20.0
GATHER_PASSES_SPLIT16 = 36.0
DOUBLE_PASSES = 14.0
XOR_PASSES = 3.0
COPY_PASSES = 2.0

#: The schedule must beat the table estimate by this factor before the
#: auto heuristic picks it — the model is coarse, so near-ties stay on
#: the battle-tested table path.
XOR_MARGIN = 0.85

#: Default scratch-pool byte budget for one execution chunk (~1.5 MiB,
#: matching the table kernel's gather working set).  Tunable via the
#: ``REPRO_POOL_KB`` env knob — see :func:`pool_budget_bytes`.
_POOL_BUDGET_BYTES = 3 << 19

#: Bounds for ``REPRO_POOL_KB``: below 64 KiB the chunk floor makes the
#: knob a no-op; past 1 GiB it stops being a *cache* budget.
_POOL_KB_MIN = 64
_POOL_KB_MAX = 1 << 20


def pool_budget_bytes() -> int:
    """The scratch-pool/cache-block byte budget, from ``REPRO_POOL_KB``.

    Shared by the XOR-schedule executor (scratch pool sizing) and the
    native tier (cache-block width), so one knob tunes both working sets
    to the host's L2.  Read at schedule-compile / apply time, validated
    like ``REPRO_KERNEL``: a non-integer or out-of-range value raises
    :class:`~repro.gf.field.GFError` instead of silently running with a
    default.  Unset (or empty) means the ~1.5 MiB default.
    """
    raw = os.environ.get("REPRO_POOL_KB", "").strip()
    if not raw:
        return _POOL_BUDGET_BYTES
    try:
        kb = int(raw)
    except ValueError:
        raise GFError(
            f"REPRO_POOL_KB={raw!r} is not an integer KiB count"
        ) from None
    if not _POOL_KB_MIN <= kb <= _POOL_KB_MAX:
        raise GFError(
            f"REPRO_POOL_KB={kb} outside [{_POOL_KB_MIN}, {_POOL_KB_MAX}] KiB"
        )
    return kb << 10

#: Safety valve on CSE iterations; real plans terminate far earlier.
_MAX_CSE_OPS_FACTOR = 8


def _table_cost(gf: GF, m: int, n_used: int) -> float:
    """Estimated packed-table cost of an ``(m, n_used)`` dense product."""
    from repro.gf import kernels  # deferred: kernels imports this module

    lanes = 8 if gf.dtype.itemsize == 1 else 4
    groups = -(-m // lanes)
    per = GATHER_PASSES
    if gf.q == 16 and n_used * groups > kernels.FULL_TABLE_LIMIT:
        per = GATHER_PASSES_SPLIT16
    return n_used * groups * per + groups * COPY_PASSES


def _lane_shape(gf: GF, coeffs: np.ndarray):
    """Selection matrix plus the ladder geometry it implies.

    Returns ``(R, ladder_steps, ladder_cols)``: ``R`` is the boolean
    ``(m, n*w)`` lane-selection matrix, ``ladder_steps`` the total
    doubling count (each column climbs to its highest used bit) and
    ``ladder_cols`` how many data columns need any ladder at all.
    """
    R = lane_selection_matrix(gf, coeffs)
    w = gf.q
    n = coeffs.shape[1]
    ladder_steps = 0
    ladder_cols = 0
    col_used = R.any(axis=0)
    for j in range(n):
        bits = np.nonzero(col_used[j * w : (j + 1) * w])[0]
        if bits.size and bits[-1] > 0:
            ladder_steps += int(bits[-1])
            ladder_cols += 1
    return R, ladder_steps, ladder_cols


def predicted_win(gf: GF, coeffs: np.ndarray) -> bool:
    """Cheap pre-screen: could an XOR schedule plausibly beat the tables?

    Prices the *raw* (pre-CSE) schedule with an optimistic allowance for
    elimination — CSE can shrink the XOR list but never the ladder, so a
    plan whose ladder alone exceeds the table estimate is rejected
    without paying schedule compilation.  Optimistic by construction:
    ``False`` means certain loss, ``True`` only means worth compiling.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 2 or coeffs.size == 0:
        return False
    m = coeffs.shape[0]
    R, ladder_steps, ladder_cols = _lane_shape(gf, coeffs)
    raw_xors = int(R.sum()) - int((R.any(axis=1)).sum())
    optimistic = (
        ladder_steps * DOUBLE_PASSES
        + ladder_cols * COPY_PASSES
        + max(m, 0.4 * raw_xors) * XOR_PASSES
    )
    return optimistic <= XOR_MARGIN * _table_cost(gf, m, coeffs.shape[1])


class XorSchedule:
    """A compiled XOR program for a fixed coefficient matrix.

    Operand references are integers: ``ref < 0`` is data row ``-ref - 1``
    (a bit-0 lane, read zero-copy from the payload); ``ref >= 0`` is a
    scratch-pool row holding either a ladder lane (``data[j] * alpha^b``,
    ``b > 0``) or a CSE intermediate.  The program is three phases per
    chunk: run the doubling ladders, materialise the intermediates,
    XOR-accumulate every output row.

    Build instances with :meth:`compile`; :meth:`execute` applies the
    schedule to a payload.  ``stats`` carries the compile-time accounting
    (raw vs scheduled XOR count, ladder size, bitmatrix density, modelled
    costs) that the benchmarks and ``repro stats`` report.
    """

    def __init__(self, gf, m, n, ladder, inter_ops, outputs, pool_rows, chunk, stats):
        self.gf = gf
        self.m = m
        self.n = n
        self._ladder = ladder  # [(col j, (dst_row per doubling step, scratch if unused))]
        self._inter_ops = inter_ops  # [(dst pool row, ref a, ref b)]
        self._outputs = outputs  # per output row: tuple of refs
        self._pool_rows = pool_rows  # lanes + intermediates (+ scratch + tmp if ladder)
        self._chunk = chunk
        self.stats = stats
        self._native_prog = None  # flattened int32 program, built on demand

    # ---------------------------------------------------------- compile

    @classmethod
    def compile(cls, gf: GF, coeffs: np.ndarray) -> "XorSchedule":
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 2:
            raise GFError("XorSchedule expects a 2-D coefficient matrix")
        m, n = coeffs.shape
        w = gf.q
        R, ladder_steps, ladder_cols = _lane_shape(gf, coeffs)
        used = np.nonzero(R.any(axis=0))[0]
        work = np.ascontiguousarray(R[:, used])
        raw_xors = int(work.sum()) - int(work.any(axis=1).sum())

        # Greedy common-pair elimination: repeatedly name the operand
        # pair shared by the most outputs.  Pair counts come from one
        # small boolean gemm per round (m and the slot count are tens to
        # a few hundred — microseconds, paid once per cached plan).
        pairs: list[tuple[int, int]] = []
        max_ops = _MAX_CSE_OPS_FACTOR * max(1, m) * w
        while work.shape[1] > 1 and len(pairs) < max_ops:  # an all-zero matrix has no slots
            f = work.astype(np.float32)
            co = f.T @ f
            np.fill_diagonal(co, 0.0)
            flat = int(np.argmax(co))
            a, b = divmod(flat, co.shape[1])
            if co[a, b] < 2.0:
                break
            both = work[:, a] & work[:, b]
            work[both, a] = False
            work[both, b] = False
            work = np.concatenate([work, both[:, None]], axis=1)
            pairs.append((a, b))

        # Slot -> operand reference.  Bit-0 lanes read the payload rows
        # directly; higher lanes and intermediates get pool rows (lanes
        # first so the ladder can write straight into its slots).
        refs: list[int] = []
        lane_slot: dict[tuple[int, int], int] = {}
        pool_top = 0
        for g in used:
            j, b = divmod(int(g), w)
            if b == 0:
                refs.append(-(j + 1))
            else:
                lane_slot[(j, b)] = pool_top
                refs.append(pool_top)
                pool_top += 1
        n_lanes = pool_top
        for _ in pairs:
            refs.append(pool_top)
            pool_top += 1
        inter_ops = [
            (refs[len(used) + k], refs[a], refs[b]) for k, (a, b) in enumerate(pairs)
        ]

        outputs = [tuple(refs[c] for c in np.nonzero(work[i])[0]) for i in range(m)]

        # Ladder program: each column climbs to its highest stored bit,
        # writing stored levels into their lane slots and passing through
        # the rest via the scratch row.
        scratch = pool_top
        ladder: list[tuple[int, tuple[int, ...]]] = []
        for j in range(n):
            bits = [b for (jj, b) in lane_slot if jj == j]
            if not bits:
                continue
            top = max(bits)
            steps = tuple(lane_slot.get((j, t), scratch) for t in range(1, top + 1))
            ladder.append((j, steps))
        pool_rows = pool_top + (2 if ladder else 0)  # + scratch, tmp

        xors = len(inter_ops) + sum(max(0, len(o) - 1) for o in outputs)
        singles = sum(1 for o in outputs if len(o) == 1)
        cost_xor = (
            ladder_steps * DOUBLE_PASSES
            + ladder_cols * COPY_PASSES
            + xors * XOR_PASSES
            + singles * COPY_PASSES
        )
        cost_table = _table_cost(gf, m, n)
        nz = int(np.count_nonzero(coeffs))
        density = float(R.sum()) / R.size if R.size else 0.0
        stats = {
            "raw_xors": raw_xors,
            "xors": xors,
            "saved": raw_xors - xors,
            "lanes": n_lanes,
            "intermediates": len(inter_ops),
            "ladder_steps": ladder_steps,
            "density": density,
            "nnz": nz,
            "cost_xor": cost_xor,
            "cost_table": cost_table,
        }

        itemsize = gf.dtype.itemsize
        chunk = (pool_budget_bytes() // (itemsize * max(1, pool_rows))) & ~7
        chunk = max(4096, chunk)
        return cls(gf, m, n, ladder, inter_ops, outputs, pool_rows, chunk, stats)

    @property
    def wins(self) -> bool:
        """Whether the cost model picks this schedule over the tables."""
        return self.stats["cost_xor"] <= XOR_MARGIN * self.stats["cost_table"]

    # ---------------------------------------------------------- execute

    def execute(
        self,
        data: np.ndarray,
        cols: np.ndarray,
        dst_rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Run the schedule: ``out[dst_rows] = coeffs @ data[cols]``.

        ``data`` is the full ``(n_total, S)`` payload; ``cols`` maps the
        schedule's column index to a payload row and ``dst_rows`` maps
        each output to a row of ``out`` (identity arrays for standalone
        use; the dense-row index sets when driven by ``CodingPlan``).
        """
        S = data.shape[1]
        if S == 0 or self.m == 0:
            return
        gf = self.gf
        ladder = self._ladder
        if ladder:
            width = min(self._chunk, -(-S // 8) * 8)
            pool = np.empty((self._pool_rows, width), dtype=gf.dtype)
            scratch = pool[self._pool_rows - 2]
            tmp = pool[self._pool_rows - 1]
        else:
            width = S
            n_inter = len(self._inter_ops)
            pool = np.empty((n_inter, S), dtype=gf.dtype) if n_inter else None
            scratch = tmp = None
        inter_ops = self._inter_ops
        outputs = self._outputs

        for s0 in range(0, S, width):
            w = min(width, S - s0)

            def ref(r, _s0=s0, _w=w):
                if r < 0:
                    return data[cols[-r - 1], _s0 : _s0 + _w]
                return pool[r, :_w]

            for j, steps in ladder:
                np.copyto(scratch[:w], data[cols[j], s0 : s0 + w])
                prev = scratch
                for dst_row in steps:
                    dst = pool[dst_row]
                    double_symbols(gf, prev, dst, tmp)
                    prev = dst
            for dst_row, ra, rb in inter_ops:
                np.bitwise_xor(ref(ra), ref(rb), out=pool[dst_row, :w])
            for i, refs in enumerate(outputs):
                ov = out[dst_rows[i], s0 : s0 + w]
                if not refs:
                    ov[...] = 0
                elif len(refs) == 1:
                    np.copyto(ov, ref(refs[0]))
                else:
                    np.bitwise_xor(ref(refs[0]), ref(refs[1]), out=ov)
                    for r in refs[2:]:
                        np.bitwise_xor(ov, ref(r), out=ov)

    # ---------------------------------------------------- native lowering

    def _native_program(self) -> tuple[np.ndarray, int]:
        """Lower the schedule to a flat instruction array for the C executor.

        Returns ``(prog, pool_rows)``: ``prog`` is ``(n_insn * 7,)`` int32
        in the ``repro.gf.native`` encoding and ``pool_rows`` how many
        chunk-width scratch rows the program touches.  The C ``DOUBLE`` op
        reads its source elementwise, so ladders start straight from the
        data row — the numpy executor's seed copy (and its ``tmp`` row)
        disappear; only the shared passthrough scratch row survives.
        """
        if self._native_prog is not None:
            return self._native_prog
        from repro.gf import native as nat

        pool_top = self._pool_rows - (2 if self._ladder else 0)

        def operand(r: int) -> tuple[int, int]:
            if r < 0:
                return nat.BASE_DATA, -r - 1
            return nat.BASE_POOL, r

        ins: list[tuple[int, ...]] = []
        for j, steps in self._ladder:
            prev = (nat.BASE_DATA, j)
            for dst_row in steps:
                ins.append((nat.OP_DOUBLE, nat.BASE_POOL, dst_row, *prev, 0, 0))
                prev = (nat.BASE_POOL, dst_row)
        for dst_row, ra, rb in self._inter_ops:
            ins.append((nat.OP_XOR2, nat.BASE_POOL, dst_row, *operand(ra), *operand(rb)))
        for i, refs in enumerate(self._outputs):
            dst = (nat.BASE_OUT, i)
            if not refs:
                ins.append((nat.OP_ZERO, *dst, 0, 0, 0, 0))
            elif len(refs) == 1:
                ins.append((nat.OP_COPY, *dst, *operand(refs[0]), 0, 0))
            else:
                ins.append((nat.OP_XOR2, *dst, *operand(refs[0]), *operand(refs[1])))
                for r in refs[2:]:
                    ins.append((nat.OP_XACC, *dst, *operand(r), 0, 0))
        prog = np.asarray(ins, dtype=np.int32).reshape(-1)
        pool_rows = (pool_top + 1) if self._ladder else pool_top
        self._native_prog = (prog, pool_rows)
        return self._native_prog

    def execute_native(
        self,
        backend,
        data: np.ndarray,
        cols: np.ndarray,
        dst_rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Run the schedule through a :class:`repro.gf.native.NativeBackend`.

        Same contract as :meth:`execute`, byte-identical output.  Rows of
        ``data``/``out`` must be contiguous (``CodingPlan`` guarantees
        this; standalone callers get a copy made for them).
        """
        S = data.shape[1]
        if S == 0 or self.m == 0:
            return
        itemsize = self.gf.dtype.itemsize
        if data.strides[-1] != itemsize:
            data = np.ascontiguousarray(data)
        out_view = out
        copy_back = out.strides[-1] != itemsize
        if copy_back:
            out_view = np.ascontiguousarray(out)
        prog, pool_rows = self._native_program()
        nbytes = S * itemsize
        if pool_rows:
            block = pool_budget_bytes() // pool_rows
            block = max(4096 * itemsize, block & ~63)
            block = min(block, -(-nbytes // 8) * 8)
            pool = np.empty(pool_rows * block, dtype=np.uint8)
        else:
            block = 0  # the C side runs the whole stripe in one pass
            pool = None
        backend.xor_exec(
            prog,
            data,
            np.ascontiguousarray(cols, dtype=np.int32),
            out_view,
            np.ascontiguousarray(dst_rows, dtype=np.int32),
            pool,
            block,
            nbytes,
            self.gf.q,
            int(self.gf.primitive_poly) & (self.gf.size - 1),
        )
        if copy_back:
            out[...] = out_view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"XorSchedule({self.m}x{self.n} over GF(2^{self.gf.q}), "
            f"xors={s['xors']} (raw {s['raw_xors']}), ladder={s['ladder_steps']})"
        )
