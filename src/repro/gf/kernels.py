"""Accelerated GF(2^q) coding kernels and compiled coding plans.

This is the numpy analogue of ISA-L's ``ec_init_tables`` /
``ec_encode_data`` pair that the paper's C++ implementation relies on: the
coefficient matrix of a coding operation is *compiled once* into gather
tables, and data is then streamed through flat table lookups with no
per-symbol Python arithmetic.

The hot kernel uses a *packed multi-lane* layout (the numpy translation of
ISA-L's ``gf_4vect``/``gf_6vect`` multi-destination kernels): products for
up to 8 output rows (uint8 symbols) or 4 output rows (uint16 symbols) are
packed side by side into one ``uint64`` table entry.  XOR has no carries,
so a single 64-bit XOR accumulates all lanes at once — one ``np.take`` and
one XOR per (data row, row group) replace a Python-level loop over every
(output row, data row) pair.  Gathers run ``mode="clip"`` (inputs are
range-validated up front, so clipping never triggers) which skips numpy's
bounds-error machinery, and the stripe is processed in cache-sized chunks
so the index/scratch/accumulator working set stays resident.

Table strategies per field width:

* **q <= 8** — per-coefficient product tables are rows of the field's full
  multiplication table; packed tables cost ``8 * gf.size`` bytes per
  (data row, row group) and are always built.
* **q == 16** — a full packed table is 512 KiB per (data row, row group);
  it is built only while the count stays under :data:`FULL_TABLE_LIMIT`.
  Past that, each coefficient ``c`` falls back to two 256-entry *split
  tables* (ISA-L style): ``lo[b] = c * b`` and ``hi[b] = c * (b << 8)``,
  with ``c * x == lo[x & 0xff] ^ hi[x >> 8]`` — bounded memory at the
  price of a second gather.

Tables are built lazily on the first large apply; short products (matrix
inversion, generator construction) use a direct log/antilog path so
compiling a plan for a one-shot small product costs nothing.

A third tier sits above the tables: coefficient matrices whose GF(2)
companion expansion is sparse (XOR parities, 0/1 reconstruction
matrices) compile to an :class:`repro.gf.schedule.XorSchedule` — pure
word-wide XOR passes with common-subexpression elimination — selected
automatically per plan shape by a measured cost model, or forced via
``CodingPlan(..., kernel=...)`` / the ``REPRO_KERNEL`` env knob (see
:data:`KERNEL_CHOICES`).

:class:`CodingPlan` packages the compiled tables for a fixed coefficient
matrix; :func:`mat_data_product` is the one-shot convenience on top of it.
"""

from __future__ import annotations

import os

import numpy as np

from repro.gf.field import GF, GFError
from repro.gf import schedule as _schedule
from repro.gf.schedule import XorSchedule, predicted_win
from repro.obs.trace import get_tracer

#: Scratch budget for one gather chunk, in 64-bit words (~1.5 MiB).  The
#: chunk length is this budget divided among the accumulator rows, the
#: index vector and the gather target, sized so all three stay cache-hot
#: across the inner data-row loop.
GATHER_CHUNK_WORDS = 3 << 16

#: Stripe widths below this use the direct log/antilog path instead of
#: building (and paying for) packed gather tables.
SMALL_PRODUCT_ELEMS = 1024

#: Narrowest segment, in symbols, that :meth:`CodingPlan.apply_batch`
#: codes through the native segment table where it lies instead of
#: column-stacking it with its neighbours.  Below it a segment's own pass
#: costs more than its share of a stack (``docs/PERFORMANCE.md``, "A
#: striped write in one pass"); at or above :data:`SMALL_PRODUCT_ELEMS`,
#: every segment in the table is booked as its own :meth:`CodingPlan.apply`
#: would book it.
_SEGMENT_MIN_ELEMS = 1024

#: Maximum number of full 65536-entry packed tables a GF(2^16) plan may
#: hold (512 KiB each — 32 MiB total); larger plans use split tables.
FULL_TABLE_LIMIT = 64

#: Valid values for the ``REPRO_KERNEL`` env knob and the
#: ``CodingPlan(kernel=...)`` override.  ``auto`` lets the measured-cost
#: heuristic pick between the XOR-schedule tier and the table tier per
#: plan shape, and executes through the native (generated-C) backend
#: whenever one is available; ``table`` / ``xor`` force one numpy side
#: (``xor`` still routes sub-:data:`SMALL_PRODUCT_ELEMS` products
#: through the direct path, where neither tier's setup cost pays off);
#: ``native`` keeps the auto structure decision but requires the native
#: backend, falling back transparently (and counting the fallback) when
#: no compiler / cffi is present.
KERNEL_CHOICES = ("auto", "table", "xor", "native")


def current_kernel_choice() -> str:
    """The session-wide kernel-tier override from ``REPRO_KERNEL``.

    Read at plan-construction time (and baked into the plan-cache keys,
    see :mod:`repro.codes.base`) so flipping the knob mid-process can
    never serve a plan compiled for another tier.
    """
    choice = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    if choice not in KERNEL_CHOICES:
        raise GFError(
            f"REPRO_KERNEL={choice!r} is not a kernel choice; expected one of {KERNEL_CHOICES}"
        )
    return choice


_SELECTION_KEYS = (
    "copy",
    "packed-full",
    "packed-split",
    "xor",
    "native",
    "native-xor",
    "xor_fallbacks",
    "native_fallbacks",
)
_selection_counts = dict.fromkeys(_SELECTION_KEYS, 0)

#: Per-tier payload byte accounting (input + output bytes per apply),
#: keyed by the executed kernel label.  Unlike the selection counters —
#: one tick per *plan* — these accumulate per *apply*, so a hot cached
#: plan shows up proportional to the data it actually moved.
_BYTE_KEYS = ("copy", "packed-full", "packed-split", "xor", "native", "native-xor", "direct-small")
_selection_bytes = dict.fromkeys(_BYTE_KEYS, 0)


def kernel_selection_info() -> dict[str, int]:
    """Per-tier plan selection counters (``repro stats`` surfaces these).

    Each :class:`CodingPlan` is counted once, at its first large apply —
    the moment the tier decision is actually exercised.  ``xor_fallbacks``
    counts auto-mode plans that compiled an XOR schedule but fell back to
    the tables because the cost model said the schedule would lose;
    ``native_fallbacks`` counts plans that asked for the native tier
    (``kernel="native"``) but ran on the numpy tiers because no backend
    could be built.
    """
    return dict(_selection_counts)


def kernel_bytes_info() -> dict[str, int]:
    """Payload bytes (input + output) processed per kernel tier.

    Accumulated on every apply, so alongside the one-per-plan selection
    counters this shows *where the data went*: a workload can select the
    native tier once and then stream terabytes through it.
    """
    return dict(_selection_bytes)


def reset_kernel_selection() -> None:
    """Zero the per-tier selection counters (tests, workload baselines)."""
    for key in _SELECTION_KEYS:
        _selection_counts[key] = 0
    for key in _BYTE_KEYS:
        _selection_bytes[key] = 0


def validate_symbols(gf: GF, arr: np.ndarray, what: str) -> np.ndarray:
    """Check that ``arr`` holds symbols of ``gf`` and return it as ``gf.dtype``.

    The range scan is skipped when the array's dtype cannot represent an
    out-of-field value (uint8 for GF(2^8), uint16 for GF(2^16)), which
    keeps the hot encode/decode paths scan-free.
    """
    if arr.dtype == gf.dtype:
        return arr
    if arr.dtype.kind not in "iu":
        raise GFError(f"{what} must be an integer symbol array, got dtype {arr.dtype}")
    if arr.dtype.kind == "i" or np.iinfo(arr.dtype).max >= gf.size:
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= gf.size):
            raise GFError(
                f"{what} contains symbols outside GF(2^{gf.q}): "
                f"dtype {arr.dtype} holds values in [{int(arr.min())}, {int(arr.max())}] "
                f"but the field maximum is {gf.size - 1} "
                f"(is this {arr.dtype.itemsize * 8}-bit data hitting a GF(2^{gf.q}) plan?)"
            )
    return arr.astype(gf.dtype, copy=False)


def _outer_mul(gf: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a[i] * b[j]`` over the field, via log/antilog tables."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    out = gf.exp[gf.log[a][:, None] + gf.log[b][None, :]].astype(gf.dtype)
    out[a == 0, :] = 0
    out[:, b == 0] = 0
    return out


def split_product_tables(gf: GF, coefficients) -> tuple[np.ndarray, np.ndarray]:
    """ISA-L style low/high-byte product tables for GF(2^16) coefficients.

    Returns ``(lo, hi)``, each of shape ``(len(coefficients), 256)`` with
    ``lo[i, b] == c_i * b`` and ``hi[i, b] == c_i * (b << 8)``, so that
    ``c_i * x == lo[i, x & 0xff] ^ hi[i, x >> 8]`` for any symbol ``x``.
    """
    if gf.q != 16:
        raise GFError(f"split tables are defined for GF(2^16) only, not GF(2^{gf.q})")
    c = np.asarray(coefficients, dtype=np.int64).reshape(-1)
    if c.size and (c.min() < 0 or c.max() >= gf.size):
        raise GFError("split-table coefficients outside GF(2^16)")
    b = np.arange(256, dtype=np.int64)
    return _outer_mul(gf, c, b), _outer_mul(gf, c, b << 8)


def _pack_lanes(tables: np.ndarray, groups: int, lanes: int) -> np.ndarray:
    """Interleave per-row product tables into packed uint64 lane tables.

    ``tables`` is ``(groups * lanes, n, size)`` of the field dtype; the
    result is ``(n, groups, size)`` uint64 where entry ``[j, g, b]`` holds
    the products of ``b`` with rows ``g*lanes .. g*lanes+lanes-1`` against
    data row ``j``, packed side by side in machine byte order (the same
    order a ``.view`` deinterleave reads them back).
    """
    n, size = tables.shape[1], tables.shape[2]
    lanes_last = tables.reshape(groups, lanes, n, size).transpose(2, 0, 3, 1)
    packed = np.ascontiguousarray(lanes_last).view(np.uint64)
    return packed.reshape(n, groups, size)


class CodingPlan:
    """A compiled coding operation: fixed coefficient matrix, reusable tables.

    Rows of the matrix are classified once at compile time:

    * all-zero rows produce zero output and are skipped;
    * identity rows (single coefficient equal to 1 — the systematic part of
      every generator) become direct row copies;
    * the remaining rows form a dense sub-matrix, restricted to the data
      rows it actually touches, applied with the packed-lane gather kernel.

    ``apply`` is pure with respect to the plan, so a plan may be reused for
    any number of payloads (and cached — see
    :meth:`repro.codes.base.ErasureCode.compile_encode` and friends).
    """

    def __init__(self, gf: GF, coeffs: np.ndarray, kernel: str | None = None):
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 2:
            raise GFError("CodingPlan expects a 2-D coefficient matrix")
        if kernel is None:
            kernel = current_kernel_choice()
        elif kernel not in KERNEL_CHOICES:
            raise GFError(f"kernel={kernel!r} is not one of {KERNEL_CHOICES}")
        self._choice = kernel
        coeffs = validate_symbols(gf, coeffs, "coefficient matrix")
        self.gf = gf
        self.coeffs = coeffs
        self.m, self.n = coeffs.shape

        nnz = np.count_nonzero(coeffs, axis=1)
        if self.n:
            first_nz = np.argmax(coeffs != 0, axis=1)
            is_copy = (nnz == 1) & (coeffs[np.arange(self.m), first_nz] == 1)
        else:  # over zero inputs every row is all-zero: argmax has nothing to scan
            first_nz = np.zeros(self.m, dtype=np.intp)
            is_copy = np.zeros(self.m, dtype=bool)
        self._zero_rows = np.nonzero(nnz == 0)[0]
        self._copy_dst = np.nonzero(is_copy)[0]
        self._copy_src = first_nz[self._copy_dst]
        # Systematic generators copy identity blocks: one contiguous run
        # (Reed-Solomon) or several (Pyramid, Galloper).  A slice
        # assignment per run moves that payload once, where fancy indexing
        # gathers into a temporary and scatters it back out (2x the
        # traffic — on wide stripes the copies rival the parity
        # arithmetic).  Only a layout with no run longer than one row (the
        # rotated baseline) keeps fancy indexing: there a slice per row
        # would cost more calls than it saves bytes.
        self._copy_runs = None
        d, s = self._copy_dst, self._copy_src
        if d.size:
            breaks = (np.nonzero((np.diff(d) != 1) | (np.diff(s) != 1))[0] + 1).tolist()
            if len(breaks) + 1 < d.size or d.size == 1:
                self._copy_runs = [
                    (slice(int(d[lo]), int(d[lo]) + hi - lo), slice(int(s[lo]), int(s[lo]) + hi - lo))
                    for lo, hi in zip([0, *breaks], [*breaks, d.size])
                ]

        dense = np.nonzero((nnz > 0) & ~is_copy)[0]
        self._dense_dst = dense
        if dense.size:
            sub = coeffs[dense]
            used = np.nonzero(sub.any(axis=0))[0]
            self._dense_cols = used
            self._sub = np.ascontiguousarray(sub[:, used])
        else:
            self._dense_cols = np.zeros(0, dtype=np.int64)
            self._sub = None
        # Packed tables are built lazily by the first large apply.
        self._lanes = 8 if gf.dtype.itemsize == 1 else 4
        self._groups = -(-dense.size // self._lanes) if dense.size else 0
        self._packed = None  # "full": (n_used, groups, gf.size) uint64
        self._packed_lo = None  # "split16": (n_used, groups, 256) uint64
        self._packed_hi = None
        self._group_nonzero = None  # (n_used, groups) bool
        # XOR-schedule tier state; the tier decision is made lazily so
        # one-shot small products never pay schedule compilation.
        self._schedule = None
        self._tier_decided = False
        self._xor_fallback = False
        self._tier_counted = False
        # Native (generated-C) tier state: the backend is bound once at
        # tier-decision time so a plan's labels and execution path never
        # change under it mid-life.
        self._native_backend = None
        self._native_fallback = False
        self._native_tables = None  # gf8: (tables,); gf16: (lo, hi)

    # ------------------------------------------------------------- tables

    def _decide_tier(self) -> None:
        """Resolve table-vs-XOR for the dense rows, once per plan.

        ``kernel="xor"`` forces the schedule; ``auto`` compiles one only
        when the :func:`repro.gf.schedule.predicted_win` pre-screen says
        the shape could plausibly beat the tables, then keeps it only if
        the full cost model (after common-pair elimination) agrees —
        otherwise the plan falls back to the packed tables and the
        fallback is counted in :func:`kernel_selection_info`.
        """
        if self._tier_decided:
            return
        self._tier_decided = True
        if self._sub is None or self._choice == "table":
            return
        if self._choice in ("auto", "native") and self.gf.q in (8, 16):
            # Bind the process-wide native backend (compiled / dlopen'ed
            # on first demand).  Forced "native" without a usable
            # toolchain degrades to the numpy tiers and is counted.
            from repro.gf import native as _native

            self._native_backend = _native.get_backend()
            if self._native_backend is None and self._choice == "native":
                self._native_fallback = True
        if self._choice == "xor":
            self._schedule = XorSchedule.compile(self.gf, self._sub)
            return
        if predicted_win(self.gf, self._sub):
            schedule = XorSchedule.compile(self.gf, self._sub)
            if schedule.wins:
                self._schedule = schedule
            else:
                self._xor_fallback = True

    @property
    def kernel(self) -> str:
        """Which dense kernel this plan uses once tables are built."""
        if self._sub is None:
            return "copy"
        self._decide_tier()
        if self._schedule is not None:
            return "native-xor" if self._native_backend is not None else "xor"
        if self._native_backend is not None:
            return "native"
        if self.gf.size <= 256 or self._dense_cols.size * self._groups <= FULL_TABLE_LIMIT:
            return "packed-full"
        if self.gf.q == 16:
            return "packed-split"
        return "direct"  # pragma: no cover - no such field is configured

    def _build_tables(self) -> None:
        lanes, groups = self._lanes, self._groups
        n_used = self._dense_cols.size
        padded = np.zeros((groups * lanes, n_used), dtype=self.gf.dtype)
        padded[: self._dense_dst.size] = self._sub
        self._group_nonzero = np.ascontiguousarray(
            padded.reshape(groups, lanes, n_used).any(axis=1).T
        )
        kind = self.kernel
        if kind == "packed-full":
            if self.gf.mul_table is not None:
                tabs = self.gf.mul_table[padded]
            else:
                # Build per-coefficient rows of the (virtual) full mul table,
                # deduplicating repeated coefficients.
                uniq, inv = np.unique(padded.reshape(-1), return_inverse=True)
                rows = _outer_mul(self.gf, uniq, np.arange(self.gf.size, dtype=np.int64))
                tabs = rows[inv.reshape(padded.shape)]
            self._packed = _pack_lanes(tabs, groups, lanes)
        elif kind == "packed-split":
            lo, hi = split_product_tables(self.gf, padded.reshape(-1))
            self._packed_lo = _pack_lanes(lo.reshape(*padded.shape, 256), groups, lanes)
            self._packed_hi = _pack_lanes(hi.reshape(*padded.shape, 256), groups, lanes)

    # -------------------------------------------------------------- apply

    def apply(self, data, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``coeffs @ data`` over the field for a ``(n, S)`` payload.

        ``data`` is one 2-D array, or a list of 2-D arrays of one width
        whose rows, laid end to end, are the ``n`` input rows — the
        helper rows of a rebuild where they were read.  The native
        kernels read such rows in place; every other path stacks them
        first (see :meth:`_compute`).
        """
        rows, s = self._input_rows(data)
        if out is None:
            # Every row with a non-zero coefficient is written in full by
            # the copies or the dense kernel; only all-zero rows need zeros.
            out = np.empty((self.m, s), dtype=self.gf.dtype)
            if self._zero_rows.size:
                out[self._zero_rows] = 0
        elif out.shape != (self.m, s) or out.dtype != self.gf.dtype:
            raise GFError(f"output buffer must be {(self.m, s)} of {self.gf.dtype}")
        if s == 0:
            return out
        nbytes = (self.n * s + out.size) * self.gf.dtype.itemsize
        self._run(s, nbytes, lambda: self._compute(rows, out, s, nbytes))
        return out

    def _run(self, columns: int, nbytes: int, compute) -> None:
        """``compute()``, under a ``gf.apply`` span when tracing is on: the
        one record of a kernel's label, wall time and bytes."""
        tracer = get_tracer()
        if not tracer.enabled:
            compute()
            return
        kind = self.kernel
        kernel = kind if kind == "copy" or columns >= SMALL_PRODUCT_ELEMS else "direct-small"
        with tracer.span(
            "gf.apply", category="gf", kernel=kernel,
            rows=self.m, data_rows=self.n, columns=columns, bytes=nbytes,
        ):
            compute()

    def _input_rows(self, data) -> tuple[list[np.ndarray], int]:
        """``data`` (see :meth:`apply`) as a list of 2-D arrays of field
        symbols holding the ``n`` input rows end to end, and their width."""
        rows, nrows, width = [], 0, None
        for chunk in data if isinstance(data, list) else (data,):
            chunk = np.asarray(chunk)
            if chunk.ndim != 2:
                raise GFError("mat_data_product expects 2-D coeffs and 2-D data")
            height, w = chunk.shape
            if width is None:
                width = w
            elif w != width:
                raise GFError(f"input rows of one product must share one width, got {width} and {w}")
            nrows += height
            rows.append(validate_symbols(self.gf, chunk, "data"))
        if nrows != self.n:
            raise GFError(
                f"dimension mismatch: coeffs is {self.coeffs.shape}, data has {nrows} rows"
            )
        return rows, width or 0

    def _native_ready(self) -> bool:
        """Whether the dense rows run on a native kernel (tier decided)."""
        if not self._dense_dst.size:
            return False
        self._decide_tier()
        return self._native_backend is not None

    def _compute(self, rows: list[np.ndarray], out: np.ndarray, s: int, nbytes: int) -> None:
        """The uninstrumented kernel body: copies, then the dense product.

        The native kernels take ``rows`` as they lie and make the copies
        themselves.  The numpy tiers, the direct path for short stripes
        and a copy-only plan take one array, so several row arrays are
        stacked for them first.
        """
        if s >= SMALL_PRODUCT_ELEMS and self._native_ready():
            self._book(nbytes)
            out_view = out
            if out.strides[-1] != self.gf.dtype.itemsize:
                out_view = np.ascontiguousarray(out)
            self._native_segments(rows, out_view, [0], [out_view.strides[0], s * self.gf.dtype.itemsize])
            if out_view is not out:
                out[...] = out_view
            return
        if len(rows) > 1:
            rows = [np.concatenate(rows)]
        self._copy_rows(rows, out)
        if not self._dense_dst.size:
            _selection_bytes["copy"] += nbytes
            return
        if s < SMALL_PRODUCT_ELEMS:
            _selection_bytes["direct-small"] += nbytes
            self._apply_dense_direct(rows[0], out)
            return
        self._book(nbytes)
        if self._schedule is not None:
            self._schedule.execute(rows[0], self._dense_cols, self._dense_dst, out)
        else:
            self._apply_dense_packed(rows[0], out)

    def _book(self, nbytes: int) -> None:
        """Count a dense product of ``nbytes`` on this plan's tier (and
        the plan itself, at its first)."""
        if not self._tier_counted:
            self._tier_counted = True
            _selection_counts[self.kernel] += 1
            if self._xor_fallback:
                _selection_counts["xor_fallbacks"] += 1
            if self._native_fallback:
                _selection_counts["native_fallbacks"] += 1
        _selection_bytes[self.kernel] += nbytes

    def _copy_rows(self, rows: list[np.ndarray], out: np.ndarray) -> None:
        """The identity coefficient rows: ``out[d] = input row s``, run by
        run, each run split where it crosses from one row array to the next."""
        runs = self._copy_runs
        if runs is None:
            if len(rows) == 1:
                if self._copy_dst.size:
                    out[self._copy_dst] = rows[0][self._copy_src]
                return
            runs = [
                (slice(d, d + 1), slice(c, c + 1))
                for d, c in zip(self._copy_dst.tolist(), self._copy_src.tolist())
            ]
        first = 0
        for chunk in rows:
            last = first + chunk.shape[0]
            for dst_sl, src_sl in runs:
                lo, hi = max(src_sl.start, first), min(src_sl.stop, last)
                if lo < hi:
                    shift = dst_sl.start - src_sl.start
                    out[lo + shift : hi + shift] = chunk[lo - first : hi - first]
            first = last

    __call__ = apply

    def apply_batch(self, segments) -> list[np.ndarray]:
        """Apply the plan to many segments, their results in one buffer.

        ``segments`` is a sequence of ``(n, S_i)`` payloads sharing this
        plan's coefficient matrix — e.g. the stripe grids of every group
        of a striped file — each one 2-D array or a list of row arrays as
        :meth:`apply` takes it.  One ``(m, S_i)`` result comes back per
        segment, each a view into one shared buffer.

        How a segment gets there depends on its width alone.  On a native
        tier, every segment at least :data:`_SEGMENT_MIN_ELEMS` wide is
        coded by one kernel call over a segment table: its rows are read
        where they lie and its result is written contiguously into the
        buffer — a C-contiguous array, with nothing staged.  The numpy
        tiers take one array per product, so there only a segment that
        fills a kernel cache block (:meth:`_cache_block_elems`) is applied
        on its own, straight into its part of the buffer.  Runs of
        narrower segments are column-stacked straight from their rows (one
        copy) and pushed through one :meth:`apply` (one table walk, one
        chunk loop, one set of scratch buffers instead of one per
        segment), which is what amortises the per-call cost of small
        stripe groups; their results are column slices of the run's part
        of the buffer.  A narrow segment alone between wide ones is
        applied as given.
        """
        members = [self._input_rows(seg) for seg in segments]
        if not members:
            return []
        native = any(width >= _SEGMENT_MIN_ELEMS for _, width in members) and self._native_ready()
        wide = _SEGMENT_MIN_ELEMS if native else self._cache_block_elems()
        m = self.m
        make = np.zeros if self._zero_rows.size else np.empty
        buf = make(m * sum(width for _, width in members), dtype=self.gf.dtype)
        results = []
        table = []  # (rows, width, offset) of each segment coded in the native call
        pos = i = 0
        while i < len(members):
            rows, width = members[i]
            j = i + 1
            if width < wide:
                while j < len(members) and members[j][1] < wide:
                    j += 1
                width = sum(w for _, w in members[i:j])
            region = buf[pos : pos + m * width].reshape(m, width)
            if j > i + 1:
                self.apply(self._stack(members[i:j]), out=region)
                left = 0
                for _, w in members[i:j]:
                    results.append(region[:, left : left + w])
                    left += w
            else:
                results.append(region)
                if native and width >= wide:
                    table.append((rows, width, pos))
                else:
                    self.apply(rows if len(rows) != 1 else rows[0], out=region)
            pos += m * width
            i = j
        if table:
            self._apply_segments(table, buf)
        return results

    def _apply_segments(self, table, buf: np.ndarray) -> None:
        """One native call over :meth:`apply_batch`'s segment table:
        ``table[g]`` is ``(rows, width, offset)``, segment ``g``'s input
        row arrays and its ``(m, width)`` result at symbol ``offset`` of
        ``buf``.  Booked and traced as one :meth:`apply` of every column."""
        itemsize = self.gf.dtype.itemsize
        chunks, offsets, oshape = [], [], []
        for rows, width, offset in table:
            chunks += rows
            offsets.append(offset * itemsize)
            oshape += (width * itemsize, width * itemsize)
        columns = sum(oshape[1::2]) // itemsize
        nbytes = (self.n + self.m) * columns * itemsize

        def compute():
            self._book(nbytes)
            self._native_segments(chunks, buf, offsets, oshape)

        self._run(columns, nbytes, compute)

    def _stack(self, members: list[tuple[list[np.ndarray], int]]) -> np.ndarray:
        """Column-stack the input rows of several segments (``(rows, width)``
        as :meth:`_input_rows` returns them) into one array, copying each
        row once.

        Segments cut into row arrays alike (2-D grids, or the equal helper
        reads of one rebuild bucket) take one ``np.concatenate`` per row
        array; any other mix is copied array by array.
        """
        stacked = np.empty((self.n, sum(width for _, width in members)), dtype=self.gf.dtype)
        heights = [chunk.shape[0] for chunk in members[0][0]]
        if all([chunk.shape[0] for chunk in rows] == heights for rows, _ in members):
            top = 0
            for p, height in enumerate(heights):
                np.concatenate([rows[p] for rows, _ in members], axis=1, out=stacked[top : top + height])
                top += height
            return stacked
        left = 0
        for rows, width in members:
            top = 0
            for chunk in rows:
                stacked[top : top + chunk.shape[0], left : left + width] = chunk
                top += chunk.shape[0]
            left += width
        return stacked

    def _cache_block_elems(self) -> int:
        """Symbols per row in one kernel cache block.

        One block keeps every dense output-row segment plus the
        streaming data row inside the shared pool budget (~L2).  The
        native kernels split a stripe at this width; :meth:`apply_batch`
        stops staging segments at it, for every tier alike.
        """
        block = _schedule.POOL_BUDGET_BYTES // (self.gf.dtype.itemsize * (self._dense_dst.size + 1))
        return max(4096, block & ~63)

    def _apply_dense_direct(self, data: np.ndarray, out: np.ndarray) -> None:
        """Log/antilog path for short stripes — no table build, no scratch."""
        sub = self._sub
        d = data[self._dense_cols]
        if self.gf.mul_table is not None:
            prods = self.gf.mul_table[sub[:, :, None], d[None, :, :]]
            out[self._dense_dst] = np.bitwise_xor.reduce(prods, axis=1)
            return
        logs = self.gf.log[d.astype(np.int64)]
        acc = np.zeros((sub.shape[0], d.shape[1]), dtype=self.gf.dtype)
        for r in range(sub.shape[0]):
            row = sub[r].astype(np.int64)
            nz = np.nonzero(row)[0]
            prods = self.gf.exp[self.gf.log[row[nz]][:, None] + logs[nz]].astype(self.gf.dtype)
            prods[d[nz] == 0] = 0
            acc[r] = np.bitwise_xor.reduce(prods, axis=0)
        out[self._dense_dst] = acc

    def _apply_dense_packed(self, data: np.ndarray, out: np.ndarray) -> None:
        if self._packed is None and self._packed_lo is None:
            self._build_tables()
        lanes, groups = self._lanes, self._groups
        rows, cols = self._dense_dst, self._dense_cols
        nz = self._group_nonzero
        split = self._packed is None
        lane_dtype = self.gf.dtype
        s = data.shape[1]
        chunk = max(4096, GATHER_CHUNK_WORDS // (groups + 2))
        acc = np.empty((groups, chunk), dtype=np.uint64)
        tmp = np.empty(chunk, dtype=np.uint64)
        idx = np.empty(chunk, dtype=np.intp)
        tmp2 = np.empty(chunk, dtype=np.uint64) if split else None
        idx2 = np.empty(chunk, dtype=np.intp) if split else None
        started = np.empty(groups, dtype=bool)
        for s0 in range(0, s, chunk):
            w = min(chunk, s - s0)
            a = acc[:, :w]
            # The first gather of each group lands directly in the
            # accumulator, skipping a zero-fill and an XOR pass.
            started[:] = False
            for j in range(cols.size):
                seg = data[cols[j], s0 : s0 + w]
                if split:
                    il, ih = idx[:w], idx2[:w]
                    np.bitwise_and(seg, 0xFF, out=il, casting="unsafe")
                    np.right_shift(seg, 8, out=ih, casting="unsafe")
                    for g in range(groups):
                        if not nz[j, g]:
                            continue
                        tp, tq = tmp[:w], tmp2[:w]
                        dst = tp if started[g] else a[g]
                        np.take(self._packed_lo[j, g], il, out=dst, mode="clip")
                        np.take(self._packed_hi[j, g], ih, out=tq, mode="clip")
                        np.bitwise_xor(dst, tq, out=dst)
                        if started[g]:
                            np.bitwise_xor(a[g], tp, out=a[g])
                        started[g] = True
                else:
                    ix = idx[:w]
                    ix[:] = seg
                    for g in range(groups):
                        if not nz[j, g]:
                            continue
                        if started[g]:
                            tp = tmp[:w]
                            np.take(self._packed[j, g], ix, out=tp, mode="clip")
                            np.bitwise_xor(a[g], tp, out=a[g])
                        else:
                            np.take(self._packed[j, g], ix, out=a[g], mode="clip")
                            started[g] = True
            for g in range(groups):
                base = g * lanes
                count = min(lanes, rows.size - base)
                lane_view = acc[g, :w].view(lane_dtype).reshape(w, lanes)
                out[rows[base : base + count], s0 : s0 + w] = lane_view[:, :count].T

    def _build_native_tables(self) -> None:
        """The native kernels' operands: int32 dense columns and rows, the
        identity rows as flat ``(out row, input row)`` pairs, and for the
        gather kernels per-coefficient product tables.

        GF(2^8): one contiguous ``(m, n_used, 256)`` uint8 block, rows of
        the field's full mul table.  GF(2^16): ISA-L split lo/hi tables,
        ``(m, n_used, 256)`` uint16 each — the full 65536-entry table
        would blow the cache budget the native tier exists to respect.
        """
        self._native_cols = np.ascontiguousarray(self._dense_cols, dtype=np.int32)
        self._native_rows = np.ascontiguousarray(self._dense_dst, dtype=np.int32)
        self._native_copies = np.ascontiguousarray(
            np.stack([self._copy_dst, self._copy_src], axis=1).reshape(-1), dtype=np.int32
        )
        sub = self._sub
        if self._schedule is not None:
            self._native_tables = ()
        elif self.gf.q == 8:
            self._native_tables = (np.ascontiguousarray(self.gf.mul_table[sub]),)
        else:
            lo, hi = split_product_tables(self.gf, sub.reshape(-1))
            shape = (*sub.shape, 256)
            self._native_tables = (
                np.ascontiguousarray(lo.reshape(shape)),
                np.ascontiguousarray(hi.reshape(shape)),
            )

    def _native_segments(
        self, chunks: list[np.ndarray], out: np.ndarray, offsets: list[int], oshape: list[int]
    ) -> None:
        """Copies and dense product of one or more segments in one call of
        the native gather or XOR kernel, which reads the input rows where
        they lie.

        The input rows of every segment are those of ``chunks`` laid end
        to end; segment ``g``'s output starts ``offsets[g]`` bytes into
        ``out``, ``oshape[2g]`` bytes from row to row and ``oshape[2g +
        1]`` bytes wide.  The gather kernels are cache-blocked with the
        shared pool budget: one block keeps every output-row segment plus
        the streaming data row inside ~L2, so a multi-MB stripe never
        materialises a full-width intermediate.
        """
        if self._native_tables is None:
            self._build_native_tables()
        backend = self._native_backend
        operands = (chunks, self._native_cols, self._native_rows, self._native_copies, out, offsets, oshape)
        if self._schedule is not None:
            self._schedule.execute_native(backend, *operands)
        elif self.gf.q == 8:
            (tables,) = self._native_tables
            backend.gf8_gather(tables, self._sub, *operands, self._cache_block_elems())
        else:
            lo, hi = self._native_tables
            backend.gf16_gather(lo, hi, self._sub, *operands, self._cache_block_elems())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CodingPlan({self.m}x{self.n} over GF(2^{self.gf.q}), kernel={self.kernel})"


def mat_data_product(gf: GF, coeffs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """One-shot ``coeffs @ data`` over GF through a throwaway compiled plan.

    Output dtype is always ``gf.dtype`` regardless of the input dtypes, and
    both operands are validated to hold field symbols.  Callers that reuse
    the same matrix should compile a :class:`CodingPlan` once instead.
    """
    coeffs = np.asarray(coeffs)
    data = np.asarray(data)
    if coeffs.ndim != 2 or data.ndim != 2:
        raise GFError("mat_data_product expects 2-D coeffs and 2-D data")
    return CodingPlan(gf, coeffs).apply(data)


def mat_data_product_reference(gf: GF, coeffs: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Seed-era row-loop kernel, kept as correctness oracle and benchmark baseline.

    For q <= 8 this is the per-row table gather; for wider fields it is the
    log/antilog ``axpy`` accumulation the batched packed-lane kernel
    replaced.  Bit-identical to :func:`mat_data_product` by construction.
    """
    from repro.gf.vector import axpy

    coeffs = np.asarray(coeffs)
    data = np.asarray(data)
    if coeffs.ndim != 2 or data.ndim != 2:
        raise GFError("mat_data_product expects 2-D coeffs and 2-D data")
    m, n = coeffs.shape
    if data.shape[0] != n:
        raise GFError(f"dimension mismatch: coeffs is {coeffs.shape}, data has {data.shape[0]} rows")
    coeffs = validate_symbols(gf, coeffs, "coefficient matrix")
    data = validate_symbols(gf, data, "data")
    out = np.zeros((m, data.shape[1]), dtype=gf.dtype)
    if data.shape[1] == 0 or n == 0:
        return out
    table = gf.mul_table
    if table is not None:
        for i in range(m):
            row = coeffs[i]
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                continue
            gathered = table[row[nz][:, None], data[nz]]
            out[i] = np.bitwise_xor.reduce(gathered, axis=0)
        return out
    for i in range(m):
        acc = out[i]
        for j in range(n):
            axpy(gf, int(coeffs[i, j]), data[j], acc)
    return out
