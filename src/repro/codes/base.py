"""Common interface for every erasure code in the reproduction.

All codes — Reed-Solomon, Pyramid, Carousel, Galloper, replication and the
rotated-RAID baseline — are *stripe-level linear codes*: a code over
``n`` blocks of ``N`` stripes each is fully described by an
``(n*N, k*N)`` generator matrix over GF(2^q) together with a layout that
says which stripes hold original data.  The base class implements
encoding, decoding from arbitrary availability, block reconstruction and
cost accounting generically from that description; subclasses supply the
generator, the layout, and code-specific repair plans (this is where the
locality of Pyramid/Galloper codes lives).
"""

from __future__ import annotations

import abc
import weakref
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.gf import (
    GF,
    GF256,
    express_rows,
    inverse,
    rank,
    select_independent_rows,
)
from repro.gf.kernels import CodingPlan, current_kernel_choice
from repro.gf.matrix import SingularMatrixError


class CodeError(Exception):
    """Base error for erasure-code operations."""


class DecodingError(CodeError):
    """Raised when the available blocks cannot recover the requested data."""


class ParameterError(CodeError):
    """Raised for invalid code parameters."""


#: Block roles used throughout the library.
ROLE_DATA = "data"
ROLE_LOCAL_PARITY = "local_parity"
ROLE_GLOBAL_PARITY = "global_parity"
ROLE_REPLICA = "replica"


@dataclass(frozen=True)
class BlockInfo:
    """Static description of one coded block.

    Attributes:
        index: position of the block within the codeword (0-based).
        role: one of the ``ROLE_*`` constants.  For Galloper codes the role
            names the block's *structural* role inherited from the source
            Pyramid code — every block may still carry original data.
        group: local-repair group id for data / local-parity blocks, or
            ``None`` for global parities and ungrouped codes.
        data_stripes: number of stripes of original data stored at the top
            of the block.
        total_stripes: total stripes per block (the code's N).
        file_stripes: for each of the block's data stripes (top-down), the
            index of the file stripe it stores verbatim.  Contiguous for
            Galloper/Pyramid layouts; scattered for the rotated-RAID
            baseline.
    """

    index: int
    role: str
    group: int | None
    data_stripes: int
    total_stripes: int
    file_stripes: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.file_stripes) != self.data_stripes:
            raise ParameterError(
                f"block {self.index}: {self.data_stripes} data stripes but "
                f"{len(self.file_stripes)} file positions"
            )

    @property
    def data_fraction(self) -> float:
        """Fraction of the block occupied by original data (the weight w_i)."""
        return self.data_stripes / self.total_stripes


@dataclass(frozen=True, eq=False)
class HelperRows:
    """Which rows of which helpers rebuild each row of one block.

    Read off a compiled reconstruct: row ``r`` of the target is a
    combination of exactly the helper rows under the non-zero entries of
    coefficient row ``r``.  Symbol remapping is a change of basis, so a
    group-local Galloper repair still needs one row per helper for each
    row rebuilt, as the row-wise Pyramid code does — which is what lets a
    degraded read of one stripe cost one stripe per helper.

    Attributes:
        gf: the code's field.
        helpers: the plan's helper blocks, in read order.
        rows: per target row, the ``(helper, row)`` pairs it depends on,
            in helper order.
        coeffs: per target row, the coefficient of each of those pairs.
        fractions: per helper, the share of its rows some target row names.
    """

    gf: GF
    helpers: tuple[int, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    coeffs: tuple[np.ndarray, ...]
    fractions: dict[int, float]
    # Filled in as rows are read and rebuilt: whole-block callers, who
    # want the fractions only, compile nothing.
    _reads: dict = field(default_factory=dict, repr=False)
    _plans: dict = field(default_factory=dict, repr=False)

    @classmethod
    def compile(cls, compiled: CodingPlan, helpers: tuple[int, ...], N: int) -> HelperRows:
        """The rows behind ``compiled``, a whole-block reconstruct; when it
        names every helper row, it is the plan of all ``N`` rows."""
        rows, row_coeffs = [], []
        named: dict[int, set[int]] = {h: set() for h in helpers}
        for coeff_row in compiled.coeffs:
            cols = np.nonzero(coeff_row)[0].tolist()
            pairs = tuple((helpers[c // N], c % N) for c in cols)
            for helper, row in pairs:
                named[helper].add(row)
            rows.append(pairs)
            row_coeffs.append(coeff_row[cols])
        helper_rows = cls(
            gf=compiled.gf,
            helpers=helpers,
            rows=tuple(rows),
            coeffs=tuple(row_coeffs),
            fractions={h: len(named[h]) / N for h in helpers},
        )
        if all(len(named[h]) == N for h in helpers):
            helper_rows._plans[0, N] = compiled
        return helper_rows

    def reads(self, row0: int, nrows: int) -> tuple[tuple[int, int, int], ...]:
        """The ``(helper, row0, nrows)`` range reads that rebuild target
        rows ``row0 .. row0 + nrows``: helpers in read order, each
        helper's rows merged into maximal runs."""
        key = (row0, nrows)
        reads = self._reads.get(key)
        if reads is None:
            wanted = {pair for r in range(row0, row0 + nrows) for pair in self.rows[r]}
            runs: list[tuple[int, int, int]] = []
            for helper in self.helpers:
                for row in sorted(row for h, row in wanted if h == helper):
                    if runs and runs[-1][0] == helper and runs[-1][1] + runs[-1][2] == row:
                        runs[-1] = (helper, runs[-1][1], runs[-1][2] + 1)
                    else:
                        runs.append((helper, row, 1))
            reads = self._reads[key] = tuple(runs)
        return reads

    def plan(self, row0: int, nrows: int) -> CodingPlan:
        """The one product every rebuild of target rows ``row0 .. row0 +
        nrows`` applies: their coefficients over the rows :meth:`reads`
        names, stacked in read order."""
        key = (row0, nrows)
        plan = self._plans.get(key)
        if plan is None:
            column = {}
            for helper, first, count in self.reads(row0, nrows):
                for row in range(first, first + count):
                    column[helper, row] = len(column)
            coeffs = np.zeros((nrows, len(column)), dtype=self.gf.dtype)
            for i, row in enumerate(range(row0, row0 + nrows)):
                coeffs[i, [column[pair] for pair in self.rows[row]]] = self.coeffs[row]
            plan = self._plans[key] = CodingPlan(self.gf, coeffs)
        return plan

    def rebuild(self, row0: int, nrows: int, chunks) -> np.ndarray:
        """Target rows ``row0 .. row0 + nrows`` from ``chunks``, the row
        arrays read for :meth:`reads` of the same range, in its order
        (the product reads them where they lie)."""
        return self.plan(row0, nrows).apply(list(chunks))


class ReconstructPlan(CodingPlan):
    """A compiled reconstruct; its :class:`HelperRows` ride on the same
    LRU entry, filled in by the first caller that reads by the row."""

    helper_rows: HelperRows | None = None


@dataclass(frozen=True)
class RepairPlan:
    """How one missing block is reconstructed.

    Attributes:
        target: index of the block being rebuilt.
        helpers: blocks that must be read, in read order.
        code: the code the plan belongs to; it compiles and caches the
            coefficients, so equal plans of equal codes compare equal.
    """

    target: int
    helpers: tuple[int, ...]
    code: ErasureCode = field(compare=False, repr=False)

    @property
    def blocks_read(self) -> int:
        """Number of distinct helper blocks touched (servers woken up)."""
        return len(self.helpers)

    @property
    def helper_rows(self) -> HelperRows:
        """Per target row, the helper rows it is rebuilt from."""
        return self.code.compile_helper_rows(self.target, self.helpers)

    @cached_property
    def read_fractions(self) -> dict[int, float]:
        """Per helper, the fraction of the block a whole-block repair
        reads: the rows :attr:`helper_rows` names over the code's ``N``
        (1.0 for every code in this paper but the rotated baseline)."""
        return dict(self.helper_rows.fractions)

    def bytes_read(self, block_size: int) -> int:
        """Total disk I/O in bytes for a given block size."""
        return int(sum(self.read_fractions[h] * block_size for h in self.helpers))


@dataclass(frozen=True, eq=False)
class DecodePlan:
    """A compiled decode for one availability pattern.

    Attributes:
        ids: the available block ids the plan was compiled for (sorted).
        rows: indices into the stacked ``(len(ids)*N, S)`` stripe array
            selecting the independent rows the inverse was built from.
        plan: compiled product with the inverted coefficient matrix;
            applying it to the selected stripes yields the original data.
    """

    ids: tuple[int, ...]
    rows: np.ndarray
    plan: CodingPlan
    # ``rows`` as ``(block, first row, count)`` runs of consecutive rows
    # of one block: the row slices :meth:`ErasureCode.decode` hands over.
    _runs: tuple[tuple[int, int, int], ...] = field(repr=False)


#: Windows a :class:`ReadPlan` keeps the runs of: every window of a layout
#: of up to 90 stripes (Galloper(4,2,1) has 28); a wider one keeps those
#: asked for first.
_WITHIN_KEPT = 4096


@dataclass(frozen=True, eq=False)
class ReadPlan:
    """A code's stripe layout, compiled once for every read path.

    A *run* is ``(block, row0, nrows, stripe0)``: rows ``row0 ..
    row0 + nrows`` of ``block`` store file stripes ``stripe0 ..
    stripe0 + nrows`` verbatim, so one range read returns the whole
    run, as one piece of the file.  Galloper and Pyramid layouts give
    one run per data-carrying block; the rotated-RAID baseline scatters
    its stripes into runs of length one.

    Attributes:
        runs: maximal runs in file-stripe order; together they cover
            every verbatim-stored file stripe exactly once.
        starts: ``stripe0`` of each run (the bisect key of
            :meth:`runs_within`).
        holders: ``holders[file_stripe]`` is the ``(block, row)`` that
            serves the stripe.  Where several blocks store one stripe
            (replication) the highest-numbered block serves it.
    """

    runs: tuple[tuple[int, int, int, int], ...]
    starts: tuple[int, ...]
    holders: tuple[tuple[int, int], ...]
    # runs_within's answers by (start, stop): reads ask for the same few
    # windows of a fixed layout over and over.
    _within: dict = field(default_factory=dict, repr=False)

    @classmethod
    def compile(cls, block_infos, total: int) -> ReadPlan:
        """Compile the layout of ``total`` file stripes.

        Raises:
            CodeError: when some file stripe is stored verbatim by no
                block — the read paths serve systematic codes only.
        """
        holders: list[tuple[int, int] | None] = [None] * total
        for info in block_infos:
            for row, fs in enumerate(info.file_stripes):
                holders[fs] = (info.index, row)
        unheld = [fs for fs, holder in enumerate(holders) if holder is None]
        if unheld:
            raise CodeError(f"file stripes {unheld} are stored verbatim by no block")
        runs: list[tuple[int, int, int, int]] = []
        for fs, (block, row) in enumerate(holders):
            if runs:
                b, row0, nrows, fs0 = runs[-1]
                if b == block and row0 + nrows == row and fs0 + nrows == fs:
                    runs[-1] = (b, row0, nrows + 1, fs0)
                    continue
            runs.append((block, row, 1, fs))
        return cls(runs=tuple(runs), starts=tuple(r[3] for r in runs), holders=tuple(holders))

    def runs_within(self, start: int, stop: int) -> tuple[tuple[int, int, int, int], ...]:
        """The runs covering file stripes ``[start, stop)``, clipped to it
        (``start <`` the stripe total): a slice of :attr:`runs`, its first
        and last run cut to the range.  The first :data:`_WITHIN_KEPT`
        windows asked for are kept."""
        runs = self._within.get((start, stop))
        if runs is not None:
            return runs
        if start >= stop:
            return ()
        starts = self.starts
        runs = list(self.runs[max(bisect_right(starts, start) - 1, 0) : bisect_left(starts, stop)])
        block, row0, nrows, fs0 = runs[0]
        if fs0 < start:
            runs[0] = block, row0 + start - fs0, nrows - start + fs0, start
        block, row0, nrows, fs0 = runs[-1]
        if fs0 + nrows > stop:
            runs[-1] = block, row0, stop - fs0, fs0
        runs = tuple(runs)
        if len(self._within) < _WITHIN_KEPT:
            self._within[start, stop] = runs
        return runs


class _Built:
    """One parameter set's construction products, shared read-only by
    every code built from it: the identity holders of codes key them by."""

    __slots__ = ("attrs", "__weakref__")

    def __init__(self, attrs: dict):
        self.attrs = attrs


#: Construction products by normalised constructor arguments.  Each code
#: holds its entry, so an entry lives while some code built from it does.
_BUILT: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class ErasureCode(abc.ABC):
    """A systematic stripe-level linear erasure code.

    Subclasses must populate, in ``__init__``:

    * ``self.gf`` — the arithmetic context,
    * ``self.k`` — number of original data blocks in the input file,
    * ``self.n`` — total coded blocks,
    * ``self.N`` — stripes per block,
    * ``self.generator`` — ``(n*N, k*N)`` symbol matrix,
    * ``self.block_infos`` — one :class:`BlockInfo` per block.

    The input file is modelled as ``k*N`` stripes (``k`` blocks' worth of
    data); :meth:`encode` maps it to ``n`` blocks of ``N`` stripes.
    Each of them builds its products through :meth:`_construct`, so a
    parameter set is built once while some code built from it lives.
    """

    name: str = "erasure-code"

    #: The attributes :meth:`_construct`'s ``build`` sets and the memo shares.
    _shared: tuple[str, ...] = ("generator", "block_infos")

    gf: GF
    k: int
    n: int
    N: int
    generator: np.ndarray
    block_infos: tuple[BlockInfo, ...]

    # ------------------------------------------------------------ geometry

    @property
    def data_stripe_total(self) -> int:
        """Total original stripes carried by the codeword (always k*N)."""
        return self.k * self.N

    def block_rows(self, block: int) -> slice:
        """Row-slice of ``generator`` for one block."""
        if not 0 <= block < self.n:
            raise ParameterError(f"block {block} out of range for n={self.n}")
        return slice(block * self.N, (block + 1) * self.N)

    def rows_for_blocks(self, blocks) -> np.ndarray:
        """Stack generator rows for a sequence of block ids."""
        return np.concatenate([self.generator[self.block_rows(b)] for b in blocks], axis=0)

    def storage_overhead(self) -> float:
        """Raw storage blow-up versus the original data (n/k)."""
        return self.n / self.k

    def parallelism(self) -> int:
        """Number of blocks (servers) holding at least one original stripe.

        This is the paper's data-parallelism measure: the map-task fan-out
        available without extra network transfer (Fig. 2).
        """
        return sum(1 for info in self.block_infos if info.data_stripes > 0)

    def _construct(self, params: tuple, build) -> None:
        """Set the :attr:`_shared` attributes: ``build()`` sets them on the
        first code of its parameter set, the later ones copy its products.

        ``params`` are the normalised constructor arguments, less class
        and field, which the key adds.  Every code of the set holds the
        same objects, so arrays are made read-only (the rest are tuples
        and scalars); plan caches stay per code.
        """
        key = (type(self), self.gf.q, self.gf.primitive_poly) + params
        built = _BUILT.get(key)
        if built is None:
            build()
            attrs = {name: getattr(self, name) for name in self._shared}
            for value in attrs.values():
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
            built = _BUILT[key] = _Built(attrs)
        else:
            self.__dict__.update(built.attrs)
        self.__dict__["_built"] = built

    # ----------------------------------------------------------- plan cache

    #: Maximum number of compiled decode / repair plans retained per code
    #: instance (LRU eviction).  Override per instance for testing.
    PLAN_CACHE_SIZE = 128

    def _plans(self) -> OrderedDict:
        # Lazily created: subclasses populate attributes without calling a
        # base __init__, so the cache cannot be set up there.
        cache = self.__dict__.get("_plan_cache")
        if cache is None:
            cache = OrderedDict()
            self.__dict__["_plan_cache"] = cache
            self.__dict__["_plan_stats"] = {"hits": 0, "misses": 0}
        return cache

    def _plan_lookup(self, key):
        cache = self._plans()
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self._plan_stats["hits"] += 1
            return hit
        self._plan_stats["misses"] += 1
        return None

    def _plan_store(self, key, value):
        cache = self._plans()
        cache[key] = value
        while len(cache) > self.PLAN_CACHE_SIZE:
            cache.popitem(last=False)
        return value

    def plan_cache_info(self) -> dict:
        """Hit/miss counters and occupancy of the compiled-plan cache."""
        self._plans()
        return {
            "size": len(self._plan_cache),
            "maxsize": self.PLAN_CACHE_SIZE,
            "hits": self._plan_stats["hits"],
            "misses": self._plan_stats["misses"],
        }

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (including the compiled encode plan)."""
        self.__dict__.pop("_plan_cache", None)
        self.__dict__.pop("_plan_stats", None)
        self.__dict__.pop("_encode_plan", None)

    def compile_encode(self) -> CodingPlan:
        """The compiled generator product used by :meth:`encode`.

        Built once per code instance: the generator's identity rows become
        row copies and the parity rows packed-lane gathers (full or split
        product tables, chosen by field width and matrix size).
        """
        # Keyed by the active kernel tier (like the decode/repair cache
        # keys) so flipping REPRO_KERNEL never serves a stale plan
        # compiled for another tier.
        choice = current_kernel_choice()
        plans = self.__dict__.setdefault("_encode_plan", {})
        plan = plans.get(choice)
        if plan is None:
            plan = plans[choice] = CodingPlan(self.gf, self.generator)
        return plan

    def read_plan(self) -> ReadPlan:
        """The compiled stripe layout every read path looks stripes up in.

        Built once per code instance and kept beside the coding plans:
        the layout is fixed at construction, so it is neither evicted by
        the LRU nor dropped by :meth:`clear_plan_cache`.
        """
        plan = self.__dict__.get("_read_plan")
        if plan is None:
            plan = self.__dict__["_read_plan"] = ReadPlan.compile(
                self.block_infos, self.data_stripe_total
            )
        return plan

    def compile_decode(self, available_ids) -> DecodePlan:
        """Compile (or fetch from cache) the decode for one availability set.

        The plan is keyed by the frozenset of available block ids, so the
        row selection, Gauss-Jordan inversion and table compilation run
        once per failure pattern no matter how many stripes stream through.

        Raises:
            DecodingError: when the blocks do not determine the data.
        """
        ids = tuple(sorted(set(available_ids)))
        if not ids:
            raise DecodingError("no blocks available")
        key = ("decode", current_kernel_choice(), frozenset(ids))
        cached = self._plan_lookup(key)
        if cached is not None:
            return cached
        rows = self.rows_for_blocks(ids)
        # Prefer rows that are pure data stripes: ordering them first keeps
        # the elimination cheap and the decode systematic where possible.
        order = np.argsort(
            [0 if self._is_identity_row(rows[i]) else 1 for i in range(rows.shape[0])],
            kind="stable",
        )
        try:
            picked = select_independent_rows(self.gf, rows[order], self.data_stripe_total)
        except SingularMatrixError as exc:
            raise DecodingError(
                f"{self.name}: blocks {list(ids)} cannot decode the original data"
            ) from exc
        sel = order[picked]
        runs: list[tuple[int, int, int]] = []
        for i in sel.tolist():
            block, row = ids[i // self.N], i % self.N
            if runs and runs[-1][0] == block and runs[-1][1] + runs[-1][2] == row:
                runs[-1] = (block, runs[-1][1], runs[-1][2] + 1)
            else:
                runs.append((block, row, 1))
        plan = DecodePlan(
            ids=ids,
            rows=sel,
            plan=CodingPlan(self.gf, inverse(self.gf, rows[sel])),
            _runs=tuple(runs),
        )
        return self._plan_store(key, plan)

    def compile_reconstruct(self, target: int, helpers) -> ReconstructPlan:
        """Compile (or fetch) the coefficients rebuilding ``target`` from ``helpers``.

        Cached by ``(target, helpers)``: repeated failures of the same
        pattern — the common case in repair storms and benchmarks — skip
        :func:`~repro.gf.matrix.express_rows` entirely.

        Raises:
            DecodingError: when the helpers cannot express the target rows.
        """
        helpers = tuple(helpers)
        key = ("repair", current_kernel_choice(), target, helpers)
        cached = self._plan_lookup(key)
        if cached is not None:
            return cached
        try:
            coeffs = self._express_block(target, helpers)
        except SingularMatrixError as exc:
            raise DecodingError(
                f"{self.name}: helpers {helpers} cannot express block {target}"
            ) from exc
        return self._plan_store(key, ReconstructPlan(self.gf, coeffs))

    def _express_block(self, target: int, helpers: tuple[int, ...]) -> np.ndarray:
        """Coefficients writing ``target``'s rows over the stacked helper rows."""
        return express_rows(
            self.gf, self.generator[self.block_rows(target)], self.rows_for_blocks(helpers)
        )

    def compile_helper_rows(self, target: int, helpers) -> HelperRows:
        """The row-granular view of :meth:`compile_reconstruct`.

        Derived on first use and kept on the compiled plan, so whole-block
        callers never pay for it and the two are evicted together.
        """
        compiled = self.compile_reconstruct(target, helpers)
        if compiled.helper_rows is None:
            compiled.helper_rows = HelperRows.compile(compiled, tuple(helpers), self.N)
        return compiled.helper_rows

    # ------------------------------------------------------------ operations

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode the ``(k*N, S)`` stripe grid into ``(n, N, S)`` blocks."""
        data = np.asarray(data)
        if data.shape[0] != self.data_stripe_total:
            raise CodeError(
                f"{self.name}: expected {self.data_stripe_total} data stripes, got {data.shape[0]}"
            )
        flat = self.compile_encode().apply(data)
        return flat.reshape(self.n, self.N, data.shape[1])

    def can_decode(self, available) -> bool:
        """True when the given block ids suffice to recover all original data."""
        ids = sorted(set(available))
        if len(ids) < self.k:
            return False
        return rank(self.gf, self.rows_for_blocks(ids)) == self.data_stripe_total

    def decode(self, available: dict[int, np.ndarray]) -> np.ndarray:
        """Recover the original ``(k*N, S)`` stripe grid from surviving blocks.

        Args:
            available: mapping of block id to its ``(N, S)`` stripe array.

        Raises:
            DecodingError: when the blocks do not determine the data.
        """
        if not available:
            raise DecodingError("no blocks available")
        dp = self.compile_decode(available)
        return dp.plan.apply(self._decode_rows(dp, available))

    def _decode_rows(self, dp: DecodePlan, available) -> list[np.ndarray]:
        """The rows ``dp`` decodes from, where they lie: one row slice of
        an available block per run of consecutive rows."""
        N = self.N
        return [
            np.asarray(available[block]).reshape(N, -1)[first : first + count]
            for block, first, count in dp._runs
        ]

    @staticmethod
    def _is_identity_row(row: np.ndarray) -> bool:
        nz = np.nonzero(row)[0]
        return nz.size == 1 and row[nz[0]] == 1

    def repair_plan(
        self,
        target: int,
        failed: set[int] | frozenset[int] = frozenset(),
        preference=None,
    ) -> RepairPlan:
        """Choose helper blocks for rebuilding ``target``.

        The default plan is Reed-Solomon-like: read any ``k`` surviving
        blocks whose rows decode everything.  Locally repairable codes
        override this with group-local plans.

        Args:
            target: block to rebuild.
            failed: other blocks known to be unavailable.
            preference: optional ranking of block ids, most desirable
                first (e.g. blocks on the fastest disks); where the code
                has freedom in helper choice it follows this order.
        """
        failed = set(failed) | {target}
        alive = [b for b in range(self.n) if b not in failed]
        alive = _apply_preference(alive, preference)
        return self._fallback_plan(target, alive)

    def _fallback_plan(self, target: int, alive: list[int]) -> RepairPlan:
        """Smallest prefix-greedy helper set able to express the target
        rows, less the helpers its solution reads nothing from.

        The search runs one Gaussian elimination per candidate prefix and
        is a pure function of the code, so the chosen helpers are kept in
        the plan LRU under ``(target, alive)`` — ``alive`` in order,
        because the order is the caller's preference.  A failed search is
        not stored: it raises every time it is asked.
        """
        key = ("fallback", target, tuple(alive))
        helpers = self._plan_lookup(key)
        if helpers is None:
            helpers = self._plan_store(key, self._search_fallback_helpers(target, alive))
        return RepairPlan(target=target, helpers=helpers, code=self)

    def _search_fallback_helpers(self, target: int, alive: list[int]) -> tuple[int, ...]:
        helpers: list[int] = []
        for b in alive:
            helpers.append(b)
            if len(helpers) < self.k:
                continue
            try:
                coeffs = self._express_block(target, tuple(helpers))
            except SingularMatrixError:
                continue
            # The prefix that first expresses the target may carry blocks
            # the solution never touches (a local parity of the other
            # group, say): a plan names only helpers it reads a row of.
            while True:
                used = coeffs.reshape(coeffs.shape[0], len(helpers), self.N).any(axis=(0, 2))
                if used.all():
                    return tuple(helpers)
                helpers = [h for h, keep in zip(helpers, used) if keep]
                coeffs = self._express_block(target, tuple(helpers))
        raise DecodingError(
            f"{self.name}: block {target} cannot be reconstructed from blocks {alive}"
        )

    def reconstruct(
        self,
        target: int,
        available: dict[int, np.ndarray],
        plan: RepairPlan | None = None,
    ) -> tuple[np.ndarray, RepairPlan]:
        """Rebuild a missing block from surviving blocks.

        Returns the ``(N, S)`` stripe array of the rebuilt block together
        with the plan actually used (for I/O accounting).
        """
        if plan is None:
            failed = {b for b in range(self.n) if b not in available}
            plan = self.repair_plan(target, failed)
        missing = [h for h in plan.helpers if h not in available]
        if missing:
            raise DecodingError(f"repair plan for block {target} needs unavailable blocks {missing}")
        compiled = self.compile_reconstruct(target, plan.helpers)
        rebuilt = compiled.apply(
            [np.asarray(available[h]).reshape(self.N, -1) for h in plan.helpers]
        )
        return rebuilt, plan

    # --------------------------------------------------------------- checks

    def verify_systematic(self) -> bool:
        """True when every advertised data stripe is stored verbatim.

        Checks that the generator rows at data-stripe positions form an
        identity over the file stripes they claim to hold.
        """
        for info in self.block_infos:
            if info.data_stripes == 0:
                continue
            base = info.index * self.N
            for s, expect_col in enumerate(info.file_stripes):
                row = self.generator[base + s]
                nz = np.nonzero(row)[0]
                if nz.size != 1 or nz[0] != expect_col or row[expect_col] != 1:
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(k={self.k}, n={self.n}, N={self.N})"


def _apply_preference(blocks: list[int], preference) -> list[int]:
    """Stable-reorder ``blocks`` by a desirability ranking (best first)."""
    if preference is None:
        return blocks
    rank = {b: i for i, b in enumerate(preference)}
    return sorted(blocks, key=lambda b: (rank.get(b, len(rank)), b))


def default_field() -> GF:
    """The library-wide default arithmetic context (GF(2^8), as the paper)."""
    return GF256
