"""Finite-field (GF(2^q)) arithmetic substrate.

Everything above this package — Reed-Solomon, Pyramid, Carousel and Galloper
codes — performs its symbol arithmetic through the objects exported here.
"""

from repro.gf.bitmatrix import (
    bitmatrix_density,
    coeff_bitmatrix,
    companion_matrix,
    double_symbols,
    lane_selection_matrix,
)
from repro.gf.field import GF, GF256, GF65536, GFError
from repro.gf.kernels import (
    KERNEL_CHOICES,
    CodingPlan,
    current_kernel_choice,
    kernel_bytes_info,
    kernel_selection_info,
    mat_data_product,
    mat_data_product_reference,
    reset_kernel_selection,
    split_product_tables,
    validate_symbols,
)
from repro.gf.native import (
    native_available,
    native_unavailable_reason,
    reset_native_backend,
)
from repro.gf.schedule import XorSchedule, predicted_win
from repro.gf.matrix import (
    SingularMatrixError,
    cauchy,
    identity,
    inverse,
    is_invertible,
    matmul,
    express_rows,
    rank,
    rows_in_rowspace,
    select_independent_rows,
    solve_consistent,
)
from repro.gf.tables import (
    DEFAULT_PRIMITIVE_POLYS,
    SUPPORTED_WIDTHS,
    TableGenerationError,
    exp_log_tables,
    full_mul_table,
    generate_exp_log,
    inverse_table,
)
from repro.gf.vector import axpy, random_symbols

__all__ = [
    "GF",
    "GF256",
    "GF65536",
    "GFError",
    "CodingPlan",
    "KERNEL_CHOICES",
    "XorSchedule",
    "bitmatrix_density",
    "coeff_bitmatrix",
    "companion_matrix",
    "current_kernel_choice",
    "double_symbols",
    "kernel_bytes_info",
    "kernel_selection_info",
    "lane_selection_matrix",
    "mat_data_product_reference",
    "native_available",
    "native_unavailable_reason",
    "predicted_win",
    "reset_kernel_selection",
    "reset_native_backend",
    "split_product_tables",
    "validate_symbols",
    "SingularMatrixError",
    "cauchy",
    "identity",
    "inverse",
    "is_invertible",
    "matmul",
    "express_rows",
    "rank",
    "rows_in_rowspace",
    "select_independent_rows",
    "solve_consistent",
    "DEFAULT_PRIMITIVE_POLYS",
    "SUPPORTED_WIDTHS",
    "TableGenerationError",
    "exp_log_tables",
    "full_mul_table",
    "generate_exp_log",
    "inverse_table",
    "axpy",
    "mat_data_product",
    "random_symbols",
]
