"""Galloper codes: the paper's primary contribution.

* :class:`~repro.core.galloper.GalloperCode` — the code itself.
* :mod:`repro.core.weights` — performance-proportional weight assignment
  (the throttling linear programs of Sec. IV-C / V-B).
* :mod:`repro.core.layout` — the sequential stripe walk and rotation.
* :mod:`repro.core.remapping` — paper-literal symbol remapping, used to
  cross-check the production construction.
"""

from repro.core.galloper import ConstructionError, GalloperCode
from repro.core.layout import LayoutError, Selection, rotation_permutation, sequential_selection
from repro.core.remapping import RemappingError, change_basis, expanded_generator, verify_identity_rows
from repro.core.weights import (
    WeightAssignment,
    WeightError,
    assign_weights,
    finalize,
    rationalize,
    solve_throttle_lp,
)

__all__ = [
    "ConstructionError",
    "GalloperCode",
    "LayoutError",
    "Selection",
    "rotation_permutation",
    "sequential_selection",
    "RemappingError",
    "change_basis",
    "expanded_generator",
    "verify_identity_rows",
    "WeightAssignment",
    "WeightError",
    "assign_weights",
    "finalize",
    "rationalize",
    "solve_throttle_lp",
]
