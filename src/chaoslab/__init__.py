"""Exact desk-scale calculus for finite Rademacher sequences.

The package computes, without sampling error, everything a fourth-moment
analysis of discrete chaos needs at small horizons: exact laws and
distances to the normal, discrete Malliavin operators with their
structural identities, moment engines, explicit distance bounds, and the
counterexample constructions that separate the fourth-moment condition
from asymptotic normality.
"""

from .chaos import (
    ChaosVector,
    ValueTable,
    basis_coefficients,
    basis_synthesis,
    conditional_expectation,
    constant_table,
    expectation,
    integral_table,
    multiply,
    ou_semigroup,
    stroock_decompose,
    to_table,
    variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, ChaoslabError, DomainError, FormatError
from .kernels import (
    Kernel,
    basis_kernel,
    constant_kernel,
    off_diagonal_defect,
    random_kernel,
    symmetrized_tensor,
    tensor_square_residual,
    zero_kernel,
)
from .model import (
    RademacherModel,
    normalized_value,
    sample_y_matrix,
    y_moment,
)

__all__ = [
    "Caps",
    "CapacityError",
    "ChaosVector",
    "ChaoslabError",
    "DEFAULT_CAPS",
    "DomainError",
    "FormatError",
    "Kernel",
    "RademacherModel",
    "ValueTable",
    "basis_coefficients",
    "basis_kernel",
    "basis_synthesis",
    "conditional_expectation",
    "constant_kernel",
    "constant_table",
    "expectation",
    "gamma_m",
    "integral_table",
    "multiply",
    "normalized_value",
    "off_diagonal_defect",
    "ou_semigroup",
    "random_kernel",
    "sample_y_matrix",
    "stroock_decompose",
    "symmetrized_tensor",
    "tensor_square_residual",
    "to_table",
    "variance",
    "y_moment",
    "zero_kernel",
]
