"""Exact moments of hypercube functionals.

Two engines compute fourth moments:

* ``moment``: weighted sum over all 2**n outcomes (the reference engine);
* ``fourth_moment_factorized`` and ``fourth_moment_symmetric``: one
  product-formula engine that needs no enumeration.  It expands
  F**2 = sum_U g_U Y_U in the orthonormal Y basis through the structure
  identity Y_k**2 = 1 + skew_k Y_k, so E[F**4] = sum_U g_U**2.  Only the
  pairs of support subsets that share a coordinate are expanded
  (``kernels._overlap_pairs``); the disjoint pairs enter through a closed
  sum.  The cost is O(P 2**m) for P overlapping pairs of subsets of order
  at most m, P <= S**2 / 2, independent of the horizon; fair coins have
  skew 0 and need no expansion of the overlaps at all.

The remaining operations evaluate the exact quantities appearing in the
variance-of-squared-field chain for a pure multiple integral.  The
variance of the order-r chaos projection of F**2 is the energy
sum_{|S|=r} E[F**2 Y_S]**2, read off one ``basis_coefficients`` transform
of the squared table, so the chain is bounded by ``enum_cap`` alone.

The gradient sums and the indicator pairing take one coordinate at a time,
on one half of each table since D_k F is constant in coordinate k, so a
constant number of 2**n tables is alive whatever n is.  The indicator sup
groups outcomes by one rank table of F's distinct values: exact ties merge,
and only the summation order differs from a sort of all 2n 2**n flip
thresholds, in the last digits.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .chaos import (
    ChaosVector,
    ValueTable,
    basis_coefficients,
    expectation,
    fold_coordinate,
    integral_table,
    join_coordinate,
    split_coordinate,
    subset_orders,
    to_table,
    variance as table_variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError
from .kernels import _fourth_moment
from .malliavin import d_half, gamma
from .model import RademacherModel

Subset = tuple[int, ...]


def moment(
    table: ValueTable, r: int, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """E[F^r] by exact enumeration."""
    if r < 1:
        raise DomainError(f"moment order must be >= 1, got {r}")
    w = model.weights(caps)
    return float(np.dot(w, table.values**r))


def fourth_moment_factorized(
    coeffs: dict[Subset, float], model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """E[(sum_J c_J Y_J)^4] without enumerating outcomes.

    Subsets may have mixed sizes and lie anywhere on the horizon of
    ``model``; see ``kernels._fourth_moment`` for the expansion.
    """
    S = sum(1 for v in coeffs.values() if v != 0.0)
    if S > caps.factorized_support_cap:
        raise CapacityError(
            f"support size {S} exceeds factorized_support_cap="
            f"{caps.factorized_support_cap} (expansion is O(P 2**m) for the "
            f"P <= S**2/2 pairs of support subsets that share a coordinate)",
            cap_name="factorized_support_cap",
            cap_value=caps.factorized_support_cap,
            requested=S,
        )
    for key in coeffs:
        for i in key:
            if not 0 <= i < model.n:
                raise DomainError(f"index {i} out of range for the model horizon {model.n}")
    return _fourth_moment(coeffs, model.skew)


def fourth_moment_symmetric(coeffs: dict[Subset, float]) -> float:
    """E[(sum_J a_J X_J)^4] under the fair-coin model, where Y_k = X_k."""
    return _fourth_moment(coeffs)


def _pure_integral(F: ChaosVector) -> int:
    m = F.pure_order()
    if m is None:
        if all(k.is_zero() for k in F.kernels) and F.top_order >= 1:
            return F.top_order  # zero integral: every derived quantity is 0
        raise DomainError("operation expects a pure multiple integral of order >= 1")
    if m == 0:
        raise DomainError("operation expects a pure multiple integral of order >= 1")
    return m


@dataclass(frozen=True)
class ProjectionVariances:
    """Variances of the chaos projections of F**2 for orders 1..2m-1."""

    variances: tuple[float, ...]
    total: float
    upper_bound: float  # E[F^4] - 3 E[F^2]^2 + E[F^2] gamma_m sup-influence


def var_projection_sum(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> ProjectionVariances:
    m = _pure_integral(F)
    f = F.kernel(m)
    f_table = integral_table(f, model, caps)
    c = basis_coefficients(f_table * f_table, model)
    energy = np.bincount(subset_orders(model.n), weights=c * c, minlength=2 * m)
    variances = tuple(float(v) for v in energy[1 : 2 * m])
    second = moment(f_table, 2, model, caps)
    fourth = moment(f_table, 4, model, caps)
    bound = fourth - 3.0 * second**2 + second * gamma_m(m) * f.sup_influence()
    return ProjectionVariances(variances, float(sum(variances)), bound)


@dataclass(frozen=True)
class SquaredFieldVariance:
    """Var(Gamma(F,F)/m) evaluated two ways, with its closed upper bound."""

    value: float  # pathwise, by enumeration
    spectral: float  # sum over orders of (1 - r/2m)^2 Var(proj(F^2, r))
    upper_bound: float


def var_gamma_normalized(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> SquaredFieldVariance:
    m = _pure_integral(F)
    g = gamma(F, F, model, caps)
    value = table_variance(ValueTable._owning(g.horizon, g.values / m), model, caps)
    proj = var_projection_sum(F, model, caps)
    spectral = sum(
        (1.0 - r / (2.0 * m)) ** 2 * v
        for r, v in zip(range(1, 2 * m), proj.variances)
    )
    upper = (2.0 * m - 1.0) ** 2 / (4.0 * m**2) * proj.upper_bound
    return SquaredFieldVariance(value, float(spectral), upper)


def quartic_gradient_sum(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """(1/2m) sum_k E|D_k F|^4 / (p_k q_k)."""
    m = _pure_integral(F)
    table = to_table(F, model, caps)
    w = model.weights(caps)
    total = 0.0
    for k in range(model.n):
        square = d_half(table, k, model) ** 2
        total += float(np.vdot(fold_coordinate(w, k), square * square)) / model.pq[k]
    return total / (2.0 * m)


def quartic_gradient_identity(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> tuple[float, float]:
    """Both sides of the exact identity
    (1/2m) sum_k E|D_kF|^4/(p_k q_k) = (3/m) E[F^2 Gamma(F,F)] - E[F^4]."""
    m = _pure_integral(F)
    lhs = quartic_gradient_sum(F, model, caps)
    table = to_table(F, model, caps)
    g = gamma(F, F, model, caps)
    rhs = (3.0 / m) * expectation(table * table * g, model, caps) - moment(
        table, 4, model, caps
    )
    return lhs, rhs


def quartic_gradient_bound(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """Closed upper bound for the quartic gradient sum."""
    m = _pure_integral(F)
    f = F.kernel(m)
    table = to_table(F, model, caps)
    second = moment(table, 2, model, caps)
    fourth = moment(table, 4, model, caps)
    return (4.0 * m - 3.0) / (2.0 * m) * (fourth - 3.0 * second**2) + (
        6.0 * m - 3.0
    ) / (2.0 * m) * second * gamma_m(m) * f.sup_influence()


def flip_weights(
    F: ValueTable, G: ValueTable, model: RademacherModel
) -> Iterator[np.ndarray]:
    """The tables D_kF |D_kG| / sqrt(p_k q_k) for k = 0..n-1, one at a time."""
    for k in range(model.n):
        half = d_half(F, k, model)
        half *= np.abs(half if G is F else d_half(G, k, model))
        half /= model.sqrt_pq[k]
        yield join_coordinate(half, half)


def _flip_flow(
    per_coordinate: Iterable[np.ndarray], model: RademacherModel, w: np.ndarray
) -> np.ndarray:
    """Net mass the tables v_k move onto each outcome; see ``sup_flip_pairing``."""
    n = model.n
    flow = np.zeros(2**n)
    count = 0
    for k, v in enumerate(per_coordinate):
        if k >= n:
            raise DomainError("need one weighting table per coordinate")
        v = np.asarray(v, dtype=float)
        if v.shape != (2**n,):
            raise DomainError(
                f"weighting table {k} must have 2**{n} entries, got shape {v.shape}"
            )
        moved = fold_coordinate(w * v, k)
        moved *= model.sqrt_pq[k]
        at_minus, at_plus = split_coordinate(flow, k)
        at_minus -= moved
        at_plus += moved
        count = k + 1
    if count != n:
        raise DomainError("need one weighting table per coordinate")
    return flow


def sup_flip_pairing(
    F: ValueTable,
    per_coordinate: Iterable[np.ndarray],
    model: RademacherModel,
    caps: Caps = DEFAULT_CAPS,
) -> float:
    """sup over x of sum_k E[v_k * D_k 1_{F > x}] for given tables v_k.

    D_k 1_{F > x} = sqrt(p_k q_k) (1{F(k -> +1) > x} - 1{F(k -> -1) > x}),
    so the pairing is sum_j a_j 1{F_j > x} over outcomes j, where
    coordinate k moves the mass c_- + c_+ of each pair of its halves
    (c = w v_k sqrt(p_k q_k)) off the outcome with X_k = -1 and onto the
    one with X_k = +1.  One rank table of F's distinct values then gives
    the mass of every level, and the sup is the largest mass strictly
    above a level (0 above the top one).  Exact ties share one level; the
    masses are summed outcome by outcome and level by level rather than
    along a sort of all 2n 2**n flip thresholds, so the value differs from
    that order only in the last digits.  ``per_coordinate`` is consumed
    one table at a time.
    """
    n = model.n
    if F.horizon != n:
        raise DomainError(f"table horizon {F.horizon} differs from the model horizon {n}")
    flow = _flip_flow(per_coordinate, model, model.weights(caps))
    levels, rank = np.unique(F.values, return_inverse=True)
    mass = np.bincount(rank, weights=flow, minlength=len(levels))
    above = np.cumsum(mass[:0:-1])  # mass strictly above each level but the top
    return max(float(above.max(initial=0.0)), 0.0)


def kolmogorov_term(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """(1/m) sup_x sum_k E[(p_k q_k)^{-1/2} D_kF |D_kF| D_k 1_{F > x}]."""
    m = _pure_integral(F)
    table = to_table(F, model, caps)
    return sup_flip_pairing(table, flip_weights(table, table, model), model, caps) / m


def kolmogorov_term_bound(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """Closed upper bound for the indicator pairing term."""
    m = _pure_integral(F)
    f = F.kernel(m)
    table = to_table(F, model, caps)
    var = table_variance(table, model, caps)
    fourth = moment(table, 4, model, caps)
    inner = (4.0 * m - 3.0) * (fourth - 3.0 * var**2) + (
        6.0 * m - 3.0
    ) * gamma_m(m) * var * f.sup_influence()
    return math.sqrt(8.0 * m**2 - 7.0) / m * math.sqrt(max(inner, 0.0))
