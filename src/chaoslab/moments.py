"""Exact moments of hypercube functionals.

Two engines compute fourth moments:

* ``moment``: weighted sum over all 2**n outcomes (the reference engine);
* ``fourth_moment_factorized`` and ``fourth_moment_symmetric``: one
  product-formula engine that needs no enumeration.  It expands
  F**2 = sum_U g_U Y_U in the orthonormal Y basis through the structure
  identity Y_k**2 = 1 + skew_k Y_k, so E[F**4] = sum_U g_U**2.  Only the
  pairs of support subsets that share a coordinate are expanded, in one
  numpy pass planned from the support (``kernels.SupportPlan``); the
  disjoint pairs enter through a closed sum.  The cost is O(P 2**m) for P
  overlapping pairs of subsets of order at most m, P <= S**2 / 2, in a
  few sorts of P keys and no Python loop over pairs, independent of the
  horizon; fair coins have skew 0 and need no expansion of the overlaps
  at all.  A coordinate must be an integer and a coefficient a finite
  real number; anything else raises ``DomainError`` naming its key.

The remaining operations evaluate the exact quantities appearing in the
variance-of-squared-field chain for a pure multiple integral.  The
variance of the order-r chaos projection of F**2 is the energy
sum_{|S|=r} E[F**2 Y_S]**2, read off one ``basis_coefficients`` transform
of the squared table, so the chain is bounded by ``enum_cap`` alone.

The gradient sums and the indicator pairing take one coordinate at a time,
on one half of each table since D_k F is constant in coordinate k, so a
constant number of 2**n tables is alive whatever n is.  The indicator sup
takes the two tables F and G of its pairing and builds each coordinate's
D_kF |D_kG| on those halves.  It groups outcomes by a rank table of F's
levels, the same levels (``distance._levels``) as the atoms of the exact
law; only the summation order differs from a sort of all 2n 2**n flip
thresholds, in the last digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    ChaosVector,
    ValueTable,
    basis_coefficients,
    even_moments,
    expectation,
    integral_table,
    split_coordinate,
    subset_orders,
    to_table,
    variance as table_variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .distance import _levels
from .errors import DomainError
from .kernels import SupportPlan, support_plan
from .malliavin import _gamma_tables, d_half, gamma, ou_generator_spectral
from .model import RademacherModel

Subset = tuple[int, ...]


def moment(
    table: ValueTable, r: int, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """E[F^r] by exact enumeration."""
    if r < 1:
        raise DomainError(f"moment order must be >= 1, got {r}")
    if r == 4:
        return even_moments(table, model, caps)[1]
    return float(np.dot(model.weights(caps), table.values**r))


def fourth_moment_factorized(
    coeffs: dict[Subset, float], model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """E[(sum_J c_J Y_J)^4] without enumerating outcomes.

    Subsets may have mixed sizes and lie anywhere on the horizon of
    ``model``; see ``kernels.SupportPlan.fourth_moment`` for the expansion.
    """
    plan, values = factorized_plan(coeffs, model, caps)
    return plan.fourth_moment(values)


def factorized_plan(
    coeffs: dict[Subset, float], model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> tuple[SupportPlan, np.ndarray]:
    """The support plan and values ``fourth_moment_factorized`` evaluates,
    for a caller that also reads the plan's size and pair count."""
    S = sum(1 for v in coeffs.values() if v != 0.0)
    caps.check("factorized_support_cap", S, "support size {requested} exceeds "
               "factorized_support_cap={value} (expansion is O(P 2**m) for the "
               "P <= S**2/2 pairs of support subsets that share a coordinate)")
    return support_plan(coeffs, model.skew)


def fourth_moment_symmetric(coeffs: dict[Subset, float]) -> float:
    """E[(sum_J a_J X_J)^4] under the fair-coin model, where Y_k = X_k."""
    plan, values = support_plan(coeffs)
    return plan.fourth_moment(values)


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
    second, fourth = even_moments(f_table, model, caps)  # refuses an overflow before squaring
    c = basis_coefficients(f_table * f_table, model)
    energy = np.bincount(subset_orders(model.n), weights=c * c, minlength=2 * m)
    variances = tuple(float(v) for v in energy[1 : 2 * m])
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
    proj = var_projection_sum(F, model, caps)  # first: it refuses an overflow before any square
    g = gamma(F, F, model, caps)
    value = table_variance(ValueTable._owning(g.horizon, g.values / m), model, caps)
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
    return _quartic_gradient_sum(to_table(F, model, caps), m, model, caps)


def _quartic_gradient_sum(
    table: ValueTable, m: int, model: RademacherModel, caps: Caps
) -> float:
    """``quartic_gradient_sum`` from the table of F."""
    w = model.weights(caps)
    total = 0.0
    for k in range(model.n):
        square = d_half(table, k, model) ** 2
        total += float(np.vdot(np.add(*split_coordinate(w, k)), square * square)) / model.pq[k]
    return float(total / (2.0 * m))


def quartic_gradient_identity(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> tuple[float, float]:
    """Both sides of the exact identity
    (1/2m) sum_k E|D_kF|^4/(p_k q_k) = (3/m) E[F^2 Gamma(F,F)] - E[F^4].

    The tables of F and LF are synthesized once and serve both sides."""
    m = _pure_integral(F)
    table = to_table(F, model, caps)
    fourth = even_moments(table, model, caps)[1]  # refuses an overflow before any square
    lf = to_table(ou_generator_spectral(F), model, caps)
    g = _gamma_tables(table, lf, table, lf, model)
    del lf
    lhs = _quartic_gradient_sum(table, m, model, caps)
    rhs = (3.0 / m) * expectation(table * table * g, model, caps) - fourth
    return lhs, rhs


def quartic_gradient_bound(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """Closed upper bound for the quartic gradient sum."""
    m = _pure_integral(F)
    f = F.kernel(m)
    table = to_table(F, model, caps)
    second, fourth = even_moments(table, model, caps)
    return (4.0 * m - 3.0) / (2.0 * m) * (fourth - 3.0 * second**2) + (
        6.0 * m - 3.0
    ) / (2.0 * m) * second * gamma_m(m) * f.sup_influence()


def _flip_flow(F: ValueTable, G: ValueTable, model: RademacherModel, w: np.ndarray) -> np.ndarray:
    """Net mass the flips of each coordinate move onto each outcome; see
    ``sup_flip_pairing``."""
    flow = np.zeros(2**model.n)
    for k in range(model.n):
        v = d_half(F, k, model)
        dg = np.abs(v if G is F else d_half(G, k, model))
        v *= dg
        _book_flips(flow, v, dg, w, k, model)
    return flow


def _book_flips(flow: np.ndarray, v: np.ndarray, scratch: np.ndarray, w: np.ndarray,
                k: int, model: RademacherModel) -> None:
    """Coordinate k's part of ``_flip_flow``, from v = D_kF |D_kG| on one
    ``split_coordinate`` half (overwritten) and a free half ``scratch``."""
    v /= model.sqrt_pq[k]
    w_minus, w_plus = split_coordinate(w, k)
    moved = np.multiply(w_minus, v, out=scratch.reshape(v.shape))
    v *= w_plus
    moved += v
    moved *= model.sqrt_pq[k]
    at_minus, at_plus = split_coordinate(flow, k)
    at_minus -= moved
    at_plus += moved


def sup_flip_pairing(
    F: ValueTable, G: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """sup over x of sum_k E[(p_k q_k)^{-1/2} D_kF |D_kG| D_k 1_{F > x}].

    D_k 1_{F > x} = sqrt(p_k q_k) (1{F(k -> +1) > x} - 1{F(k -> -1) > x}),
    so the pairing is sum_j a_j 1{F_j > x} over outcomes j, where
    coordinate k moves the mass c_- + c_+ of each pair of its halves
    (c = w D_kF |D_kG|, on the halves where D_k lives) off the outcome
    with X_k = -1 and onto the one with X_k = +1: ``_flip_flow`` builds
    that flow a and ``_sup_above_levels`` ranks it, or refuses it with
    ``DomainError`` past the float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        flow = _flip_flow(F, G, model, model.weights(caps))
    return _sup_above_levels(F.values, flow)


def _sup_above_levels(values: np.ndarray, flow: np.ndarray) -> float:
    """The largest mass of ``flow`` strictly above a level of ``values`` (0
    above the top one), summed outcome by outcome and level by level over a
    rank table of the levels (``distance._levels``, the exact law's atoms): it
    differs from a sort of all 2n 2**n flip thresholds in the last digits.
    A sup that is not finite raises ``DomainError``."""
    order, opens = _levels(values)[1:]
    level = np.cumsum(opens)
    level -= 1  # the level of each sorted position
    rank = np.empty_like(level)
    rank[order] = level
    del order, opens, level  # freed before the masses are summed
    mass = np.bincount(rank, weights=flow)
    del rank
    with np.errstate(over="ignore", invalid="ignore"):
        # the most mass strictly above a level but the top, and 0 above it
        sup = float(np.cumsum(mass[:0:-1]).max(initial=0.0))
    if not math.isfinite(sup):
        raise DomainError("the values overflow the indicator sup")
    return sup


def kolmogorov_term(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """(1/m) sup_x sum_k E[(p_k q_k)^{-1/2} D_kF |D_kF| D_k 1_{F > x}]."""
    m = _pure_integral(F)
    table = to_table(F, model, caps)
    return sup_flip_pairing(table, table, model, caps) / m


def kolmogorov_term_bound(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """Closed upper bound for the indicator pairing term: for a pure
    integral Var F = E[F^2], so its radicand is 2m times
    ``quartic_gradient_bound``."""
    m = _pure_integral(F)
    inner = 2.0 * m * quartic_gradient_bound(F, model, caps)
    return math.sqrt(8.0 * m**2 - 7.0) / m * math.sqrt(max(inner, 0.0))
