"""Exact moments of hypercube functionals.

Three engines compute fourth moments:

* ``moment``: weighted sum over all 2**n outcomes (the reference engine);
* ``fourth_moment_factorized``: expands (sum_J c_J Y_J)**4 into monomials
  and reduces each through per-index multiplicities and the closed-form
  coordinate moments; cost O(S**4) in the support size S, independent of
  the horizon;
* ``fourth_moment_symmetric``: for the fair-coin model, groups ordered
  pairs by symmetric difference so the quadruple condition
  "I xor J == K xor L" collapses to a sum of squared class sums, O(S**2).

The remaining operations evaluate the exact quantities appearing in the
variance-of-squared-field chain for a pure multiple integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    ChaosVector,
    ValueTable,
    expectation,
    integral_table,
    join_coordinate,
    multiply,
    project,
    split_coordinate,
    to_table,
    variance as table_variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError
from .malliavin import d, gamma
from .model import RademacherModel, y_moment

Subset = tuple[int, ...]


def moment(
    table: ValueTable, r: int, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """E[F^r] by exact enumeration."""
    if r < 1:
        raise DomainError(f"moment order must be >= 1, got {r}")
    w = model.weights(caps)
    return float(np.dot(w, table.values**r))


def _bit_product(mask: int, factors: list[float]) -> float:
    out = 1.0
    while mask:
        low = mask & -mask
        out *= factors[low.bit_length() - 1]
        if out == 0.0:
            return 0.0
        mask ^= low
    return out


def fourth_moment_factorized(
    coeffs: dict[Subset, float], model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """E[(sum_J c_J Y_J)^4] without enumerating outcomes.

    Every monomial in the expansion factorizes over coordinates by
    independence; a coordinate hit once kills the term (E[Y] = 0), twice
    contributes 1, three or four times contributes the closed-form third
    or fourth moment.  Subsets may have mixed sizes.
    """
    items = [(tuple(k), float(v)) for k, v in coeffs.items() if v != 0.0]
    S = len(items)
    if S == 0:
        return 0.0
    if S > caps.factorized_support_cap:
        raise CapacityError(
            f"support size {S} exceeds factorized_support_cap="
            f"{caps.factorized_support_cap} (expansion is O(S**4))",
            cap_name="factorized_support_cap",
            cap_value=caps.factorized_support_cap,
            requested=S,
        )
    universe = sorted({i for key, _ in items for i in key})
    for i in universe:
        if not 0 <= i < model.n:
            raise DomainError(f"index {i} out of range for the model horizon {model.n}")
    pos = {i: b for b, i in enumerate(universe)}
    mu3 = [y_moment(model.probs[i], 3) for i in universe]
    mu4 = [y_moment(model.probs[i], 4) for i in universe]

    masks = []
    for key, _ in items:
        m = 0
        for i in key:
            m |= 1 << pos[i]
        masks.append(m)

    # ordered pairs (I, J): odd = coordinates hit once, twice = hit twice
    pair_odd: list[int] = []
    pair_two: list[int] = []
    pair_cov: list[int] = []  # odd | twice
    pair_w: list[float] = []
    for a in range(S):
        ma, ca = masks[a], items[a][1]
        for b in range(S):
            pair_odd.append(ma ^ masks[b])
            pair_two.append(ma & masks[b])
            pair_cov.append(ma | masks[b])
            pair_w.append(ca * items[b][1])

    P = len(pair_w)
    total = 0.0
    for i in range(P):
        o1, t1, cov1, w1 = pair_odd[i], pair_two[i], pair_cov[i], pair_w[i]
        row = 0.0
        for j in range(i, P):
            o2 = pair_odd[j]
            if o1 & ~pair_cov[j]:
                continue
            if o2 & ~cov1:
                continue
            t2 = pair_two[j]
            val = pair_w[j]
            m3 = (o1 & t2) | (t1 & o2)
            if m3:
                val *= _bit_product(m3, mu3)
                if val == 0.0:
                    continue
            m4 = t1 & t2
            if m4:
                val *= _bit_product(m4, mu4)
            row += val if i == j else 2.0 * val
        total += w1 * row
    return total


def fourth_moment_symmetric(coeffs: dict[Subset, float]) -> float:
    """E[(sum_J a_J X_J)^4] under the fair-coin model.

    A quadruple survives iff the symmetric difference of its first pair
    equals that of its second, so the sum is sum_D (class sum of D)^2
    over ordered pairs grouped by symmetric difference D.
    """
    items = [(frozenset(k), float(v)) for k, v in coeffs.items() if v != 0.0]
    class_sums: dict[frozenset, float] = {}
    for i, (si, vi) in enumerate(items):
        for sj, vj in items:
            dkey = si ^ sj
            class_sums[dkey] = class_sums.get(dkey, 0.0) + vi * vj
    return sum(v * v for v in class_sums.values())


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
    sq = multiply(F, F, model, caps)
    table_cache = {}
    variances = []
    for r in range(1, 2 * m):
        t = to_table(project(sq, r), model, caps)
        table_cache[r] = t
        variances.append(table_variance(t, model, caps))
    f_table = integral_table(f, model, caps)
    second = moment(f_table, 2, model, caps)
    fourth = moment(f_table, 4, model, caps)
    bound = fourth - 3.0 * second**2 + second * gamma_m(m) * f.sup_influence()
    return ProjectionVariances(tuple(variances), float(sum(variances)), bound)


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
    value = table_variance(ValueTable(g.horizon, g.values / m), model, caps)
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
        dk = d(table, k, model).values
        total += float(np.dot(w, dk**4)) / model.pq[k]
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


def sup_flip_pairing(
    F: ValueTable,
    per_coordinate: list[np.ndarray],
    model: RademacherModel,
    caps: Caps = DEFAULT_CAPS,
) -> float:
    """sup over x of sum_k E[v_k * D_k 1_{F > x}] for given tables v_k.

    The inner expectation is piecewise constant in x with breakpoints in
    the value set of F, so the sup is a max over finitely many suffix
    sums of threshold events.
    """
    if len(per_coordinate) != model.n:
        raise DomainError("need one weighting table per coordinate")
    w = model.weights(caps)
    thresholds = []
    deltas = []
    for k in range(model.n):
        v = np.asarray(per_coordinate[k], dtype=float)
        c = w * v * model.sqrt_pq[k]
        minus, plus = split_coordinate(F.values, k)
        thresholds.append(join_coordinate(plus, plus))
        deltas.append(c)
        thresholds.append(join_coordinate(minus, minus))
        deltas.append(-c)
    thr = np.concatenate(thresholds)
    dlt = np.concatenate(deltas)
    order = np.argsort(thr, kind="stable")
    thr = thr[order]
    dlt = dlt[order]
    suffix = np.concatenate([np.cumsum(dlt[::-1])[::-1], [0.0]])
    uniq = np.unique(thr)
    positions = np.searchsorted(thr, uniq, side="right")
    best = float(suffix[positions].max()) if len(uniq) else 0.0
    return max(best, 0.0)


def kolmogorov_term(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> float:
    """(1/m) sup_x sum_k E[(p_k q_k)^{-1/2} D_kF |D_kF| D_k 1_{F > x}]."""
    m = _pure_integral(F)
    table = to_table(F, model, caps)
    per_k = []
    for k in range(model.n):
        dk = d(table, k, model).values
        per_k.append(dk * np.abs(dk) / model.sqrt_pq[k])
    return sup_flip_pairing(table, per_k, model, caps) / m


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
