"""Normal-approximation bounds for multiple integrals, evaluated exactly.

The headline bounds control the Wasserstein and Kolmogorov distances of a
normalized multiple integral to the standard normal by

    C1(m) sqrt(|E[F^4] - 3|) + C2(m) sqrt(sup-influence)

and a Kolmogorov analog with fourth-moment-dependent prefactors.  All
constants are explicit.  ``abstract_bounds`` evaluates the underlying
term-by-term inequalities for arbitrary centered functionals; the
Hoeffding/degenerate-U-statistic route gives an independent bound with a
configurable constant.  For binary coordinates each Hoeffding component
is a single Walsh term W_J = c_J Y_J, so the decomposition keeps the
coefficients of one ``basis_coefficients`` transform; its energies are c_J^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chaos import (
    ChaosVector,
    ValueTable,
    basis_coefficients,
    basis_synthesis,
    expectation,
    fold_coordinate,
    split_coordinate,
    to_table,
    variance as table_variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .distance import (
    exact_distribution,
    kolmogorov_to_normal,
    wasserstein_to_normal,
)
from .errors import DomainError
from .malliavin import d_half, gamma0, minus_pseudo_inverse
from .model import RademacherModel
from .moments import flip_weights, moment, sup_flip_pairing

_NORMALIZATION_TOL = 1e-6

__all__ = [
    "gamma_m",
    "wasserstein_constants",
    "kolmogorov_constants",
    "BoundReport",
    "theorem_bounds",
    "theorem_bound_wasserstein",
    "theorem_bound_kolmogorov",
    "abstract_bounds",
    "HoeffdingDecomposition",
    "hoeffding_decompose",
    "rho_squared",
    "dejong_bound",
]


def wasserstein_constants(m: int) -> tuple[float, float]:
    """(C1, C2) multiplying the fourth-moment and influence terms."""
    if m < 1:
        raise DomainError(f"order must be >= 1, got {m}")
    s2pi = math.sqrt(2.0 / math.pi)
    c1 = s2pi * (2 * m - 1) / (2 * m) + math.sqrt((4 * m - 3) / m)
    c2 = (s2pi * (2 * m - 1) / (2 * m) + math.sqrt((6 * m - 3) / m)) * math.sqrt(
        gamma_m(m)
    )
    return c1, c2


def kolmogorov_constants(m: int) -> tuple[float, float, float, float]:
    """(K1, K2, K3, K4); K3 and K4 carry sqrt(gamma_m)."""
    if m < 1:
        raise DomainError(f"order must be >= 1, got {m}")
    root = math.sqrt(gamma_m(m))
    k1 = (2 * m - 1 + 2 * math.sqrt((8 * m**2 - 7) * (4 * m - 3))) / (2 * m)
    k2 = math.sqrt(4 * m**2 - 3 * m) / (2 * m)
    k3 = (2 * m - 1 + 2 * math.sqrt((8 * m**2 - 7) * (6 * m - 3))) / (2 * m) * root
    k4 = math.sqrt(6 * m**2 - 3 * m) / (2 * m) * root
    return k1, k2, k3, k4


@dataclass(frozen=True)
class BoundReport:
    kind: str
    order: int
    fourth_moment: float
    variance: float
    sup_influence: float
    constants: dict[str, float]
    terms: dict[str, float]
    bound_value: float
    exact_distance: float | None = None
    slack: float | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "order": self.order,
            "fourth_moment": self.fourth_moment,
            "variance": self.variance,
            "sup_influence": self.sup_influence,
            "bound_value": self.bound_value,
        }
        out.update({f"constant_{k}": v for k, v in sorted(self.constants.items())})
        out.update({f"term_{k}": v for k, v in sorted(self.terms.items())})
        if self.exact_distance is not None:
            out["exact_distance"] = self.exact_distance
            out["slack"] = self.slack
        return out


def theorem_bounds(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> tuple[BoundReport, BoundReport]:
    """(Wasserstein, Kolmogorov) bound reports with their exact distances.

    The table, its second and fourth moments, the sup-influence and the
    exact law are computed once and shared by both reports.
    """
    m = F.pure_order()
    if m is None or m == 0:
        raise DomainError("bound expects a pure multiple integral of order >= 1")
    table = to_table(F, model, caps)
    var = moment(table, 2, model, caps)
    if abs(var - 1.0) > _NORMALIZATION_TOL:
        raise DomainError(
            f"input is not normalized: measured second moment {var!r}; "
            "rescale the kernel first"
        )
    fourth = moment(table, 4, model, caps)
    sup_inf = F.kernel(m).sup_influence()
    law = exact_distribution(table, model, caps)
    root_excess = math.sqrt(abs(fourth - 3.0))
    root_inf = math.sqrt(sup_inf)

    c1, c2 = wasserstein_constants(m)
    t_fourth, t_inf = c1 * root_excess, c2 * root_inf
    exact = wasserstein_to_normal(law)
    wasserstein = BoundReport(
        kind="wasserstein",
        order=m,
        fourth_moment=fourth,
        variance=var,
        sup_influence=sup_inf,
        constants={"C1": c1, "C2": c2, "gamma_m": gamma_m(m)},
        terms={"fourth_moment": t_fourth, "influence": t_inf},
        bound_value=t_fourth + t_inf,
        exact_distance=exact,
        slack=t_fourth + t_inf - exact,
    )

    k1, k2, k3, k4 = kolmogorov_constants(m)
    beta = fourth**0.25
    pref = (beta + 1.0) * beta
    t_fourth = (k1 + k2 * pref) * root_excess
    t_inf = (k3 + k4 * pref) * root_inf
    exact = kolmogorov_to_normal(law)
    kolmogorov = BoundReport(
        kind="kolmogorov",
        order=m,
        fourth_moment=fourth,
        variance=var,
        sup_influence=sup_inf,
        constants={"K1": k1, "K2": k2, "K3": k3, "K4": k4, "gamma_m": gamma_m(m)},
        terms={"fourth_moment": t_fourth, "influence": t_inf},
        bound_value=t_fourth + t_inf,
        exact_distance=exact,
        slack=t_fourth + t_inf - exact,
    )
    return wasserstein, kolmogorov


def theorem_bound_wasserstein(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> BoundReport:
    return theorem_bounds(F, model, caps)[0]


def theorem_bound_kolmogorov(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> BoundReport:
    return theorem_bounds(F, model, caps)[1]


def _gradient_sums(
    table: ValueTable, linv_table: ValueTable, model: RademacherModel, caps: Caps
) -> tuple[float, float, float, float, float]:
    """The cubic remainder, the sums of E[(D_kF D_k L^-1 F)^2] and E[(D_kF)^4]
    over p_k q_k, the middle Kolmogorov term and E[M^2]^(1/4), built one
    coordinate at a time for ``abstract_bounds``.

    M = sum_k (q_k on X_k = +1, p_k on X_k = -1) (D_kF)^2 / (p_k q_k) is the
    one table kept whole; D_k is constant in coordinate k, so every other
    sum runs on one half of each table.
    """
    w = model.weights(caps)
    lifted = w * (np.abs(table.values) + math.sqrt(2.0 * math.pi) / 4.0)
    remainder = inner_sq = quart = middle = 0.0
    cs_table = np.zeros(2**model.n)
    for k in range(model.n):
        p, q, pq = model.p[k], model.q[k], model.pq[k]
        wk = fold_coordinate(w, k)
        df = d_half(table, k, model)
        dlinv = np.abs(d_half(linv_table, k, model))
        square = df * df
        cubic = square * dlinv
        remainder += float(np.vdot(wk, cubic)) / model.sqrt_pq[k]
        inner_sq += float(np.vdot(wk, cubic * dlinv)) / pq
        quart += float(np.vdot(wk, square * square)) / pq
        lift_minus, lift_plus = split_coordinate(lifted, k)
        middle += float(np.vdot(p * lift_minus + q * lift_plus, cubic)) / pq**1.5
        minus, plus = split_coordinate(cs_table, k)
        minus += square / q  # p / pq
        plus += square / p  # q / pq
    quart_root = float(np.dot(w, cs_table**2)) ** 0.25
    return remainder, inner_sq, quart, 0.25 * middle, quart_root


def abstract_bounds(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> dict[str, float]:
    """Term-by-term evaluation of the abstract distance bounds.

    Works for any centered chaos vector; returns each named term and the
    assembled bound lines.  For a pure normalized integral the
    specialized single-order lines are included as well.
    """
    if abs(F.mean()) > 1e-9 * (1.0 + math.sqrt(max(F.variance(), 0.0))):
        raise DomainError(f"abstract bounds need a centered input; mean is {F.mean()}")
    n = model.n
    w = model.weights(caps)
    table = to_table(F, model, caps)
    minus_linv = minus_pseudo_inverse(F)
    linv_table = to_table(minus_linv, model, caps)

    g0 = gamma0(table, linv_table, model)
    term_gamma_abs = float(np.dot(w, np.abs(1.0 - g0.values)))
    term_gamma_var = table_variance(g0, model, caps)
    del g0  # the terms below keep a bounded number of tables alive
    var_f = moment(table, 2, model, caps)
    fourth = moment(table, 4, model, caps)

    remainder, inner_sq, quart, term_mid, quart_root = _gradient_sums(
        table, linv_table, model, caps
    )

    s2pi = math.sqrt(2.0 / math.pi)
    gb1 = s2pi * term_gamma_abs + remainder
    gb2 = s2pi * abs(1.0 - var_f) + s2pi * math.sqrt(term_gamma_var) + remainder

    # indicator pairing sup_x sum_k E[(pq)^{-1/2} D_kF D_k 1_{F>x} |D_k L^-1 F|]
    sup_term = sup_flip_pairing(table, flip_weights(table, linv_table, model), model, caps)
    del linv_table
    kb1 = term_gamma_abs + term_mid + sup_term

    term_mid2 = (
        (1.0 / (2.0 * math.sqrt(2.0)))
        * math.sqrt(inner_sq)
        * (fourth**0.25 + 1.0)
        * quart_root
    )
    kb2 = abs(1.0 - var_f) + math.sqrt(term_gamma_var) + term_mid2 + sup_term

    out = {
        "gamma_deviation_abs": term_gamma_abs,
        "gamma_deviation_var": term_gamma_var,
        "cubic_remainder": remainder,
        "indicator_sup": sup_term,
        "kolmogorov_middle": term_mid,
        "kolmogorov_middle_cs": term_mid2,
        "wasserstein_line1": gb1,
        "wasserstein_line2": gb2,
        "kolmogorov_line1": kb1,
        "kolmogorov_line2": kb2,
    }

    m = F.pure_order()
    if m and abs(var_f - 1.0) <= _NORMALIZATION_TOL:
        # the sup runs before g0_self exists, so their peaks do not add
        sup_self = sup_flip_pairing(table, flip_weights(table, table, model), model, caps) / m
        g0_self = gamma0(table, table, model)
        var_g_self = table_variance(
            ValueTable._owning(n, g0_self.values / m), model, caps
        )
        out["wasserstein_single_order"] = s2pi * math.sqrt(var_g_self) + math.sqrt(
            quart / m
        )
        out["kolmogorov_single_order"] = (
            math.sqrt(var_g_self)
            + (1.0 / (2.0 * math.sqrt(2.0) * m))
            * math.sqrt(quart)
            * (fourth**0.25 + 1.0)
            * quart_root
            + sup_self
        )
    return out


# -- Hoeffding decomposition and the degenerate U-statistic route -----------

# an order carries variance when its energy exceeds this share of the total
_DEGENERACY_TOL = 1e-10
# constant in the degenerate U-statistic bound; not determined by theory,
# reported but never asserted against
DEFAULT_KAPPA_M = 1.0


@dataclass(frozen=True)
class HoeffdingDecomposition:
    """Components W_J = c_J Y_J over subsets J of the coordinates W depends
    on; ``components`` maps each J to its coefficient c_J = E[W * Y_J]."""

    model: RademacherModel
    components: dict[tuple[int, ...], float]

    def component(self, J: tuple[int, ...]) -> ValueTable:
        """The table of W_J; zero when J is not a component."""
        n = self.model.n
        term = np.full(2**n, self.components.get(J, 0.0))
        for i in J:
            minus, plus = split_coordinate(term, i)
            minus *= self.model.y_minus[i]
            plus *= self.model.y_plus[i]
        return ValueTable._owning(n, term)

    def reconstruct(self) -> ValueTable:
        coeffs = np.zeros(2**self.model.n)
        for J, c in self.components.items():
            coeffs[sum(1 << i for i in J)] = c
        return basis_synthesis(coeffs, self.model)


def hoeffding_decompose(W: ValueTable, model: RademacherModel) -> HoeffdingDecomposition:
    """Hoeffding components read off the Walsh coefficients.

    For independent binary coordinates the component on J is a single
    basis term, W_J = E[W * Y_J] Y_J; only its coefficient is kept.
    Subsets holding a coordinate W does not depend on have c_J = 0 exactly
    and are omitted.
    """
    coeffs = basis_coefficients(W, model)
    dependent = [k for k in range(model.n) if np.any(split_coordinate(coeffs, k)[1])]
    components = {
        J: float(coeffs[sum(1 << i for i in J)])
        for size in range(len(dependent) + 1)
        for J in combinations(dependent, size)
    }
    return HoeffdingDecomposition(model, components)


def degenerate_order(H: HoeffdingDecomposition) -> int:
    """The unique component size carrying energy (sum of c_J^2), or an error."""
    energy: dict[int, float] = {}
    for J, c in H.components.items():
        if J:
            energy[len(J)] = energy.get(len(J), 0.0) + c * c
    total = sum(energy.values())
    live = [s for s, e in energy.items() if e > _DEGENERACY_TOL * (1.0 + total)]
    if len(live) != 1:
        raise DomainError(
            f"decomposition is not degenerate of a single order; energies {energy}"
        )
    return live[0]


def rho_squared(H: HoeffdingDecomposition) -> float:
    """max over coordinates j of sum of E[W_J^2] over components J owning j."""
    m = degenerate_order(H)
    per_coord: dict[int, float] = {}
    for J, c in H.components.items():
        if len(J) == m:
            for j in J:
                per_coord[j] = per_coord.get(j, 0.0) + c * c
    return max(per_coord.values()) if per_coord else 0.0


def dejong_bound(
    W: ValueTable,
    model: RademacherModel,
    kappa_m: float = DEFAULT_KAPPA_M,
    caps: Caps = DEFAULT_CAPS,
) -> BoundReport:
    """Degenerate-U-statistic Wasserstein bound with configurable kappa.

    The first (fourth moment) term is fully determined; the second carries
    the unspecified order constant kappa_m and is reported, not asserted.
    """
    if kappa_m <= 0:
        raise DomainError(f"kappa_m must be positive, got {kappa_m}")
    mean = expectation(W, model, caps)
    var = moment(W, 2, model, caps) - mean**2
    if abs(var - 1.0) > _NORMALIZATION_TOL:
        raise DomainError(f"input is not normalized: variance {var!r}")
    if abs(mean) > _NORMALIZATION_TOL:
        raise DomainError(f"degenerate statistic must be centered; mean {mean!r}")
    H = hoeffding_decompose(W, model)
    m = degenerate_order(H)
    rho2 = rho_squared(H)
    fourth = moment(W, 4, model, caps)
    s2pi = math.sqrt(2.0 / math.pi)
    c_fourth = s2pi + 4.0 / 3.0
    c_rho = math.sqrt(kappa_m) * (s2pi + 2.0 * math.sqrt(2.0) / math.sqrt(3.0))
    t1 = c_fourth * math.sqrt(abs(fourth - 3.0))
    t2 = c_rho * math.sqrt(rho2)
    return BoundReport(
        kind="dejong",
        order=m,
        fourth_moment=fourth,
        variance=var,
        sup_influence=rho2,
        constants={"kappa_m": kappa_m, "c_fourth": c_fourth, "c_rho": c_rho},
        terms={"fourth_moment": t1, "influence": t2, "rho_squared": rho2},
        bound_value=t1 + t2,
    )
