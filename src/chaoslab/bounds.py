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
from functools import cached_property
from itertools import combinations

import numpy as np

from .chaos import (
    ChaosVector,
    ValueTable,
    basis_coefficients,
    basis_synthesis,
    even_moments,
    expectation,
    split_coordinate,
    subset_coordinates,
    subset_orders,
    to_table,
    variance as table_variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .distance import integral_law, normal_distances
from .errors import DomainError
from .malliavin import _centered, _operator_table, gamma0
from .model import RademacherModel
from .moments import _book_flips, _sup_above_levels

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

    The law, E[F^2] and E[F^4] come from the independent pieces of the
    kernel (``distance.integral_law``), so no 2**n table is built when the
    support splits; a support that joins all n coordinates is one piece,
    and its moments and law come from the one table of F.  The
    sup-influence is read off the kernel.  ``enum_cap`` bounds each piece
    and each partial sum of the law, not the horizon.
    """
    m = F.pure_order()
    if m is None or m == 0:
        raise DomainError("bound expects a pure multiple integral of order >= 1")
    f = F.kernel(m)
    route = integral_law(f, model, caps)
    var, fourth = route.variance, route.fourth
    if abs(var - 1.0) > _NORMALIZATION_TOL:
        raise DomainError(
            f"input is not normalized: measured second moment {var!r}; "
            "rescale the kernel first"
        )
    sup_inf = f.sup_influence()
    w1, dk = normal_distances(route.law)
    root_excess = math.sqrt(abs(fourth - 3.0))
    root_inf = math.sqrt(sup_inf)

    def report(kind, constants, a, b, exact):
        """The report whose bound is a sqrt|E[F^4] - 3| + b sqrt(sup-influence)."""
        t_fourth, t_inf = a * root_excess, b * root_inf
        return BoundReport(
            kind=kind, order=m, fourth_moment=fourth, variance=var, sup_influence=sup_inf,
            constants={**constants, "gamma_m": gamma_m(m)},
            terms={"fourth_moment": t_fourth, "influence": t_inf},
            bound_value=t_fourth + t_inf, exact_distance=exact, slack=t_fourth + t_inf - exact,
        )

    c1, c2 = wasserstein_constants(m)
    k1, k2, k3, k4 = kolmogorov_constants(m)
    beta = fourth**0.25
    pref = (beta + 1.0) * beta
    return (
        report("wasserstein", {"C1": c1, "C2": c2}, c1, c2, w1),
        report("kolmogorov", {"K1": k1, "K2": k2, "K3": k3, "K4": k4},
               k1 + k2 * pref, k3 + k4 * pref, dk),
    )


def theorem_bound_wasserstein(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> BoundReport:
    return theorem_bounds(F, model, caps)[0]


def theorem_bound_kolmogorov(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> BoundReport:
    return theorem_bounds(F, model, caps)[1]


def _coordinate_sweep(
    table: ValueTable, linv_table: ValueTable, model: RademacherModel, w: np.ndarray
) -> tuple[float, float, float, float, np.ndarray, np.ndarray]:
    """One pass over the coordinates for ``abstract_bounds``: the cubic
    remainder, the sums of E[(D_kF D_k L^-1 F)^2] and E[(D_kF)^4] over
    p_k q_k, the middle Kolmogorov term, the table M = sum_k (q_k on
    X_k = +1, p_k on X_k = -1) (D_kF)^2 / (p_k q_k) and the indicator sup's
    flip flow (``moments._flip_flow`` with G = -L^-1 F).  D_k is constant in
    coordinate k, so each coordinate forms its two gradients once on one
    half, into five half-size buffers; each term keeps its own rounding.
    """
    lifted = w * (np.abs(table.values) + math.sqrt(2.0 * math.pi) / 4.0)
    remainder = inner_sq = quart = middle = 0.0
    cs_table, flow = np.zeros(2**model.n), np.zeros(2**model.n)
    halves = np.empty((5, 2 ** (model.n - 1)))
    for k in range(model.n):
        p, q, pq, s = model.p[k], model.q[k], model.pq[k], model.sqrt_pq[k]
        lift, df, dlinv, square, cubic = halves.reshape(5, -1, 1 << k)
        lift_minus, lift_plus = split_coordinate(lifted, k)
        np.multiply(p, lift_minus, out=lift)
        lift += np.multiply(q, lift_plus, out=cubic)
        for diff, values in ((df, table.values), (dlinv, linv_table.values)):
            minus, plus = split_coordinate(values, k)
            np.subtract(plus, minus, out=diff)
            diff *= s
        np.abs(dlinv, out=dlinv)
        np.multiply(df, df, out=square)
        np.multiply(square, dlinv, out=cubic)
        middle += float(np.vdot(lift, cubic)) / pq**1.5
        wk = np.add(*split_coordinate(w, k), out=lift)
        remainder += float(np.vdot(wk, cubic)) / s
        cubic *= dlinv
        inner_sq += float(np.vdot(wk, cubic)) / pq
        quart += float(np.vdot(wk, np.multiply(square, square, out=cubic))) / pq
        minus, plus = split_coordinate(cs_table, k)
        minus += np.divide(square, q, out=cubic)  # p / pq
        plus += np.divide(square, p, out=cubic)  # q / pq
        df *= dlinv
        _book_flips(flow, df, square, w, k, model)
    # the sums picked up numpy scalars from the per-coordinate divisions
    return float(remainder), float(inner_sq), float(quart), float(0.25 * middle), cs_table, flow


def abstract_bounds(
    F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> dict[str, float]:
    """Term-by-term evaluation of the abstract distance bounds.

    Works for any centered chaos vector; returns each named term and the
    assembled bound lines as plain floats.  For a pure integral of order m,
    -L^-1 F = F/m: its table is F's times 1/m, and when F is normalized the
    single-order lines, which read Gamma(F, F)/m and the indicator sup of
    (F, F) over m off the general terms, are included as well.  One
    ``_coordinate_sweep`` gives the gradient terms and the flow that the
    indicator sup ranks.
    """
    m = F.pure_order()
    if not m:  # a pure integral of order >= 1 is centered
        _centered(F)  # raises DomainError before any table
    w = model.weights(caps)
    table = to_table(F, model, caps)
    var_f, fourth = even_moments(table, model, caps)  # refuses an overflow before any square
    linv_table = _operator_table(F, table, lambda r: 1.0 / r if r else 0.0, model, caps)

    g0 = gamma0(table, linv_table, model)
    term_gamma_abs = float(np.dot(w, np.abs(1.0 - g0.values)))
    term_gamma_var = table_variance(g0, model, caps)
    del g0  # the terms below keep a bounded number of tables alive

    sums = _coordinate_sweep(table, linv_table, model, w)
    remainder, inner_sq, quart, term_mid, cs_table, flow = sums
    quart_root = float(np.dot(w, cs_table**2)) ** 0.25  # once the sweep's halves are freed
    del linv_table, cs_table

    s2pi = math.sqrt(2.0 / math.pi)
    gb1 = s2pi * term_gamma_abs + remainder
    gb2 = s2pi * abs(1.0 - var_f) + s2pi * math.sqrt(term_gamma_var) + remainder

    # indicator pairing sup_x sum_k E[(pq)^{-1/2} D_kF D_k 1_{F>x} |D_k L^-1 F|]
    sup_term = _sup_above_levels(table.values, flow)
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

    if m and abs(var_f - 1.0) <= _NORMALIZATION_TOL:
        out["wasserstein_single_order"] = s2pi * math.sqrt(term_gamma_var) + math.sqrt(quart / m)
        out["kolmogorov_single_order"] = (
            math.sqrt(term_gamma_var)
            + (1.0 / (2.0 * math.sqrt(2.0) * m))
            * math.sqrt(quart)
            * (fourth**0.25 + 1.0)
            * quart_root
            + sup_term
        )
    return out


# -- Hoeffding decomposition and the degenerate U-statistic route -----------

# an order carries variance when its energy exceeds this share of the total
_DEGENERACY_TOL = 1e-10
# constant in the degenerate U-statistic bound; not determined by theory,
# reported but never asserted against
DEFAULT_KAPPA_M = 1.0


@dataclass(frozen=True, eq=False)
class HoeffdingDecomposition:
    """Components W_J = c_J Y_J over subsets J of the coordinates W depends
    on, kept as the coefficient array ``coeffs`` (c_J = E[W * Y_J] at the
    bitmask of J) of one ``basis_coefficients`` transform and the sorted
    ``dependent`` coordinates.

    ``component``, ``reconstruct``, ``degenerate_order`` and ``rho_squared``
    read the array.  ``components``, the dict from each subset J of the
    dependent coordinates (sizes ascending, each size in ``combinations``
    order) to c_J, is built on first use and holds 2**d Python tuples for
    d dependent coordinates, so it is guarded by ``stroock_cap``.  The
    subset sizes ``orders`` and the degenerate ``order`` are also computed
    once, on first use.
    """

    model: RademacherModel
    coeffs: np.ndarray
    dependent: tuple[int, ...]
    caps: Caps = DEFAULT_CAPS

    @cached_property
    def components(self) -> dict[tuple[int, ...], float]:
        d = len(self.dependent)
        self.caps.check("stroock_cap", d, "{requested} dependent coordinates exceed "
                        "stroock_cap={value} (the component dict holds all 2**d subsets)")
        return {
            J: float(self.coeffs[sum(1 << i for i in J)])
            for size in range(d + 1)
            for J in combinations(self.dependent, size)
        }

    @cached_property
    def orders(self) -> np.ndarray:
        """|J| of every subset J, by bitmask (``chaos.subset_orders``)."""
        r = subset_orders(self.model.n)
        r.flags.writeable = False
        return r

    @cached_property
    def order(self) -> int:
        """The unique component size carrying energy (sum of c_J^2); raises
        ``DomainError`` when there is none or more than one."""
        c = self.coeffs
        energy = np.bincount(self.orders, weights=c * c)
        # sizes above the number of dependent coordinates hold no component
        per_size = {s: float(energy[s]) for s in range(1, len(self.dependent) + 1)}
        total = sum(per_size.values())
        live = [s for s, e in per_size.items() if e > _DEGENERACY_TOL * (1.0 + total)]
        if len(live) != 1:
            raise DomainError(
                f"decomposition is not degenerate of a single order; energies {per_size}"
            )
        return live[0]

    def _coefficient(self, J: tuple[int, ...]) -> float:
        """c_J; zero when J is not a strictly increasing subset of the
        dependent coordinates."""
        J = tuple(J)
        if list(J) != sorted(set(J)) or not set(J) <= set(self.dependent):
            return 0.0
        return float(self.coeffs[sum(1 << i for i in J)])

    def component(self, J: tuple[int, ...]) -> ValueTable:
        """The table of W_J; zero when J is not a component."""
        n = self.model.n
        term = np.full(2**n, self._coefficient(J))
        for i in J:
            minus, plus = split_coordinate(term, i)
            minus *= self.model.y_minus[i]
            plus *= self.model.y_plus[i]
        return ValueTable._owning(n, term)

    def reconstruct(self) -> ValueTable:
        return basis_synthesis(self.coeffs, self.model)


def hoeffding_decompose(
    W: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> HoeffdingDecomposition:
    """Hoeffding components read off the Walsh coefficients.

    For independent binary coordinates the component on J is a single
    basis term, W_J = E[W * Y_J] Y_J; only its coefficient is kept.
    Subsets holding a coordinate W does not depend on have c_J = 0 exactly
    and are not components.  ``caps.stroock_cap`` guards only the
    ``components`` dict.
    """
    coeffs = basis_coefficients(W, model)
    coeffs.flags.writeable = False
    dependent = tuple(k for k in range(model.n) if np.any(split_coordinate(coeffs, k)[1]))
    return HoeffdingDecomposition(model, coeffs, dependent, caps)


def degenerate_order(H: HoeffdingDecomposition) -> int:
    """The unique component size carrying energy (sum of c_J^2), or an error."""
    return H.order


def rho_squared(H: HoeffdingDecomposition) -> float:
    """max over coordinates j of sum of E[W_J^2] over components J owning j.

    Each coordinate's sum adds the c_J^2 of its order-m components in
    ``combinations`` order, as ``components`` lists them; the zero
    coefficients, which leave a sum of squares unchanged, are skipped.
    """
    m = H.order
    n = H.model.n
    c = H.coeffs
    masks = np.flatnonzero((H.orders == m) & (c != 0.0))
    # the coordinates of each order-m subset in increasing order, one row
    # per subset, and the rows in combinations (lexicographic) order
    owners = subset_coordinates(masks, n)[1].reshape(-1, m)
    order = np.lexsort(owners.T[::-1])
    per_coord = np.zeros(n)
    np.add.at(per_coord, owners[order].ravel(), np.repeat(np.square(c[masks[order]]), m))
    return float(per_coord.max())


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
    if not (math.isfinite(kappa_m) and kappa_m > 0):
        raise DomainError(f"kappa_m must be finite and positive, got {kappa_m}")
    mean = expectation(W, model, caps)
    second, fourth = even_moments(W, model, caps)
    var = second - mean**2
    if abs(var - 1.0) > _NORMALIZATION_TOL:
        raise DomainError(f"input is not normalized: variance {var!r}")
    if abs(mean) > _NORMALIZATION_TOL:
        raise DomainError(f"degenerate statistic must be centered; mean {mean!r}")
    H = hoeffding_decompose(W, model, caps)
    m = degenerate_order(H)
    rho2 = rho_squared(H)
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
