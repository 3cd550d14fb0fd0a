"""Seeded property suite: every structural identity and inequality the
library is contractually required to satisfy, runnable as one report.

Each check draws its own deterministic generator from (seed, name), so
the report is reproducible byte for byte and insensitive to execution
order.  A check reports its worst residual and the threshold it must
stay under; informational checks carry no threshold and never fail.

A check is a generator ``check_<name>(rng, caps)`` decorated with
``_check(threshold, detail, draws=N)``, which adds it to ``CHECKS``.
Each of its N runs draws one instance from ``rng`` and yields that
instance's residual terms (``abs(lhs - rhs)`` for an identity,
``lhs - bound`` for an inequality).  ``_worst`` makes the residual: the
largest term, 0.0 if none is positive, NaN if any is NaN, and a NaN
fails every threshold.  Yield each term: a ``max(...)`` in the body
would drop a NaN again.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from . import bounds, construct, distance, malliavin as mv, moments
from .chaos import (
    ChaosVector,
    ValueTable,
    conditional_expectation,
    expectation,
    integral_table,
    multiply,
    ou_semigroup,
    stroock_decompose,
    to_table,
    variance as table_variance,
)
from .combinat import gamma_m
from .config import Caps, DEFAULT_CAPS
from .errors import DomainError
from .kernels import (
    Kernel,
    off_diagonal_defect,
    random_kernel,
    symmetrized_tensor,
    tensor_square_residual,
    zero_kernel,
)
from .model import RademacherModel, normalized_value, outcome_index, sample_signs, y_moment


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float | None
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        # strict JSON has no NaN or inf: a residual that is not a finite
        # number is reported as null (and failed, unless informational)
        finite = math.isfinite(self.residual)
        return {**asdict(self), "residual": self.residual if finite else None}


@dataclass(frozen=True)
class Check:
    name: str
    fn: Callable[[np.random.Generator, Caps], tuple[float, float | None, str]]

    def run(self, seed: int, caps: Caps) -> CheckResult:
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        residual, threshold, detail = self.fn(rng, caps)
        passed = bool(threshold is None or residual <= threshold)
        return CheckResult(self.name, float(residual), threshold, passed, detail)


CHECKS: list[Check] = []


def _worst(terms: Iterable[float]) -> float:
    """The largest term, starting from 0.0 and keeping the first maximum;
    NaN as soon as a term is NaN."""
    worst = 0.0
    for t in terms:
        if math.isnan(t):
            return math.nan
        if t > worst:
            worst = t
    return worst


def _check(threshold: float, detail: str, draws: int = 1):
    """Register a body that yields the residual terms of one drawn instance."""

    def register(body):
        def fn(rng, caps):
            terms = (t for _ in range(draws) for t in body(rng, caps))
            return _worst(terms), threshold, detail

        CHECKS.append(Check(body.__name__.removeprefix("check_"), fn))
        return body

    return register


def _kernel_gap(a: Kernel, b: Kernel) -> float:
    """Largest |a_J - b_J| over the union of both supports."""
    keys = set(a.coeffs) | set(b.coeffs)
    return _worst(abs(a.value(k) - b.value(k)) for k in keys)


def _random_model(rng, n) -> RademacherModel:
    return RademacherModel(tuple(float(x) for x in rng.uniform(0.1, 0.9, n)))


def _random_instance(rng, m_max=3, n_max=10, density=1.0) -> tuple[RademacherModel, Kernel]:
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(max(m + 1, 4), n_max + 1))
    model = _random_model(rng, n)
    return model, random_kernel(m, n, rng, normalized=True, density=density)


def _random_chaos(rng, n, top=2, centered=True) -> ChaosVector:
    parts = [Kernel(0, n, {} if centered else {(): float(rng.standard_normal())})]
    for r in range(1, top + 1):
        parts.append(random_kernel(r, n, rng))
    return ChaosVector(n, tuple(parts))


# -- model ------------------------------------------------------------------


@_check(1e-12, "Y^2 = 1 + skew * Y at both signs", draws=50)
def check_structure_identity(rng, caps):
    p = float(rng.uniform(0.05, 0.95))
    for sign in (1, -1):
        y = normalized_value(p, sign)
        yield abs(y * y - 1.0 - y_moment(p, 3) * y)


@_check(1e-12, "enumeration reproduces closed-form coordinate moments", draws=50)
def check_enumeration_moments(rng, caps):
    p = float(rng.uniform(0.05, 0.95))
    model = RademacherModel((p,))
    w = model.weights(caps)
    y = model.y_table(0)
    yield abs(float(w.sum()) - 1.0)
    for r in range(1, 5):
        yield abs(float(np.dot(w, y**r)) - y_moment(p, r))


@_check(1.0, "empirical moments within 5 standard errors")
def check_sampling_consistency(rng, caps):
    p = float(rng.uniform(0.2, 0.8))
    model = RademacherModel((p, p, p))
    count = 200_000
    mean4, mean1 = _sampled_means(model, int(rng.integers(2**31)), count)
    q = 1 - p
    lam = y_moment(p, 4)
    e8 = p * (q / p) ** 4 + q * (p / q) ** 4
    se4 = math.sqrt((e8 - lam * lam) / count)
    yield abs(mean4 - lam) / (5 * se4)
    yield abs(mean1) / (5.0 / math.sqrt(count))


def _sampled_means(model: RademacherModel, seed: int, count: int) -> tuple[float, float]:
    """(mean of Y_0^4, mean of Y_1) over the draws of ``sample_signs``.

    These are the column means of ``sample_y_matrix`` bit for bit, without
    its matrix: Y_0^4 is numpy's pow of Y_0's two values, picked by sign.
    """
    plus = sample_signs(model, seed, count)
    y4 = np.power([model.y_minus[0], model.y_plus[0]], 4)
    y1 = np.where(plus[:, 1], model.y_plus[1], model.y_minus[1])
    return float(np.where(plus[:, 0], y4[1], y4[0]).mean()), float(y1.mean())


# -- kernels ----------------------------------------------------------------


@_check(1e-12, "sum of influences = m * sum of squared coefficients", draws=20)
def check_influence_additivity(rng, caps):
    model, f = _random_instance(rng)
    total = float(f.influence_vector().sum())
    direct = f.order * sum(v * v for v in f.coeffs.values())
    yield abs(total - direct)
    argmax = int(np.argmax(f.influence_vector()))
    through = sum(v * v for k, v in f.coeffs.items() if argmax in k)
    yield f.sup_influence() - through


@_check(1e-12, "sup-influence^2 <= sum f^4 <= sup-influence at order 1", draws=20)
def check_order_one_influence_chain(rng, caps):
    n = int(rng.integers(2, 12))
    f = random_kernel(1, n, rng, normalized=True)
    sup = f.sup_influence()
    s4 = sum(v**4 for v in f.coeffs.values())
    yield from (sup * sup - s4, s4 - sup)


@_check(1e-12, "idempotent truncation; norms increase to the full norm", draws=20)
def check_truncation(rng, caps):
    _, f = _random_instance(rng)
    n = f.horizon
    a = int(rng.integers(1, n + 1))
    b = int(rng.integers(1, n + 1))
    lhs = f.truncate(a).truncate(b)
    rhs = f.truncate(min(a, b))
    yield _kernel_gap(lhs, rhs)
    last = 0.0
    for h in range(1, n + 1):
        cur = f.truncate(h).norm_sq()
        yield last - cur
        last = cur
    yield abs(last - f.norm_sq())


# -- chaos ------------------------------------------------------------------


@_check(1e-10, "E[J_m(f) J_n(g)] = delta_mn m! <f, g>", draws=20)
def check_integral_isometry(rng, caps):
    n = int(rng.integers(4, 9))
    model = _random_model(rng, n)
    mf = int(rng.integers(1, 4))
    mg = int(rng.integers(1, 4))
    f = random_kernel(mf, n, rng)
    g = random_kernel(mg, n, rng)
    tf = integral_table(f, model, caps)
    tg = integral_table(g, model, caps)
    lhs = expectation(tf * tg, model, caps)
    rhs = math.factorial(mf) * f.inner(g) if mf == mg else 0.0
    scale = 1.0 + abs(rhs)
    yield from (abs(lhs - rhs) / scale, abs(expectation(tf, model, caps)))


@_check(1e-10, "enumerated variance equals the sum of kernel norms", draws=10)
def check_variance_decomposition(rng, caps):
    n = int(rng.integers(4, 9))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n, top=3, centered=False)
    t = to_table(F, model, caps)
    yield abs(table_variance(t, model, caps) - F.variance()) / (1 + F.variance())


@_check(1e-9, "extraction recovers kernels; reconstruction is exact", draws=10)
def check_stroock_roundtrip(rng, caps):
    n = int(rng.integers(4, 9))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n, top=3, centered=False)
    t = to_table(F, model, caps)
    back = to_table(stroock_decompose(t, model, caps), model, caps)
    yield float(np.abs(back.values - t.values).max())
    f = random_kernel(int(rng.integers(1, 4)), n, rng)
    dec = stroock_decompose(integral_table(f, model, caps), model, caps)
    for r in range(dec.top_order + 1):
        want = f if r == f.order else zero_kernel(r, n)
        yield _kernel_gap(dec.kernel(r), want)


@_check(1e-11, "truncated integral = conditional expectation on the head", draws=10)
def check_truncation_martingale(rng, caps):
    n = int(rng.integers(4, 9))
    model = _random_model(rng, n)
    f = random_kernel(int(rng.integers(1, 4)), n, rng)
    h = int(rng.integers(1, n + 1))
    lhs = integral_table(f.truncate(h), model, caps)
    rhs = conditional_expectation(integral_table(f, model, caps), model, set(range(h)))
    yield float(np.abs(lhs.values - rhs.values).max())


@_check(1e-12, "composition of heat flows adds times", draws=10)
def check_semigroup(rng, caps):
    n = int(rng.integers(4, 8))
    F = _random_chaos(rng, n, top=3, centered=False)
    s, t = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
    lhs = ou_semigroup(ou_semigroup(F, s), t)
    rhs = ou_semigroup(F, s + t)
    for r in range(F.top_order + 1):
        yield _kernel_gap(lhs.kernel(r), rhs.kernel(r))


@_check(1e-10, "top product kernel is the off-diagonal symmetrized tensor", draws=10)
def check_product_top_kernel(rng, caps):
    n = int(rng.integers(5, 8))
    model = _random_model(rng, n)
    mf = int(rng.integers(1, 3))
    mg = int(rng.integers(1, 3))
    f = random_kernel(mf, n, rng)
    g = random_kernel(mg, n, rng)
    prod = multiply(
        ChaosVector.from_kernel(f), ChaosVector.from_kernel(g), model, caps
    )
    # the tensor's distinct-index part, through the validating constructor
    ref = {t: v for t, v in symmetrized_tensor(f, g).items() if len(set(t)) == len(t)}
    yield _kernel_gap(prod.kernel(mf + mg), Kernel(mf + mg, n, ref))
    for r in range(mf + mg + 1, prod.top_order + 1):
        yield _kernel_gap(prod.kernel(r), zero_kernel(r, n))


# -- malliavin ---------------------------------------------------------------


@_check(1e-10, "spectral and pathwise squared fields agree pointwise", draws=10)
def check_carre_du_champ(rng, caps):
    n = int(rng.integers(4, 9))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n)
    G = _random_chaos(rng, n)
    tf, tg = to_table(F, model, caps), to_table(G, model, caps)
    g = mv.gamma(F, G, model, caps)
    g0 = mv.gamma0(tf, tg, model)
    scale = 1.0 + tf.max_abs() * tg.max_abs()
    yield float(np.abs(g.values - g0.values).max()) / scale


@_check(1e-10, "the generator is the negative adjoint of the squared field", draws=10)
def check_generator_adjoint(rng, caps):
    n = int(rng.integers(4, 9))
    model = _random_model(rng, n)
    H = ValueTable(n, rng.standard_normal(2**n))
    G = _random_chaos(rng, n)
    tg = to_table(G, model, caps)
    lg = mv.ou_generator_pathwise(tg, model)
    lhs = expectation(H * lg, model, caps)
    rhs = -expectation(mv.gamma0(H, tg, model), model, caps)
    yield abs(lhs - rhs) / (1.0 + abs(rhs))


@_check(1e-10, "divergence of the gradient is the negative generator", draws=10)
def check_gradient_skorohod_link(rng, caps):
    n = int(rng.integers(4, 9))
    F = _random_chaos(rng, n, top=3)
    lhs = mv.skorohod(mv.gradient_process(F), _random_model(rng, n))
    rhs = mv.ou_generator_spectral(F).scale(-1.0)
    for r in range(max(lhs.top_order, rhs.top_order) + 1):
        yield _kernel_gap(lhs.kernel(r), rhs.kernel(r))


@_check(1e-9, "second moment of the divergence matches the isometry", draws=8)
def check_skorohod_isometry(rng, caps):
    n = int(rng.integers(4, 8))
    model = _random_model(rng, n)
    u = [_random_chaos(rng, n, top=2, centered=False) for _ in range(n)]
    du = mv.skorohod(u, model)
    t_du = to_table(du, model, caps)
    lhs = moments.moment(t_du, 2, model, caps)
    ut = [to_table(c, model, caps) for c in u]
    rhs = sum(expectation(t * t, model, caps) for t in ut)
    for k in range(n):
        for l in range(n):
            dkl = mv.d(ut[l], k, model)
            dlk = mv.d(ut[k], l, model)
            term = expectation(dkl * dlk, model, caps)
            rhs += term if k != l else -term
    yield abs(lhs - rhs) / (1.0 + abs(rhs))


@_check(1e-10, "duality pairing of gradient and divergence", draws=10)
def check_skorohod_adjoint(rng, caps):
    n = int(rng.integers(4, 8))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n, top=2, centered=False)
    u = [_random_chaos(rng, n, top=2, centered=False) for _ in range(n)]
    tf = to_table(F, model, caps)
    du = to_table(mv.skorohod(u, model), model, caps)
    lhs = expectation(tf * du, model, caps)
    rhs = sum(
        expectation(mv.d(tf, k, model) * to_table(u[k], model, caps), model, caps)
        for k in range(n)
    )
    yield abs(lhs - rhs) / (1.0 + abs(lhs))


@_check(1e-11, "gradient and one-sided difference product rules", draws=10)
def check_product_rules(rng, caps):
    n = int(rng.integers(3, 8))
    model = _random_model(rng, n)
    F = ValueTable(n, rng.standard_normal(2**n))
    G = ValueTable(n, rng.standard_normal(2**n))
    FG = F * G
    scale = 1.0 + F.max_abs() * G.max_abs()
    for k in range(n):
        lhs = mv.d(FG, k, model)
        x = model.signs_table(k)
        rhs = (
            F * mv.d(G, k, model)
            + G * mv.d(F, k, model)
            - ValueTable(n, x / model.sqrt_pq[k])
            * mv.d(F, k, model)
            * mv.d(G, k, model)
        )
        yield float(np.abs(lhs.values - rhs.values).max()) / scale
        for op in (mv.d_plus, mv.d_minus):
            lhs2 = op(FG, k)
            rhs2 = G * op(F, k) + F * op(G, k) + op(F, k) * op(G, k)
            yield float(np.abs(lhs2.values - rhs2.values).max()) / scale


@_check(1e-11, "one-sided differences of squares and cubes", draws=10)
def check_difference_power_identities(rng, caps):
    n = int(rng.integers(3, 7))
    F = ValueTable(n, rng.standard_normal(2**n))
    F2, F3 = F * F, F * F * F
    scale = 1.0 + F.max_abs() ** 3
    for k in range(n):
        for op in (mv.d_plus, mv.d_minus):
            dF = op(F, k)
            yield float(np.abs((op(F2, k) - (dF * dF + 2.0 * F * dF)).values).max()) / scale
            yield float(
                np.abs(
                    (op(F3, k) - (dF * dF * dF + 3.0 * F * F * dF + 3.0 * F * dF * dF)).values
                ).max()
            ) / scale


@_check(1e-10, "covariance through the inverse generator", draws=10)
def check_covariance_representation(rng, caps):
    n = int(rng.integers(4, 8))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n, centered=False)
    G = _random_chaos(rng, n, centered=False)
    tf, tg = to_table(F, model, caps), to_table(G, model, caps)
    cov = expectation(tf * tg, model, caps) - expectation(tf, model, caps) * expectation(tg, model, caps)
    centered = F.map_kernels(lambda r, k: k.scale(0.0) if r == 0 else k)
    linv = mv.pseudo_inverse(centered)
    rhs = -expectation(mv.gamma(G, linv, model, caps), model, caps)
    yield abs(cov - rhs) / (1.0 + abs(cov))


@_check(0.0, "the k-gradient never depends on coordinate k", draws=10)
def check_gradient_independence(rng, caps):
    n = int(rng.integers(3, 8))
    model = _random_model(rng, n)
    F = ValueTable(n, rng.standard_normal(2**n))
    idx = np.arange(2**n)
    for k in range(n):
        dk = mv.d(F, k, model).values
        yield float(np.abs(dk[idx ^ (1 << k)] - dk).max())


@_check(1e-10, "pure integrals are eigenfunctions; field mean = m Var", draws=10)
def check_generator_eigenvalue(rng, caps):
    model, f = _random_instance(rng, n_max=9)
    t = integral_table(f, model, caps)
    lp = mv.ou_generator_pathwise(t, model)
    yield float(np.abs(lp.values + f.order * t.values).max()) / (1.0 + t.max_abs())
    yield abs(expectation(lp, model, caps))
    g = mv.gamma0(t, t, model)
    yield (
        abs(expectation(g, model, caps) - f.order * table_variance(t, model, caps))
        / (1.0 + f.order)
    )


# -- moments -----------------------------------------------------------------


@_check(1e-9, "product-formula engine matches enumeration", draws=20)
def check_dual_engine(rng, caps):
    model, f = _random_instance(rng, n_max=9, density=0.6)
    t = integral_table(f, model, caps)
    e1 = moments.moment(t, 4, model, caps)
    e2 = moments.fourth_moment_factorized(f.to_subset_coeffs(), model, caps)
    yield abs(e1 - e2) / abs(e1)


@_check(1e-10, "product-formula engine matches enumeration on fair coins", draws=20)
def check_symmetric_engine(rng, caps):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(max(m + 1, 4), 10))
    model = RademacherModel.symmetric(n)
    f = random_kernel(m, n, rng, normalized=True, density=0.7)
    t = integral_table(f, model, caps)
    e1 = moments.moment(t, 4, model, caps)
    e2 = moments.fourth_moment_symmetric(f.to_subset_coeffs())
    yield abs(e1 - e2) / abs(e1)


@_check(1e-10, "projection variances stay under the closed bound", draws=10)
def check_projection_variance_bound(rng, caps):
    model, f = _random_instance(rng, n_max=9)
    pv = moments.var_projection_sum(ChaosVector.from_kernel(f), model, caps)
    yield pv.total - pv.upper_bound


@_check(1e-10, "tensor square residual vanishes at order 1, positive above", draws=10)
def check_tensor_residual(rng, caps):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(max(m + 1, 4), 9))
    f = random_kernel(m, n, rng)
    resid = tensor_square_residual(f)
    yield abs(resid) if m == 1 else -resid


@_check(1e-10, "diagonal part of the tensor square obeys the influence bound", draws=20)
def check_off_diagonal_defect(rng, caps):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(max(m + 1, 4), 9))
    f = random_kernel(m, n, rng)
    defect = off_diagonal_defect(f)
    lim = gamma_m(m) * f.norm_sq() * math.factorial(m) * f.sup_influence()
    yield from (defect - lim, -defect)


@_check(1e-10, "field variance: spectral identity and closed bound", draws=10)
def check_squared_field_variance(rng, caps):
    model, f = _random_instance(rng, n_max=9)
    vg = moments.var_gamma_normalized(ChaosVector.from_kernel(f), model, caps)
    yield from (abs(vg.value - vg.spectral) / (1.0 + vg.value), vg.value - vg.upper_bound)


@_check(1e-10, "field moments stay under the fourth moment", draws=10)
def check_moment_field_inequalities(rng, caps):
    model, f = _random_instance(rng, n_max=9)
    F = ChaosVector.from_kernel(f)
    m = f.order
    t = to_table(F, model, caps)
    g = mv.gamma(F, F, model, caps)
    fourth = moments.moment(t, 4, model, caps)
    yield expectation(g * g, model, caps) / m**2 - fourth
    yield expectation(t * t * g, model, caps) / m - fourth


@_check(1e-9, "quartic gradient sum: identity and closed bound", draws=10)
def check_quartic_gradient(rng, caps):
    model, f = _random_instance(rng, n_max=9)
    F = ChaosVector.from_kernel(f)
    lhs, rhs = moments.quartic_gradient_identity(F, model, caps)
    yield abs(lhs - rhs) / (1.0 + abs(lhs))
    yield lhs - moments.quartic_gradient_bound(F, model, caps)


@_check(1e-10, "indicator pairing is nonnegative and bounded", draws=10)
def check_indicator_pairing(rng, caps):
    model, f = _random_instance(rng, n_max=9)
    F = ChaosVector.from_kernel(f)
    term = moments.kolmogorov_term(F, model, caps)
    yield from (-term, term - moments.kolmogorov_term_bound(F, model, caps))


# -- bounds ------------------------------------------------------------------


@_check(1e-12, "explicit constants and strictly increasing gamma sequence")
def check_constants(rng, caps):
    yield from (abs(gamma_m(1) - 2.0), abs(gamma_m(2) - 72.0), abs(gamma_m(3) - 7920.0))
    c1, c2 = bounds.wasserstein_constants(1)
    yield abs(c1 - (math.sqrt(2 / math.pi) / 2 + 1))
    yield abs(c2 - (math.sqrt(2 / math.pi) / 2 + math.sqrt(3)) * math.sqrt(2))
    k1, k2, k3, k4 = bounds.kolmogorov_constants(1)
    yield from (abs(k1 - 1.5), abs(k2 - 0.5))
    prev = 0.0
    for m in range(1, 9):
        g = gamma_m(m)
        if g <= prev:
            yield prev - g + 1.0
        prev = g


@_check(0.0, "exact distances never exceed any bound line", draws=10)
def check_bound_validity(rng, caps):
    model, f = _random_instance(rng)
    F = ChaosVector.from_kernel(f)
    rw, rk = bounds.theorem_bounds(F, model, caps)
    yield from (-rw.slack, -rk.slack)
    ab = bounds.abstract_bounds(F, model, caps)
    yield rk.exact_distance - ab["kolmogorov_line1"]
    yield ab["kolmogorov_line1"] - ab["kolmogorov_line2"]
    yield rw.exact_distance - ab["wasserstein_line1"]
    yield ab["wasserstein_line1"] - ab["wasserstein_line2"]


@_check(1e-9, "components reconstruct, localize, and kill conditioning", draws=6)
def check_hoeffding(rng, caps):
    model, f = _random_instance(rng, m_max=2, n_max=7)
    n, m = model.n, f.order
    W = integral_table(f, model, caps)
    H = bounds.hoeffding_decompose(W, model)
    yield float(np.abs(H.reconstruct().values - W.values).max())
    a = f.to_subset_coeffs()
    for J in H.components:
        t = H.component(J)
        if len(J) == m:
            y = np.ones(2**n)
            for i in J:
                y = y * model.y_table(i)
            yield float(np.abs(t.values - a.get(J, 0.0) * y).max())
        elif J != ():
            yield t.max_abs()
    # orthogonality of conditioning: E[W_J | coords in K] = 0 unless J <= K
    comps = [J for J in H.components if J != ()]
    for _ in range(10):
        J = comps[int(rng.integers(len(comps)))]
        K = tuple(
            sorted(
                int(i)
                for i in rng.choice(n, size=int(rng.integers(0, n)), replace=False)
            )
        )
        if set(J) <= set(K):
            continue
        ce = conditional_expectation(H.component(J), model, set(K))
        yield ce.max_abs()
    # random non-integral functional still reconstructs
    T = ValueTable(n, rng.standard_normal(2**n))
    H2 = bounds.hoeffding_decompose(T, model)
    yield float(np.abs(H2.reconstruct().values - T.values).max())


def check_dejong_ratio(rng, caps):
    model, f = _random_instance(rng, m_max=2, n_max=8)
    W = integral_table(f, model, caps)
    rho2 = bounds.rho_squared(bounds.hoeffding_decompose(W, model))
    ref = math.factorial(f.order) ** 2 * f.sup_influence()
    ratio = rho2 / ref if ref else math.nan
    return abs(ratio - 1.0), None, f"rho^2 / ((m!)^2 sup-influence) = {ratio!r} (informational)"


# informational, with its ratio in the detail: registered without _check
CHECKS.append(Check("dejong_ratio", check_dejong_ratio))


# -- distance ----------------------------------------------------------------


@_check(1e-11, "law sanity, distance ranges, shift inequality", draws=10)
def check_distance_sanity(rng, caps):
    n = int(rng.integers(2, 8))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n, centered=False)
    t = to_table(F, model, caps)
    law = distance.exact_distribution(t, model, caps)
    yield abs(float(law.probs.sum()) - 1.0)
    dw, dk = distance.normal_distances(law)
    yield from (-dk, dk - 1.0, -dw)
    c = float(rng.uniform(-1, 1))
    yield distance.wasserstein_to_normal(law.shift(c)) - dw - abs(c)


@_check(0.0, "empirical distance stays inside the DKW envelope", draws=3)
def check_empirical_distance(rng, caps):
    n = int(rng.integers(2, 6))
    model = _random_model(rng, n)
    F = _random_chaos(rng, n, centered=False)
    t = to_table(F, model, caps)
    law = distance.exact_distribution(t, model, caps)
    dk = distance.kolmogorov_to_normal(law)
    N = 100_000
    plus = sample_signs(model, int(rng.integers(2**31)), N)
    # F at the sampled outcomes, read from the table
    samples = t.values[outcome_index(plus)]
    dk_hat, _, half = distance.empirical_distances(samples)
    yield abs(dk_hat - dk) - 3.0 * half


@_check(1e-15, "CDF symmetry, monotonicity, exact center")
def check_normal_cdf(rng, caps):
    yield abs(distance.normal_cdf(0.0) - 0.5)
    xs = rng.uniform(-8, 8, 200)
    for x in xs:
        yield abs(distance.normal_cdf(-x) - (1.0 - distance.normal_cdf(x)))
    grid = np.sort(xs)
    vals = [distance.normal_cdf(float(x)) for x in grid]
    for i in range(len(vals) - 1):
        yield vals[i] - vals[i + 1]


# -- construct ---------------------------------------------------------------


@_check(1e-9, "constructed families keep exact moments; bounds still hold")
def check_counterexamples(rng, caps):
    for m in (1, 2, 3):
        model, kern = construct.inhomogeneous_counterexample(m, "+")
        route = distance.integral_law(kern, model, caps)
        yield abs(route.variance - 1.0)
        yield abs(route.fourth - 3.0)
        dk = distance.kolmogorov_to_normal(route.law)
        yield 0.0 if dk > 0.05 else 0.05 - dk
    kern, trace = construct.symmetric_counterexample(2, 4)
    model = RademacherModel.symmetric(4)
    route = distance.integral_law(kern, model, caps)
    yield abs(route.variance - 1.0)
    yield abs(route.fourth - 3.0)
    yield abs(trace.endpoint_high - 14.0 / 3.0)
    yield abs(trace.endpoint_low - 7.0 / 3.0)
    F = ChaosVector.from_kernel(kern)
    rep = bounds.theorem_bound_kolmogorov(F, model, caps)
    yield -rep.slack


@_check(1e-10, "order-1 fourth moment excess factors through lambda - 3", draws=20)
def check_order_one_mechanism(rng, caps):
    n = int(rng.integers(2, 10))
    p = float(rng.uniform(0.1, 0.9))
    model = RademacherModel.homogeneous(p, n)
    f = random_kernel(1, n, rng, normalized=True)
    lhs, rhs = construct.order_one_identity_check(f, model, caps)
    yield abs(lhs - rhs)


@_check(1e-10, "bounded-influence sequence: influence and moment formulas")
def check_remark_sequence(rng, caps):
    for n in (8, 10, 12):
        kern, model = construct.product_chaos_sequence(2, n)
        yield abs(kern.sup_influence() - 0.25)
        t = integral_table(kern, model, caps)
        yield abs(moments.moment(t, 4, model, caps) - (3.0 - 2.0 / (n - 1)))


def run_suite(seed: int = 0, caps: Caps = DEFAULT_CAPS, names: list[str] | None = None) -> list[CheckResult]:
    if names is not None:
        unknown = sorted(set(names) - {c.name for c in CHECKS})
        if unknown:
            raise DomainError(f"no verify check named {', '.join(unknown)}")
    results = [c.run(seed, caps) for c in CHECKS if names is None or c.name in names]
    return sorted(results, key=lambda r: r.name)
