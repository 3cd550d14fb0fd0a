"""Acceptance gate: one test per exit criterion, at the stated tolerance.

Each test prints a single summary line (visible with ``pytest -s`` or in
failure reports) so the run doubles as a checklist.  Worst cases are taken
by the verify suite's rule (``verify._worst``): a NaN term makes the worst
case NaN, and a NaN fails every tolerance.
"""

import math

import numpy as np

from chaoslab import (
    ChaosVector,
    Kernel,
    RademacherModel,
    ValueTable,
    expectation,
    gamma_m,
    integral_table,
    multiply,
    random_kernel,
    tensor_square_residual,
    off_diagonal_defect,
    to_table,
)
from chaoslab.bounds import (
    abstract_bounds,
    hoeffding_decompose,
    kolmogorov_constants,
    rho_squared,
    theorem_bound_kolmogorov,
    theorem_bound_wasserstein,
    wasserstein_constants,
)
from chaoslab.construct import (
    inhomogeneous_counterexample,
    matched_pairs_kernel,
    order_one_identity_check,
    symmetric_counterexample,
)
from chaoslab.distance import (
    exact_distribution,
    kolmogorov_to_normal,
    wasserstein_to_normal,
)
from chaoslab.malliavin import (
    d,
    gamma,
    gamma0,
    gradient_process,
    ou_generator_pathwise,
    ou_generator_spectral,
    skorohod,
)
from chaoslab.moments import (
    fourth_moment_factorized,
    fourth_moment_symmetric,
    kolmogorov_term,
    kolmogorov_term_bound,
    moment,
    quartic_gradient_bound,
    quartic_gradient_identity,
    var_gamma_normalized,
    var_projection_sum,
)
from chaoslab.verify import _worst
from conftest import tensor_top_kernel

# reference values confirmed against 40-digit evaluations
C1_1 = 1.3989422804014326779
C2_1 = 3.0136793263309343851


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _kernel_gap(a: Kernel, b: Kernel) -> float:
    keys = set(a.coeffs) | set(b.coeffs)
    return _worst(abs(a.value(k) - b.value(k)) for k in keys)


def _chaos_gap(a: ChaosVector, b: ChaosVector) -> float:
    orders = range(max(a.top_order, b.top_order) + 1)
    return _worst(_kernel_gap(a.kernel(r), b.kernel(r)) for r in orders)


def test_criterion_1_constants():
    exact = (
        gamma_m(1) == 2.0 and gamma_m(2) == 72.0 and gamma_m(3) == 7920.0
    )
    c1, c2 = wasserstein_constants(1)
    k1, k2, _, _ = kolmogorov_constants(1)
    gap = _worst(
        (abs(c1 - C1_1), abs(c2 - C2_1), abs(k1 - 1.5), abs(k2 - 0.5))
    )
    _report(
        "1-constants",
        exact and gap <= 1e-12,
        f"gamma exact={exact}, constant gap={gap:.2e}",
    )


def test_criterion_2_tuned_product_family():
    var_gaps, fourth_gaps = [], []
    dk1 = None
    for m in (1, 2, 3):
        model, kern = inhomogeneous_counterexample(m, "+")
        t = integral_table(kern, model)
        var_gaps.append(abs(moment(t, 2, model) - 1.0))
        fourth_gaps.append(abs(moment(t, 4, model) - 3.0))
        if m == 1:
            dk1 = kolmogorov_to_normal(exact_distribution(t, model))
    worst_var, worst_fourth = _worst(var_gaps), _worst(fourth_gaps)
    ok = worst_var <= 1e-10 and worst_fourth <= 1e-10 and dk1 >= 0.1
    _report(
        "2-counterexample-family",
        ok,
        f"|var-1|={worst_var:.2e}, |E4-3|={worst_fourth:.2e}, dK(m=1)={dk1:.4f}",
    )


def test_criterion_3_sphere_construction():
    kern, trace = symmetric_counterexample(2, 4, bisection_tol=1e-12)
    model = RademacherModel.symmetric(4)
    t = integral_table(kern, model)
    e_high = abs(trace.endpoint_high - 14.0 / 3.0)
    e_low = abs(trace.endpoint_low - 7.0 / 3.0)
    var_gap = abs(moment(t, 2, model) - 1.0)
    fourth_gap = abs(moment(t, 4, model) - 3.0)
    dk = kolmogorov_to_normal(exact_distribution(t, model))
    ok = (
        e_high <= 1e-12
        and e_low <= 1e-12
        and fourth_gap <= 1e-10
        and var_gap <= 1e-10
        and dk >= 0.26  # oracle-recorded floor (measured 0.26276)
    )
    _report(
        "3-sphere-construction",
        ok,
        f"endpoints=({e_low:.1e},{e_high:.1e}), |E4-3|={fourth_gap:.2e}, dK={dk:.5f}",
    )


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(20250810)
    terms: dict[str, list[float]] = {}

    def track(key, value):
        terms.setdefault(key, []).append(value)

    for trial in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(max(m + 1, 4), 11))
        model = RademacherModel(tuple(rng.uniform(0.1, 0.9, n)))
        f = random_kernel(m, n, rng, normalized=True)
        F = ChaosVector.from_kernel(f)
        tF = to_table(F, model)

        # pointwise pathwise/spectral field agreement
        g = gamma(F, F, model)
        g0 = gamma0(tF, tF, model)
        scale = 1.0 + tF.max_abs() ** 2
        track("gamma_pointwise", float(np.abs(g.values - g0.values).max()) / scale)

        # adjoint identity for a random table against a random chaos element
        H = ValueTable(n, rng.standard_normal(2**n))
        G = ChaosVector(
            n,
            (
                Kernel(0, n, {}),
                random_kernel(1, n, rng),
                random_kernel(2, n, rng),
            ),
        )
        tG = to_table(G, model)
        lg = ou_generator_pathwise(tG, model)
        lhs = expectation(H * lg, model)
        rhs = -expectation(gamma0(H, tG, model), model)
        track("adjoint_rel", abs(lhs - rhs) / (1.0 + abs(rhs)))

        # divergence of the gradient
        track(
            "divergence_of_gradient",
            _chaos_gap(
                skorohod(gradient_process(G), model),
                ou_generator_spectral(G).scale(-1.0),
            ),
        )

        # divergence isometry on a random process
        u = [
            ChaosVector(
                n,
                (
                    Kernel(0, n, {(): float(rng.standard_normal())}),
                    random_kernel(1, n, rng),
                ),
            )
            for _ in range(n)
        ]
        ut = [to_table(c, model) for c in u]
        t_du = to_table(skorohod(u, model), model)
        iso_lhs = moment(t_du, 2, model)
        iso_rhs = sum(expectation(t * t, model) for t in ut)
        for k in range(n):
            for l in range(n):
                term = expectation(d(ut[l], k, model) * d(ut[k], l, model), model)
                iso_rhs += term if k != l else -term
        track("skorohod_isometry_rel", abs(iso_lhs - iso_rhs) / (1.0 + abs(iso_rhs)))

        # second-moment isometry of multiple integrals
        g2 = random_kernel(m, n, rng)
        t2 = integral_table(g2, model)
        iso = expectation(tF * t2, model)
        ref = math.factorial(m) * f.inner(g2)
        track("integral_isometry", abs(iso - ref) / (1.0 + abs(ref)))

        # top kernel of a product
        fa = random_kernel(1, n, rng)
        fb = random_kernel(min(2, n - 1), n, rng)
        prod = multiply(ChaosVector.from_kernel(fa), ChaosVector.from_kernel(fb), model)
        track(
            "product_top_kernel",
            _kernel_gap(prod.kernel(fa.order + fb.order), tensor_top_kernel(fa, fb)),
        )

        # quartic gradient identity and bound
        q_lhs, q_rhs = quartic_gradient_identity(F, model)
        track("quartic_identity_rel", abs(q_lhs - q_rhs) / (1.0 + abs(q_lhs)))
        track("quartic_bound_slack", q_lhs - quartic_gradient_bound(F, model))

        # spectral identity for the field variance, and its bound
        vg = var_gamma_normalized(F, model)
        track("field_variance_identity", abs(vg.value - vg.spectral))
        track("field_variance_bound_slack", vg.value - vg.upper_bound)

        # projection-variance bound
        pv = var_projection_sum(F, model)
        track("projection_bound_slack", pv.total - pv.upper_bound)

        # tensor square residual sign and the off-diagonal defect bound
        resid = tensor_square_residual(f)
        track("tensor_residual_slack", -resid if m > 1 else abs(resid))
        track(
            "defect_bound_slack",
            off_diagonal_defect(f)
            - gamma_m(m) * math.factorial(m) * f.norm_sq() * f.sup_influence(),
        )

        # field moment inequalities
        fourth = moment(tF, 4, model)
        track(
            "field_square_moment_slack",
            expectation(g * g, model) / m**2 - fourth,
        )
        track(
            "field_cross_moment_slack",
            expectation(tF * tF * g, model) / m - fourth,
        )

        # indicator pairing term and bound
        kt = kolmogorov_term(F, model)
        track("indicator_nonneg", -kt)
        track("indicator_bound_slack", kt - kolmogorov_term_bound(F, model))

    limits = {
        "gamma_pointwise": 1e-10,
        "adjoint_rel": 1e-10,
        "divergence_of_gradient": 1e-10,
        "skorohod_isometry_rel": 1e-9,
        "integral_isometry": 1e-10,
        "product_top_kernel": 1e-10,
        "quartic_identity_rel": 1e-9,
        "field_variance_identity": 1e-10,
        "quartic_bound_slack": 1e-10,
        "field_variance_bound_slack": 1e-10,
        "projection_bound_slack": 1e-10,
        "tensor_residual_slack": 1e-10,
        "defect_bound_slack": 1e-10,
        "field_square_moment_slack": 1e-10,
        "field_cross_moment_slack": 1e-10,
        "indicator_nonneg": 1e-10,
        "indicator_bound_slack": 1e-10,
    }
    worst = {k: _worst(v) for k, v in terms.items()}
    violations = {k: v for k, v in worst.items() if not v <= limits[k]}
    detail = ", ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
    _report("4-identity-suite", not violations, detail)


def test_criterion_5_bound_validity():
    rng = np.random.default_rng(20250811)
    slacks, kb1_slacks = [], []
    for trial in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(max(m + 1, 4), 13))
        model = RademacherModel(tuple(rng.uniform(0.1, 0.9, n)))
        F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
        rw = theorem_bound_wasserstein(F, model)
        rk = theorem_bound_kolmogorov(F, model)
        slacks += [rw.slack, rk.slack]
        kb1 = abstract_bounds(F, model)["kolmogorov_line1"]
        kb1_slacks.append(kb1 - rk.exact_distance)
    # np.min keeps a NaN slack, which then fails ">= 0"
    worst_slack, worst_kb1 = float(np.min(slacks)), float(np.min(kb1_slacks))
    ok = worst_slack >= 0.0 and worst_kb1 >= 0.0
    _report(
        "5-bound-validity",
        ok,
        f"min theorem slack={worst_slack:.4f}, min abstract slack={worst_kb1:.4f}",
    )


def test_criterion_6_order_one_mechanism():
    rng = np.random.default_rng(20250812)
    gaps = []
    for _ in range(50):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(0.1, 0.9))
        model = RademacherModel.homogeneous(p, n)
        f = random_kernel(1, n, rng, normalized=True)
        lhs, rhs = order_one_identity_check(f, model)
        gaps.append(abs(lhs - rhs))
    worst = _worst(gaps)
    # deterministic spread-out sequence: fourth moment tends to 3 and the
    # law smooths out; thresholds fixed by an enumeration run of this module
    dks = []
    for n in (8, 12, 16):
        model = RademacherModel.symmetric(n)
        f = Kernel(1, n, {(j,): math.sqrt(j + 1.0) for j in range(n)}).normalized()
        t = integral_table(f, model)
        dks.append(kolmogorov_to_normal(exact_distribution(t, model)))
    ok = worst <= 1e-10 and dks[0] > dks[1] > dks[2] and dks[2] < 0.05
    _report(
        "6-order-one-mechanism",
        ok,
        f"identity gap={worst:.2e}, dK={[round(v, 5) for v in dks]}",
    )


def test_criterion_7_convergence_experiment():
    rows = []
    for n in (6, 10, 14):
        kern, model = matched_pairs_kernel(n)
        t = integral_table(kern, model)
        rows.append(
            (
                n,
                abs(moment(t, 4, model) - 3.0),
                kern.sup_influence(),
                wasserstein_to_normal(exact_distribution(t, model)),
            )
        )
    fourth_dec = rows[0][1] > rows[1][1] > rows[2][1]
    inf_dec = rows[0][2] > rows[1][2] > rows[2][2]
    dw_dec = rows[0][3] > rows[1][3] > rows[2][3]
    detail = "; ".join(
        f"n={n}: |E4-3|={e:.4f}, supInf={i:.4f}, dW={w:.4f}" for n, e, i, w in rows
    )
    _report("7-convergence", fourth_dec and inf_dec and dw_dec, detail)


def test_criterion_8_dual_engines():
    rng = np.random.default_rng(20250813)
    gaps, sym_gaps = [], []
    for trial in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(max(m + 1, 4), 11))
        symmetric = trial % 2 == 0
        model = (
            RademacherModel.symmetric(n)
            if symmetric
            else RademacherModel(tuple(rng.uniform(0.1, 0.9, n)))
        )
        density = min(1.0, 40.0 / math.comb(n, m))
        f = random_kernel(m, n, rng, normalized=True, density=density)
        t = integral_table(f, model)
        e_enum = moment(t, 4, model)
        e_fact = fourth_moment_factorized(f.to_subset_coeffs(), model)
        gaps.append(abs(e_enum - e_fact) / abs(e_enum))
        if symmetric:
            e_sym = fourth_moment_symmetric(f.to_subset_coeffs())
            sym_gaps.append(abs(e_enum - e_sym) / abs(e_enum))
    worst, worst_sym = _worst(gaps), _worst(sym_gaps)
    ok = worst <= 1e-9 and worst_sym <= 1e-9
    _report(
        "8-dual-engines",
        ok,
        f"factorized rel gap={worst:.2e}, symmetric rel gap={worst_sym:.2e}",
    )


def test_criterion_9_hoeffding_route():
    rng = np.random.default_rng(20250814)
    comp_gaps, rec_gaps = [], []
    ratios = []
    for _ in range(10):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(max(m + 1, 4), 9))
        model = RademacherModel(tuple(rng.uniform(0.1, 0.9, n)))
        f = random_kernel(m, n, rng, normalized=True)
        W = integral_table(f, model)
        H = hoeffding_decompose(W, model)
        rec_gaps.append(float(np.abs(H.reconstruct().values - W.values).max()))
        a = f.to_subset_coeffs()
        for J in H.components:
            t = H.component(J)
            if len(J) == m:
                y = np.ones(2**n)
                for i in J:
                    y = y * model.y_table(i)
                comp_gaps.append(float(np.abs(t.values - a.get(J, 0.0) * y).max()))
            elif J != ():
                comp_gaps.append(t.max_abs())
        rho2 = rho_squared(H)
        ratios.append(rho2 / (math.factorial(m) ** 2 * f.sup_influence()))
    worst_comp, worst_rec = _worst(comp_gaps), _worst(rec_gaps)
    ok = worst_comp <= 1e-10 and worst_rec <= 1e-9
    _report(
        "9-hoeffding",
        ok,
        f"component gap={worst_comp:.2e}, reconstruction={worst_rec:.2e}, "
        f"rho2/((m!)^2 supInf) in [{min(ratios):.6f}, {max(ratios):.6f}] (reported)",
    )
