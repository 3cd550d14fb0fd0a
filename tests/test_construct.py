import math

import numpy as np
import pytest

from chaoslab import (
    ChaosVector,
    DomainError,
    RademacherModel,
    integral_table,
    y_moment,
)
from chaoslab.bounds import theorem_bound_kolmogorov, theorem_bound_wasserstein
from chaoslab.construct import (
    first_coordinate_point,
    g_value,
    inhomogeneous_counterexample,
    matched_pairs_kernel,
    order_one_identity_check,
    product_chaos_sequence,
    symmetric_counterexample,
    uniform_sphere_point,
)
from chaoslab.distance import exact_distribution, kolmogorov_to_normal
from chaoslab.kernels import SupportPlan, random_kernel
from chaoslab.moments import moment
from conftest import oracle_symmetric_counterexample

# exact laws recorded from enumeration runs of this module's constructions
DK_TUNED_M1_FLOOR = 0.48  # measured 0.48632 for the order-1 tuned product
DK_SPHERE_M2_N4_FLOOR = 0.26  # measured 0.26276 for the bisection kernel


class TestTunedProduct:
    def test_order_one_probability(self):
        model, _ = inhomogeneous_counterexample(1, "+")
        assert model.probs[0] == pytest.approx(0.5 + 0.5 / math.sqrt(3), rel=1e-12)
        model, _ = inhomogeneous_counterexample(1, "-")
        assert model.probs[0] == pytest.approx(0.5 - 0.5 / math.sqrt(3), rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_per_factor_fourth_moment(self, m):
        model, _ = inhomogeneous_counterexample(m, "+")
        assert y_moment(model.probs[0], 4) == pytest.approx(
            3.0 ** (1.0 / m), rel=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_exact_moments_and_atom_count(self, m, sign):
        model, kern = inhomogeneous_counterexample(m, sign)
        t = integral_table(kern, model)
        assert abs(moment(t, 2, model) - 1.0) <= 1e-10
        assert abs(moment(t, 4, model) - 3.0) <= 1e-10
        law = exact_distribution(t, model)
        assert len(law.atoms) <= 2**m
        if m == 1:
            assert len(law.atoms) == 2
        assert kolmogorov_to_normal(law) > 0.0

    def test_order_one_floor(self):
        model, kern = inhomogeneous_counterexample(1, "+")
        law = exact_distribution(integral_table(kern, model), model)
        assert kolmogorov_to_normal(law) >= DK_TUNED_M1_FLOOR

    def test_validation(self):
        with pytest.raises(DomainError):
            inhomogeneous_counterexample(0, "+")
        with pytest.raises(DomainError):
            inhomogeneous_counterexample(2, "x")


class TestQuadrupleSum:
    def test_uniform_point_value_on_four(self):
        assert g_value(uniform_sphere_point(2, 4)) == pytest.approx(
            14.0 / 3.0, abs=1e-12
        )

    def test_first_coordinate_value_on_four(self):
        assert g_value(first_coordinate_point(2, 4)) == pytest.approx(
            7.0 / 3.0, abs=1e-12
        )

    def test_permutation_invariance(self, rng):
        a = {k: v for k, v in uniform_sphere_point(2, 5).items()}
        # swap coordinates 0 <-> 4 in every subset
        perm = {0: 4, 4: 0, 1: 1, 2: 2, 3: 3}
        b = {tuple(sorted(perm[i] for i in k)): v for k, v in a.items()}
        assert g_value(a) == pytest.approx(g_value(b), rel=1e-12)

    def test_off_sphere_rejected(self):
        with pytest.raises(DomainError):
            g_value({(0, 1): 1.0, (0, 2): 1.0})

    def test_plan_of_a_wider_support_gives_the_same_value(self):
        # the first-coordinate point is zero on most of the uniform support
        n = 9
        c, b = first_coordinate_point(2, n), uniform_sphere_point(2, n)
        plan = SupportPlan(b)
        for point in (c, b):
            values = np.array([point.get(key, 0.0) for key in plan.keys])
            assert plan.fourth_moment(values) == g_value(point)


class TestSphereBisection:
    def test_order_two_horizon_four(self):
        kern, trace = symmetric_counterexample(2, 4)
        assert trace.endpoint_high == pytest.approx(14.0 / 3.0, abs=1e-12)
        assert trace.endpoint_low == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert abs(trace.residual) <= 1e-12
        assert trace.iterations <= 60
        model = RademacherModel.symmetric(4)
        t = integral_table(kern, model)
        assert abs(moment(t, 2, model) - 1.0) <= 1e-10
        assert abs(moment(t, 4, model) - 3.0) <= 1e-10
        dk = kolmogorov_to_normal(exact_distribution(t, model))
        assert dk >= DK_SPHERE_M2_N4_FLOOR

    def test_one_plan_serves_every_step(self, monkeypatch):
        built = []
        init = SupportPlan.__init__

        def counted(self, keys, skew=None):
            built.append(len(tuple(keys)))
            init(self, keys, skew)

        monkeypatch.setattr(SupportPlan, "__init__", counted)
        kern, trace = symmetric_counterexample(2, 16)
        assert built == [120]  # the union support: all C(16, 2) subsets
        assert trace.iterations > 30
        assert abs(trace.residual) <= 1e-12

    @pytest.mark.parametrize("m, n", [(2, 4), (2, 5), (2, 16), (2, 40), (3, 12)])
    def test_matches_the_dictionary_bisection_bit_for_bit(self, m, n):
        kern, trace = symmetric_counterexample(m, n)
        coeffs, theta, residual, iterations, brackets, low, high = oracle_symmetric_counterexample(m, n)
        assert trace.theta.hex() == theta.hex()
        assert trace.residual.hex() == residual.hex()
        assert trace.iterations == iterations
        assert trace.brackets == tuple(brackets)
        assert (trace.endpoint_low.hex(), trace.endpoint_high.hex()) == (low.hex(), high.hex())
        assert list(kern.coeffs) == list(coeffs)
        assert [v.hex() for v in kern.coeffs.values()] == [v.hex() for v in coeffs.values()]
        if (m, n) == (2, 16):
            assert (trace.theta, trace.iterations) == (0.08099968043643457, 39)

    def test_brackets_shrink_strictly(self):
        _, trace = symmetric_counterexample(2, 4)
        widths = [hi - lo for lo, hi in trace.brackets]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("m", [3, 4])
    def test_lift_preserves_moments(self, m):
        kern, _ = symmetric_counterexample(m, 4)
        assert kern.order == m
        assert kern.horizon == 4 + m - 2
        model = RademacherModel.symmetric(kern.horizon)
        t = integral_table(kern, model)
        assert abs(moment(t, 2, model) - 1.0) <= 1e-10
        assert abs(moment(t, 4, model) - 3.0) <= 1e-10

    def test_small_horizon_rejected(self):
        with pytest.raises(DomainError, match="n >= 4"):
            symmetric_counterexample(2, 3)

    def test_order_one_rejected(self):
        with pytest.raises(DomainError):
            symmetric_counterexample(1, 4)

    def test_tolerance_must_be_finite_and_positive(self):
        for tol in (math.nan, math.inf, 0.0, -1e-12):
            with pytest.raises(DomainError, match="tolerance must be finite and positive"):
                symmetric_counterexample(2, 4, tol)

    def test_unreachable_tolerance_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"tolerance 1e-300 .*last residual"):
            symmetric_counterexample(2, 6, 1e-300)

    def test_endpoints_that_do_not_bracket_are_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(SupportPlan, "fourth_moment", lambda self, values: 3.0)
        with pytest.raises(DomainError, match=r"do not bracket g = 3 \(tolerance 1e-12\)"):
            symmetric_counterexample(2, 4)

    def test_bound_still_dominates_constructed_law(self):
        kern, _ = symmetric_counterexample(2, 4)
        model = RademacherModel.symmetric(4)
        F = ChaosVector.from_kernel(kern)
        assert theorem_bound_wasserstein(F, model).slack >= 0.0
        assert theorem_bound_kolmogorov(F, model).slack >= 0.0


class TestBoundedInfluenceFamily:
    def test_moment_formula_m2(self):
        kern, model = product_chaos_sequence(2, 12)
        t = integral_table(kern, model)
        assert moment(t, 2, model) == pytest.approx(1.0, rel=1e-12)
        assert moment(t, 4, model) == pytest.approx(3.0 - 2.0 / 11.0, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_sup_influence_constant(self, n):
        kern, _ = product_chaos_sequence(2, n)
        assert kern.sup_influence() == pytest.approx(0.25, rel=1e-12)

    def test_higher_order_influence(self):
        kern, _ = product_chaos_sequence(3, 9)
        assert kern.sup_influence() == pytest.approx(1.0 / 36.0, rel=1e-12)

    def test_distance_decreases_despite_constant_influence(self):
        dks = []
        for n in (8, 12, 16):
            kern, model = product_chaos_sequence(2, n)
            t = integral_table(kern, model)
            dks.append(kolmogorov_to_normal(exact_distribution(t, model)))
        assert dks[0] > dks[1] > dks[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            product_chaos_sequence(2, 1)
        with pytest.raises(DomainError):
            product_chaos_sequence(1, 5)


class TestOrderOneMechanism:
    def test_symmetric_model_negative_excess(self, rng):
        model = RademacherModel.symmetric(6)
        f = random_kernel(1, 6, rng, normalized=True)
        lhs, rhs = order_one_identity_check(f, model)
        s4 = sum(v**4 for v in f.coeffs.values())
        assert lhs == pytest.approx(-2.0 * s4, abs=1e-10)
        assert rhs == pytest.approx(-2.0 * s4, rel=1e-12)

    def test_lambda_three_boundary_gives_three(self, rng):
        p = 0.5 + 0.5 / math.sqrt(3)
        model = RademacherModel.homogeneous(p, 6)
        for _ in range(5):
            f = random_kernel(1, 6, rng, normalized=True)
            lhs, _ = order_one_identity_check(f, model)
            assert abs(lhs) <= 1e-10

    def test_single_index_fourth_moment_is_lambda(self, rng):
        p = 0.37
        model = RademacherModel.homogeneous(p, 3)
        f = __import__("chaoslab").basis_kernel((1,), 3)
        t = integral_table(f, model)
        assert moment(t, 4, model) == pytest.approx(y_moment(p, 4), rel=1e-12)

    def test_identity_on_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            p = float(rng.uniform(0.1, 0.9))
            model = RademacherModel.homogeneous(p, n)
            f = random_kernel(1, n, rng, normalized=True)
            lhs, rhs = order_one_identity_check(f, model)
            assert abs(lhs - rhs) <= 1e-10


class TestMatchedPairs:
    def test_unit_variance_and_moment(self):
        kern, model = matched_pairs_kernel(10)
        t = integral_table(kern, model)
        assert moment(t, 2, model) == pytest.approx(1.0, rel=1e-12)
        assert moment(t, 4, model) == pytest.approx(3.0 - 4.0 / 10.0, rel=1e-12)

    def test_odd_horizon_rejected(self):
        with pytest.raises(DomainError):
            matched_pairs_kernel(7)
