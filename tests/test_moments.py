import math

import numpy as np
import pytest

from chaoslab import (
    DEFAULT_CAPS,
    CapacityError,
    Caps,
    ChaosVector,
    DomainError,
    Kernel,
    RademacherModel,
    basis_kernel,
    integral_table,
    random_kernel,
    to_table,
    zero_kernel,
)
from chaoslab.construct import (
    inhomogeneous_counterexample,
    matched_pairs_kernel,
    product_chaos_sequence,
)
from chaoslab.moments import (
    fourth_moment_factorized,
    fourth_moment_symmetric,
    kolmogorov_term,
    kolmogorov_term_bound,
    moment,
    quartic_gradient_bound,
    quartic_gradient_identity,
    quartic_gradient_sum,
    sup_flip_pairing,
    var_gamma_normalized,
    var_projection_sum,
)
from conftest import random_model


class TestMoment:
    def test_centered_first_moment(self, rng):
        model = random_model(rng, 6)
        t = integral_table(random_kernel(2, 6, rng), model)
        assert moment(t, 1, model) == pytest.approx(0.0, abs=1e-12)

    def test_normalized_second_moment(self, rng):
        model = random_model(rng, 6)
        t = integral_table(random_kernel(2, 6, rng, normalized=True), model)
        assert moment(t, 2, model) == pytest.approx(1.0, rel=1e-10)

    def test_tuned_product_has_fourth_moment_three(self):
        for m in (1, 2, 3):
            model, kern = inhomogeneous_counterexample(m, "+")
            t = integral_table(kern, model)
            assert moment(t, 4, model) == pytest.approx(3.0, abs=1e-10)


class TestFactorizedEngine:
    def test_single_subset_symmetric(self):
        model = RademacherModel.symmetric(4)
        c = 1.7
        assert fourth_moment_factorized({(0, 2): c}, model) == pytest.approx(
            c**4, rel=1e-14
        )

    def test_order_one_lambda_mechanism(self, rng):
        p = 0.65
        model = RademacherModel.homogeneous(p, 6)
        f = random_kernel(1, 6, rng, normalized=True)
        coeffs = f.to_subset_coeffs()
        lam = 1 + (1 - 2 * p) ** 2 / (p * (1 - p))
        got = fourth_moment_factorized(coeffs, model)
        want = 3.0 + (lam - 3.0) * sum(v**4 for v in coeffs.values())
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_enumeration_random(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 11))
            model = random_model(rng, n)
            f = random_kernel(m, n, rng, normalized=True, density=0.5)
            t = integral_table(f, model)
            e1 = moment(t, 4, model)
            e2 = fourth_moment_factorized(f.to_subset_coeffs(), model)
            assert abs(e1 - e2) <= 1e-9 * abs(e1)

    def test_mixed_order_support(self, rng):
        model = random_model(rng, 5)
        coeffs = {(0,): 0.8, (1, 3): -0.5, (0, 2, 4): 0.3}
        F = ChaosVector(
            5,
            (
                zero_kernel(0, 5),
                Kernel.from_subset_coeffs(1, 5, {(0,): 0.8}),
                Kernel.from_subset_coeffs(2, 5, {(1, 3): -0.5}),
                Kernel.from_subset_coeffs(3, 5, {(0, 2, 4): 0.3}),
            ),
        )
        t = to_table(F, model)
        assert fourth_moment_factorized(coeffs, model) == pytest.approx(
            moment(t, 4, model), rel=1e-12
        )

    def test_support_cap(self, rng):
        model = RademacherModel.symmetric(12)
        f = random_kernel(2, 12, rng)
        with pytest.raises(CapacityError) as err:
            fourth_moment_factorized(
                f.to_subset_coeffs(), model, Caps(factorized_support_cap=10)
            )
        assert err.value.cap_name == "factorized_support_cap"

    def test_runs_beyond_the_enumeration_horizon(self, rng):
        # sparse support spread over 100 coordinates; the value must agree
        # with enumeration after compacting the touched coordinates
        n = 100
        model = RademacherModel(tuple(rng.uniform(0.3, 0.7, n)))
        subsets = [(i, i + 50) for i in range(0, 18, 3)]
        coeffs = {s: float(rng.standard_normal()) for s in subsets}
        val = fourth_moment_factorized(coeffs, model)

        touched = sorted({i for s in subsets for i in s})
        relabel = {i: j for j, i in enumerate(touched)}
        small_model = RademacherModel(tuple(model.probs[i] for i in touched))
        small = {tuple(sorted(relabel[i] for i in s)): v for s, v in coeffs.items()}
        f = Kernel.from_subset_coeffs(2, len(touched), small)
        ref = moment(integral_table(f, small_model), 4, small_model)
        assert val == pytest.approx(ref, rel=1e-12)


class TestSymmetricEngine:
    def test_uniform_pairs_on_four(self):
        coeffs = {J: 1 / math.sqrt(6) for J in
                  [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
        assert fourth_moment_symmetric(coeffs) == pytest.approx(14.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_typed(self, bad):
        coeffs = {(0, 1): bad, (1, 2): 1.0}
        with pytest.raises(DomainError):
            fourth_moment_symmetric(coeffs)
        with pytest.raises(DomainError):
            fourth_moment_factorized(coeffs, RademacherModel((0.3, 0.5, 0.7)))

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_first_coordinate_family(self, n):
        coeffs = {(0, j): 1 / math.sqrt(n - 1) for j in range(1, n)}
        assert fourth_moment_symmetric(coeffs) == pytest.approx(
            3.0 - 2.0 / (n - 1), abs=1e-12
        )

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 11))
            model = RademacherModel.symmetric(n)
            f = random_kernel(2, n, rng, normalized=True)
            t = integral_table(f, model)
            assert fourth_moment_symmetric(f.to_subset_coeffs()) == pytest.approx(
                moment(t, 4, model), rel=1e-10
            )


class TestClosedFormsAtScale:
    """The horizon-free engine on hundreds and thousands of coordinates, against
    exact fourth moments.  The bound covers the rounding of the inputs
    1/sqrt(N), at most 4 eps on E[F^4] or about 6 ulps of 3, and the
    rounding of the sums."""

    ULPS = 32

    def assert_within_ulps(self, got: float, want: float):
        assert abs(got - want) <= self.ULPS * math.ulp(want)

    def test_matched_pairs(self):
        # a standardized sum of N = n/2 independent signs: 3 - 2/N
        n = 2000
        kern, _ = matched_pairs_kernel(n)
        self.assert_within_ulps(fourth_moment_symmetric(kern.to_subset_coeffs()), 3.0 - 4.0 / n)

    def test_sign_times_average_star(self):
        # X_0 times the average of n - 1 signs: every pair of subsets overlaps
        n = 400
        kern, _ = product_chaos_sequence(2, n)
        self.assert_within_ulps(
            fourth_moment_symmetric(kern.to_subset_coeffs()), 3.0 - 2.0 / (n - 1)
        )


def test_repeated_index_is_rejected_by_both_engines():
    # (1, 1) is Y_1 * Y_1, not Y_1: collapsing it would report E[Y_1^4]
    with pytest.raises(DomainError):
        fourth_moment_factorized({(1, 1): 1.0}, RademacherModel((0.3, 0.6)))
    with pytest.raises(DomainError):
        fourth_moment_symmetric({(1, 1): 0.6, (): 0.8})


class TestProjectionVariances:
    def test_single_symmetric_coordinate_square_is_constant(self):
        model = RademacherModel.symmetric(3)
        F = ChaosVector.from_kernel(basis_kernel((0,), 3))
        pv = var_projection_sum(F, model)
        assert pv.total == pytest.approx(0.0, abs=1e-12)

    def test_order_one_square_decomposition(self, rng):
        # F^2 of an order-1 integral has projections of orders 1 and 2 only;
        # the order-1 part carries sum f_j^4 (lambda - 1) ... computed here
        # against brute-force projection variances
        p = 0.7
        model = RademacherModel.homogeneous(p, 5)
        f = random_kernel(1, 5, rng, normalized=True)
        F = ChaosVector.from_kernel(f)
        pv = var_projection_sum(F, model)
        lam = 1 + (1 - 2 * p) ** 2 / (p * (1 - p))
        mu3 = (1 - 2 * p) / math.sqrt(p * (1 - p))
        # order-1 kernel of F^2 is f_j^2 mu3 at {j}: variance mu3^2 sum f^4
        want1 = mu3**2 * sum(v**4 for v in f.coeffs.values())
        assert pv.variances[0] == pytest.approx(want1, rel=1e-10, abs=1e-12)

    def test_bound_on_random_kernels(self, rng):
        for _ in range(20):
            model = random_model(rng, 8)
            F = ChaosVector.from_kernel(random_kernel(2, 8, rng, normalized=True))
            pv = var_projection_sum(F, model)
            assert pv.total <= pv.upper_bound + 1e-10

    def test_zero_kernel_above_the_horizon_has_all_orders(self):
        # orders 1..2m-1 exceed the n+1 subset sizes, yet each gets its variance
        model = RademacherModel((1e-6, 0.5, 1.0 - 1e-6))
        pv = var_projection_sum(ChaosVector.from_kernel(zero_kernel(5, 3)), model)
        assert pv.variances == (0.0,) * 9
        assert pv.total == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_field_variance_chain_above_stroock_cap(rng, m):
    # the chain reads energies off the coefficient array, so only enum_cap bounds it
    n = DEFAULT_CAPS.stroock_cap + 1
    model = random_model(rng, n)
    F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
    pv = var_projection_sum(F, model)
    vg = var_gamma_normalized(F, model)
    values = pv.variances + (pv.total, pv.upper_bound, vg.value, vg.spectral, vg.upper_bound)
    assert len(pv.variances) == 2 * m - 1
    assert all(math.isfinite(v) for v in values)
    assert pv.total <= pv.upper_bound + 1e-10
    assert vg.value == pytest.approx(vg.spectral, rel=1e-10, abs=1e-10)
    assert vg.value <= vg.upper_bound + 1e-10


class TestSquaredFieldVariance:
    def test_pure_sign_product_has_constant_field(self):
        model = RademacherModel.symmetric(4)
        F = ChaosVector.from_kernel(Kernel(2, 4, {(0, 1): 0.5}))
        vg = var_gamma_normalized(F, model)
        assert vg.value == pytest.approx(0.0, abs=1e-12)

    def test_spectral_identity(self, rng):
        for _ in range(10):
            model = random_model(rng, 8)
            F = ChaosVector.from_kernel(random_kernel(2, 8, rng, normalized=True))
            vg = var_gamma_normalized(F, model)
            assert vg.value == pytest.approx(vg.spectral, rel=1e-10, abs=1e-10)
            assert vg.value <= vg.upper_bound + 1e-10

    def test_zero_kernel(self):
        model = RademacherModel.symmetric(4)
        F = ChaosVector.from_kernel(zero_kernel(2, 4))
        assert var_gamma_normalized(F, model).value == pytest.approx(0.0, abs=1e-15)


class TestQuarticGradient:
    def test_single_index_order_one(self, rng):
        # D_0 F is the constant f(0); the sum reduces in closed form
        model = RademacherModel.symmetric(3)
        F = ChaosVector.from_kernel(basis_kernel((0,), 3, 0.9))
        got = quartic_gradient_sum(F, model)
        assert got == pytest.approx(0.9**4 / (2 * 0.25), rel=1e-12)

    def test_identity_on_random_instances(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 9))
            model = random_model(rng, n)
            F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
            lhs, rhs = quartic_gradient_identity(F, model)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
            assert lhs <= quartic_gradient_bound(F, model) + 1e-10

    def test_zero_kernel(self):
        model = RademacherModel.symmetric(4)
        F = ChaosVector.from_kernel(zero_kernel(2, 4))
        assert quartic_gradient_sum(F, model) == 0.0


class TestKolmogorovTerm:
    def test_two_coordinate_sign_product_by_hand(self):
        # F = X0 X1 fair: D_0 F = X1, u_0 = 2 X1; crossing at x = -1 pairs
        # everything perfectly, giving 1/m * 2 * E[X1^2] / 2 = 1
        model = RademacherModel.symmetric(2)
        F = ChaosVector.from_kernel(Kernel(2, 2, {(0, 1): 0.5}))
        assert kolmogorov_term(F, model) == pytest.approx(1.0, abs=1e-12)

    def test_nonnegative_and_bounded(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 9))
            model = random_model(rng, n)
            F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
            term = kolmogorov_term(F, model)
            assert term >= -1e-12
            assert term <= kolmogorov_term_bound(F, model) + 1e-10


class TestSupFlipPairing:
    def test_horizon_mismatch_is_a_domain_error(self, rng):
        model = random_model(rng, 4)
        small = integral_table(random_kernel(2, 3, rng), random_model(rng, 3))
        with pytest.raises(DomainError, match="horizon"):
            sup_flip_pairing(small, [np.ones(16)] * 4, model)

    @pytest.mark.parametrize("size", [8, 32])
    def test_short_or_long_weighting_table_is_a_domain_error(self, rng, size):
        model = random_model(rng, 4)
        t = integral_table(random_kernel(2, 4, rng), model)
        tables = [np.ones(16), np.ones(size), np.ones(16), np.ones(16)]
        with pytest.raises(DomainError, match="weighting table 1"):
            sup_flip_pairing(t, tables, model)

    @pytest.mark.parametrize("count", [3, 5])
    def test_wrong_number_of_tables_is_a_domain_error(self, rng, count):
        model = random_model(rng, 4)
        t = integral_table(random_kernel(2, 4, rng), model)
        with pytest.raises(DomainError, match="one weighting table per coordinate"):
            sup_flip_pairing(t, (np.ones(16) for _ in range(count)), model)

    def test_constant_table_has_one_level_and_zero_sup(self, rng):
        model = random_model(rng, 3)
        t = integral_table(zero_kernel(2, 3), model)
        assert sup_flip_pairing(t, [rng.standard_normal(8) for _ in range(3)], model) == 0.0


class TestLemmaChainInequalities:
    def test_field_moment_inequalities(self, rng):
        from chaoslab.malliavin import gamma
        from chaoslab import expectation

        for _ in range(10):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 9))
            model = random_model(rng, n)
            F = ChaosVector.from_kernel(random_kernel(m, n, rng, normalized=True))
            t = to_table(F, model)
            g = gamma(F, F, model)
            fourth = moment(t, 4, model)
            assert expectation(g * g, model) / m**2 <= fourth + 1e-10
            assert expectation(t * t * g, model) / m <= fourth + 1e-10
