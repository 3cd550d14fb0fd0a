import numpy as np
import pytest

from chaoslab import (
    ChaosVector,
    DomainError,
    RademacherModel,
    basis_kernel,
    constant_kernel,
    constant_table,
    expectation,
    integral_table,
    random_kernel,
    to_table,
    variance,
    ValueTable,
)
from chaoslab.malliavin import (
    d,
    d_minus,
    d_plus,
    gamma,
    gamma0,
    gradient_process,
    minus_pseudo_inverse,
    ou_generator_pathwise,
    ou_generator_spectral,
    pseudo_inverse,
    skorohod,
)
from conftest import random_chaos, random_model


class TestGradients:
    def test_constant_has_zero_gradients(self, rng):
        model = random_model(rng, 3)
        t = constant_table(2.0, 3)
        for k in range(3):
            assert d_plus(t, k).max_abs() == 0.0
            assert d_minus(t, k).max_abs() == 0.0
            assert d(t, k, model).max_abs() == 0.0

    def test_gradient_of_normalized_coordinate_is_one(self, rng):
        model = random_model(rng, 4)
        t = ValueTable(4, model.y_table(2))
        assert np.abs(d(t, 2, model).values - 1.0).max() <= 1e-12

    def test_combination_identity(self, rng):
        model = random_model(rng, 5)
        t = ValueTable(5, rng.standard_normal(2**5))
        for k in range(5):
            combo = float(model.sqrt_pq[k]) * (d_plus(t, k) - d_minus(t, k))
            assert np.abs(d(t, k, model).values - combo.values).max() <= 1e-12

    def test_square_identity_pathwise(self, rng):
        t = ValueTable(4, np.asarray(np.random.default_rng(0).standard_normal(16)))
        t2 = t * t
        for k in range(4):
            for op in (d_plus, d_minus):
                dk = op(t, k)
                lhs = op(t2, k)
                rhs = dk * dk + 2.0 * t * dk
                assert np.abs(lhs.values - rhs.values).max() <= 1e-12

    def test_gradient_free_of_its_coordinate(self, rng):
        model = random_model(rng, 5)
        t = ValueTable(5, rng.standard_normal(2**5))
        idx = np.arange(2**5)
        for k in range(5):
            dk = d(t, k, model).values
            assert np.abs(dk[idx ^ (1 << k)] - dk).max() == 0.0

    def test_index_range(self, rng):
        model = random_model(rng, 3)
        with pytest.raises(DomainError):
            d(constant_table(1.0, 3), 3, model)


class TestGenerator:
    def test_constant_maps_to_zero(self, rng):
        model = random_model(rng, 3)
        assert ou_generator_pathwise(constant_table(5.0, 3), model).max_abs() == 0.0

    def test_pure_integral_eigenfunction(self, rng):
        for m in (1, 2, 3):
            model = random_model(rng, 6)
            t = integral_table(random_kernel(m, 6, rng), model)
            lt = ou_generator_pathwise(t, model)
            assert np.abs(lt.values + m * t.values).max() <= 1e-11 * (1 + t.max_abs())

    def test_pathwise_matches_spectral(self, rng):
        model = random_model(rng, 6)
        F = random_chaos(rng, 6, top=3, centered=False)
        lhs = ou_generator_pathwise(to_table(F, model), model)
        rhs = to_table(ou_generator_spectral(F), model)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-11 * (1 + lhs.max_abs())

    def test_result_is_centered(self, rng):
        model = random_model(rng, 6)
        F = random_chaos(rng, 6, top=2, centered=False)
        lt = ou_generator_pathwise(to_table(F, model), model)
        assert expectation(lt, model) == pytest.approx(0.0, abs=1e-11)


class TestPseudoInverse:
    def test_pure_order_scaling(self, rng):
        f = random_kernel(2, 5, rng)
        F = ChaosVector.from_kernel(f)
        assert ou_generator_spectral(F).kernel(2).value(
            min(f.coeffs)
        ) == pytest.approx(-2 * f.value(min(f.coeffs)))
        assert pseudo_inverse(F).kernel(2).value(min(f.coeffs)) == pytest.approx(
            -0.5 * f.value(min(f.coeffs))
        )

    def test_inverse_relations(self, rng):
        F = random_chaos(rng, 5, top=3, centered=True)
        LLinv = ou_generator_spectral(pseudo_inverse(F))
        for r in range(F.top_order + 1):
            for key in set(F.kernel(r).coeffs) | set(LLinv.kernel(r).coeffs):
                assert LLinv.kernel(r).value(key) == pytest.approx(
                    F.kernel(r).value(key), rel=1e-14, abs=1e-14
                )
        G = random_chaos(rng, 5, top=3, centered=False)
        LinvL = pseudo_inverse(ou_generator_spectral(G))
        assert LinvL.kernel(0).is_zero()
        for r in range(1, G.top_order + 1):
            for key in G.kernel(r).coeffs:
                assert LinvL.kernel(r).value(key) == pytest.approx(
                    G.kernel(r).value(key), rel=1e-14
                )

    def test_rejects_non_centered(self, rng):
        F = ChaosVector.constant(1.0, 4)
        for inverse in (pseudo_inverse, minus_pseudo_inverse):
            with pytest.raises(DomainError, match="needs a centered input; mean is 1.0"):
                inverse(F)

    def test_sub_rounding_mean_is_dropped(self, rng):
        from chaoslab import Kernel, random_kernel as rk

        parts = (Kernel(0, 4, {(): 1e-15}), rk(1, 4, rng))
        out = pseudo_inverse(ChaosVector(4, parts))
        assert out.kernel(0).is_zero()


class TestGamma0:
    def test_constants_give_zero(self, rng):
        model = random_model(rng, 3)
        g = gamma0(constant_table(1.0, 3), constant_table(2.0, 3), model)
        assert g.max_abs() == 0.0

    def test_symmetric_model_reduces_to_gradient_inner_product(self, rng):
        model = RademacherModel.symmetric(5)
        a = ValueTable(5, rng.standard_normal(32))
        b = ValueTable(5, rng.standard_normal(32))
        g = gamma0(a, b, model)
        direct = np.zeros(32)
        for k in range(5):
            direct += d(a, k, model).values * d(b, k, model).values
        assert np.abs(g.values - direct).max() <= 1e-12 * (1 + np.abs(direct).max())

    def test_field_mean_is_order_times_variance(self, rng):
        for m in (1, 2, 3):
            model = random_model(rng, 6)
            t = integral_table(random_kernel(m, 6, rng), model)
            g = gamma0(t, t, model)
            assert expectation(g, model) == pytest.approx(
                m * variance(t, model), rel=1e-11
            )


class TestGamma:
    def test_single_coordinate_closed_form(self, rng):
        model = random_model(rng, 3)
        F = ChaosVector.from_kernel(basis_kernel((0,), 3))
        g = gamma(F, F, model)
        want = 1.0 + 0.5 * model.skew[0] * model.y_table(0)
        assert np.abs(g.values - want).max() <= 1e-12

    def test_matches_pathwise_on_random_pairs(self, rng):
        for _ in range(5):
            model = random_model(rng, 6)
            F = random_chaos(rng, 6)
            G = random_chaos(rng, 6)
            tf, tg = to_table(F, model), to_table(G, model)
            gap = np.abs(gamma(F, G, model).values - gamma0(tf, tg, model).values)
            assert gap.max() <= 1e-10 * (1 + tf.max_abs() * tg.max_abs())

    def test_integration_by_parts(self, rng):
        model = random_model(rng, 6)
        F = random_chaos(rng, 6)
        G = random_chaos(rng, 6)
        lhs = expectation(gamma(F, G, model), model)
        tf = to_table(F, model)
        lg = to_table(ou_generator_spectral(G), model)
        assert lhs == pytest.approx(-expectation(tf * lg, model), rel=1e-10, abs=1e-10)

    def test_adjoint_identity_table_domain(self, rng):
        model = random_model(rng, 6)
        H = ValueTable(6, rng.standard_normal(64))
        G = random_chaos(rng, 6)
        tg = to_table(G, model)
        lg = ou_generator_pathwise(tg, model)
        lhs = expectation(H * lg, model)
        rhs = -expectation(gamma0(H, tg, model), model)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_covariance_representation(self, rng):
        model = random_model(rng, 6)
        F = random_chaos(rng, 6, centered=False)
        G = random_chaos(rng, 6, centered=False)
        tf, tg = to_table(F, model), to_table(G, model)
        cov = expectation(tf * tg, model) - expectation(tf, model) * expectation(
            tg, model
        )
        centered = F.map_kernels(lambda r, k: k.scale(0.0) if r == 0 else k)
        rhs = -expectation(gamma(G, pseudo_inverse(centered), model), model)
        assert cov == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestSkorohod:
    def test_deterministic_coefficient_process(self, rng):
        model = random_model(rng, 4)
        f = random_kernel(1, 4, rng)
        u = [
            ChaosVector(4, (constant_kernel(f.value((k,)), 4),)) for k in range(4)
        ]
        out = skorohod(u, model)
        assert out.top_order == 1
        for k in range(4):
            assert out.kernel(1).value((k,)) == pytest.approx(f.value((k,)))

    def test_divergence_of_gradient_is_negative_generator(self, rng):
        model = random_model(rng, 5)
        F = random_chaos(rng, 5, top=3)
        lhs = skorohod(gradient_process(F), model)
        rhs = ou_generator_spectral(F).scale(-1.0)
        for r in range(max(lhs.top_order, rhs.top_order) + 1):
            keys = set(lhs.kernel(r).coeffs) | set(rhs.kernel(r).coeffs)
            for key in keys:
                assert lhs.kernel(r).value(key) == pytest.approx(
                    rhs.kernel(r).value(key), rel=1e-12, abs=1e-12
                )

    def test_duality_pairing(self, rng):
        for _ in range(5):
            model = random_model(rng, 5)
            F = random_chaos(rng, 5, centered=False)
            u = [random_chaos(rng, 5, centered=False) for _ in range(5)]
            tf = to_table(F, model)
            lhs = expectation(tf * to_table(skorohod(u, model), model), model)
            rhs = sum(
                expectation(d(tf, k, model) * to_table(u[k], model), model)
                for k in range(5)
            )
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_isometry(self, rng):
        for _ in range(5):
            n = 5
            model = random_model(rng, n)
            u = [random_chaos(rng, n, centered=False) for _ in range(n)]
            ut = [to_table(c, model) for c in u]
            t_du = to_table(skorohod(u, model), model)
            lhs = expectation(t_du * t_du, model)
            rhs = sum(expectation(t * t, model) for t in ut)
            for k in range(n):
                for l in range(n):
                    term = expectation(
                        d(ut[l], k, model) * d(ut[k], l, model), model
                    )
                    rhs += term if k != l else -term
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestProductRules:
    def test_gradient_product_rule(self, rng):
        model = random_model(rng, 5)
        F = ValueTable(5, rng.standard_normal(32))
        G = ValueTable(5, rng.standard_normal(32))
        for k in range(5):
            lhs = d(F * G, k, model)
            x = model.signs_table(k)
            rhs = (
                F * d(G, k, model)
                + G * d(F, k, model)
                - ValueTable(5, x / model.sqrt_pq[k]) * d(F, k, model) * d(G, k, model)
            )
            assert np.abs(lhs.values - rhs.values).max() <= 1e-11 * (
                1 + F.max_abs() * G.max_abs()
            )

    def test_one_sided_product_rules(self, rng):
        F = ValueTable(4, rng.standard_normal(16))
        G = ValueTable(4, rng.standard_normal(16))
        for k in range(4):
            for op in (d_plus, d_minus):
                lhs = op(F * G, k)
                rhs = G * op(F, k) + F * op(G, k) + op(F, k) * op(G, k)
                assert np.abs(lhs.values - rhs.values).max() <= 1e-12 * (
                    1 + F.max_abs() * G.max_abs()
                )


def test_minus_pseudo_inverse_of_pure_integral(rng):
    f = random_kernel(2, 5, rng)
    F = ChaosVector.from_kernel(f)
    got = minus_pseudo_inverse(F)
    for key in f.coeffs:
        assert got.kernel(2).value(key) == pytest.approx(0.5 * f.value(key))
