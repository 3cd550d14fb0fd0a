import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    CapacityError,
    Caps,
    ChaosVector,
    DomainError,
    Kernel,
    RademacherModel,
    ValueTable,
    basis_coefficients,
    basis_kernel,
    basis_synthesis,
    conditional_expectation,
    constant_kernel,
    constant_table,
    expectation,
    integral_table,
    multiply,
    ou_semigroup,
    project,
    random_kernel,
    stroock_decompose,
    symmetrized_tensor,
    to_table,
    variance,
)
from chaoslab.bounds import abstract_bounds, hoeffding_decompose
from chaoslab.chaos import _ROTATE_FROM
from chaoslab.malliavin import (
    d,
    d_minus,
    d_plus,
    gamma,
    gamma0,
    ou_generator_pathwise,
    shift_minus,
    shift_plus,
)
from chaoslab.moments import kolmogorov_term
from conftest import (
    assert_kernels_close,
    oracle_integral_moment,
    oracle_integral_value,
    oracle_outcomes,
    oracle_stroock_coefficient,
    random_chaos,
    random_model,
)


class TestEvaluateIntegral:
    """The per-outcome oracle against ``integral_table``."""

    def test_order_zero_constant(self):
        model = RademacherModel((0.4, 0.6))
        f = constant_kernel(3.5, 2)
        t = integral_table(f, model)
        for o in oracle_outcomes(model):
            assert oracle_integral_value(f, o, model) == 3.5
            assert t.values[o.index] == 3.5

    def test_symmetric_pair_is_sign_product(self):
        model = RademacherModel.symmetric(2)
        f = Kernel(2, 2, {(0, 1): 0.5})
        t = integral_table(f, model)
        for o in oracle_outcomes(model):
            want = o.signs[0] * o.signs[1]
            assert oracle_integral_value(f, o, model) == pytest.approx(want, rel=1e-15)
            assert t.values[o.index] == pytest.approx(want, rel=1e-15)

    def test_matches_vectorized_table(self, rng):
        model = random_model(rng, 6)
        f = random_kernel(2, 6, rng)
        t = integral_table(f, model)
        for o in oracle_outcomes(model):
            assert oracle_integral_value(f, o, model) == pytest.approx(
                t.values[o.index], rel=1e-12, abs=1e-12
            )

    def test_centered_and_isometric_by_oracle(self, rng):
        model = random_model(rng, 6)
        f = random_kernel(2, 6, rng)
        assert oracle_integral_moment(f, model, 1) == pytest.approx(0.0, abs=1e-10)
        assert oracle_integral_moment(f, model, 2) == pytest.approx(
            f.second_moment(), rel=1e-10
        )

    def test_horizon_mismatch(self, rng):
        model = random_model(rng, 4)
        f = random_kernel(2, 5, rng)
        with pytest.raises(DomainError):
            integral_table(f, model)


class TestIsometry:
    def test_cross_order_orthogonality(self, rng):
        model = random_model(rng, 7)
        f = random_kernel(2, 7, rng)
        g = random_kernel(3, 7, rng)
        prod = integral_table(f, model) * integral_table(g, model)
        assert expectation(prod, model) == pytest.approx(0.0, abs=1e-10)

    def test_same_order_inner_product(self, rng):
        model = random_model(rng, 7)
        f = random_kernel(2, 7, rng)
        g = random_kernel(2, 7, rng)
        lhs = expectation(integral_table(f, model) * integral_table(g, model), model)
        assert lhs == pytest.approx(2 * f.inner(g), rel=1e-10)

    def test_variance_decomposition(self, rng):
        model = random_model(rng, 7)
        F = random_chaos(rng, 7, top=3, centered=False)
        t = to_table(F, model)
        assert variance(t, model) == pytest.approx(F.variance(), rel=1e-10)


class TestToTable:
    def test_constant_vector(self):
        model = RademacherModel((0.3, 0.6))
        t = to_table(ChaosVector.constant(2.0, 2), model)
        assert np.all(t.values == 2.0)

    def test_single_coordinate_is_y_pattern(self, rng):
        model = random_model(rng, 4)
        t = to_table(ChaosVector.from_kernel(basis_kernel((2,), 4)), model)
        assert np.abs(t.values - model.y_table(2)).max() <= 1e-15

    def test_capacity(self, rng):
        model = RademacherModel.symmetric(8)
        F = ChaosVector.constant(1.0, 8)
        with pytest.raises(CapacityError):
            to_table(F, model, Caps(enum_cap=6))


class TestStroock:
    def test_constant_table_gives_order_zero(self, rng):
        model = random_model(rng, 5)
        from chaoslab import constant_table

        dec = stroock_decompose(constant_table(4.2, 5), model)
        assert dec.top_order == 0
        assert dec.kernel(0).value(()) == pytest.approx(4.2, rel=1e-14)

    def test_recovers_kernel_of_pure_integral(self, rng):
        model = random_model(rng, 7)
        f = random_kernel(3, 7, rng)
        dec = stroock_decompose(integral_table(f, model), model)
        assert_kernels_close(dec.kernel(3), f, 1e-10)
        for r in range(dec.top_order + 1):
            if r != 3:
                assert max(
                    (abs(v) for v in dec.kernel(r).coeffs.values()), default=0.0
                ) <= 1e-10

    def test_coefficients_match_outcome_loop_oracle(self, rng):
        model = random_model(rng, 5)
        F = random_chaos(rng, 5, top=2, centered=False)
        t = to_table(F, model)
        dec = stroock_decompose(t, model)
        for subset in [(), (0,), (3,), (1, 4), (0, 2), (0, 1, 2)]:
            want = oracle_stroock_coefficient(
                lambda o: t.values[o.index], model, subset
            ) / math.factorial(len(subset))
            assert dec.kernel(len(subset)).value(subset) == pytest.approx(
                want, abs=1e-12
            )

    def test_roundtrip_reconstruction(self, rng):
        for _ in range(5):
            model = random_model(rng, 8)
            F = random_chaos(rng, 8, top=3, centered=False)
            t = to_table(F, model)
            back = to_table(stroock_decompose(t, model), model)
            assert np.abs(back.values - t.values).max() <= 1e-9

    def test_product_orders_vanish_above_sum(self, rng):
        model = random_model(rng, 6)
        f = random_kernel(2, 6, rng)
        g = random_kernel(1, 6, rng)
        t = integral_table(f, model) * integral_table(g, model)
        dec = stroock_decompose(t, model)
        for r in range(4, dec.top_order + 1):
            assert max(
                (abs(v) for v in dec.kernel(r).coeffs.values()), default=0.0
            ) <= 1e-10

    def test_stroock_cap(self):
        model = RademacherModel.symmetric(4)
        t = integral_table(basis_kernel((0,), 4), model)
        with pytest.raises(CapacityError) as err:
            stroock_decompose(t, model, Caps(stroock_cap=3))
        assert err.value.cap_name == "stroock_cap"


class TestMultiply:
    def test_multiplication_by_one_is_identity(self, rng):
        model = random_model(rng, 5)
        F = random_chaos(rng, 5, top=2, centered=False)
        one = ChaosVector.constant(1.0, 5)
        P = multiply(F, one, model)
        for r in range(F.top_order + 1):
            assert_kernels_close(P.kernel(r), F.kernel(r), 1e-11)

    def test_square_of_single_coordinate_structure_identity(self, rng):
        model = random_model(rng, 3)
        F = ChaosVector.from_kernel(basis_kernel((1,), 3))
        P = multiply(F, F, model)
        assert P.kernel(0).value(()) == pytest.approx(1.0, abs=1e-12)
        assert P.kernel(1).value((1,)) == pytest.approx(model.skew[1], abs=1e-12)
        assert max(
            (abs(v) for v in P.kernel(2).coeffs.values()), default=0.0
        ) <= 1e-12

    def test_top_kernel_matches_symmetrized_tensor(self, rng):
        for _ in range(5):
            model = random_model(rng, 6)
            f = random_kernel(2, 6, rng)
            g = random_kernel(2, 6, rng)
            P = multiply(
                ChaosVector.from_kernel(f), ChaosVector.from_kernel(g), model
            )
            assert_kernels_close(
                P.kernel(4), symmetrized_tensor(f, g).diagonal_free(), 1e-10
            )


class TestProjectAndSemigroup:
    def test_projection_identities(self, rng):
        F = random_chaos(rng, 5, top=3, centered=False)
        pure = project(F, 2)
        assert pure.kernel(2).coeffs == F.kernel(2).coeffs
        assert project(F, 7).kernel(7).is_zero()
        total = project(F, 0)
        for r in range(1, F.top_order + 1):
            total = total + project(F, r)
        for r in range(F.top_order + 1):
            assert_kernels_close(total.kernel(r), F.kernel(r), 0.0)

    def test_time_zero_is_identity(self, rng):
        F = random_chaos(rng, 5)
        G = ou_semigroup(F, 0.0)
        for r in range(F.top_order + 1):
            assert G.kernel(r).coeffs == F.kernel(r).coeffs

    def test_infinite_time_leaves_mean(self, rng):
        F = random_chaos(rng, 5, centered=False)
        G = ou_semigroup(F, 800.0)  # exp(-800) underflows to exactly 0
        assert G.kernel(0).value(()) == F.kernel(0).value(())
        assert all(G.kernel(r).is_zero() for r in range(1, G.top_order + 1))

    @given(st.floats(0, 3), st.floats(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_law(self, s, t):
        F = random_chaos(np.random.default_rng(5), 5, centered=False)
        lhs = ou_semigroup(ou_semigroup(F, s), t)
        rhs = ou_semigroup(F, s + t)
        for r in range(F.top_order + 1):
            assert_kernels_close(lhs.kernel(r), rhs.kernel(r), 1e-12)

    def test_negative_time_rejected(self, rng):
        with pytest.raises(DomainError):
            ou_semigroup(random_chaos(rng, 4), -0.1)


def test_truncation_is_conditional_expectation(rng):
    for _ in range(5):
        model = random_model(rng, 7)
        f = random_kernel(int(rng.integers(1, 4)), 7, rng)
        h = int(rng.integers(1, 8))
        lhs = integral_table(f.truncate(h), model)
        rhs = conditional_expectation(
            integral_table(f, model), model, set(range(h))
        )
        assert np.abs(lhs.values - rhs.values).max() <= 1e-11


# every operation that hands a freshly allocated array to its result table
OWNED_OPERATIONS = {
    "add": lambda F, G, model: F + G,
    "sub": lambda F, G, model: F - G,
    "mul": lambda F, G, model: F * G,
    "mul_scalar": lambda F, G, model: F * 2.0,
    "rmul_scalar": lambda F, G, model: 2.0 * F,
    "abs": lambda F, G, model: F.abs(),
    "conditional_expectation": lambda F, G, model: conditional_expectation(
        F, model, {0}
    ),
    "basis_synthesis": lambda F, G, model: basis_synthesis(
        basis_coefficients(F, model), model
    ),
    "shift_plus": lambda F, G, model: shift_plus(F, 2),
    "shift_minus": lambda F, G, model: shift_minus(F, 0),
    "d_plus": lambda F, G, model: d_plus(F, 0),
    "d_minus": lambda F, G, model: d_minus(F, 2),
    "d": lambda F, G, model: d(F, 1, model),
    "ou_generator_pathwise": lambda F, G, model: ou_generator_pathwise(F, model),
    "gamma0": lambda F, G, model: gamma0(F, G, model),
    "hoeffding_component": lambda F, G, model: hoeffding_decompose(F, model).component(
        (0,)
    ),
}


class TestOwnedTables:
    """Operations hand their freshly allocated result to the table without a
    copy; the result must still be checked, read-only and its own."""

    @pytest.mark.parametrize("name", sorted(OWNED_OPERATIONS))
    def test_result_is_read_only_and_never_aliases_an_input(self, name, rng):
        model = random_model(rng, 3)
        F = ValueTable(3, rng.standard_normal(8))
        G = ValueTable(3, rng.standard_normal(8))
        before = F.values.copy(), G.values.copy()
        out = OWNED_OPERATIONS[name](F, G, model)
        assert isinstance(out, ValueTable)
        assert not out.values.flags.writeable
        with pytest.raises(ValueError):
            out.values[0] = 1.0
        for table, old in zip((F, G), before):
            assert not np.shares_memory(out.values, table.values)
            assert np.array_equal(table.values, old)

    def test_tables_built_from_kernels_are_read_only(self, rng):
        model = random_model(rng, 4)
        F = random_chaos(rng, 4)
        for out in (
            to_table(F, model),
            integral_table(F.kernel(2), model),
            constant_table(1.5, 4),
            gamma(F, F, model),
        ):
            assert not out.values.flags.writeable

    def test_public_constructor_and_synthesis_copy_their_input(self, rng):
        model = random_model(rng, 3)
        raw = rng.standard_normal(8)
        kept = raw.copy()
        table = ValueTable(3, raw)
        synth = basis_synthesis(raw, model)
        assert np.array_equal(raw, kept)
        raw[:] = 0.0
        assert np.array_equal(table.values, kept)
        assert not np.shares_memory(synth.values, raw)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_typed(self):
        T = constant_table(2.0, 3)
        with pytest.raises(DomainError):
            (T * 1e308) * 1e308
        with pytest.raises(DomainError):
            T * math.nan
        with pytest.raises(DomainError):
            basis_synthesis(np.full(8, 1e308), RademacherModel.homogeneous(1e-6, 3))

    def test_integral_table_peaks_below_two_tables(self):
        n = 16
        model = RademacherModel.homogeneous(0.3, n)
        f = random_kernel(2, n, 7)
        integral_table(f, model)  # fill the model's cached coordinate arrays
        tracemalloc.start()
        try:
            table = integral_table(f, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.values.nbytes

    def test_basis_coefficients_peaks_at_its_copy_and_a_half_table(self):
        # the copy it returns plus one half-sized scratch: 1.5 tables, with
        # numpy's operand buffers on top (2.63 tables with three half-sized
        # temporaries per coordinate)
        n = 16
        model = RademacherModel.homogeneous(0.3, n)
        table = integral_table(random_kernel(2, n, 7), model)
        basis_coefficients(table, model)  # fill the model's cached coordinate arrays
        tracemalloc.start()
        try:
            basis_coefficients(table, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * table.values.nbytes

    def test_rotated_synthesis_peaks_at_a_table_and_a_half(self):
        # the rotated path sets the ufunc buffer for synthesis as for
        # analysis: measured 1.52 tables at n = 14 for both calls (2.27
        # with numpy's default buffer)
        n = 14
        assert n >= _ROTATE_FROM
        model = RademacherModel.homogeneous(0.3, n)
        f = random_kernel(2, n, 7)
        table = integral_table(f, model)  # fill the model's cached coordinate arrays
        coeffs = basis_coefficients(table, model)
        for call in (lambda: integral_table(f, model), lambda: basis_synthesis(coeffs, model)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.6 * table.values.nbytes

    def test_self_sorting_transforms_peak_at_two_tables(self):
        # below the rotation the passes alternate between the array and one
        # same-sized buffer, with no half-sized scratch: measured 2.16 tables
        # for integral_table (with the coefficient scatter's temporaries) and
        # 2.02 for basis_coefficients at n = 13
        n = 13
        assert n < _ROTATE_FROM
        model = RademacherModel.homogeneous(0.3, n)
        f = random_kernel(2, n, 7)
        table = integral_table(f, model)  # fill the model's cached coordinate arrays
        for call, tables in ((lambda: integral_table(f, model), 2.25),
                             (lambda: basis_coefficients(table, model), 2.1)):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= tables * table.values.nbytes

    @pytest.mark.parametrize("n", [16, 20])
    @pytest.mark.parametrize("call, tables", [(abstract_bounds, 8.0), (kolmogorov_term, 6.5)])
    def test_operator_terms_peak_at_a_constant_number_of_tables(self, call, tables, n):
        # measured 7.77 and 6.00 tables of 2**16 floats, and 7.52 and 6.00 of
        # 2**20: at n = 16 numpy's fixed ufunc buffers add about 0.25 of a table
        model = RademacherModel.homogeneous(0.3, n)
        F = ChaosVector.from_kernel(random_kernel(2, n, 7, normalized=True))
        call(F, model)  # fill the model's cached weights and coordinate arrays
        tracemalloc.start()
        try:
            call(F, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= tables * 2**n * 8
