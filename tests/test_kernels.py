import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    DomainError,
    Kernel,
    SymmetrizedTensor,
    basis_kernel,
    gamma_m,
    off_diagonal_defect,
    random_kernel,
    symmetrized_tensor,
    tensor_square_residual,
    zero_kernel,
)
from chaoslab.kernels import support_plan
from conftest import (
    oracle_contraction_residual,
    oracle_multiset_norms,
    oracle_tensor_square_norms,
)


class TestValidation:
    def test_rejects_unsorted_subset(self):
        with pytest.raises(DomainError):
            Kernel(2, 4, {(2, 1): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            Kernel(2, 4, {(1, 4): 1.0})

    def test_rejects_wrong_size(self):
        with pytest.raises(DomainError):
            Kernel(2, 4, {(1,): 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DomainError):
            Kernel(2, 4, {(0, 1): bad})
        with pytest.raises(DomainError):
            Kernel.from_subset_coeffs(2, 4, {(0, 1): bad})

    def test_scale_overflow_is_typed(self):
        with pytest.raises(DomainError):
            Kernel(2, 4, {(0, 1): 1e300}).scale(1e300)
        with pytest.raises(DomainError):
            Kernel(1, 2, {(0,): 1e308}).add(Kernel(1, 2, {(0,): 1e308}))

    def test_normalize_overflow_is_typed(self):
        with pytest.raises(DomainError):
            Kernel(2, 4, {(0, 1): 1e200}).normalized()

    def test_hand_built_tensor_keys_are_checked(self):
        with pytest.raises(DomainError):
            SymmetrizedTensor(2, 4, {(3, 1): 1.0}).diagonal_free()

    @pytest.mark.parametrize(
        "key, value",
        [
            ((0.5,), 1.0),
            ((True,), 1.0),
            ((np.float64(1.0),), 1.0),
            (("1",), 1.0),
            ((0,), "2"),
            ((0,), True),
            ((0,), None),
            ((0,), 1j),
            ((0,), 10**400),
        ],
    )
    def test_one_input_rule_rejects_and_names_the_key(self, key, value):
        # int() truncated (0.5,) to (0,) and read (True,) as (1,); float()
        # parsed '2' and read True as 1.0
        builders = (
            lambda c: Kernel(1, 3, c),
            lambda c: Kernel.from_subset_coeffs(1, 3, c),
            support_plan,
        )
        for build in builders:
            with pytest.raises(DomainError, match=re.escape(repr(key))):
                build({key: value})

    def test_input_rule_takes_numpy_integers_and_reals(self):
        k = Kernel(1, 3, {(np.int64(2),): np.float32(0.5), (np.uint8(0),): 3})
        assert k.coeffs == {(2,): 0.5, (0,): 3.0}
        assert all(type(i) is int for key in k.coeffs for i in key)
        assert all(type(v) is float for v in k.coeffs.values())
        # a zero entry is dropped, but its key is still checked
        with pytest.raises(DomainError, match="not an integer"):
            Kernel(1, 3, {(0.0,): 0.0})

    def test_order_zero_is_scalar(self):
        k = Kernel(0, 3, {(): 2.5})
        assert k.value(()) == 2.5
        assert k.norm_sq() == 2.5**2


class TestInfluence:
    def test_order_one_influence_is_square(self):
        f = Kernel(1, 3, {(0,): 0.5, (2,): -1.5})
        assert f.influence(0) == 0.25
        assert f.influence(1) == 0.0
        assert f.influence(2) == 2.25

    @pytest.mark.parametrize("m,n", [(2, 5), (2, 9), (3, 7), (4, 9)])
    def test_head_and_tail_influence_of_spread_kernel(self, m, n):
        # value 1/(m! sqrt(n-m+1)) on {0..m-2, l}: influence at the head
        # coordinates is (m!)^-2 for every n
        value = 1.0 / (math.factorial(m) * math.sqrt(n - m + 1))
        head = tuple(range(m - 1))
        f = Kernel(m, n, {tuple(sorted(head + (l,))): value for l in range(m - 1, n)})
        assert f.influence(0) == pytest.approx(math.factorial(m) ** -2, rel=1e-12)
        assert f.sup_influence() == pytest.approx(math.factorial(m) ** -2, rel=1e-12)
        assert f.influence(n - 1) == pytest.approx(
            math.factorial(m) ** -2 / (n - m + 1), rel=1e-12
        )

    def test_uniform_pairs_on_four(self):
        f = Kernel(2, 4, {J: 1 / math.sqrt(6) for J in
                          [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]})
        assert f.sup_influence() == pytest.approx(0.5, abs=1e-12)

    def test_zero_kernel(self):
        assert zero_kernel(2, 4).sup_influence() == 0.0

    def test_additivity(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(m + 1, 10))
            f = random_kernel(m, n, rng)
            total = sum(f.influence(k) for k in range(n))
            assert total == pytest.approx(
                m * sum(v * v for v in f.coeffs.values()), rel=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            basis_kernel((0, 1), 4).influence(4)


class TestNormsAndConversions:
    def test_norm_sq_counts_orderings(self):
        f = Kernel(2, 3, {(0, 1): 3.0})
        assert f.norm_sq() == 2 * 9.0
        assert f.second_moment() == 4 * 9.0

    def test_subset_coefficient_round_trip(self, rng):
        f = random_kernel(3, 6, rng)
        back = Kernel.from_subset_coeffs(3, 6, f.to_subset_coeffs())
        for key in f.coeffs:
            assert back.value(key) == pytest.approx(f.value(key), rel=1e-15)

    def test_normalized_second_moment(self, rng):
        f = random_kernel(2, 7, rng, normalized=True)
        assert abs(f.second_moment() - 1.0) <= 1e-12

    def test_order_one_chain(self, rng):
        for _ in range(20):
            f = random_kernel(1, int(rng.integers(2, 12)), rng, normalized=True)
            sup = f.sup_influence()
            s4 = sum(v**4 for v in f.coeffs.values())
            assert sup**2 <= s4 + 1e-15
            assert s4 <= sup + 1e-15


class TestTruncation:
    def test_identity_at_full_horizon(self, rng):
        f = random_kernel(2, 6, rng)
        assert f.truncate(6).coeffs == f.coeffs

    def test_zero_below_support(self):
        f = Kernel(2, 6, {(3, 5): 1.0})
        assert f.truncate(3).is_zero()

    def test_monotone_norm(self, rng):
        f = random_kernel(2, 8, rng)
        norms = [f.truncate(h).norm_sq() for h in range(2, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(norms, norms[1:]))
        assert norms[-1] == pytest.approx(f.norm_sq(), rel=1e-15)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, a, b, seed):
        f = random_kernel(2, 8, seed)
        lhs = f.truncate(a).truncate(b)
        rhs = f.truncate(min(a, b))
        assert lhs.coeffs == rhs.coeffs


class TestRandomKernel:
    def test_deterministic(self):
        assert random_kernel(2, 6, 42).coeffs == random_kernel(2, 6, 42).coeffs

    def test_order_equals_horizon_single_coefficient(self):
        f = random_kernel(3, 3, 1)
        assert list(f.coeffs) == [(0, 1, 2)]

    def test_order_above_horizon_rejected(self):
        with pytest.raises(DomainError):
            random_kernel(4, 3, 0)


class TestSymmetrizedTensor:
    def test_same_point_square_is_pure_diagonal(self):
        f = basis_kernel((0,), 2)
        t = symmetrized_tensor(f, f)
        assert t.diagonal_free().is_zero()
        assert t.values == {(0, 0): 1.0}

    def test_disjoint_order_one_pair(self):
        # canonical symmetrization averages the two orderings; only one
        # survives on disjoint supports, hence the factor 1/2
        f = basis_kernel((0,), 3, 2.0)
        g = basis_kernel((1,), 3, 5.0)
        t = symmetrized_tensor(f, g)
        assert t.values[(0, 1)] == pytest.approx(5.0, rel=1e-15)
        assert t.diagonal_free().value((0, 1)) == pytest.approx(5.0)

    def test_matches_tuple_enumeration_oracle(self, rng):
        f = random_kernel(2, 4, rng)
        t = symmetrized_tensor(f, f)
        full, diag = oracle_tensor_square_norms(f, 4)
        t_full, t_diag = oracle_multiset_norms(t)
        assert t_full == pytest.approx(full, rel=1e-12)
        assert t_diag == pytest.approx(diag, rel=1e-12)

    def test_residual_positive_order_two(self, rng):
        for _ in range(10):
            f = random_kernel(2, 6, rng)
            assert tensor_square_residual(f) > 0.0

    def test_residual_vanishes_order_one(self, rng):
        f = random_kernel(1, 6, rng)
        assert abs(tensor_square_residual(f)) <= 1e-12 * (1 + f.norm_sq() ** 2)

    @pytest.mark.parametrize("big", [1e100, 1e80])
    def test_overflowing_coefficient_is_typed(self, big):
        f = Kernel(2, 3, {(0, 1): big, (1, 2): 1.0})
        with pytest.raises(DomainError, match="overflow the fourth moment"):
            tensor_square_residual(f)
        with pytest.raises(DomainError, match="overflow the fourth moment"):
            off_diagonal_defect(f)

    def test_residual_of_one_pair_is_its_contraction(self):
        # a_{01} = 2! f_{01} = 2: the full norm is 2^2 (a^2)^2 = 64, less
        # 2 (a^2)^2 = 32; the contraction f (x)_1 f is 1 at (0, 0) and (1, 1),
        # so (2!)^2 C(2, 1)^2 ||f (x)_1 f||^2 = 4 * 4 * 2 = 32 as well
        f = Kernel(2, 4, {(0, 1): 1.0})
        assert tensor_square_residual(f) == pytest.approx(32.0, rel=1e-14)
        assert oracle_contraction_residual(f, 4) == pytest.approx(32.0, rel=1e-14)

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 5), (2, 6), (3, 5), (4, 5)])
    def test_residual_matches_contraction_sum(self, rng, m, n):
        for _ in range(3):
            f = random_kernel(m, n, rng, density=0.7)
            want = oracle_contraction_residual(f, n)
            scale = 2.0 * f.second_moment() ** 2
            assert abs(tensor_square_residual(f) - want) <= 1e-12 * (1.0 + scale)


class TestOffDiagonalDefect:
    def test_zero_kernel(self):
        assert off_diagonal_defect(zero_kernel(2, 4)) == 0.0

    def test_single_pair_matches_oracle(self):
        f = Kernel(2, 4, {(1, 2): 0.75})
        full, diag = oracle_tensor_square_norms(f, 4)
        assert off_diagonal_defect(f) == pytest.approx(
            math.factorial(4) * diag, rel=1e-12
        )

    def test_influence_bound_order_two(self, rng):
        for _ in range(20):
            f = random_kernel(2, 8, rng)
            lim = gamma_m(2) * 2 * f.norm_sq() * f.sup_influence()
            assert off_diagonal_defect(f) <= lim + 1e-10
