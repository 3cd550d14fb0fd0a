import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoslab import (
    CapacityError,
    Caps,
    DomainError,
    RademacherModel,
    enumerate_outcomes,
    normalized_value,
    sample,
    sample_y_matrix,
    y_moment,
)

probs = st.floats(min_value=0.01, max_value=0.99)


class TestNormalizedValue:
    def test_symmetric_reduces_to_sign(self):
        assert normalized_value(0.5, 1) == 1.0
        assert normalized_value(0.5, -1) == -1.0

    def test_asymmetric_point_eight(self):
        assert normalized_value(0.8, 1) == pytest.approx(0.5, abs=1e-15)
        assert normalized_value(0.8, -1) == pytest.approx(-2.0, abs=1e-15)

    @given(probs)
    def test_two_point_mean_zero_variance_one(self, p):
        q = 1 - p
        yp, ym = normalized_value(p, 1), normalized_value(p, -1)
        assert p * yp + q * ym == pytest.approx(0.0, abs=1e-12)
        assert p * yp**2 + q * ym**2 == pytest.approx(1.0, abs=1e-12)

    @given(probs, st.sampled_from([1, -1]))
    def test_structure_identity(self, p, sign):
        y = normalized_value(p, sign)
        assert y * y == pytest.approx(1 + y_moment(p, 3) * y, abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                normalized_value(bad, 1)
        with pytest.raises(DomainError):
            normalized_value(0.4, 2)


class TestYMoment:
    def test_symmetric_fourth_power_is_one(self):
        assert y_moment(0.5, 4) == 1.0

    @given(probs)
    def test_normalization(self, p):
        assert y_moment(p, 2) == 1.0
        assert y_moment(p, 1) == 0.0

    def test_lambda_three_boundary(self):
        p = 0.5 + 0.5 / math.sqrt(3)
        assert y_moment(p, 4) == pytest.approx(3.0, abs=1e-12)

    @given(probs)
    def test_closed_forms_match_two_point_sums(self, p):
        q = 1 - p
        yp, ym = normalized_value(p, 1), normalized_value(p, -1)
        for r in (3, 4):
            direct = p * yp**r + q * ym**r
            assert y_moment(p, r) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_unsupported_order(self):
        with pytest.raises(DomainError):
            y_moment(0.4, 5)
        with pytest.raises(DomainError):
            y_moment(0.4, 0)


class TestModel:
    def test_prob_floor_rejected(self):
        with pytest.raises(DomainError):
            RademacherModel((1e-9,))

    def test_two_outcomes_n1(self):
        out = list(enumerate_outcomes(RademacherModel((0.3,))))
        assert sorted((o.signs[0], o.weight) for o in out) == [(-1, 0.7), (1, 0.3)]

    def test_four_outcomes_symmetric(self):
        out = list(enumerate_outcomes(RademacherModel.symmetric(2)))
        assert len(out) == 4
        assert all(o.weight == 0.25 for o in out)
        assert len({o.signs for o in out}) == 4

    def test_weights_sum_to_one_random(self, rng):
        for _ in range(10):
            model = RademacherModel(tuple(rng.uniform(0.05, 0.95, 10)))
            assert abs(model.weights().sum() - 1.0) <= 1e-12

    def test_outcome_weight_is_product(self, rng):
        model = RademacherModel(tuple(rng.uniform(0.2, 0.8, 5)))
        for o in enumerate_outcomes(model):
            ref = 1.0
            for k, s in enumerate(o.signs):
                ref *= model.probs[k] if s == 1 else 1 - model.probs[k]
            assert o.weight == pytest.approx(ref, rel=1e-15)

    def test_enumeration_cap(self):
        model = RademacherModel.symmetric(6)
        with pytest.raises(CapacityError, match="sampling") as err:
            model.weights(Caps(enum_cap=5))
        assert err.value.cap_name == "enum_cap"

    def test_enumeration_reproduces_closed_moments(self, rng):
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            model = RademacherModel((p,))
            w, y = model.weights(), model.y_table(0)
            for r in range(1, 5):
                assert float(w @ y**r) == pytest.approx(
                    y_moment(p, r), abs=1e-12, rel=1e-12
                )


    def test_coordinate_tables_follow_the_bitmask_order(self):
        model = RademacherModel((0.3, 0.6, 0.2))
        idx = np.arange(8)
        for k in range(3):
            bit = (idx >> k) & 1
            assert np.array_equal(model.signs_table(k), np.where(bit, 1.0, -1.0))
            assert np.array_equal(
                model.y_table(k), np.where(bit, model.y_plus[k], model.y_minus[k])
            )

    @pytest.mark.parametrize("k", [-1, 3, 7])
    def test_coordinate_tables_reject_out_of_range(self, k):
        model = RademacherModel.symmetric(3)
        with pytest.raises(DomainError):
            model.signs_table(k)
        with pytest.raises(DomainError):
            model.y_table(k)


class TestSampling:
    def test_same_seed_identical(self):
        model = RademacherModel((0.4, 0.6, 0.5))
        a = sample(model, seed=9, count=50)
        b = sample(model, seed=9, count=50)
        assert [o.signs for o in a] == [o.signs for o in b]

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample(RademacherModel((0.5,)), seed=0, count=0)

    def test_law_of_large_numbers(self):
        model = RademacherModel((0.37,))
        ys = sample_y_matrix(model, seed=123, count=1_000_000)
        assert abs(ys.mean()) <= 4 / math.sqrt(1_000_000)

    def test_fourth_moment_within_five_se(self):
        p = 0.31
        model = RademacherModel((p,))
        count = 400_000
        ys = sample_y_matrix(model, seed=77, count=count)[:, 0]
        q = 1 - p
        e8 = p * (q / p) ** 4 + q * (p / q) ** 4
        se = math.sqrt((e8 - y_moment(p, 4) ** 2) / count)
        assert abs((ys**4).mean() - y_moment(p, 4)) <= 5 * se


def test_structure_identity_holds_on_tables(rng):
    model = RademacherModel(tuple(rng.uniform(0.1, 0.9, 8)))
    for k in range(8):
        y = model.y_table(k)
        assert np.abs(y**2 - 1 - model.skew[k] * y).max() <= 1e-12
