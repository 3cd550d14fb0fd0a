"""Differential tests: the Walsh-butterfly paths against slow oracles.

Every table, the pathwise operators and the Hoeffding read-out are
compared with the per-subset, pathwise or inclusion-exclusion form they
replaced, over instances drawn by hypothesis with n in 1..10 and success
probabilities that include the 1e-6 floor.  Tolerances are fixed in units
of the float64 epsilon times an a-priori magnitude of the terms summed, so
they hold at the floor, where |Y_k| reaches about 1e3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import (
    ChaosVector,
    RademacherModel,
    ValueTable,
    integral_table,
    random_kernel,
    to_table,
)
from chaoslab.bounds import hoeffding_decompose
from chaoslab.chaos import join_coordinate, split_coordinate
from chaoslab.malliavin import d, gamma, gamma0, ou_generator_pathwise
from conftest import (
    oracle_generator,
    oracle_hoeffding,
    oracle_integral_table,
    oracle_squared_field,
    random_chaos,
)

EPS = np.finfo(float).eps
FLOOR = 1e-6
# measured worst cases sit below 2 in these units; 16 leaves room
ULPS = 16.0

probs = st.one_of(st.sampled_from([FLOOR, 1.0 - FLOOR, 0.5]), st.floats(FLOOR, 1.0 - FLOOR))


@st.composite
def instances(draw, n_max=10):
    n = draw(st.integers(1, n_max))
    model = RademacherModel(tuple(draw(st.lists(probs, min_size=n, max_size=n))))
    return model, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def magnitude(F: ChaosVector, model: RademacherModel) -> float:
    """sum_J |r! f_r(J)| prod_{i in J} max|Y_i|, a bound on every |term|."""
    ymax = np.maximum(np.abs(model.y_plus), np.abs(model.y_minus))
    return sum(
        math.factorial(r) * abs(v) * float(np.prod(ymax[list(key)]))
        for r, kern in enumerate(F.kernels)
        for key, v in kern.coeffs.items()
    )


def tolerance(n: int, scale: float) -> float:
    return ULPS * (n + 1) * EPS * scale


@given(instances())
@settings(max_examples=60, deadline=None)
def test_tables_match_per_subset_products(inst):
    model, rng = inst
    n = model.n
    F = random_chaos(rng, n, top=min(3, n), centered=False)
    want = sum(oracle_integral_table(kern, model) for kern in F.kernels)
    tol = tolerance(n, magnitude(F, model))
    assert np.abs(to_table(F, model).values - want).max() <= tol
    top = F.kernel(F.top_order)
    got = integral_table(top, model).values
    assert np.abs(got - oracle_integral_table(top, model)).max() <= tol


@given(instances())
@settings(max_examples=60, deadline=None)
def test_generator_matches_gradient_form(inst):
    model, rng = inst
    t = to_table(random_chaos(rng, model.n, top=min(3, model.n), centered=False), model)
    got = ou_generator_pathwise(t, model).values
    tol = tolerance(model.n, 1.0 + t.max_abs())
    assert np.abs(got - oracle_generator(t, model)).max() <= tol


@given(instances())
@settings(max_examples=60, deadline=None)
def test_squared_fields_match_skew_form(inst):
    model, rng = inst
    n = model.n
    F = random_chaos(rng, n, top=min(3, n), centered=False)
    G = random_chaos(rng, n, top=min(2, n), centered=False)
    tf, tg = to_table(F, model), to_table(G, model)
    want = oracle_squared_field(tf, tg, model)
    pathwise_scale = sum(
        float(np.abs(d(tf, k, model).values * d(tg, k, model).values).max()) / model.pq[k]
        for k in range(n)
    )
    assert np.abs(gamma0(tf, tg, model).values - want).max() <= tolerance(n, pathwise_scale)
    spectral_scale = magnitude(F, model) * magnitude(G, model)
    assert np.abs(gamma(F, G, model).values - want).max() <= tolerance(n, spectral_scale)


@given(instances(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_hoeffding_matches_inclusion_exclusion(inst, integral):
    model, rng = inst
    n = model.n
    if integral:
        W = integral_table(random_kernel(int(rng.integers(1, min(3, n) + 1)), n, rng), model)
    else:
        W = ValueTable(n, rng.standard_normal(2**n))
    H = hoeffding_decompose(W, model)
    want = oracle_hoeffding(W, model)
    ymax = np.maximum(np.abs(model.y_plus), np.abs(model.y_minus))
    for J, ref in want.items():
        got = H.components[J].values if J in H.components else np.zeros(2**n)
        scale = 2 ** len(J) * W.max_abs() * float(np.prod(ymax[list(J)]))
        assert np.abs(got - ref).max() <= tolerance(n, scale), J
    assert set(H.components) <= set(want)


@pytest.mark.parametrize("n, k", [(1, 0), (4, 0), (4, 3), (6, 5)])
def test_split_coordinate_halves(n, k):
    values = np.arange(2.0**n)
    minus, plus = split_coordinate(values, k)
    bits = (np.arange(2**n) >> k) & 1
    assert np.array_equal(minus.ravel(), values[bits == 0])
    assert np.array_equal(plus.ravel(), values[bits == 1])
    assert np.array_equal(join_coordinate(minus, plus), values)
    plus += 0.5  # the halves are views of the table
    assert np.array_equal(values[bits == 1] % 1.0, np.full(2 ** (n - 1), 0.5))
