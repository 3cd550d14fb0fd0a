"""Differential tests: the fast paths against slow oracles.

Every table, the pathwise operators and the Hoeffding read-out are
compared with the per-subset, pathwise or inclusion-exclusion form they
replaced, the energy read-outs (projection variances of F**2, the
degenerate order and rho**2) with the sparse round-trip and the
inclusion-exclusion tables, and the product-formula fourth moment with
enumeration and with the quadruple expansion, the law with a stable sort
and the indicator sup with the law's atoms as its levels, and the blocked
Kolmogorov and Wasserstein distances with the atom-by-atom loops, and the
indicator sup, the abstract-bound terms and the quartic gradient sum with the sort of
every flip threshold and the full gradient tables, over instances
drawn by hypothesis with success probabilities that include the 1e-6
floor.  Tolerances are fixed in units
of the float64 epsilon times the number of terms summed times an a-priori
magnitude of those terms, so they hold at the floor, where |Y_k| reaches
about 1e3.
"""

import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import (
    Caps,
    CapacityError,
    ChaosVector,
    DomainError,
    Kernel,
    RademacherModel,
    ValueTable,
    basis_coefficients,
    integral_table,
    off_diagonal_defect,
    ou_semigroup,
    random_kernel,
    stroock_decompose,
    symmetrized_tensor,
    tensor_square_residual,
    to_table,
    zero_kernel,
)
from chaoslab.bounds import (
    abstract_bounds,
    degenerate_order,
    hoeffding_decompose,
    rho_squared,
    theorem_bounds,
)
from chaoslab.construct import matched_pairs_kernel
from chaoslab import kernels
from chaoslab.kernels import SupportPlan, support_plan
from chaoslab.chaos import (
    _ROTATE_FROM,
    basis_synthesis,
    join_coordinate,
    split_coordinate,
    subset_orders,
)
from chaoslab.distance import (
    _BLOCK,
    _MERGE_TOL,
    _PHI_NUMPY,
    _levels,
    DistributionTable,
    exact_distribution,
    from_weighted_values,
    independent_pieces,
    integral_law,
    kolmogorov_to_normal,
    normal_cdf,
    normal_distances,
    wasserstein_to_normal,
)
from chaoslab.malliavin import (
    d,
    gamma,
    gamma0,
    gradient_process,
    minus_pseudo_inverse,
    ou_generator_pathwise,
    ou_generator_spectral,
    skorohod,
)
from chaoslab.moments import (
    even_moments,
    fourth_moment_factorized,
    fourth_moment_symmetric,
    kolmogorov_term,
    moment,
    quartic_gradient_sum,
    sup_flip_pairing,
    var_projection_sum,
)
from conftest import (
    oracle_abstract_bounds,
    oracle_basis_coefficients,
    oracle_basis_synthesis,
    oracle_coefficient_array,
    oracle_degenerate_order,
    oracle_flip_thresholds,
    oracle_fourth_moment_pairs,
    oracle_fourth_moment_quadruple,
    oracle_from_weighted_values,
    oracle_generator,
    oracle_hoeffding,
    oracle_independent_pieces,
    oracle_integral_table,
    oracle_kolmogorov,
    oracle_multiset_norms,
    oracle_projection_variances,
    oracle_quartic_gradient_sum,
    oracle_rho_squared,
    oracle_squared_field,
    oracle_sup_flip_pairing,
    oracle_tensor_square_norms,
    oracle_tensor_square_pairs,
    oracle_walsh_components,
    random_chaos,
    oracle_wasserstein,
)

EPS = np.finfo(float).eps
FLOOR = 1e-6
# measured worst cases sit below 2 in these units (below 7 for the
# projection variances); 16 leaves room
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


def tolerance(terms: int, scale: float) -> float:
    return ULPS * terms * EPS * scale


def assert_rebuilds_through_public_constructor(kern: Kernel) -> None:
    """A derived kernel skips the key checks; the public constructor must
    accept its keys and leave it unchanged."""
    assert Kernel(kern.order, kern.horizon, dict(kern.coeffs)) == kern
    assert all(type(v) is float for v in kern.coeffs.values())
    assert all(type(i) is int for key in kern.coeffs for i in key)


@given(
    instances(),
    st.integers(0, 11),
    st.one_of(st.sampled_from([0.0, -1.0, 1e-300]), st.floats(-1e3, 1e3)),
    st.integers(1, 10),
)
@settings(max_examples=60, deadline=None)
def test_derived_kernels_match_public_constructor(inst, m, c, cut):
    model, rng = inst
    n = model.n
    # an order above the horizon leaves only the zero kernel
    f = random_kernel(m, n, rng, density=0.6) if m <= n else zero_kernel(m, n)
    g = random_kernel(m, n, rng, density=0.6) if m <= n else zero_kernel(m, n)
    derived = [
        f.scale(c),
        f.scale(0.0),
        f.add(g),
        f.add(f.scale(-1.0)),
        f.truncate(min(cut, n)),
        zero_kernel(m, n).scale(c),
    ]
    if not f.is_zero():
        derived.append(f.normalized())
        with pytest.raises(DomainError):
            f.scale(1e300).scale(1e300)
    if m <= n:
        derived.append(random_kernel(m, n, rng, normalized=True, density=0.3))
    F = random_chaos(rng, n, top=min(3, n), centered=False)
    centered = random_chaos(rng, n, top=min(3, n))
    vectors = [
        F.scale(c),
        F + F,
        ou_semigroup(F, abs(c)),
        ou_generator_spectral(F),
        minus_pseudo_inverse(centered),
        stroock_decompose(to_table(F, model), model),
        skorohod(gradient_process(F), model),
        *gradient_process(F),
    ]
    derived += [kern for vec in vectors for kern in vec.kernels]
    for kern in derived:
        assert_rebuilds_through_public_constructor(kern)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_tables_match_per_subset_products(inst):
    model, rng = inst
    n = model.n
    F = random_chaos(rng, n, top=min(3, n), centered=False)
    want = sum(oracle_integral_table(kern, model) for kern in F.kernels)
    tol = tolerance(n + 1, magnitude(F, model))
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
    tol = tolerance(model.n + 1, 1.0 + t.max_abs())
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
    assert np.abs(gamma0(tf, tg, model).values - want).max() <= tolerance(n + 1, pathwise_scale)
    spectral_scale = magnitude(F, model) * magnitude(G, model)
    assert np.abs(gamma(F, G, model).values - want).max() <= tolerance(n + 1, spectral_scale)


def bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


# horizons on both sides of the butterfly's rotation threshold
walsh_models = st.integers(1, 14).flatmap(
    lambda n: st.one_of(
        st.just(RademacherModel.symmetric(n)),
        st.lists(probs, min_size=n, max_size=n).map(lambda p: RademacherModel(tuple(p))),
    )
)


@given(walsh_models, st.sampled_from(["random", "zero", "chaos"]), st.integers(0, 2**32 - 1))
# the self-sorting passes at n = 1, an even and an odd n, and the last n
# before the rotation, whose number of passes decides which of the two
# arrays holds the result
@example(RademacherModel((0.3,)), "random", 4)
@example(RademacherModel.homogeneous(0.7, 6), "random", 5)
@example(RademacherModel.homogeneous(FLOOR, 9), "chaos", 6)
@example(RademacherModel.homogeneous(FLOOR, _ROTATE_FROM - 1), "chaos", 1)
@example(RademacherModel.homogeneous(1.0 - FLOOR, _ROTATE_FROM), "chaos", 2)
@example(RademacherModel.symmetric(14), "zero", 3)
@settings(max_examples=60, deadline=None)
def test_walsh_butterfly_matches_the_plain_loop_bit_for_bit(model, kind, seed):
    assert 1 < _ROTATE_FROM <= 14
    n, rng = model.n, np.random.default_rng(seed)
    values = np.zeros(2**n) if kind == "zero" else rng.standard_normal(2**n)
    kept = values.copy()
    F = random_chaos(rng, n, top=min(3, n), centered=False)
    if kind == "zero":
        F = ChaosVector.from_kernel(zero_kernel(min(2, n), n))
    want = oracle_basis_synthesis(oracle_coefficient_array(F), model)
    assert np.array_equal(bits(to_table(F, model).values), bits(want))
    want = oracle_basis_synthesis(values, model)
    assert np.array_equal(bits(basis_synthesis(values, model).values), bits(want))
    assert np.array_equal(bits(values), bits(kept))
    table = ValueTable(n, values)
    want = oracle_basis_coefficients(values, model)
    assert np.array_equal(bits(basis_coefficients(table, model)), bits(want))
    assert np.array_equal(bits(table.values), bits(kept))


@given(instances(n_max=12), st.sampled_from(["integral", "sparse", "table", "zero"]))
@settings(max_examples=60, deadline=None)
def test_hoeffding_read_off_the_array_matches_the_dict_loops(inst, kind):
    # the dict over every subset of the dependent coordinates is the route
    # the array read-out replaced; a sparse kernel leaves coordinates out
    model, rng = inst
    n = model.n
    m = int(rng.integers(1, min(3, n) + 1))
    if kind == "table":
        W = ValueTable(n, rng.standard_normal(2**n))
    elif kind == "zero":
        W = ValueTable(n, np.zeros(2**n))
    else:
        W = integral_table(random_kernel(m, n, rng, density=0.3 if kind == "sparse" else 1.0), model)
    H = hoeffding_decompose(W, model)
    want = oracle_walsh_components(oracle_basis_coefficients(W.values, model), n)
    assert list(H.components) == list(want)
    assert np.array_equal(bits(list(H.components.values())), bits(list(want.values())))
    order, _ = oracle_degenerate_order(want)
    if order is None:
        with pytest.raises(DomainError, match="single order"):
            degenerate_order(H)
    else:
        assert degenerate_order(H) == order
        assert rho_squared(H).hex() == oracle_rho_squared(want, order).hex()
    placed = np.zeros(2**n)
    for J, c in want.items():
        placed[sum(1 << i for i in J)] = c
    assert np.array_equal(bits(H.reconstruct().values), bits(basis_synthesis(placed, model).values))
    J = list(want)[int(rng.integers(len(want)))]
    term = np.full(2**n, want[J])
    for i in J:
        minus, plus = split_coordinate(term, i)
        minus *= model.y_minus[i]
        plus *= model.y_plus[i]
    assert np.array_equal(bits(H.component(J).values), bits(term))


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
    for J, ref in want.items():
        got = H.component(J).values
        assert np.abs(got - ref).max() <= component_gap(W, model, J), J
    assert set(H.components) <= set(want)


def component_gap(W: ValueTable, model: RademacherModel, J) -> float:
    """Pointwise bound on the round-off of the inclusion-exclusion W_J:
    2**|J| conditional expectations, each weighted by up to prod max|Y_i|."""
    ymax = np.maximum(np.abs(model.y_plus), np.abs(model.y_minus))
    scale = 2 ** len(J) * W.max_abs() * float(np.prod(ymax[list(J)]))
    return tolerance(model.n + 1, scale)


@given(instances())
@settings(max_examples=30, deadline=None)
def test_hoeffding_energies_match_inclusion_exclusion(inst):
    # E[W_J^2] of the oracle table differs from c_J^2 by at most
    # gap (2|c_J| + gap) with gap its pointwise round-off (E|Y_J| <= 1),
    # plus the round-off of the weighted sum of its squares
    model, rng = inst
    n = model.n
    m = int(rng.integers(1, min(3, n) + 1))
    W = integral_table(random_kernel(m, n, rng), model)
    H = hoeffding_decompose(W, model)
    order = degenerate_order(H)
    assert order == m
    energy, slack = np.zeros(n + 1), np.zeros(n + 1)
    owned, owned_slack = np.zeros(n), np.zeros(n)
    for J, ref in oracle_hoeffding(W, model).items():
        c = H.components.get(J, 0.0)
        gap = component_gap(W, model, J)
        tol = gap * (2.0 * abs(c) + gap) + tolerance(n + 1, (abs(c) + gap) ** 2)
        e = moment(ValueTable(n, ref), 2, model)
        energy[len(J)] += e
        slack[len(J)] += tol
        if len(J) == order:
            owned[list(J)] += e
            owned_slack[list(J)] += tol
    live = sum(c * c for J, c in H.components.items() if len(J) == order)
    assert abs(energy[order] - live) <= slack[order]
    others = [s for s in range(1, n + 1) if s != order]
    assert np.all(energy[others] <= slack[others])
    assert abs(rho_squared(H) - owned.max()) <= owned_slack.max()


@given(instances())
@settings(max_examples=60, deadline=None)
def test_projection_variances_match_sparse_round_trip(inst):
    # both sides share the coefficients c_S of F^2; the oracle rebuilds
    # each projection's table, whose round-off is bounded by the magnitude
    # sum_{|S|=r} |c_S| |Y_S| it sums, and takes the variance of that table
    model, rng = inst
    n = model.n
    F = ChaosVector.from_kernel(random_kernel(int(rng.integers(1, min(3, n) + 1)), n, rng))
    got = var_projection_sum(F, model).variances
    want = oracle_projection_variances(F, model)
    assert len(got) == len(want)
    t = to_table(F, model)
    c = basis_coefficients(t * t, model)
    orders = subset_orders(n)
    for r, (g, w) in enumerate(zip(got, want), start=1):
        coeffs = {
            tuple(i for i in range(n) if mask >> i & 1): float(c[mask])
            for mask in np.flatnonzero(orders == r)
        }
        assert abs(g - w) <= tolerance(n + 1, abs_moment(coeffs, model, 2)), r



UNCAPPED = Caps(factorized_support_cap=2**10)


def subset_coeffs(F: ChaosVector) -> dict:
    return {key: v for kern in F.kernels for key, v in kern.to_subset_coeffs().items()}


def abs_moment(coeffs: dict, model: RademacherModel, r: int) -> float:
    """E[(sum_J |c_J| |Y_J|)^r] by enumeration.  For r = 4 it bounds the
    summed magnitudes on both sides of the fourth moment: the enumeration's
    round-off at each outcome, and every term of the product formula, whose
    |skew_k| <= E|Y_k|^3."""
    ys = np.abs([model.y_table(k) for k in range(model.n)])
    acc = sum(
        (abs(v) * np.prod(ys[list(key)], axis=0) for key, v in coeffs.items()),
        np.zeros(2**model.n),
    )
    return float(np.dot(model.weights(), acc**r))


def folded(model: RademacherModel) -> RademacherModel:
    """Same E[Y^4], with E[Y^3] = |skew| >= 0, so an expansion run on |c_J|
    sums the magnitudes of its terms."""
    return RademacherModel(tuple(min(p, 1.0 - p) for p in model.probs))


@given(instances())
@settings(max_examples=60, deadline=None)
def test_fourth_moment_matches_enumeration(inst):
    model, rng = inst
    n = model.n
    F = ChaosVector(n, tuple(
        random_kernel(r, n, rng, density=float(rng.uniform(0.1, 1.0)))
        for r in range(min(3, n) + 1)
    ))
    coeffs = subset_coeffs(F)
    terms = len(coeffs) ** 2 + n + 1
    want = moment(to_table(F, model), 4, model)
    got = fourth_moment_factorized(coeffs, model, UNCAPPED)
    assert abs(got - want) <= tolerance(terms, abs_moment(coeffs, model, 4))
    fair = RademacherModel.symmetric(n)
    want = moment(to_table(F, fair), 4, fair)
    got = fourth_moment_symmetric(coeffs)
    assert abs(got - want) <= tolerance(terms, abs_moment(coeffs, fair, 4))


def sparse_support(rng, n: int, S: int) -> dict:
    """Up to S subsets of orders 0..3 spread over the horizon."""
    coeffs = {}
    for _ in range(S):
        r = int(rng.integers(0, min(3, n) + 1))
        key = tuple(sorted(int(i) for i in rng.choice(n, size=r, replace=False)))
        coeffs[key] = float(rng.standard_normal())
    return coeffs


def assert_matches_quadruple(got: float, coeffs: dict, model: RademacherModel):
    want = oracle_fourth_moment_quadruple(coeffs, model)
    scale = oracle_fourth_moment_quadruple(
        {key: abs(v) for key, v in coeffs.items()}, folded(model)
    )
    assert abs(got - want) <= tolerance((len(coeffs) + 1) ** 2, scale)


@given(instances(n_max=120), st.integers(0, 24))
@settings(max_examples=25, deadline=None)
def test_fourth_moment_matches_quadruple_beyond_enumeration(inst, S):
    model, rng = inst
    coeffs = sparse_support(rng, model.n, S)
    assert_matches_quadruple(fourth_moment_factorized(coeffs, model), coeffs, model)


def test_fourth_moment_on_a_universe_wider_than_63_bits(rng):
    # overlapping 4-blocks (0..3), (3..6), ..., (69..72) plus lower orders
    # touch 74 coordinates, so the masks need more than 63 bits
    n = 120
    coeffs = {tuple(range(3 * i, 3 * i + 4)): float(rng.standard_normal()) for i in range(24)}
    coeffs.update({(): 0.5, (0,): -0.7, (72,): 0.3, (1, 119): 0.9})
    assert len({i for key in coeffs for i in key}) > 63
    probs = rng.uniform(0.05, 0.95, n)
    probs[::7] = FLOOR
    model = RademacherModel(tuple(float(p) for p in probs))
    assert_matches_quadruple(fourth_moment_factorized(coeffs, model), coeffs, model)
    fair = RademacherModel.symmetric(n)
    assert_matches_quadruple(fourth_moment_symmetric(coeffs), coeffs, fair)


@pytest.mark.parametrize(
    "coeffs", [{}, {(0,): 0.0, (1, 2): 0.0}, zero_kernel(5, 3).to_subset_coeffs()]
)
def test_zero_support_has_zero_fourth_moment(coeffs):
    model = RademacherModel((FLOOR, 0.5, 1.0 - FLOOR))
    assert fourth_moment_factorized(coeffs, model) == 0.0
    assert fourth_moment_symmetric(coeffs) == 0.0


# -- the overlapping-pair pass ------------------------------------------------
# Supports where nearly every pair overlaps (dense, star), mixed orders with
# the constant key, zero supports and an order above the horizon, on
# horizons from 1, plus universes wider than 63 coordinates.

KINDS = ("dense", "star", "mixed", "zero", "above_horizon")


def star_support(rng, n: int, m: int) -> dict:
    """Every m-subset through coordinate 0."""
    return {(0,) + rest: float(rng.standard_normal()) for rest in combinations(range(1, n), m - 1)}


def draw_support(rng, kind: str, n: int) -> dict:
    m = int(rng.integers(1, min(3, n) + 1))
    if kind == "dense":
        return random_kernel(m, n, rng, density=float(rng.uniform(0.8, 1.0))).to_subset_coeffs()
    if kind == "star":
        return star_support(rng, n, m)
    if kind == "mixed":
        return {(): float(rng.standard_normal()), **sparse_support(rng, n, int(rng.integers(1, 16)))}
    if kind == "zero":
        return {key: 0.0 for key in sparse_support(rng, n, 4)}
    return zero_kernel(n + 1, n).to_subset_coeffs()


def wide_support(rng, n: int, S: int) -> dict:
    """A star through coordinate 0 on every other coordinate of a horizon
    n >= 128, so the universe is wider than 63, plus S mixed-order subsets."""
    coeffs = {(0, i): float(rng.standard_normal()) for i in range(1, n, 2)}
    coeffs.update(sparse_support(rng, n, S))
    return coeffs


def pair_scale(coeffs: dict, model: RademacherModel) -> float:
    """sum_U (sum of |terms| of g_U)^2: the pair expansion on |c_J| and |skew|."""
    return oracle_fourth_moment_pairs({k: abs(v) for k, v in coeffs.items()}, folded(model).skew)


def coeff_table(coeffs: dict, model: RademacherModel) -> np.ndarray:
    ys = [model.y_table(k) for k in range(model.n)]
    acc = np.zeros(2**model.n)
    for key, v in coeffs.items():
        acc += v * np.prod([ys[i] for i in key], axis=0)
    return acc


def assert_fourth_moments_match(coeffs: dict, model: RademacherModel, quadruple: bool):
    terms = (len(coeffs) + 1) ** 2
    fair = RademacherModel.symmetric(model.n)
    for got, mod, skew in [
        (fourth_moment_factorized(coeffs, model, UNCAPPED), model, model.skew),
        (fourth_moment_symmetric(coeffs), fair, None),
    ]:
        tol = tolerance(terms, pair_scale(coeffs, mod))
        assert abs(got - oracle_fourth_moment_pairs(coeffs, skew)) <= tol
        if quadruple:
            assert abs(got - oracle_fourth_moment_quadruple(coeffs, mod)) <= tol
            want = float(np.dot(mod.weights(), coeff_table(coeffs, mod) ** 4))
            assert abs(got - want) <= tolerance(terms + mod.n, abs_moment(coeffs, mod, 4)) + tol


@given(instances(n_max=6), st.sampled_from(KINDS))
@settings(max_examples=80, deadline=None)
def test_overlap_pass_matches_pairs_quadruples_and_enumeration(inst, kind):
    model, rng = inst
    assert_fourth_moments_match(draw_support(rng, kind, model.n), model, quadruple=True)


@given(instances(n_max=12), st.sampled_from(KINDS))
@settings(max_examples=40, deadline=None)
def test_overlap_pass_matches_pair_loop(inst, kind):
    model, rng = inst
    assert_fourth_moments_match(draw_support(rng, kind, model.n), model, quadruple=False)


@given(st.integers(128, 300), st.integers(0, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_overlap_pass_matches_pair_loop_on_wide_universes(n, S, seed):
    rng = np.random.default_rng(seed)
    coeffs = wide_support(rng, n, S)
    assert len({i for key in coeffs for i in key}) > 63
    probs = rng.uniform(FLOOR, 1.0 - FLOOR, n)
    probs[::5] = FLOOR
    probs[1::5] = 1.0 - FLOOR
    model = RademacherModel(tuple(float(p) for p in probs))
    assert_fourth_moments_match(coeffs, model, quadruple=False)


def distinct_subsets(rng, n: int, m: int, S: int) -> dict:
    """S distinct m-subsets of the horizon with standard normal coefficients."""
    keys: set = set()
    while len(keys) < S:
        keys.add(tuple(sorted(int(i) for i in rng.choice(n, size=m, replace=False))))
    return {key: float(rng.standard_normal()) for key in sorted(keys)}


def floor_model(rng, n: int) -> RademacherModel:
    probs = rng.uniform(FLOOR, 1.0 - FLOOR, n)
    probs[::5] = FLOOR
    probs[1::5] = 1.0 - FLOOR
    probs[2::5] = 0.5
    return RademacherModel(tuple(float(p) for p in probs))


@given(
    st.integers(2, 3),
    st.integers(100, 300),
    st.sampled_from([24, 40, 160]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(m=3, S=300, n=160, skewed=True, seed=7)  # a universe wider than 64
@settings(max_examples=6, deadline=None)
def test_plan_matches_pair_loop_at_hundreds_of_subsets(m, S, n, skewed, seed):
    rng = np.random.default_rng(seed)
    coeffs = distinct_subsets(rng, n, m, min(S, math.comb(n, m)))
    if n > 64:
        assert len({i for key in coeffs for i in key}) > 64
    if skewed:
        model = floor_model(rng, n)
        got, skew = fourth_moment_factorized(coeffs, model, UNCAPPED), model.skew
    else:
        model = RademacherModel.symmetric(n)
        got, skew = fourth_moment_symmetric(coeffs), None
    tol = tolerance((len(coeffs) + 1) ** 2, pair_scale(coeffs, model))
    assert abs(got - oracle_fourth_moment_pairs(coeffs, skew)) <= tol


@pytest.mark.parametrize("skewed", [False, True])
def test_plan_on_values_with_zeros_matches_a_fresh_call_bit_for_bit(rng, skewed):
    # mixed orders with the constant; the fresh call sees only the nonzero
    # coefficients, in another order
    n = 14
    for _ in range(12):
        union = {(): float(rng.standard_normal()), **sparse_support(rng, n, 60)}
        keys = list(union)
        values = np.array([union[key] for key in keys])
        values[rng.random(len(keys)) < 0.4] = 0.0
        nonzero = [(key, v) for key, v in zip(keys, values.tolist()) if v != 0.0]
        fresh = dict(nonzero[::-1])
        model = floor_model(rng, n) if skewed else RademacherModel.symmetric(n)
        plan = SupportPlan(keys, model.skew if skewed else None)
        if skewed:
            want = fourth_moment_factorized(fresh, model, UNCAPPED)
        else:
            want = fourth_moment_symmetric(fresh)
        assert plan.fourth_moment(values) == want
        fresh_plan, fresh_values = support_plan(fresh)
        assert plan.tensor_terms(values) == fresh_plan.tensor_terms(fresh_values)
        assert fresh_plan.pairs <= plan.pairs


def test_plan_keys_longer_than_one_word(rng):
    # more than 512 coordinates in use: an id takes 10 bits, so a multiset
    # key of 7 ids spans two int64 words and is grouped by lexsort
    star = {(0, 2 * i - 1, 2 * i): float(rng.standard_normal()) for i in range(1, 281)}
    star.update({(1, 2, 3): 0.5, (1, 3, 5): -0.25, (2, 4, 6): 1.5})
    assert len({i for key in star for i in key}) > 512
    assert_fourth_moments_match(star, floor_model(rng, 600), quadruple=False)
    # a small support planned alone and inside a wide one that is zero
    # elsewhere: one-word and two-word keys group alike, bit for bit
    f = random_kernel(3, 8, rng, density=0.6)
    small, values = support_plan(f.to_subset_coeffs())
    padding = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(3, 200)]
    wide = SupportPlan(small.keys + tuple(padding))
    wide_values = np.concatenate([values, np.zeros(len(padding))])
    assert wide.tensor_terms(wide_values) == small.tensor_terms(values)
    assert wide.fourth_moment(wide_values) == small.fourth_moment(values)


# (order, horizon, subsets drawn, whether some sum of the plan reaches
# ``_BINNED_FROM`` terms): the largest sum measured 0, 1149-1200, 0,
# 1084-1116, 0 and 2392-2956 terms on seeds 0-5, and order 1 sums S terms
CROSSOVER_CASES = [
    (1, 60, 60, False),
    (1, 1100, 1100, True),
    (2, 12, 60, False),
    (2, 200, 300, True),
    (3, 30, 30, False),
    (3, 10, 60, True),
    ("mixed", 10, 60, False),
    ("mixed", 60, 400, True),
]


def engine_values(coeffs: dict, model: RademacherModel, m) -> list[float]:
    """fourth_moment_symmetric, fourth_moment_factorized within its support
    cap, and for a pure order the two tensor terms."""
    out = [fourth_moment_symmetric(coeffs)]
    if len(coeffs) <= Caps().factorized_support_cap:
        out.append(fourth_moment_factorized(coeffs, model))
    if m != "mixed":
        f = Kernel.from_subset_coeffs(m, model.n, coeffs)
        out += [off_diagonal_defect(f), tensor_square_residual(f)]
    return out


@pytest.mark.parametrize("m, n, S, crosses", CROSSOVER_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engines_match_the_dictionary_oracles_at_the_binned_crossover(monkeypatch, m, n, S, crosses, seed):
    rng = np.random.default_rng(seed)
    if m == "mixed":
        coeffs = {(): float(rng.standard_normal()), **sparse_support(rng, n, S)}
    else:
        coeffs = distinct_subsets(rng, n, m, S)
    model = floor_model(rng, n)
    binned = []
    sums = kernels._binned_sum
    monkeypatch.setattr(kernels, "_binned_sum", lambda terms: binned.append(terms.size) or sums(terms))
    got = engine_values(coeffs, model, m)
    assert bool(binned) == crosses
    # the exponent bins give fsum's bits
    monkeypatch.setattr(kernels, "_BINNED_FROM", math.inf)
    assert [v.hex() for v in engine_values(coeffs, model, m)] == [v.hex() for v in got]

    # (oracle, magnitude of its terms) per engine
    capped = len(coeffs) > Caps().factorized_support_cap
    square = math.fsum(v * v for v in coeffs.values())
    tensor_scale = 2.0**m * sum(abs(v) for v in coeffs.values()) ** 4 if m != "mixed" else None
    if m == 1 and capped:  # the closed forms of order one; the pair oracles are quadratic in S
        fourth = math.fsum(v**4 for v in coeffs.values())
        want = [(3.0 * square**2 - 2.0 * fourth, 3.0 * square**2), (2.0 * fourth, tensor_scale), (0.0, tensor_scale)]
    else:
        want = [(oracle_fourth_moment_pairs(coeffs), pair_scale(coeffs, RademacherModel.symmetric(n)))]
        if not capped:
            want.append((oracle_fourth_moment_pairs(coeffs, model.skew), pair_scale(coeffs, model)))
        if m != "mixed":
            full, diag = oracle_tensor_square_pairs(coeffs)
            want += [(diag, tensor_scale), (full - 2.0 * square**2, tensor_scale)]
    assert len(want) == len(got)
    terms = (len(coeffs) + 1) ** 2
    for value, (expected, scale) in zip(got, want):
        assert abs(value - expected) <= tolerance(terms, scale)


def tensor_tolerance(f: Kernel) -> float:
    """Every term is a product of four a_J weighted by at most 2^m."""
    a = f.to_subset_coeffs()
    return tolerance((len(a) + 1) ** 2, 2.0**f.order * sum(abs(v) for v in a.values()) ** 4)


def assert_tensor_terms_match(f: Kernel):
    full, diag = oracle_multiset_norms(symmetrized_tensor(f, f))
    full *= math.factorial(2 * f.order)
    diag *= math.factorial(2 * f.order)
    square = sum(v * v for v in f.to_subset_coeffs().values())
    tol = tensor_tolerance(f)
    assert abs(off_diagonal_defect(f) - diag) <= tol
    assert abs(tensor_square_residual(f) - (full - 2.0 * square**2)) <= tol


def draw_kernel(rng, kind: str, n: int, m_max: int = 3) -> Kernel:
    m = int(rng.integers(1, min(m_max, n) + 1))
    if kind == "dense":
        return random_kernel(m, n, rng, density=float(rng.uniform(0.8, 1.0)))
    if kind == "star":
        return Kernel(m, n, star_support(rng, n, m))
    if kind == "mixed":  # a kernel has one order: a sparse one
        return random_kernel(m, n, rng, density=float(rng.uniform(0.05, 0.5)))
    if kind == "zero":
        return zero_kernel(m, n)
    return zero_kernel(n + 1, n)


@given(st.integers(1, 8), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tensor_terms_match_symmetrized_tensor(n, kind, seed):
    assert_tensor_terms_match(draw_kernel(np.random.default_rng(seed), kind, n))


@given(st.integers(1, 5), st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_tensor_terms_match_tuple_enumeration(n, kind, seed):
    f = draw_kernel(np.random.default_rng(seed), kind, n, m_max=2)
    if f.order > 2:  # the zero kernel of an order above n: n**(2m) tuples are too many
        assert off_diagonal_defect(f) == tensor_square_residual(f) == 0.0
        return
    full, diag = oracle_tensor_square_norms(f, n)
    square = sum(v * v for v in f.to_subset_coeffs().values())
    tol = tensor_tolerance(f)
    k = math.factorial(2 * f.order)
    assert abs(off_diagonal_defect(f) - k * diag) <= tol
    assert abs(tensor_square_residual(f) - (k * full - 2.0 * square**2)) <= tol


@given(st.integers(65, 160), st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_tensor_terms_match_on_wide_universes(n, S, seed):
    rng = np.random.default_rng(seed)
    keys = {tuple(sorted(int(i) for i in rng.choice(n, size=2, replace=False))) for _ in range(S)}
    keys |= {(0, i) for i in range(1, 65)}
    f = Kernel(2, n, {key: float(rng.standard_normal()) for key in keys})
    assert_tensor_terms_match(f)


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


# -- exact distances: numpy blocks against the atom-by-atom loops -----------


def dyadic_probs(rng, size: int) -> np.ndarray:
    """Positive probabilities k_i / 2**K summing to exactly 1, so every
    CDF level is exact and the last level is exactly 1.0."""
    k = rng.integers(1, 2**20, size).astype(float)
    total = 2.0 ** math.ceil(math.log2(k.sum() + 1.0))
    k[-1] += total - k.sum()
    return k / total


def distance_law(rng, size: int, kind: str, scale: float) -> DistributionTable:
    atoms = np.unique(rng.standard_normal(size) * scale + rng.normal(0.0, scale / 4))
    size = len(atoms)
    if kind == "plain":
        # probabilities from the 1e-6 floor to 1, as exact laws at the floor have
        probs = 10.0 ** rng.uniform(-6.0, 0.0, size)
        probs /= probs.sum()
    elif kind == "saturated":
        # a dyadic head whose levels reach exactly 1.0, then a tail of atoms
        # too light to move the level off 1.0
        heavy = max(1, size - int(rng.integers(0, size)))
        probs = np.concatenate([dyadic_probs(rng, heavy), np.full(size - heavy, 1e-30)])
    else:
        # every level is Phi at one end of its segment up to rounding; the
        # first level (probs[0] itself) is exactly Phi(atoms[shift]); far-tail
        # levels that round together keep a 1e-300 mass to stay positive
        shift = int(rng.integers(0, 2)) if size > 1 else 0
        cuts = [normal_cdf(float(a)) for a in atoms[shift:shift + size - 1]]
        probs = np.maximum(np.diff(np.concatenate([[0.0], cuts, [1.0]])), 1e-300)
    return DistributionTable(atoms, probs)


SIZES = st.one_of(
    st.integers(1, 64),
    # Phi from math.erfc below _PHI_NUMPY atoms, from the numpy erfc at and above
    st.sampled_from([_PHI_NUMPY - 1, _PHI_NUMPY, _PHI_NUMPY + 1]),
    st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1]),
    st.integers(2 * _BLOCK, 3 * _BLOCK),
)


@st.composite
def laws(draw, sizes=SIZES):
    size = draw(sizes)
    kind = draw(st.sampled_from(["plain", "saturated", "pinned"]))
    # 1e5 is the size of the atoms of exact laws at the probability floor
    scale = 1.0 if kind == "pinned" else draw(st.sampled_from([1.0, 3.0, 1e5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return distance_law(rng, size, kind, scale)


def distance_tolerance(dist: DistributionTable) -> float:
    """Each closed-form piece cancels terms of size 1 + |atom|; both sides
    add N of them."""
    return tolerance(len(dist.atoms), 1.0 + float(np.abs(dist.atoms).max()))


def assert_distances_match(dist: DistributionTable):
    w1, dk = normal_distances(dist)
    assert dk == kolmogorov_to_normal(dist) == oracle_kolmogorov(dist)
    assert w1 == wasserstein_to_normal(dist)
    assert abs(w1 - oracle_wasserstein(dist)) <= distance_tolerance(dist)


@given(laws())
@settings(max_examples=12, deadline=None)
def test_blocked_distances_match_atom_loops(dist):
    assert_distances_match(dist)


@given(instances())
@settings(max_examples=40, deadline=None)
def test_distances_of_exact_laws_match_atom_loops(inst):
    model, rng = inst
    m = int(rng.integers(1, min(3, model.n) + 1))
    table = integral_table(random_kernel(m, model.n, rng, normalized=True), model)
    assert_distances_match(exact_distribution(table, model))


@pytest.mark.parametrize("kind", ["plain", "saturated", "pinned"])
def test_distances_match_atom_loops_across_three_blocks(kind):
    rng = np.random.default_rng(11)
    dist = distance_law(rng, 3 * _BLOCK, kind, 1.0)
    assert len(dist.atoms) > 2 * _BLOCK
    assert_distances_match(dist)


@pytest.mark.parametrize("size", [_PHI_NUMPY - 1, _PHI_NUMPY])
@pytest.mark.parametrize("kind", ["plain", "saturated", "pinned"])
def test_distances_match_atom_loops_on_both_sides_of_the_phi_crossover(kind, size):
    dist = distance_law(np.random.default_rng(size), size, kind, 1.0)
    assert len(dist.atoms) == size
    assert_distances_match(dist)


DRAWN_LEVELS = ("ties", "chains", "floor")


@st.composite
def weighted_values(draw, kinds=("exact", "constant") + DRAWN_LEVELS):
    """Values and positive weights for ``from_weighted_values``.

    Tables of exact laws (n = 1..10, probabilities down to the 1e-6 floor,
    where atoms reach about 1e5, and constant tables), and drawn values with
    exact ties, chains of steps below the merge tolerance (at scale 1 and
    1e5), or atoms a few ulps apart near 1e5 carrying masses at the floor.
    """
    kind = draw(st.sampled_from(kinds))
    if kind in ("exact", "constant"):
        model, rng = draw(instances())
        if kind == "constant":
            values = np.full(2**model.n, float(rng.normal(0.0, 1e5)))
        else:
            m = int(rng.integers(1, min(3, model.n) + 1))
            values = integral_table(random_kernel(m, model.n, rng, normalized=True), model).values
        return values, model.weights(), rng
    size = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e5]))
    if kind == "ties":
        pool = rng.standard_normal(int(rng.integers(1, 8))) * scale
        values = rng.choice(np.concatenate([pool, [0.0, -0.0]]), size)
    elif kind == "chains":
        # steps of 0.4 merge tolerances chain into groups wider than one
        base = rng.choice(rng.standard_normal(4) * scale, size)
        step = 0.4 * _MERGE_TOL * max(1.0, float(np.abs(base).max()))
        values = base + rng.integers(0, 6, size) * step
    else:
        values = 1e5 + rng.integers(-3, 4, size) * np.spacing(1e5)
        values[: size // 2] = rng.standard_normal(size // 2) * scale
    weights = np.where(rng.random(size) < 0.5, FLOOR, rng.random(size))
    return values, weights / weights.sum(), rng


@given(weighted_values())
@settings(max_examples=80, deadline=None)
def test_law_matches_stable_sort_oracle(drawn):
    values, weights, rng = drawn
    want = oracle_from_weighted_values(values, weights)
    perm = rng.permutation(len(values))
    for got in (
        from_weighted_values(values, weights),
        from_weighted_values(values[perm], weights[perm]),
    ):
        # the same atoms (a signed zero may stand for a tie of 0.0 and -0.0)
        assert np.array_equal(got.atoms, want.atoms)
        # only the order of the weights inside a level, and the
        # renormalization, differ
        assert np.abs(got.probs - want.probs).max() <= len(values) * EPS
        assert_distances_match(got)


@given(weighted_values(DRAWN_LEVELS))
@settings(max_examples=60, deadline=None)
def test_sup_levels_are_the_law_atoms(drawn):
    """The indicator sup read at the exact law's atoms, with every flip
    threshold booked at the atom of its level, equals ``sup_flip_pairing``:
    the law and the sup group F's values into the same levels."""
    values, _, rng = drawn
    n = max(1, math.ceil(math.log2(len(values))))
    table = ValueTable(n, np.resize(values, 2**n))
    model = RademacherModel(tuple(rng.choice([FLOOR, 0.3, 0.5, 1.0 - FLOOR], n)))
    atoms = exact_distribution(table, model).atoms
    other = ValueTable(n, rng.standard_normal(2**n))
    per_k = flip_tables(table, other, model)
    thr, dlt = oracle_flip_thresholds(table, per_k, model)
    mass = np.bincount(np.searchsorted(atoms, thr, side="right") - 1, weights=dlt,
                       minlength=len(atoms))
    want = max(float(np.cumsum(mass[:0:-1]).max(initial=0.0)), 0.0)
    got = sup_flip_pairing(table, other, model)
    assert abs(got - want) <= pairing_tolerance(table, per_k, model)


def test_ulp_split_values_at_the_floor_scale_are_one_level():
    # at the probability floor |F| reaches about 1e5, where one ulp (1.5e-11)
    # exceeds 1e-12; values two ulps apart are one atom and one sup level
    n = 3
    model = RademacherModel((FLOOR, 0.5, 1.0 - FLOOR))
    values = np.full(2**n, -1e5)
    values[1::2] += 2.0 * np.spacing(1e5)
    table = ValueTable(n, values)
    law = exact_distribution(table, model)
    assert len(law.atoms) == 1 and law.probs[0] == 1.0
    # D_0 F > 0 and G = 1{X_0 = +1} has D_0 G > 0, so coordinate 0 moves
    # positive mass onto its +1 outcomes; split into two levels, the upper
    # one would hold a positive net mass
    other = ValueTable(n, np.tile([0.0, 1.0], 2 ** (n - 1)))
    assert sup_flip_pairing(table, other, model) == 0.0
    assert oracle_sup_flip_pairing(table, flip_tables(table, other, model), model) == 0.0


def mpmath_wasserstein(dist: DistributionTable) -> float:
    """The same segment integrals at 50 digits, with the level capped at 1."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(a)) for a in dist.atoms]

        def below(t):
            return mpmath.npdf(t) + t * mpmath.ncdf(t)

        total = below(x[0]) + mpmath.npdf(x[-1]) - x[-1] * (1 - mpmath.ncdf(x[-1]))
        for a, b, level in zip(x, x[1:], dist.cdf_levels):
            L = min(mpmath.mpf(float(level)), mpmath.mpf(1))
            c = b if L == 1 else min(max(mpmath.sqrt(2) * mpmath.erfinv(2 * L - 1), a), b)
            total += L * (c - a) - (below(c) - below(a)) + (below(b) - below(c)) - L * (b - c)
        return float(total)


@given(laws(st.integers(1, 50)))
@settings(max_examples=40, deadline=None)
def test_wasserstein_matches_high_precision(dist):
    got = wasserstein_to_normal(dist)
    assert abs(got - mpmath_wasserstein(dist)) <= distance_tolerance(dist)


# -- indicator sup and the streamed gradient terms ---------------------------


@st.composite
def pure_integrals(draw):
    """Random kernels on drawn probabilities, the symmetric kernel on fair
    coins (many exactly tied values of F) and zero kernels (one level)."""
    model, rng = draw(instances())
    n = model.n
    m = draw(st.integers(1, min(3, n)))
    kind = draw(st.sampled_from(["random", "symmetric", "zero"]))
    if kind == "symmetric":
        model = RademacherModel((0.5,) * n)
        c = 1.0 / (math.factorial(m) * math.sqrt(math.comb(n, m)))
        kern = Kernel(m, n, {J: c for J in combinations(range(n), m)})
    elif kind == "zero":
        kern = zero_kernel(m, n)
    else:
        kern = random_kernel(m, n, rng, normalized=draw(st.booleans()))
    return model, ChaosVector.from_kernel(kern)


def flip_tables(F: ValueTable, G: ValueTable, model: RademacherModel) -> list[np.ndarray]:
    """The oracle's per-coordinate tables D_kF |D_kG| / sqrt(p_k q_k), each
    built from full gradient tables."""
    return [
        d(F, k, model).values * np.abs(d(G, k, model).values) / model.sqrt_pq[k]
        for k in range(model.n)
    ]


def pairing_tolerance(table: ValueTable, per_coordinate, model: RademacherModel) -> float:
    """ULPS * (2n 2**n) * eps * sum |deltas| over every flip threshold."""
    thr, dlt = oracle_flip_thresholds(table, per_coordinate, model)
    return tolerance(len(thr), float(np.abs(dlt).sum()))


@given(pure_integrals(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_indicator_sup_matches_threshold_sort(inst, self_pairing):
    model, F = inst
    t = to_table(F, model)
    other = t if self_pairing else to_table(minus_pseudo_inverse(F), model)
    per_k = flip_tables(t, other, model)
    want = oracle_sup_flip_pairing(t, per_k, model)
    got = sup_flip_pairing(t, other, model)
    assert abs(got - want) <= pairing_tolerance(t, per_k, model)
    m = F.top_order
    per_k = flip_tables(t, t, model)
    got = kolmogorov_term(F, model)
    want = oracle_sup_flip_pairing(t, per_k, model) / m
    assert abs(got - want) <= pairing_tolerance(t, per_k, model) / m


@given(pure_integrals())
@settings(max_examples=40, deadline=None)
def test_streamed_gradient_terms_match_full_tables(inst):
    model, F = inst
    n = model.n
    got, want = abstract_bounds(F, model), oracle_abstract_bounds(F, model)
    assert got.keys() == want.keys()
    t = to_table(F, model)
    linv = to_table(minus_pseudo_inverse(F), model)
    indicator = pairing_tolerance(t, flip_tables(t, linv, model), model)
    indicator += pairing_tolerance(t, flip_tables(t, t, model), model) / F.top_order
    for key, value in want.items():
        gap = abs(got[key] - value)
        # every entry but the sups is a sum of nonnegative terms
        assert gap <= tolerance(2 * n * 2**n, abs(value)) + indicator, key
    got, want = quartic_gradient_sum(F, model), oracle_quartic_gradient_sum(F, model)
    assert abs(got - want) <= tolerance(2 * n * 2**n, want)


# -- exact laws by independent pieces -------------------------------------------

# coefficients of the drawn kernels: a few exact values, so that sums over
# different pieces tie, each nudged by a few ulps, so that ties become
# near-ties well inside the merge tolerance
BASE_COEFFS = (1.0, -1.0, 0.5, -2.0, 0.75)


@st.composite
def piece_kernels(draw, n_max=14):
    """(kernel, model) whose support falls into independent pieces.

    Blocks of 1 to 4 coordinates are laid out with unused coordinates
    between them and their labels shuffled, so pieces interleave; a block
    splits further when its subsets happen not to meet.  A ``connected``
    draw is every subset of order 2 or 3 over up to 8 coordinates, a
    ``repeated`` draw copies the first block's kernel and probabilities
    onto every block of its size, and ``zero`` and ``order0`` draws have
    no piece at all.
    """
    kind = draw(st.sampled_from(["disconnected", "connected", "repeated", "zero", "order0"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "connected":
        m = draw(st.integers(2, 3))
        n = draw(st.integers(m, 8))
        blocks = [(0, n)]
    else:
        m = 0 if kind == "order0" else draw(st.integers(1, 3))
        blocks, n = [], 0
        while True:
            size, gap = draw(st.integers(max(m, 1), 4)), draw(st.integers(0, 2))
            if blocks and n + gap + size > n_max:
                break
            blocks.append((n + gap, size))
            n += gap + size
            if not draw(st.booleans()):
                break
    label = rng.permutation(n)
    p = draw(st.lists(probs, min_size=n, max_size=n))
    coeffs, first = {}, None
    for start, size in blocks:
        if kind == "repeated" and first is not None and len(first[1]) == size:
            local, local_probs = first
        else:
            keep = 1.0 if kind == "connected" else 0.7
            local = {
                s: float(rng.choice(BASE_COEFFS)) * (1.0 + int(rng.integers(0, 4)) * 2.0**-50)
                for s in combinations(range(size), m)
                if rng.random() < keep
            }
            local_probs = [p[label[start + i]] for i in range(size)]
            first = first or (local, local_probs)
        for i in range(size):
            p[label[start + i]] = local_probs[i]
        for s, v in local.items():
            coeffs[tuple(sorted(int(label[start + i]) for i in s))] = v
    if kind == "zero":
        coeffs = {}
    elif kind == "order0":
        coeffs = {(): float(rng.choice(BASE_COEFFS))}
    return Kernel(m, n, coeffs), RademacherModel(tuple(p))


def assert_laws_match(
    got: DistributionTable, want: DistributionTable, gap: float, mass_tol: float
) -> float:
    """The union of both atom sets, cut where neighbours lie more than
    ``gap`` apart, holds atoms of both laws in every cluster and the same
    mass from each, within ``mass_tol`` per atom; returns the widest
    cluster."""
    atoms = np.concatenate([got.atoms, want.atoms])
    mass = np.concatenate([got.probs, -want.probs])
    owner = np.concatenate([np.zeros(len(got.atoms), int), np.ones(len(want.atoms), int)])
    order = np.argsort(atoms, kind="stable")
    cut = np.flatnonzero(np.diff(atoms[order]) > gap) + 1
    widest = 0.0
    for cluster in np.split(order, cut):
        assert set(owner[cluster]) == {0, 1}, atoms[cluster]
        assert abs(math.fsum(mass[cluster])) <= mass_tol * len(cluster), atoms[cluster]
        widest = max(widest, float(np.ptp(atoms[cluster])))
    return widest


@given(piece_kernels())
@settings(max_examples=120, deadline=None)
def test_law_by_pieces_matches_enumeration(drawn):
    """The law, moments and distances of ``integral_law`` against one
    table over all n coordinates.

    Both sides compute every outcome's value within the table tolerance
    ``value_tol`` of the per-subset products.  The merge rule runs on the
    whole table at once, and on each piece and each partial sum of the
    route, where it moves an outcome to the smallest value of its level.
    A chain of values that merges in a partial sum still merges, shifted
    alike, in the whole table, so each of these 2p - 1 steps (p pieces)
    moves an outcome by at most the widest level ``chain`` of the
    enumerated table plus ``value_tol``.  So the atoms are compared in
    clusters of the union of both atom sets, cut where neighbours lie
    more than those shifts apart; each cluster carries the same mass on
    both sides.  Masses are products of at most n + 1 rounded factors,
    renormalized once per partial sum.  The distances then differ by at
    most the width w of the widest cluster (W1 by w, dK by w times the
    largest normal density 0.4), plus the mass error (times the spread of
    the atoms for W1), plus the rounding of both distance walks.  A law
    without a split (one piece over the whole horizon) is the
    enumeration's, bit for bit.
    """
    f, model = drawn
    n = model.n
    route = integral_law(f, model)
    table = integral_table(f, model)
    want = exact_distribution(table, model)
    pieces = independent_pieces(f)
    assert [frozenset(c) for c, _ in pieces] == oracle_independent_pieces(f)
    assert sorted(s for _, subsets in pieces for s in subsets) == sorted(k for k in f.coeffs if k)
    assert route.dropped == 0
    if len(pieces) == 1 and pieces[0][0] == tuple(range(n)):
        assert np.array_equal(route.law.atoms, want.atoms)
        assert np.array_equal(route.law.probs, want.probs)
    F = ChaosVector.from_kernel(f)
    scale = magnitude(F, model)
    value_tol = tolerance(n + 1, scale)
    spread = 1.0 + float(max(np.abs(want.atoms).max(), np.abs(route.law.atoms).max()))
    mass_tol = tolerance(2 * (n + 1), 1.0)
    v, _, starts = _levels(table.values)
    chain = float(np.max(v[np.append(starts[1:], len(v)) - 1] - v[starts]))
    shift = 2 * len(pieces) * (chain + value_tol) + 2.0 * value_tol
    width = assert_laws_match(route.law, want, shift, mass_tol)
    w1, dk = normal_distances(route.law)
    w1_want, dk_want = normal_distances(want)
    mass_gap = mass_tol * (len(want.atoms) + len(route.law.atoms))
    walks = distance_tolerance(route.law) + distance_tolerance(want)
    assert abs(w1 - w1_want) <= width + mass_gap * spread + walks
    assert abs(dk - dk_want) <= 0.4 * width + mass_gap + walks
    if f.order >= 1:
        second, fourth = route.variance, route.fourth
        second_want, fourth_want = even_moments(table, model)
        assert abs(second - second_want) <= tolerance(2 * (n + 1), scale**2)
        assert abs(fourth - fourth_want) <= tolerance(4 * (n + 1), scale**4)


def test_law_by_pieces_builds_a_repeated_piece_once(monkeypatch):
    kern, model = matched_pairs_kernel(12)
    built = []

    def counting(f, sub_model, caps):
        built.append(sub_model.n)
        return integral_table(f, sub_model, caps)

    monkeypatch.setattr("chaoslab.distance.integral_table", counting)
    route = integral_law(kern, model)
    assert built == [2]
    # all six pieces enter the moments
    assert route.variance == pytest.approx(1.0, abs=1e-12)
    assert route.fourth == pytest.approx(3.0 - 4.0 / 12, abs=1e-12)


SMALL_CAPS = Caps(enum_cap=6)


def test_law_by_pieces_refuses_a_piece_above_enum_cap():
    chain = Kernel(2, 9, {(i, i + 1): 1.0 for i in range(6)})  # 7 joined coordinates
    with pytest.raises(CapacityError, match="enum_cap") as err:
        integral_law(chain, RademacherModel.symmetric(9), SMALL_CAPS)
    assert (err.value.cap_name, err.value.cap_value, err.value.requested) == ("enum_cap", 6, 7)


def test_law_by_pieces_refuses_an_outer_sum_above_enum_cap():
    # seven single-coordinate pieces whose sums of signed coefficients are
    # all distinct: the seventh outer sum pairs 2**6 atoms with 2
    f = Kernel(1, 7, {(i,): 2.0**i for i in range(7)})
    with pytest.raises(CapacityError, match="enum_cap") as err:
        integral_law(f, RademacherModel.symmetric(7), SMALL_CAPS)
    assert (err.value.cap_name, err.value.requested) == ("enum_cap", 2**7)
    # six of them fit exactly
    law = integral_law(f.truncate(6), RademacherModel.symmetric(7), SMALL_CAPS).law
    assert len(law.atoms) == 2**6


def test_law_by_pieces_runs_past_enum_cap_on_the_horizon():
    kern, model = matched_pairs_kernel(14)
    got = integral_law(kern, model, SMALL_CAPS).law
    want = exact_distribution(integral_table(kern, model), model)
    assert np.array_equal(got.atoms, want.atoms)
    assert np.abs(got.probs - want.probs).max() <= 8 * EPS


def test_law_by_pieces_drops_underflowed_masses_within_their_bound():
    # sixty order-1 pieces at p = 1e-6: the mass of k plus signs,
    # C(60, k) p^k q^(60-k), underflows binary64 for k above about 53
    n, p = 60, FLOOR
    model = RademacherModel.homogeneous(p, n)
    f = Kernel(1, n, {(i,): 1.0 for i in range(n)}).normalized()
    route = integral_law(f, model)
    law = route.law
    assert route.dropped > 0 and np.all(law.probs > 0.0)
    a = f.coeffs[(0,)]
    with mpmath.workdps(40):
        exact = [
            (a * (k * float(model.y_plus[0]) + (n - k) * float(model.y_minus[0])),
             mpmath.binomial(n, k) * mpmath.mpf(p) ** k * (1 - mpmath.mpf(p)) ** (n - k))
            for k in range(n + 1)
        ]
        kept = [(x, float(mass)) for x, mass in exact if float(mass) > 1e-300]
        assert len(law.atoms) < n + 1
        # the missing atoms weigh no more than the stated bound
        missing = mpmath.fsum(mass for _, mass in exact[len(law.atoms):])
        assert missing <= route.dropped * mpmath.mpf(2) ** -1074
    atoms = np.array([x for x, _ in kept])
    masses = np.array([m for _, m in kept])
    assert np.allclose(law.atoms[: len(atoms)], atoms, rtol=1e-12, atol=0.0)
    assert np.allclose(law.probs[: len(masses)], masses, rtol=1e-10, atol=0.0)
    want = from_weighted_values(atoms, masses)
    assert normal_distances(law) == pytest.approx(normal_distances(want), rel=1e-12, abs=1e-15)
    # the bound reports read the same pieces
    rw, rk = theorem_bounds(ChaosVector.from_kernel(f), model)
    assert (rw.exact_distance, rk.exact_distance) == normal_distances(law)
