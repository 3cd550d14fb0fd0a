"""Bit-equality contracts: fast paths against the code they replaced.

``abstract_bounds`` takes its gradient terms and the indicator sup's flip
flow from one sweep over the coordinates (the oracle forms -L^-1 F as the
docstring says: F's table times 1/m for a pure order m; the synthesized
route is checked in ``test_malliavin``), ``sup_flip_pairing`` ranks a flow
built through the same per-coordinate helper, ``_operator_table``
synthesizes -L^-1 F of a mixed F from each order scaled once,
``Kernel.influence_vector`` adds in Python floats, and
``ou_generator_pathwise`` and ``gamma0`` form one difference per
coordinate.  Each keeps the rounding of the code it replaced, so
every output must equal the ``loop_*`` oracles of ``conftest`` bit for
bit.  A support plan for a zero skew, which ``chaoslab moments`` builds
for fair coins, must give the fair-coin plan's bits.  The identity suite's
Monte Carlo checks draw signs, not a ``Y`` matrix, and must read the same
means and outcomes from them; a law of equally weighted values, built
without an argsort, must equal the law of the gathered weights; and
``join_coordinate`` must equal its ``np.stack`` form.  The support plan's
outputs at the benchmark's sizes, and on a support of mixed orders, keep
the bits recorded before its sorts became value sorts of packed keys and
before its disjoint pairs were masked by ``np.maximum``.  Bits are compared
under ``view(np.int64)`` so that the sign of a zero counts too.  CI runs
this file again with numpy's AVX-512 dispatch off.

The operator chain takes its checked fourth moment before it squares a
table, so a table whose fourth moment leaves the float range is refused
with ``DomainError`` before any numpy overflow warning; the kernel's own
sums of squares refuse likewise.  Whether numpy warns depends on the
floating-point flags its SIMD loops raise, so these run in both passes.
"""

import warnings

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import (
    DEFAULT_CAPS,
    ChaosVector,
    DomainError,
    Kernel,
    RademacherModel,
    ValueTable,
    random_kernel,
    to_table,
    zero_kernel,
)
from chaoslab.bounds import _coordinate_sweep, abstract_bounds
from chaoslab.chaos import _ROTATE_FROM, integral_table, join_coordinate
from chaoslab.construct import symmetric_counterexample
from chaoslab.distance import _MERGE_TOL, exact_distribution, from_weighted_values
from chaoslab.kernels import off_diagonal_defect, support_plan, tensor_square_residual
from chaoslab.malliavin import _operator_table, gamma0, ou_generator_pathwise, pseudo_inverse
from chaoslab.model import outcome_index, split_coordinate
from chaoslab.moments import (
    _flip_flow,
    fourth_moment_factorized,
    fourth_moment_symmetric,
    kolmogorov_term,
    quartic_gradient_identity,
    sup_flip_pairing,
    var_gamma_normalized,
    var_projection_sum,
)
from chaoslab.verify import _sampled_means
from conftest import (
    loop_abstract_bounds,
    loop_flip_flow,
    loop_from_weighted_values,
    loop_gamma0,
    loop_influence_vector,
    loop_ou_generator_pathwise,
    loop_outcome_index,
    loop_pseudo_inverse,
    loop_sup_flip_pairing,
    matrix_sampled_means,
    minus_linv_table,
    random_chaos,
    stack_join_coordinate,
)

FLOOR = 1e-6
probs = st.one_of(st.sampled_from([FLOOR, 1.0 - FLOOR, 0.5]), st.floats(FLOOR, 1.0 - FLOOR))


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_bits(got, want, what=""):
    assert np.shape(got) == np.shape(want), what
    assert np.array_equal(bits(got), bits(want)), what


@st.composite
def centered_vectors(draw, n_max=14):
    """(model, F) for n = 1..n_max with p drawn up to the 1e-6 floor: pure
    integrals, normalized ones (which add the single-order lines), centered
    mixtures of orders and zero vectors."""
    n = draw(st.integers(1, n_max))
    model = RademacherModel(tuple(draw(st.lists(probs, min_size=n, max_size=n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, min(3, n)))
    kind = draw(st.sampled_from(["pure", "normalized", "mixed", "zero"]))
    if kind == "mixed":
        return model, random_chaos(rng, n, top=m)
    if kind == "zero":
        return model, ChaosVector.from_kernel(zero_kernel(m, n))
    f = random_kernel(m, n, rng, normalized=kind == "normalized")
    return model, ChaosVector.from_kernel(f)


def edge(n: int):
    """A normalized order-2 integral with its end coordinates at the floor."""
    model = RademacherModel((FLOOR,) + (0.3,) * (n - 2) + (1.0 - FLOOR,))
    return model, ChaosVector.from_kernel(random_kernel(2, n, n, normalized=True))


# both sides of the rotated butterfly, and the one-coordinate horizon
EDGES = [edge(_ROTATE_FROM - 1), edge(_ROTATE_FROM)]
ONE = (RademacherModel((FLOOR,)), ChaosVector.from_kernel(random_kernel(1, 1, 0, normalized=True)))


@given(centered_vectors())
@example(EDGES[0])
@example(EDGES[1])
@example(ONE)
@settings(max_examples=60, deadline=None)
def test_abstract_bounds_keeps_the_bits_of_the_loops(inst):
    model, F = inst
    got, want = abstract_bounds(F, model), loop_abstract_bounds(F, model)
    assert list(got) == list(want)
    for key in want:
        assert_same_bits(got[key], want[key], key)
    # the sweep's flow is the flow of (F, -L^-1 F) built alone
    table = to_table(F, model)
    linv = minus_linv_table(F, table, model)
    flow = _coordinate_sweep(table, linv, model, model.weights())[-1]
    assert_same_bits(flow, loop_flip_flow(table, linv, model))


@given(centered_vectors(), st.sampled_from(["self", "linv", "other"]))
@example(EDGES[1], "self")
@example(EDGES[1], "other")
@settings(max_examples=60, deadline=None)
def test_sup_flip_pairing_keeps_the_bits_of_the_loops(inst, pairing):
    model, F = inst
    table = to_table(F, model)
    if pairing == "self":
        G = table  # G is F: one gradient per coordinate
    elif pairing == "linv":
        G = to_table(pseudo_inverse(F).scale(-1.0), model)
    else:
        other = random_chaos(np.random.default_rng(model.n), model.n, top=min(2, model.n))
        G = to_table(other, model)
    assert_same_bits(_flip_flow(table, G, model, model.weights()), loop_flip_flow(table, G, model))
    assert_same_bits(sup_flip_pairing(table, G, model), loop_sup_flip_pairing(table, G, model))
    m = F.pure_order()
    if m and pairing == "self":
        assert_same_bits(kolmogorov_term(F, model), loop_sup_flip_pairing(table, table, model) / m)


def assert_same_vector(got: ChaosVector, want: ChaosVector):
    assert got.horizon == want.horizon and len(got.kernels) == len(want.kernels)
    for a, b in zip(got.kernels, want.kernels):
        assert list(a.coeffs) == list(b.coeffs)
        assert_same_bits(list(a.coeffs.values()), list(b.coeffs.values()))


@given(centered_vectors(n_max=10), st.floats(-1e-10, 1e-10))
@settings(max_examples=60, deadline=None)
def test_minus_pseudo_inverse_keeps_the_bits_of_two_passes(inst, residue):
    model, F = inst
    # a mean below rounding scale is dropped by both
    F = ChaosVector(F.horizon, (Kernel(0, F.horizon, {(): residue}),) + F.kernels[1:])
    table = to_table(F, model)
    # the scale abstract_bounds passes; the oracle synthesizes loop_minus_pseudo_inverse(F)
    # unless F is pure, where it takes F's table times 1/m
    got = _operator_table(F, table, lambda r: 1.0 / r if r else 0.0, model, DEFAULT_CAPS)
    assert_same_bits(got.values, minus_linv_table(F, table, model).values)
    assert_same_vector(pseudo_inverse(F), loop_pseudo_inverse(F))


coefficients = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1e154, -1.5e154, 1.0, -0.0]),
)


@st.composite
def kernels(draw):
    """Kernels of order 0..4, empty ones included, with coefficients whose
    squares underflow, overflow or tie, and dense normal kernels, whose sums
    round differently in another order."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, min(4, n)))
    if draw(st.booleans()):
        return random_kernel(m, n, draw(st.integers(0, 2**32 - 1)))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(n), m))), unique=True))
    return Kernel(m, n, {key: draw(coefficients) for key in keys})


@given(kernels())
@example(zero_kernel(0, 3))
@example(zero_kernel(2, 5))
@example(Kernel(0, 2, {(): -3.0}))
@settings(max_examples=200, deadline=None)
def test_influence_vector_keeps_the_bits_of_the_entry_loop(f):
    got = f.influence_vector()
    assert got.dtype == np.float64
    with np.errstate(over="ignore"):  # the entry loop warns where a sum overflows
        want = loop_influence_vector(f)
    assert_same_bits(got, want)


@st.composite
def supports(draw):
    """(n, coefficients) on n < 14 coordinates: one order of 1..3 or a mix
    of them, each order dense or thinned to a drawn share of its subsets."""
    n = draw(st.integers(1, 13))
    orders = draw(st.lists(st.integers(1, min(3, n)), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.sampled_from([1.0, 0.5, 0.1]))
    coeffs = {}
    for m in orders:
        coeffs.update((key, v) for key, v in random_kernel(m, n, rng).coeffs.items() if rng.random() < keep)
    return n, coeffs


@given(supports())
@settings(max_examples=100, deadline=None)
def test_zero_skew_plan_keeps_the_bits_of_the_fair_coin_plan(inst):
    n, coeffs = inst
    assert_same_bits(RademacherModel.symmetric(n).skew, np.zeros(n))  # +0.0, exactly
    fair, values = support_plan(coeffs)
    plan, same = support_plan(coeffs, np.zeros(n))
    assert_same_bits(same, values)
    assert_same_bits(plan.fourth_moment(same), fair.fourth_moment(values))


@st.composite
def value_tables(draw, n: int):
    """A table on n coordinates: normal values, signed zeros, small integers
    whose halves agree along drawn coordinates, or normal values scaled to
    1e-300, to 1e-157 (where products are subnormal) or to 1e150."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "zeros", "equal_halves", "scaled"]))
    if kind == "normal":
        v = rng.standard_normal(2**n)
    elif kind == "zeros":
        v = rng.choice([0.0, -0.0], 2**n)
    elif kind == "equal_halves":
        v = rng.choice([0.0, -0.0, 1.0, -2.0], 2**n)
        for k in draw(st.lists(st.integers(0, n - 1), unique=True)):
            minus, plus = split_coordinate(v, k)
            plus[...] = minus
    else:
        scale = draw(st.sampled_from([1e-300, 1e-157, 1e150]))
        v = rng.standard_normal(2**n) * 10.0 ** rng.uniform(-8.0, 0.0, 2**n) * scale
    return ValueTable(n, v)


@st.composite
def pathwise_inputs(draw):
    """(model, F, G) for n = 1..14 with p drawn up to the 1e-6 floor; G is
    F itself or a second table."""
    n = draw(st.integers(1, 14))
    model = RademacherModel(tuple(draw(st.lists(probs, min_size=n, max_size=n))))
    F = draw(value_tables(n))
    return model, F, F if draw(st.booleans()) else draw(value_tables(n))


@given(pathwise_inputs())
@example((RademacherModel((FLOOR,)), ValueTable(1, [-0.0, -0.0]), ValueTable(1, [0.0, -0.0])))
@settings(max_examples=200, deadline=None)
def test_pathwise_operators_keep_the_bits_of_both_differences(inst):
    model, F, G = inst
    assert_same_bits(ou_generator_pathwise(F, model).values, loop_ou_generator_pathwise(F, model))
    assert_same_bits(gamma0(F, G, model).values, loop_gamma0(F, G, model))
    assert_same_bits(gamma0(F, F, model).values, loop_gamma0(F, F, model))


@pytest.mark.parametrize("big", [1e80, 1e100])
@pytest.mark.parametrize("operator", [
    var_projection_sum, var_gamma_normalized, quartic_gradient_identity, abstract_bounds,
])
def test_an_overflowing_fourth_moment_is_refused_before_any_square(operator, big):
    F = ChaosVector.from_kernel(Kernel.from_subset_coeffs(2, 3, {(0, 1): big, (1, 2): 1.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="the values overflow the fourth moment"):
            operator(F, RademacherModel((0.3, 0.5, 0.7)))


def test_abstract_bounds_refuses_before_the_squared_field():
    F = ChaosVector.from_kernel(random_kernel(2, 4, 0).scale(1e154))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="the values overflow the fourth moment"):
            abstract_bounds(F, RademacherModel.symmetric(4))


def test_overflowing_sums_of_squares_are_refused():
    f = Kernel(1, 2, {(0,): 1e155})
    with pytest.raises(DomainError, match="overflow the squared norm"):
        f.norm_sq()
    with pytest.raises(DomainError, match="overflow the sup-influence"):
        f.sup_influence()
    # 1e154 squares to 1e308, inside the float range; times 2! it is not
    edge = Kernel(1, 2, {(0,): 1e154})
    assert edge.norm_sq() == edge.sup_influence() == 1e154 * 1e154
    with pytest.raises(DomainError, match="overflow the squared norm"):
        Kernel(2, 3, {(0, 1): 1e154}).norm_sq()


def test_sampled_means_keep_the_bits_of_the_y_matrix():
    # the suite's count on every fourth draw, else a count that leaves a
    # short tail in numpy's pow and pairwise sum
    rng = np.random.default_rng(2024)
    for i in range(200):
        p = float(rng.uniform(0.2, 0.8))
        model, seed = RademacherModel((p, p, p)), int(rng.integers(2**31))
        count = 200_000 if i % 4 == 0 else int(rng.integers(1, 20_000))
        got = _sampled_means(model, seed, count)
        assert_same_bits(got, matrix_sampled_means(model, seed, count), (p, seed, count))


@pytest.mark.parametrize("n", [1, 2, 5, 8, 24])
def test_outcome_index_is_the_shift_loop(n):
    plus = np.random.default_rng(n).random((1000, n)) < 0.4
    got = outcome_index(plus)
    assert got.dtype == np.int64
    assert np.array_equal(got, loop_outcome_index(plus))


@st.composite
def shared_weights(draw):
    """(values, one shared weight): distinct values, exact ties among a pool
    that holds 0.0 and -0.0, chains of steps within ``_MERGE_TOL``, or a
    fair-coin table with its weight 2**-n."""
    kind = draw(st.sampled_from(["distinct", "ties", "chains", "fair_table"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "fair_table":
        n = draw(st.integers(1, 10))
        f = random_kernel(int(rng.integers(1, min(3, n) + 1)), n, rng, normalized=True)
        return integral_table(f, RademacherModel.symmetric(n)).values, 0.5**n
    size = draw(st.integers(1, 300))
    scale = draw(st.sampled_from([1.0, 1e5]))
    if kind == "distinct":
        values = rng.standard_normal(size) * scale
    elif kind == "ties":
        pool = np.concatenate([rng.standard_normal(int(rng.integers(1, 6))) * scale, [0.0, -0.0]])
        values = rng.choice(pool, size)
    else:
        base = rng.choice(rng.standard_normal(4) * scale, size)
        step = 0.4 * _MERGE_TOL * max(1.0, float(np.abs(base).max()))
        values = base + rng.integers(0, 6, size) * step
    return values, draw(st.sampled_from([1.0 / size, 1.0, 3e-7]))


def assert_same_law_but_zero_signs(got, want):
    """Same masses bit for bit; same atoms, bit for bit but for the sign of a
    zero atom, which an ``np.sort`` may take from another value of its level."""
    assert_same_bits(got.probs, want.probs)
    assert np.array_equal(got.atoms, want.atoms)
    nonzero = want.atoms != 0.0
    assert_same_bits(got.atoms[nonzero], want.atoms[nonzero])


@given(shared_weights())
@example((np.array([0.0, -0.0, 1.0, -0.0]), 0.25))
@settings(max_examples=100, deadline=None)
def test_a_shared_weight_gives_the_law_of_the_gathered_weights(drawn):
    values, weight = drawn
    full = np.full(len(values), weight)
    got = from_weighted_values(values, weight)
    assert_same_law_but_zero_signs(got, from_weighted_values(values, full))
    assert_same_law_but_zero_signs(got, loop_from_weighted_values(values, full))


@pytest.mark.parametrize("n", [1, 6, 13])
def test_a_fair_coin_law_keeps_the_bits_of_its_weights(n):
    model = RademacherModel.symmetric(n)
    table = integral_table(random_kernel(2 if n > 1 else 1, n, n, normalized=True), model)
    got = exact_distribution(table, model)
    assert_same_law_but_zero_signs(got, from_weighted_values(table.values, model.weights()))


@pytest.mark.parametrize("n", range(1, 9))
def test_join_coordinate_is_the_stack(n):
    values = np.random.default_rng(n).choice([0.0, -0.0, 1.5, -2.0, np.nan], 2**n)
    for k in range(n):
        minus, plus = split_coordinate(values, k)
        for a, b in ((minus, plus), (plus, plus), (minus, minus)):
            assert_same_bits(join_coordinate(a, b), stack_join_coordinate(a, b), k)


# -- the support plan's bits ----------------------------------------------------
# float.hex of each output, recorded before the plan grouped its splits and
# g1 keys from one value sort; every np.bincount must still add the same
# terms in the same order, and every exact sum see the same terms.


def drawn_support(m: int, n: int, size: int, seed: int) -> dict:
    """``size`` distinct subsets of order m on n coordinates with normal values."""
    rng = np.random.default_rng(seed)
    pool = list(combinations(range(n), m))
    return {pool[i]: float(rng.standard_normal()) for i in np.sort(rng.choice(len(pool), size, replace=False)).tolist()}


@pytest.mark.parametrize("m, n, fourth, defect, residual", [
    (3, 40, "0x1.48023b27ab1cep+19", "0x1.0a3670105599ap+28", "0x1.1c6b6876f1ff0p+27"),
    (2, 60, "0x1.47b4adfdd7757p+19", "0x1.02f1099fe81a0p+20", "0x1.00125b914c278p+19"),
])
def test_fair_plan_outputs_keep_their_bits(m, n, fourth, defect, residual):
    coeffs = drawn_support(m, n, 500, 30)
    f = Kernel(m, n, coeffs)
    assert fourth_moment_symmetric(coeffs).hex() == fourth
    assert off_diagonal_defect(f).hex() == defect
    assert tensor_square_residual(f).hex() == residual


@pytest.mark.parametrize("m, n, fourth", [
    (1, 60, "0x1.a988c74e47dacp+11"), (2, 40, "0x1.d7e2a30777c02p+11"), (3, 30, "0x1.1f9c7c533f8fep+12"),
])
def test_skewed_plan_outputs_keep_their_bits(m, n, fourth):
    probs = tuple(np.random.default_rng(32 + m).uniform(0.2, 0.8, n).tolist())
    assert fourth_moment_factorized(drawn_support(m, n, 40, 31), RademacherModel(probs)).hex() == fourth


def mixed_support() -> tuple[dict, tuple]:
    """15 subsets of each order 1..3 on 20 coordinates, and skewed p's."""
    rng = np.random.default_rng(33)
    coeffs = {}
    for m in (1, 2, 3):
        pool = list(combinations(range(20), m))
        coeffs.update((pool[i], float(rng.standard_normal())) for i in np.sort(rng.choice(len(pool), 15, replace=False)).tolist())
    return coeffs, tuple(rng.uniform(0.2, 0.8, 20).tolist())


def test_mixed_skewed_plan_keeps_its_bits():
    coeffs, probs = mixed_support()
    assert fourth_moment_factorized(coeffs, RademacherModel(probs)).hex() == "0x1.1c87a27f620f5p+12"


def test_mixed_fair_plan_keeps_its_bits():
    # recorded while the disjoint pairs of mixed orders were masked by ``np.where``
    assert fourth_moment_symmetric(mixed_support()[0]).hex() == "0x1.f5ec58193c868p+11"


def test_counterexample_keeps_its_bits():
    _, trace = symmetric_counterexample(2, 16)
    assert (float(trace.theta).hex(), float(trace.residual).hex()) == ("0x1.4bc6522760000p-4", "-0x1.9580000000000p-41")
