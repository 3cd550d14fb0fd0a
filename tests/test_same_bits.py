"""Bit-equality contracts: fast paths against the code they replaced.

``abstract_bounds`` takes its gradient terms and the indicator sup's flip
flow from one sweep over the coordinates, ``sup_flip_pairing`` ranks a flow
built through the same per-coordinate helper, ``minus_pseudo_inverse``
scales each order once and ``Kernel.influence_vector`` adds in Python
floats.  Each keeps the rounding of the code it replaced, so every output
must equal the ``loop_*`` oracles of ``conftest`` bit for bit.  A support
plan for a zero skew, which ``chaoslab moments`` builds for fair coins,
must give the fair-coin plan's bits.  Bits are compared under
``view(np.int64)`` so that the sign of a zero counts too.  CI runs this
file again with numpy's AVX-512 dispatch off.
"""

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import (
    ChaosVector,
    Kernel,
    RademacherModel,
    random_kernel,
    to_table,
    zero_kernel,
)
from chaoslab.bounds import _coordinate_sweep, abstract_bounds
from chaoslab.chaos import _ROTATE_FROM
from chaoslab.kernels import support_plan
from chaoslab.malliavin import minus_pseudo_inverse, pseudo_inverse
from chaoslab.moments import _flip_flow, kolmogorov_term, sup_flip_pairing
from conftest import (
    loop_abstract_bounds,
    loop_flip_flow,
    loop_influence_vector,
    loop_minus_pseudo_inverse,
    loop_pseudo_inverse,
    loop_sup_flip_pairing,
    random_chaos,
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
    table, linv = to_table(F, model), to_table(minus_pseudo_inverse(F), model)
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
        G = to_table(minus_pseudo_inverse(F), model)
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
    _, F = inst
    # a mean below rounding scale is dropped by both
    F = ChaosVector(F.horizon, (Kernel(0, F.horizon, {(): residue}),) + F.kernels[1:])
    assert_same_vector(minus_pseudo_inverse(F), loop_minus_pseudo_inverse(F))
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
