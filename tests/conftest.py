"""Shared helpers: instance generators and slow independent oracles.

The oracles here deliberately avoid the library's fast paths: they loop
over outcomes and tuples directly, or take the slower route the library
replaced (the multiple integral evaluated one outcome at a time, the
squared norms of a symmetrized tensor weighted by multiset orderings,
one product table per subset, inclusion-exclusion over
conditional expectations, the outcome weights by one concatenation per
coordinate, the Walsh butterfly as a plain per-coordinate
loop, the Hoeffding read-out as a dict over every subset, the alternative
pathwise forms of the generator and the squared field, the quadruple
expansion of the fourth moment and the expansion of F**2 over all pairs
of subsets, the tensor square as a dictionary over the multisets of all
pairs of subsets, the sphere-path bisection on dictionary points with a
fresh fourth moment at each step, the contraction sum of the
tensor-square residual over explicit tuples, the sparse multiply-and-project
route to the projection variances of F**2,
the law by a stable sort with an fsum renormalization (and by
``np.add.reduceat`` on every level, one-value levels too), the
atom-by-atom Kolmogorov loop, the segment-by-segment Wasserstein integral
(and the general segment formula on every segment of a block), the sort
of all 2n 2**n flip thresholds for the indicator sup (both grouped into
levels by ``oracle_level_starts``, which restates the library's one merge
rule), and the abstract-bound terms on one full gradient table per
coordinate), so agreement with the fast engines is meaningful.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations, product
from statistics import NormalDist
from typing import Iterator

import numpy as np
import pytest

from chaoslab import (
    ChaosVector,
    Kernel,
    RademacherModel,
    ValueTable,
    conditional_expectation,
    multiply,
    project,
    random_kernel,
    sample_y_matrix,
    symmetrized_tensor,
    to_table,
    variance,
    y_moment,
)
from chaoslab.bounds import _DEGENERACY_TOL, _NORMALIZATION_TOL
from chaoslab.construct import first_coordinate_point, uniform_sphere_point
from chaoslab.chaos import even_moments, join_coordinate, split_coordinate
from chaoslab.distance import (
    _INV_CDF,
    _MERGE_TOL,
    DistributionTable,
    _integral_cdf_below,
    _integral_sf_above,
    _levels,
    _normal_cdf_array,
    normal_cdf,
)
from chaoslab.malliavin import d, d_half, gamma0, minus_pseudo_inverse
from chaoslab.moments import fourth_moment_symmetric, moment


def random_model(rng, n, lo=0.1, hi=0.9) -> RademacherModel:
    return RademacherModel(tuple(float(x) for x in rng.uniform(lo, hi, n)))


def random_instance(rng, m_max=3, n_max=10, normalized=True):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(max(m + 1, 4), n_max + 1))
    model = random_model(rng, n)
    return model, random_kernel(m, n, rng, normalized=normalized)


def random_chaos(rng, n, top=2, centered=True) -> ChaosVector:
    parts = [Kernel(0, n, {} if centered else {(): float(rng.standard_normal())})]
    for r in range(1, top + 1):
        parts.append(random_kernel(r, n, rng))
    return ChaosVector(n, tuple(parts))


@dataclass(frozen=True)
class Outcome:
    """One point of {-1,+1}^n together with its exact probability."""

    signs: tuple[int, ...]
    weight: float

    @property
    def index(self) -> int:
        return sum(1 << k for k, s in enumerate(self.signs) if s == 1)


def oracle_weights(model: RademacherModel) -> np.ndarray:
    """The outcome weights by doubling, one concatenation per coordinate."""
    w = np.array([1.0])
    for k in range(model.n):
        w = np.concatenate([w * model.q[k], w * model.p[k]])
    return w


def oracle_outcomes(model: RademacherModel) -> Iterator[Outcome]:
    """All 2**n outcomes in bitmask order, with the model's exact weights."""
    w = model.weights()
    n = model.n
    for idx in range(2**n):
        signs = tuple(1 if (idx >> k) & 1 else -1 for k in range(n))
        yield Outcome(signs=signs, weight=float(w[idx]))


def oracle_integral_value(f: Kernel, outcome: Outcome, model: RademacherModel) -> float:
    """Multiple integral at one outcome: m! sum_J f_J prod_{i in J} Y_i."""
    y = [
        model.y_plus[k] if outcome.signs[k] == 1 else model.y_minus[k]
        for k in range(model.n)
    ]
    acc = 0.0
    for key, v in f.coeffs.items():
        prod = v
        for i in key:
            prod *= y[i]
        acc += prod
    return math.factorial(f.order) * acc


def oracle_expectation(fn, model) -> float:
    """Plain python expectation: loop outcomes, no numpy reductions."""
    total = 0.0
    for outcome in oracle_outcomes(model):
        total += outcome.weight * fn(outcome)
    return total


def oracle_integral_moment(kern, model, r) -> float:
    return oracle_expectation(
        lambda o: oracle_integral_value(kern, o, model) ** r, model
    )


def oracle_stroock_coefficient(table_fn, model, subset) -> float:
    """E[F * prod Y_i] by outcome loop; table_fn maps Outcome -> value."""
    def fn(o):
        y = 1.0
        for i in subset:
            p = model.probs[i]
            y *= math.sqrt((1 - p) / p) if o.signs[i] == 1 else -math.sqrt(p / (1 - p))
        return table_fn(o) * y

    return oracle_expectation(fn, model)


def oracle_symmetrized_tensor_value(f: Kernel, g: Kernel, tup) -> float:
    """Average of f(x)g over all permutations of an explicit tuple."""
    m, n = f.order, g.order
    total = 0.0
    for perm in permutations(tup):
        total += f.value(perm[:m]) * g.value(perm[m:])
    return total / math.factorial(m + n)


def oracle_tensor_square_norms(f: Kernel, horizon: int) -> tuple[float, float]:
    """Full and diagonal-restricted squared norms of the symmetrized
    tensor square, by enumeration over all (2m)-tuples."""
    m = f.order
    full = 0.0
    diag = 0.0
    for tup in product(range(horizon), repeat=2 * m):
        v = oracle_symmetrized_tensor_value(f, f, tup)
        full += v * v
        if len(set(tup)) != len(tup):
            diag += v * v
    return full, diag


def oracle_multiset_norms(t: dict[tuple[int, ...], float]) -> tuple[float, float]:
    """Full and diagonal-restricted squared norms of a symmetrized tensor
    (``symmetrized_tensor``'s map from sorted multisets) over all tuples,
    each multiset weighted by its number of orderings."""
    full = 0.0
    diag = 0.0
    for key, v in t.items():
        orderings = math.factorial(len(key))
        for run in Counter(key).values():
            orderings //= math.factorial(run)
        full += orderings * v * v
        if len(set(key)) != len(key):
            diag += orderings * v * v
    return full, diag


def tensor_top_kernel(f: Kernel, g: Kernel) -> Kernel:
    """The distinct-index part of ``symmetrized_tensor(f, g)`` as a kernel,
    through the validating constructor: the top kernel of the product."""
    t = symmetrized_tensor(f, g)
    kept = {key: v for key, v in t.items() if len(set(key)) == len(key)}
    return Kernel(f.order + g.order, f.horizon, kept)


def oracle_contraction_residual(f: Kernel, horizon: int) -> float:
    """(m!)^2 sum_{r=1}^{m-1} C(m, r)^2 ||f (x)_r f||^2, where the contraction
    (f (x)_r f)(x, y) = sum_z f(x, z) f(y, z) runs over explicit tuples x, y
    of length m - r and z of length r."""
    m = f.order
    total = 0.0
    for r in range(1, m):
        norm = 0.0
        outer = list(product(range(horizon), repeat=m - r))
        inner = list(product(range(horizon), repeat=r))
        for x in outer:
            for y in outer:
                c = sum(f.value(x + z) * f.value(y + z) for z in inner)
                norm += c * c
        total += math.comb(m, r) ** 2 * norm
    return math.factorial(m) ** 2 * total


def oracle_integral_table(f: Kernel, model: RademacherModel) -> np.ndarray:
    """Multiple integral table as a sum of one product table per subset."""
    size = 2**model.n
    ys = [model.y_table(k) for k in range(model.n)]
    acc = np.zeros(size)
    for key, v in f.coeffs.items():
        term = np.full(size, v)
        for i in key:
            term = term * ys[i]
        acc += term
    return math.factorial(f.order) * acc


def oracle_hoeffding(W: ValueTable, model: RademacherModel) -> dict:
    """Hoeffding components by inclusion-exclusion over conditional
    expectations, W_J = sum_{K subset J} (-1)^{|J|-|K|} E[W | K], for every
    J over all coordinates."""
    n = model.n
    cond = {}
    out = {}
    for size in range(n + 1):
        for J in combinations(range(n), size):
            acc = np.zeros(2**n)
            for ksize in range(size + 1):
                for K in combinations(J, ksize):
                    if K not in cond:
                        cond[K] = conditional_expectation(W, model, set(K)).values
                    acc += (-1.0 if (size - ksize) % 2 else 1.0) * cond[K]
            out[J] = acc
    return out


def oracle_basis_coefficients(values: np.ndarray, model: RademacherModel) -> np.ndarray:
    """The analysis butterfly as a plain in-place loop over coordinates,
    each on the ``split_coordinate`` halves of one copy of the table."""
    c = np.array(values, dtype=float)
    for k in range(model.n):
        minus, plus = split_coordinate(c, k)
        diff = plus - minus
        plus *= model.p[k]
        minus *= model.q[k]
        minus += plus
        np.multiply(diff, model.sqrt_pq[k], out=plus)
    return c


def oracle_basis_synthesis(coeffs: np.ndarray, model: RademacherModel) -> np.ndarray:
    """The synthesis butterfly as a plain in-place loop over coordinates."""
    v = np.array(coeffs, dtype=float)
    for k in range(model.n):
        minus, plus = split_coordinate(v, k)
        at_minus = plus * model.y_minus[k]
        plus *= model.y_plus[k]
        plus += minus
        minus += at_minus
    return v


def oracle_coefficient_array(F: ChaosVector) -> np.ndarray:
    """r! f_r(J) stored one key at a time at the bitmask of J."""
    c = np.zeros(2**F.horizon)
    for r, kern in enumerate(F.kernels):
        for key, v in kern.coeffs.items():
            c[sum(1 << i for i in key)] = math.factorial(r) * v
    return c


def oracle_walsh_components(coeffs: np.ndarray, n: int) -> dict:
    """c_J for every subset J of the coordinates some nonzero coefficient
    holds, sizes ascending and each size in ``combinations`` order."""
    dependent = [k for k in range(n) if np.any(split_coordinate(coeffs, k)[1])]
    return {
        J: float(coeffs[sum(1 << i for i in J)])
        for size in range(len(dependent) + 1)
        for J in combinations(dependent, size)
    }


def oracle_degenerate_order(components: dict) -> tuple[int | None, dict]:
    """The one size whose energy (sum of c_J^2 in dict order) exceeds
    _DEGENERACY_TOL (1 + total), or None, and the energies."""
    energy: dict[int, float] = {}
    for J, c in components.items():
        if J:
            energy[len(J)] = energy.get(len(J), 0.0) + c * c
    total = sum(energy.values())
    live = [s for s, e in energy.items() if e > _DEGENERACY_TOL * (1.0 + total)]
    return (live[0] if len(live) == 1 else None), energy


def oracle_rho_squared(components: dict, m: int) -> float:
    """max over j of the sum, in dict order, of c_J^2 over |J| = m owning j."""
    per_coord: dict[int, float] = {}
    for J, c in components.items():
        if len(J) == m:
            for j in J:
                per_coord[j] = per_coord.get(j, 0.0) + c * c
    return max(per_coord.values()) if per_coord else 0.0


def oracle_projection_variances(F: ChaosVector, model: RademacherModel) -> list[float]:
    """Var(proj_r F^2) for r = 1..2m-1 of a pure order-m integral: the
    sparse decomposition of F^2, then one table and one variance per order."""
    m = F.pure_order()
    sq = multiply(F, F, model)
    return [variance(to_table(project(sq, r), model), model) for r in range(1, 2 * m)]


def oracle_generator(table: ValueTable, model: RademacherModel) -> np.ndarray:
    """Pathwise generator in the form -sum_k Y_k D_k F."""
    acc = np.zeros(2**model.n)
    for k in range(model.n):
        acc -= model.y_table(k) * d(table, k, model).values
    return acc


def oracle_squared_field(F: ValueTable, G: ValueTable, model: RademacherModel) -> np.ndarray:
    """Squared field in the form sum_k D_kF D_kG (1 + skew_k Y_k / 2)."""
    acc = np.zeros(2**model.n)
    for k in range(model.n):
        dd = d(F, k, model).values * d(G, k, model).values
        acc += dd * (1.0 + 0.5 * model.skew[k] * model.y_table(k))
    return acc


def _bit_product(mask: int, factors: list[float]) -> float:
    out = 1.0
    while mask:
        low = mask & -mask
        out *= factors[low.bit_length() - 1]
        if out == 0.0:
            return 0.0
        mask ^= low
    return out


def oracle_fourth_moment_quadruple(coeffs: dict, model: RademacherModel) -> float:
    """E[(sum_J c_J Y_J)^4] by the O(S**4) expansion into quadruples of
    subsets: each monomial factorizes over coordinates, a coordinate hit
    once kills it, twice gives 1, three or four times gives E[Y^3] or
    E[Y^4].  Keys must not repeat an index."""
    items = [(tuple(k), float(v)) for k, v in coeffs.items() if v != 0.0]
    universe = sorted({i for key, _ in items for i in key})
    pos = {i: b for b, i in enumerate(universe)}
    mu3 = [y_moment(model.probs[i], 3) for i in universe]
    mu4 = [y_moment(model.probs[i], 4) for i in universe]
    masks = [sum(1 << pos[i] for i in key) for key, _ in items]

    # ordered pairs (I, J): odd = coordinates hit once, two = hit twice
    pairs = [
        (ma ^ mb, ma & mb, ma | mb, ca * cb)
        for ma, (_, ca) in zip(masks, items)
        for mb, (_, cb) in zip(masks, items)
    ]
    total = 0.0
    for i, (o1, t1, cov1, w1) in enumerate(pairs):
        row = 0.0
        for j in range(i, len(pairs)):
            o2, t2, cov2, val = pairs[j]
            if o1 & ~cov2 or o2 & ~cov1:
                continue
            m3 = (o1 & t2) | (t1 & o2)
            if m3:
                val *= _bit_product(m3, mu3)
                if val == 0.0:
                    continue
            m4 = t1 & t2
            if m4:
                val *= _bit_product(m4, mu4)
            row += val if i == j else 2.0 * val
        total += w1 * row
    return total


def oracle_fourth_moment_pairs(coeffs: dict, skew=None) -> float:
    """E[(sum_J c_J Y_J)^4] = sum_U g_U^2 by expanding F**2 over all S**2 / 2
    pairs of subsets: Y_I Y_J = Y_{I xor J} prod_{k in I & J} (1 + skew_k Y_k),
    so each unordered pair adds c_I c_J prod_{k in T} skew_k to
    g_{(I xor J) | T} for every T inside I & J, twice when I != J.  ``skew``
    is indexed by coordinate; None means fair coins."""
    keys, vals = [], []
    for key, v in coeffs.items():
        if v != 0.0:
            keys.append(key)
            vals.append(float(v))
    pos = {i: b for b, i in enumerate(sorted({i for key in keys for i in key}))}
    masks = [sum(1 << pos[i] for i in key) for key in keys]
    bit_skew = [0.0 if skew is None else float(skew[i]) for i in pos]
    g: dict[int, float] = {}
    for a, (ma, ca) in enumerate(zip(masks, vals)):
        for j, (mb, cb) in enumerate(zip(masks[a:], vals[a:])):
            terms = [(ma ^ mb, ca * cb * (2.0 if j else 1.0))]
            both = ma & mb
            while both:
                low = both & -both
                s = bit_skew[low.bit_length() - 1]
                if s != 0.0:
                    terms += [(u | low, t * s) for u, t in terms]
                both ^= low
            for u, t in terms:
                g[u] = g.get(u, 0.0) + t
    return math.fsum(v * v for v in g.values())


def oracle_tensor_square_pairs(a: dict) -> tuple[float, float]:
    """(2m)! ||f (~x) f||**2 and its diagonal-hitting part for the subset
    coefficients a_J = m! f_J of one order m, by a dictionary over the
    multisets I + J of the pairs of subsets: a multiset M with k repeated
    coordinates adds 2**k G_M**2, where G_M sums a_I a_J over the ordered
    pairs (I, J) with I + J = M."""
    items = [(tuple(k), float(v)) for k, v in a.items() if v != 0.0]
    g: dict[tuple, float] = {}
    for i, (key, x) in enumerate(items):
        for j, (other, y) in enumerate(items[i:]):
            multiset = tuple(sorted(key + other))
            g[multiset] = g.get(multiset, 0.0) + (2.0 * x * y if j else x * y)
    full, diag = [], []
    for multiset, v in g.items():
        repeats = len(multiset) - len(set(multiset))
        full.append(2.0**repeats * v * v)
        if repeats:
            diag.append(full[-1])
    return math.fsum(full), math.fsum(diag)


def oracle_sphere_path_point(c: dict, b: dict, theta: float) -> dict:
    """normalize((1 - theta) c + theta b) as a dictionary loop over
    ``set(c) | set(b)``, zeros dropped, the norm by Python's ``sum``."""
    mixed = {}
    for key in set(c) | set(b):
        v = (1.0 - theta) * c.get(key, 0.0) + theta * b.get(key, 0.0)
        if v != 0.0:
            mixed[key] = v
    norm = math.sqrt(sum(v * v for v in mixed.values()))
    return {k: v / norm for k, v in mixed.items()}


def oracle_symmetric_counterexample(m: int, n: int, tol: float = 1e-12):
    """``symmetric_counterexample`` with a dictionary point and a fresh
    ``fourth_moment_symmetric`` call at each bisection step: the kernel's
    coefficients, theta, the residual, the steps, the brackets and the
    quadruple sums at both endpoints."""
    b, c = uniform_sphere_point(2, n), first_coordinate_point(2, n)
    g_low, g_high = fourth_moment_symmetric(c) - 3.0, fourth_moment_symmetric(b) - 3.0
    lo, hi, h_lo = 0.0, 1.0, g_low
    brackets = [(lo, hi)]
    for iterations in range(1, 201):
        theta = 0.5 * (lo + hi)
        residual = fourth_moment_symmetric(oracle_sphere_path_point(c, b, theta)) - 3.0
        if abs(residual) <= tol:
            break
        if (residual < 0.0) == (h_lo < 0.0):
            lo, h_lo = theta, residual
        else:
            hi = theta
        brackets.append((lo, hi))
    extra = tuple(range(n, n + m - 2))
    a = {tuple(sorted(J + extra)): v for J, v in oracle_sphere_path_point(c, b, theta).items()}
    kern = Kernel.from_subset_coeffs(m, n + m - 2, a)
    return kern.coeffs, theta, residual, iterations, brackets, g_low + 3.0, g_high + 3.0


def oracle_level_starts(v: np.ndarray) -> np.ndarray:
    """Start of each level of sorted values: a gap above ``_MERGE_TOL``
    times max(1, max |v|) opens a new level, so smaller steps chain."""
    tol = _MERGE_TOL * max(1.0, float(np.abs(v).max()))
    return np.concatenate([[0], np.flatnonzero(np.diff(v) > tol) + 1])


def oracle_from_weighted_values(values: np.ndarray, weights: np.ndarray) -> DistributionTable:
    """The law by a stable argsort, so the weights inside a level add in
    input order, renormalized by ``math.fsum``."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    starts = oracle_level_starts(v)
    probs = np.add.reduceat(w, starts)
    return DistributionTable(v[starts], probs / math.fsum(probs))


def oracle_kolmogorov(dist: DistributionTable) -> float:
    """sup |P(F <= x) - Phi(x)| by one scalar ``normal_cdf`` call per atom."""
    best = 0.0
    level_before = 0.0
    for atom, level in zip(dist.atoms, dist.cdf_levels):
        phi = normal_cdf(float(atom))
        best = max(best, abs(level - phi), abs(level_before - phi))
        level_before = level
    return best


def _oracle_cdf_below(a: float) -> float:
    return math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) + a * normal_cdf(a)


def _oracle_sf_above(b: float) -> float:
    return math.exp(-0.5 * b * b) / math.sqrt(2.0 * math.pi) - b * (1.0 - normal_cdf(b))


def _oracle_segment(a: float, b: float, level: float) -> float:
    """integral_a^b |level - Phi(x)| dx with a quantile call per segment."""
    if level <= 0.0:
        return _oracle_cdf_below(b) - _oracle_cdf_below(a)
    if level >= 1.0:
        return _oracle_sf_above(a) - _oracle_sf_above(b)
    cross = NormalDist().inv_cdf(level)
    if cross <= a:
        return (_oracle_cdf_below(b) - _oracle_cdf_below(a)) - level * (b - a)
    if cross >= b:
        return level * (b - a) - (_oracle_cdf_below(b) - _oracle_cdf_below(a))
    left = level * (cross - a) - (_oracle_cdf_below(cross) - _oracle_cdf_below(a))
    right = (_oracle_cdf_below(b) - _oracle_cdf_below(cross)) - level * (b - cross)
    return left + right


def oracle_wasserstein(dist: DistributionTable) -> float:
    """Both exact tails plus one closed-form segment per pair of atoms,
    added left to right."""
    atoms = dist.atoms
    levels = dist.cdf_levels
    total = _oracle_cdf_below(float(atoms[0]))
    for i in range(len(atoms) - 1):
        total += _oracle_segment(float(atoms[i]), float(atoms[i + 1]), float(levels[i]))
    total += _oracle_sf_above(float(atoms[-1]))
    return total


def oracle_flip_thresholds(F: ValueTable, per_coordinate, model: RademacherModel):
    """The 2n 2**n flip thresholds F(k -> +-1) with their signed masses
    +-w v_k sqrt(p_k q_k), one pair of full tables per coordinate."""
    w = model.weights()
    thresholds, deltas = [], []
    for k in range(model.n):
        c = w * np.asarray(per_coordinate[k], dtype=float) * model.sqrt_pq[k]
        minus, plus = split_coordinate(F.values, k)
        thresholds += [join_coordinate(plus, plus), join_coordinate(minus, minus)]
        deltas += [c, -c]
    return np.concatenate(thresholds), np.concatenate(deltas)


def oracle_sup_flip_pairing(F: ValueTable, per_coordinate, model: RademacherModel) -> float:
    """sup_x sum_k E[v_k D_k 1_{F > x}] by a stable sort of every flip
    threshold and one suffix sum, read after each level of thresholds
    (the thresholds take exactly the values of F)."""
    thr, dlt = oracle_flip_thresholds(F, per_coordinate, model)
    order = np.argsort(thr, kind="stable")
    thr = thr[order]
    suffix = np.concatenate([np.cumsum(dlt[order][::-1])[::-1], [0.0]])
    positions = np.append(oracle_level_starts(thr)[1:], len(thr))
    return max(float(suffix[positions].max()), 0.0)


def oracle_independent_pieces(f: Kernel) -> list[frozenset]:
    """The coordinate sets of f's pieces: start from one set per support
    subset and merge any two that meet until none do."""
    groups = [set(key) for key in f.coeffs if key]
    merged = True
    while merged:
        merged = False
        for i, j in combinations(range(len(groups)), 2):
            if groups[i] & groups[j]:
                groups[i] |= groups.pop(j)
                merged = True
                break
    return sorted((frozenset(g) for g in groups), key=min)


def oracle_quartic_gradient_sum(F: ChaosVector, model: RademacherModel) -> float:
    """(1/2m) sum_k E|D_kF|^4 / (p_k q_k) on full gradient tables."""
    table = to_table(F, model)
    w = model.weights()
    total = sum(
        float(np.dot(w, d(table, k, model).values ** 4)) / model.pq[k]
        for k in range(model.n)
    )
    return total / (2.0 * F.top_order)


def oracle_abstract_bounds(F: ChaosVector, model: RademacherModel) -> dict[str, float]:
    """Every ``abstract_bounds`` entry with all n gradient tables of F and
    of -L^-1 F held at once, the middle term on a full table and the
    indicator sups by ``oracle_sup_flip_pairing``."""
    n = model.n
    w = model.weights()
    table = to_table(F, model)
    linv_table = to_table(minus_pseudo_inverse(F), model)
    g0 = gamma0(table, linv_table, model)
    term_gamma_abs = float(np.dot(w, np.abs(1.0 - g0.values)))
    term_gamma_var = variance(g0, model)
    var_f = moment(table, 2, model)
    fourth = moment(table, 4, model)
    df = [d(table, k, model).values for k in range(n)]
    dlinv = [d(linv_table, k, model).values for k in range(n)]
    remainder = sum(
        float(np.dot(w, df[k] ** 2 * np.abs(dlinv[k]))) / model.sqrt_pq[k] for k in range(n)
    )
    s2pi = math.sqrt(2.0 / math.pi)
    per_k = [df[k] * np.abs(dlinv[k]) / model.sqrt_pq[k] for k in range(n)]
    sup_term = oracle_sup_flip_pairing(table, per_k, model)
    mid = np.zeros(2**n)
    mid2_sq = np.zeros(2**n)
    inner_sq = 0.0
    for k in range(n):
        side = np.where(model.signs_table(k) > 0, model.q[k], model.p[k])
        mid += side * df[k] ** 2 * np.abs(dlinv[k]) / model.pq[k] ** 1.5
        mid2_sq += side * df[k] ** 2 / model.pq[k]
        inner_sq += float(np.dot(w, df[k] ** 2 * dlinv[k] ** 2)) / model.pq[k]
    term_mid = 0.25 * float(
        np.dot(w, (np.abs(table.values) + math.sqrt(2.0 * math.pi) / 4.0) * mid)
    )
    quart_root = float(np.dot(w, mid2_sq**2)) ** 0.25
    term_mid2 = (
        math.sqrt(inner_sq) * (fourth**0.25 + 1.0) * quart_root / (2.0 * math.sqrt(2.0))
    )
    out = {
        "gamma_deviation_abs": term_gamma_abs,
        "gamma_deviation_var": term_gamma_var,
        "cubic_remainder": remainder,
        "indicator_sup": sup_term,
        "kolmogorov_middle": term_mid,
        "kolmogorov_middle_cs": term_mid2,
        "wasserstein_line1": s2pi * term_gamma_abs + remainder,
        "wasserstein_line2": s2pi * abs(1.0 - var_f) + s2pi * math.sqrt(term_gamma_var)
        + remainder,
        "kolmogorov_line1": term_gamma_abs + term_mid + sup_term,
        "kolmogorov_line2": abs(1.0 - var_f) + math.sqrt(term_gamma_var) + term_mid2
        + sup_term,
    }
    m = F.pure_order()
    if m and abs(var_f - 1.0) <= 1e-6:
        quart = sum(float(np.dot(w, df[k] ** 4)) / model.pq[k] for k in range(n))
        var_g_self = variance(ValueTable(n, gamma0(table, table, model).values / m), model)
        per_k_self = [df[k] * np.abs(df[k]) / model.sqrt_pq[k] for k in range(n)]
        out["wasserstein_single_order"] = s2pi * math.sqrt(var_g_self) + math.sqrt(quart / m)
        out["kolmogorov_single_order"] = (
            math.sqrt(var_g_self)
            + math.sqrt(quart) * (fourth**0.25 + 1.0) * quart_root / (2.0 * math.sqrt(2.0) * m)
            + oracle_sup_flip_pairing(table, per_k_self, model) / m
        )
    return out


# -- the loops that the fast paths replaced, kept for bit-equality tests --------
#
# Each is the library's code as it was before the change it names, so the
# fast path must give the same bits, not only values within a tolerance.


def loop_influence_vector(f: Kernel) -> np.ndarray:
    """``Kernel.influence_vector`` adding into array entries one numpy
    scalar at a time."""
    out = np.zeros(f.horizon)
    for key, v in f.coeffs.items():
        for i in key:
            out[i] += v * v
    return out


def loop_pseudo_inverse(F: ChaosVector) -> ChaosVector:
    """L^-1 F for a centered F: order r scaled by -1/r, the order-0 residue
    dropped (``pseudo_inverse`` without its input check)."""
    return F.map_kernels(lambda r, k: k.scale(-1.0 / r) if r else k.scale(0.0))


def loop_minus_pseudo_inverse(F: ChaosVector) -> ChaosVector:
    """-L^-1 F in two passes: ``loop_pseudo_inverse``, then a scale by -1."""
    return loop_pseudo_inverse(F).scale(-1.0)


def loop_ou_generator_pathwise(table: ValueTable, model: RademacherModel) -> np.ndarray:
    """``ou_generator_pathwise`` forming both differences of each
    coordinate, F+ - F- and F- - F+."""
    acc = np.zeros(2**table.horizon)
    for k in range(model.n):
        minus, plus = split_coordinate(table.values, k)
        acc_minus, acc_plus = split_coordinate(acc, k)
        acc_minus += model.p[k] * (plus - minus)
        acc_plus += model.q[k] * (minus - plus)
    return acc


def loop_gamma0(F: ValueTable, G: ValueTable, model: RademacherModel) -> np.ndarray:
    """``gamma0`` forming both differences of each coordinate, F's twice
    when G is F."""
    acc = np.zeros(2**model.n)
    for k in range(model.n):
        f_minus, f_plus = split_coordinate(F.values, k)
        g_minus, g_plus = split_coordinate(G.values, k)
        prod = (f_plus - f_minus) * (g_plus - g_minus)
        acc_minus, acc_plus = split_coordinate(acc, k)
        acc_minus += 0.5 * (model.p[k] * prod)
        acc_plus += 0.5 * (model.q[k] * prod)
    return acc


def loop_gradient_sums(table: ValueTable, linv_table: ValueTable, model: RademacherModel):
    """The gradient terms of ``abstract_bounds`` in their own loop, two
    ``d_half`` calls per coordinate: the cubic remainder, the sums of
    E[(D_kF D_k L^-1 F)^2] and E[(D_kF)^4] over p_k q_k, the middle
    Kolmogorov term and E[M^2]^(1/4)."""
    w = model.weights()
    lifted = w * (np.abs(table.values) + math.sqrt(2.0 * math.pi) / 4.0)
    remainder = inner_sq = quart = middle = 0.0
    cs_table = np.zeros(2**model.n)
    for k in range(model.n):
        p, q, pq = model.p[k], model.q[k], model.pq[k]
        w_minus, w_plus = split_coordinate(w, k)
        wk = w_minus + w_plus
        df = d_half(table, k, model)
        dlinv = np.abs(d_half(linv_table, k, model))
        square = df * df
        cubic = square * dlinv
        remainder += float(np.vdot(wk, cubic)) / model.sqrt_pq[k]
        inner_sq += float(np.vdot(wk, cubic * dlinv)) / pq
        quart += float(np.vdot(wk, square * square)) / pq
        lift_minus, lift_plus = split_coordinate(lifted, k)
        middle += float(np.vdot(p * lift_minus + q * lift_plus, cubic)) / pq**1.5
        minus, plus = split_coordinate(cs_table, k)
        minus += square / q
        plus += square / p
    quart_root = float(np.dot(w, cs_table**2)) ** 0.25
    return float(remainder), float(inner_sq), float(quart), float(0.25 * middle), quart_root


def loop_flip_flow(F: ValueTable, G: ValueTable, model: RademacherModel) -> np.ndarray:
    """The indicator sup's flip flow in its own loop, two ``d_half`` calls
    per coordinate (one when G is F)."""
    w = model.weights()
    flow = np.zeros(2**model.n)
    for k in range(model.n):
        v = d_half(F, k, model)
        v *= np.abs(v if G is F else d_half(G, k, model))
        v /= model.sqrt_pq[k]
        w_minus, w_plus = split_coordinate(w, k)
        moved = w_minus * v
        v *= w_plus
        moved += v
        moved *= model.sqrt_pq[k]
        at_minus, at_plus = split_coordinate(flow, k)
        at_minus -= moved
        at_plus += moved
    return flow


def loop_sup_flip_pairing(F: ValueTable, G: ValueTable, model: RademacherModel) -> float:
    """``sup_flip_pairing`` on ``loop_flip_flow``, ranked by one rank table
    of F's levels."""
    flow = loop_flip_flow(F, G, model)
    order, opens = _levels(F.values)[1:]
    starts = np.flatnonzero(opens)
    level = np.cumsum(np.bincount(starts[1:], minlength=len(order)))
    rank = np.empty_like(level)
    rank[order] = level
    mass = np.bincount(rank, weights=flow, minlength=len(starts))
    above = np.cumsum(mass[:0:-1])
    return max(float(above.max(initial=0.0)), 0.0)


def loop_abstract_bounds(F: ChaosVector, model: RademacherModel) -> dict[str, float]:
    """``abstract_bounds`` on ``loop_minus_pseudo_inverse``,
    ``loop_gradient_sums`` and ``loop_sup_flip_pairing``."""
    w = model.weights()
    table = to_table(F, model)
    linv_table = to_table(loop_minus_pseudo_inverse(F), model)
    g0 = gamma0(table, linv_table, model)
    term_gamma_abs = float(np.dot(w, np.abs(1.0 - g0.values)))
    term_gamma_var = variance(g0, model)
    var_f, fourth = even_moments(table, model)
    remainder, inner_sq, quart, term_mid, quart_root = loop_gradient_sums(
        table, linv_table, model
    )
    s2pi = math.sqrt(2.0 / math.pi)
    sup_term = loop_sup_flip_pairing(table, linv_table, model)
    term_mid2 = (
        (1.0 / (2.0 * math.sqrt(2.0)))
        * math.sqrt(inner_sq)
        * (fourth**0.25 + 1.0)
        * quart_root
    )
    out = {
        "gamma_deviation_abs": term_gamma_abs,
        "gamma_deviation_var": term_gamma_var,
        "cubic_remainder": remainder,
        "indicator_sup": sup_term,
        "kolmogorov_middle": term_mid,
        "kolmogorov_middle_cs": term_mid2,
        "wasserstein_line1": s2pi * term_gamma_abs + remainder,
        "wasserstein_line2": s2pi * abs(1.0 - var_f) + s2pi * math.sqrt(term_gamma_var)
        + remainder,
        "kolmogorov_line1": term_gamma_abs + term_mid + sup_term,
        "kolmogorov_line2": abs(1.0 - var_f) + math.sqrt(term_gamma_var) + term_mid2
        + sup_term,
    }
    m = F.pure_order()
    if m and abs(var_f - 1.0) <= _NORMALIZATION_TOL:
        out["wasserstein_single_order"] = s2pi * math.sqrt(term_gamma_var) + math.sqrt(quart / m)
        out["kolmogorov_single_order"] = (
            math.sqrt(term_gamma_var)
            + (1.0 / (2.0 * math.sqrt(2.0) * m))
            * math.sqrt(quart)
            * (fourth**0.25 + 1.0)
            * quart_root
            + sup_term
        )
    return out


def loop_from_weighted_values(values: np.ndarray, weights: np.ndarray) -> DistributionTable:
    """``distance.from_weighted_values`` summing every level by
    ``np.add.reduceat``, one-value levels too, over the same unstable
    argsort and with the same renormalization."""
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    starts = oracle_level_starts(v)
    probs = np.add.reduceat(w, starts)
    probs /= probs.sum()
    return DistributionTable(v[starts], probs)


def loop_outcome_index(plus: np.ndarray) -> np.ndarray:
    """``model.outcome_index`` by one shift per coordinate."""
    idx = np.zeros(len(plus), dtype=np.int64)
    for k in range(plus.shape[1]):
        idx |= plus[:, k].astype(np.int64) << k
    return idx


def matrix_sampled_means(model: RademacherModel, seed: int, count: int) -> tuple[float, float]:
    """``verify._sampled_means`` from the matrix: the means of the column
    Y_0 ** 4 and of the column Y_1 of ``sample_y_matrix``."""
    ys = sample_y_matrix(model, seed, count)
    return float((ys[:, 0] ** 4).mean()), float(ys[:, 1].mean())


def stack_join_coordinate(minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """``chaos.join_coordinate`` by ``np.stack``."""
    return np.stack([minus, plus], axis=1).reshape(-1)


def loop_segment_sum(atoms: np.ndarray, levels: np.ndarray, lo: int, phi: np.ndarray,
                     phi_before) -> float:
    """``distance._segment_sum`` by the general formula on every segment:
    the crossing c clipped to a or b by ``np.where`` and each segment
    level (c - a) - (G(c) - G(a)) + (G(b) - G(c)) - level (b - c)."""
    if lo:
        lo -= 1
        phi = np.concatenate(([phi_before], phi))
    ends = atoms[lo:lo + len(phi)]
    g = _integral_cdf_below(ends, phi)
    a, b = ends[:-1], ends[1:]
    phi_a, phi_b = phi[:-1], phi[1:]
    g_a, g_b = g[:-1], g[1:]
    level = levels[lo:lo + len(a)]
    below = level <= phi_a
    cross = np.where(below, a, b)
    g_cross = np.where(below, g_a, g_b)
    inside = np.flatnonzero(~below & (level < phi_b))
    if len(inside):
        c = np.clip(_INV_CDF(level[inside]).astype(float), a[inside], b[inside])
        cross[inside] = c
        g_cross[inside] = _integral_cdf_below(c, _normal_cdf_array(c))
    seg = (level * (cross - a) - (g_cross - g_a)) + ((g_b - g_cross) - level * (b - cross))
    top = np.flatnonzero(level >= 1.0)
    if len(top):
        seg[top] = _integral_sf_above(a[top], phi_a[top]) - _integral_sf_above(b[top], phi_b[top])
    return float(seg.sum())


def assert_kernels_close(a: Kernel, b: Kernel, tol: float):
    keys = set(a.coeffs) | set(b.coeffs)
    gap = max((abs(a.value(k) - b.value(k)) for k in keys), default=0.0)
    assert gap <= tol, f"kernels differ by {gap}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
