"""Symmetric kernels with finite support, stored by sorted index subset.

A kernel of order ``m`` on horizon ``n`` is a symmetric function on
m-tuples from ``{0, .., n-1}`` vanishing whenever two arguments coincide.
We store the common value on all orderings of each support subset, so the
full-tuple squared norm is ``m! * sum_J f_J**2``.

Two coefficient conventions appear in the literature and both are useful:
the *ordering value* ``f_J`` stored here, and the *subset coefficient*
``a_J = m! * f_J`` for which the multiple integral reads
``sum_J a_J * Y_J``.  Conversions are explicit named operations to keep
the factor of m! in one place.

Keys are validated once, at the public ``Kernel`` constructor.  A kernel
derived from valid ones (``scale``, ``add``, ``truncate``,
``random_kernel`` and the chaos and Malliavin operators) has keys that
are valid by construction and skips that check
(``Kernel._from_valid_keys``).  Every path still stores float values,
drops zeros and rejects a non-finite value with ``DomainError``, so an
overflowing ``scale`` fails typed.

The norms of the symmetrized tensor square and the product-formula fourth
moment in ``moments`` come from one pass over the pairs of support subsets
that share a coordinate (``_overlap_pairs``); the disjoint pairs enter
through closed sums.  ``symmetrized_tensor`` enumerates the multisets
themselves and serves the top kernel of a product.  Finite coefficients
whose fourth-order sums leave the float range raise ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

Subset = tuple[int, ...]


def _checked_subset(key: Iterable[int], m: int, n: int) -> Subset:
    key = tuple(int(i) for i in key)
    if len(key) != m:
        raise DomainError(f"subset {key} has size {len(key)}, kernel order is {m}")
    if any(not 0 <= i < n for i in key):
        raise DomainError(f"subset {key} out of range for horizon {n}")
    if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
        raise DomainError(f"subset {key} must be strictly increasing")
    return key


def _clean_values(
    order: int, horizon: int, items: Iterable[tuple[Subset, float]]
) -> dict[Subset, float]:
    """The checks both kernel constructors share: coefficients become
    floats, zeros are dropped and non-finite values rejected."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    clean = {}
    for key, val in items:
        val = float(val)
        if val != 0.0:
            clean[key] = val
    if not all(map(math.isfinite, clean.values())):
        raise DomainError("kernel coefficients must be finite")
    return clean


@dataclass(frozen=True)
class Kernel:
    order: int
    horizon: int
    coeffs: Mapping[Subset, float] = field(default_factory=dict)

    def __post_init__(self):
        # order may exceed the horizon: such a kernel is necessarily zero,
        # and the subset check rejects any attempted support
        m, n = self.order, self.horizon
        items = ((_checked_subset(k, m, n), v) for k, v in self.coeffs.items())
        object.__setattr__(self, "coeffs", _clean_values(m, n, items))

    @classmethod
    def _from_valid_keys(
        cls, order: int, horizon: int, coeffs: Mapping[Subset, float]
    ) -> "Kernel":
        """A kernel whose keys are already strictly increasing int tuples of
        size ``order`` inside ``horizon``.  Values are still converted to
        float, zeros dropped and non-finite values rejected."""
        kern = object.__new__(cls)
        object.__setattr__(kern, "order", order)
        object.__setattr__(kern, "horizon", horizon)
        object.__setattr__(kern, "coeffs", _clean_values(order, horizon, coeffs.items()))
        return kern

    # -- basic queries ---------------------------------------------------

    def value(self, subset: Iterable[int]) -> float:
        return self.coeffs.get(tuple(sorted(subset)), 0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[Subset]:
        return sorted(self.coeffs)

    def norm_sq(self) -> float:
        """Full-tuple squared norm, m! * sum_J f_J**2."""
        return math.factorial(self.order) * sum(v * v for v in self.coeffs.values())

    def second_moment(self) -> float:
        """E of the squared multiple integral, m! * norm_sq = (m!)^2 sum f_J^2."""
        return math.factorial(self.order) * self.norm_sq()

    def inner(self, other: "Kernel") -> float:
        """Full-tuple inner product m! * sum_J f_J g_J (0 across orders)."""
        if other.order != self.order:
            return 0.0
        small, big = self.coeffs, other.coeffs
        if len(big) < len(small):
            small, big = big, small
        dot = sum(v * big.get(k, 0.0) for k, v in small.items())
        return math.factorial(self.order) * dot

    # -- influences ------------------------------------------------------

    def influence(self, k: int) -> float:
        """Sum of f_J**2 over support subsets containing coordinate k."""
        if not 0 <= k < self.horizon:
            raise DomainError(f"coordinate {k} out of range for horizon {self.horizon}")
        return sum(v * v for key, v in self.coeffs.items() if k in key)

    def influence_vector(self) -> np.ndarray:
        out = np.zeros(self.horizon)
        for key, v in self.coeffs.items():
            for i in key:
                out[i] += v * v
        return out

    def sup_influence(self) -> float:
        if not self.coeffs:
            return 0.0
        return float(self.influence_vector().max())

    # -- algebra ---------------------------------------------------------

    def scale(self, c: float) -> "Kernel":
        return Kernel._from_valid_keys(
            self.order, self.horizon, {k: c * v for k, v in self.coeffs.items()}
        )

    def add(self, other: "Kernel") -> "Kernel":
        if other.order != self.order:
            raise DomainError("cannot add kernels of different orders")
        horizon = max(self.horizon, other.horizon)
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, 0.0) + v
        return Kernel._from_valid_keys(self.order, horizon, merged)

    def truncate(self, n_prime: int) -> "Kernel":
        """Zero every coefficient whose subset leaves {0, .., n_prime-1}."""
        if n_prime > self.horizon:
            raise DomainError(
                f"truncation horizon {n_prime} exceeds kernel horizon {self.horizon}"
            )
        if n_prime < 1:
            raise DomainError(f"truncation horizon must be >= 1, got {n_prime}")
        kept = {k: v for k, v in self.coeffs.items() if not k or k[-1] < n_prime}
        return Kernel._from_valid_keys(self.order, self.horizon, kept)

    def normalized(self) -> "Kernel":
        """Scale so the multiple integral has second moment exactly 1."""
        s = self.second_moment()
        if s <= 0.0:
            raise DomainError("cannot normalize the zero kernel")
        if not math.isfinite(s):
            raise DomainError("second moment overflows; cannot normalize")
        return self.scale(1.0 / math.sqrt(s))

    # -- coefficient conventions ------------------------------------------

    def to_subset_coeffs(self) -> dict[Subset, float]:
        """Subset coefficients a_J = m! * f_J."""
        fac = math.factorial(self.order)
        return {k: fac * v for k, v in self.coeffs.items()}

    @staticmethod
    def from_subset_coeffs(
        order: int, horizon: int, a: Mapping[Subset, float]
    ) -> "Kernel":
        fac = math.factorial(order)
        return Kernel(order, horizon, {tuple(k): v / fac for k, v in a.items()})


def zero_kernel(order: int, horizon: int) -> Kernel:
    return Kernel(order, horizon, {})


def constant_kernel(value: float, horizon: int) -> Kernel:
    return Kernel(0, horizon, {(): value})


def basis_kernel(indices: Iterable[int], horizon: int, value: float = 1.0) -> Kernel:
    key = tuple(sorted(indices))
    return Kernel(len(key), horizon, {key: value})


def random_kernel(
    m: int, n: int, seed, normalized: bool = False, density: float = 1.0
) -> Kernel:
    """Kernel with i.i.d. standard normal ordering values over subsets.

    ``seed`` may be anything ``np.random.default_rng`` accepts, including a
    Generator.  ``density < 1`` keeps a random fraction of the subsets,
    which gives sparse supports of mixed overlap at any horizon.
    """
    if m > n:
        raise DomainError(f"order {m} exceeds horizon {n}")
    rng = np.random.default_rng(seed)
    coeffs = {}
    for key in combinations(range(n), m):
        if density < 1.0 and rng.random() >= density:
            continue
        coeffs[key] = float(rng.standard_normal())
    kern = Kernel._from_valid_keys(m, n, coeffs)
    if normalized:
        if kern.is_zero():
            # density pruning may drop everything at tiny sizes; re-seat one entry
            kern = Kernel._from_valid_keys(m, n, {tuple(range(m)): 1.0})
        kern = kern.normalized()
    return kern


# -- symmetrized tensor products -----------------------------------------


@dataclass(frozen=True)
class SymmetrizedTensor:
    """Canonical symmetrization of f (x) g as a map from sorted multisets.

    Multisets may repeat indices.  Built on demand, never stored inside
    kernels; ``diagonal_free`` gives the top kernel of a product.
    """

    order: int
    horizon: int
    values: Mapping[Subset, float]  # key: sorted tuple, repeats allowed

    def diagonal_free(self) -> Kernel:
        """Restriction to distinct tuples, as a kernel.

        The tensor's constructor is public and takes any keys, so the
        kernel goes through the validating constructor.
        """
        kept = {k: v for k, v in self.values.items() if len(set(k)) == len(k)}
        return Kernel(self.order, self.horizon, kept)


def symmetrized_tensor(f: Kernel, g: Kernel) -> SymmetrizedTensor:
    """Canonical symmetrization of the tensor product of two kernels.

    For a tuple t of length m+n the value is the average over all ways of
    routing m of its positions to f and the rest to g:

        (1 / C(m+n, m)) * sum_{|A| = m} f(t_A) g(t_{A^c}).
    """
    if f.horizon != g.horizon:
        raise DomainError("tensor factors must share a horizon")
    m, n = f.order, g.order
    order = m + n
    slots = list(range(order))
    splits = list(combinations(slots, m))
    norm = 1.0 / len(splits)

    candidates = set()
    for a in f.support():
        for b in g.support():
            candidates.add(tuple(sorted(a + b)))

    values = {}
    for t in candidates:
        acc = 0.0
        for a_slots in splits:
            rest = [i for i in slots if i not in a_slots]
            fa = f.value(t[i] for i in a_slots)
            if fa == 0.0:
                continue
            gb = g.value(t[i] for i in rest)
            if gb != 0.0:
                acc += fa * gb
        if acc != 0.0:
            values[t] = norm * acc
    return SymmetrizedTensor(order, f.horizon, values)


# -- overlapping support pairs -----------------------------------------------

# CPython hashes an int by its value mod 2**61 - 1, so masks whose bits lie
# 61 places apart hash alike, and over a wide universe a star support piles
# its pair keys into a few thousand slots.  So a dictionary key carries a
# mask in its high bits and a fingerprint in its low _LOW bits: residues of
# the mask's coordinates mod _PRIME, which spread the keys.
_LOW = 64
_PRIME = 1_000_000_007


def _tagged(mask: int) -> int:
    """A dictionary key for ``mask``: the mask over its residue mod _PRIME."""
    return (mask << _LOW) + mask % _PRIME


def _split_mask(key: int) -> int:
    """The mask I - J of a difference of two tagged masks with I > J."""
    return (key + (1 << (_LOW - 1))) >> _LOW


@dataclass(frozen=True)
class _PairSums:
    """Sums over the ordered pairs (I, J) of the support of sum_J c_J Y_J.

    A mask puts the b-th coordinate of ``universe`` at bit 2b.  So the mask
    sum I + J spells the multiset I + J, with digit 1 on I xor J and digit
    2 on I & J, and the difference I - J spells the split (I - J, J - I)
    in digits +1 and -1.  Keys of ``splits`` and ``multisets`` are tagged:
    ``key >> _LOW`` is the sum, ``_split_mask(key)`` the difference.
    """

    universe: tuple[int, ...]
    coeff: dict[int, float]  # mask -> c, equal masks merged
    digits: int  # the mask with bit 2b set for every coordinate b
    square_sum: float  # sum_J c_J**2
    diagonal: float  # H(0, 0): c_J**2 summed over the nonempty J
    splits: dict[int, float]  # I - J -> H(I - J, J - I), one key per {I - J, J - I}
    multisets: list[dict[int, float]]  # I + J -> G / 2, one dict per lowest shared coordinate
    diagonal_free: float  # D0 = sum_U (g0_U)**2, g0 over the disjoint pairs


def _finite_sum(terms: Iterable[float]) -> float:
    """``math.fsum`` of a fourth-order sum over finite coefficients.

    The coefficients are checked finite, so a power or an fsum partial past
    the float range, an inf term, or fsum's inf - inf can only mean that
    the coefficients overflow the fourth moment.
    """
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        raise DomainError("the coefficients overflow the fourth moment") from exc
    if not math.isfinite(total):
        raise DomainError("the coefficients overflow the fourth moment")
    return total


def _overlap_pairs(coeffs: Mapping[Subset, float]) -> _PairSums:
    """One pass over the pairs of support subsets that share a coordinate.

    A coordinate -> subsets index meets each such pair at every coordinate
    it shares and keeps it at its lowest one, and each diagonal pair (I, I)
    at the lowest coordinate of I, so the cost is O(P) for P overlapping
    pairs.  Over the ordered overlapping pairs the pass accumulates

    * H, keyed by the split (I - J, J - I), and
    * G, keyed by the multiset (I xor J, I & J),

    one dictionary update each per pair, and reads off them
    D0 = sum_U (g0_U)**2, where g0_U sums c_K c_L over the ordered disjoint
    pairs with K | L = U:

        D0 = (sum c**2)**2 - sum_{overlapping} c_I**2 c_J**2
             + sum_{(B, C)} (2 c_B c_C H + H**2) - sum_M G_M**2.

    The first two terms square the disjoint pairs alone.  The third adds
    the cross terms of the pairs that share a split (B, C): the disjoint
    pair (B, C) and the overlapping pairs (A | B, A | C).  The last removes
    the quadruples (A | B, A | C), (A' | B, A' | C) whose shared parts A, A'
    meet; those correspond one to one to the pairs of overlapping pairs
    (A | B, A' | C), (A' | B, A | C) of one multiset, which sum G**2 counts.
    Pairs met at different lowest coordinates have different multisets, so
    G lives in one small dictionary per coordinate.
    """
    coeff: dict[int, float] = {}
    universe = sorted({int(i) for key in coeffs for i in key})
    pos = {i: 2 * b for b, i in enumerate(universe)}
    for key, v in coeffs.items():
        if len(set(key)) != len(key):
            raise DomainError(f"subset {tuple(key)} repeats an index")
        if not math.isfinite(v):
            raise DomainError(f"coefficient of {tuple(key)} is {v}, not finite")
        if v != 0.0:
            mask = sum(1 << pos[int(i)] for i in key)
            coeff[mask] = coeff.get(mask, 0.0) + float(v)
    coeff = {mask: v for mask, v in coeff.items() if v != 0.0}
    digits = (4 ** len(universe) - 1) // 3

    # a subset's fingerprint is the unreduced sum of its coordinates'
    # residues, so the key sum and difference of two subsets are exact
    # functions of I + J and of I - J
    residue = [(1 << b) % _PRIME for b in range(0, 2 * len(universe), 2)]
    members: list[list[tuple[int, float]]] = [[] for _ in universe]
    for mask, c in coeff.items():
        bits, rest = [], mask
        while rest:
            low = rest & -rest
            bits.append(low.bit_length() >> 1)
            rest ^= low
        tagged = (mask << _LOW) + sum(residue[b] for b in bits)
        for b in bits:
            members[b].append((tagged, c))
    splits: dict[int, float] = {}
    multisets = []
    rows = []  # c_I**2 times sum c_J**2 over the J < I met at each coordinate
    for b, bucket in enumerate(members):
        below = ((1 << 2 * b) - 1) << _LOW
        half = {2 * ka: 0.5 * ca * ca for ka, ca in bucket if not ka & below}
        for j, (ka, ca) in enumerate(bucket):
            row = 0.0
            for kb, cb in bucket[:j]:
                if ka & kb & below:
                    continue  # met at a lower shared coordinate
                row += cb * cb
                w = ca * cb
                k = ka - kb if ka > kb else kb - ka
                splits[k] = splits.get(k, 0.0) + w
                k = ka + kb
                half[k] = half.get(k, 0.0) + w
            rows.append(ca * ca * row)
        multisets.append(half)

    fourth = _finite_sum(ca**4 for ma, ca in coeff.items() if ma)
    const = coeff.get(0, 0.0)
    diagonal = _finite_sum(ca * ca for ma, ca in coeff.items() if ma)
    square_sum = _finite_sum((diagonal, const * const))
    # c_B c_C is nonzero only if B and C are both in the support, which
    # needs mixed orders: |B| < |I| for an overlapping pair (I, J)
    cross = []
    if len({mask.bit_count() for mask in coeff}) > 1:
        for k, hk in splits.items():
            t = _split_mask(k) + digits  # digits 2, 1, 0 mark B, neither, C
            cb = coeff.get(t >> 1 & digits, 0.0)
            cross.append(4.0 * hk * cb * coeff.get(digits & ~(t | t >> 1), 0.0))
    d0 = _finite_sum(
        [
            square_sum * square_sum,
            -2.0 * _finite_sum(rows),
            -fourth,
            diagonal * (2.0 * const * const + diagonal),
            # each split stands for (B, C) and (C, B)
            2.0 * _finite_sum(h * h for h in splits.values()),
            -4.0 * _finite_sum(g * g for half in multisets for g in half.values()),
            *cross,
        ]
    )
    return _PairSums(
        tuple(universe), coeff, digits, square_sum, diagonal, splits, multisets, d0
    )


def _defect(sums: _PairSums) -> float:
    """sum_M 2^{|I & J|} G_M**2 over the multisets of the overlapping pairs."""
    odd = sums.digits << 1
    return _finite_sum(
        2.0 ** (2 + (k >> _LOW & odd).bit_count()) * v * v
        for half in sums.multisets
        for k, v in half.items()
    )


def _fourth_moment(coeffs: Mapping[Subset, float], skew=None) -> float:
    """E[(sum_J c_J Y_J)^4] = sum_U g_U^2 over the Y expansion of F^2.

    Y_I Y_J = Y_{I xor J} prod_{k in I & J} (1 + skew_k Y_k), so the
    ordered pair (I, J) contributes c_I c_J prod_{k in T} skew_k to
    g_{(I xor J) | T} for every T inside I & J.  The disjoint pairs make
    g0, on U = I | J, and the overlapping ones make g1.  Both come from
    ``_overlap_pairs``: the part of g1 with T empty sums the split
    sums H of each I xor J, and the rest is the skew expansion of the
    multiset sums G, since it depends only on I & J.  Then
    E[F^4] = D0 + sum_U (2 g0_U g1_U + g1_U^2), and g0_U is looked up by
    submasks only where |U| is a sum of two support orders, which never
    happens for a pure order.  ``skew`` is indexed by coordinate; None
    means fair coins.
    """
    sums = _overlap_pairs(coeffs)
    digits, coeff = sums.digits, sums.coeff
    # T empty: g1 on I xor J sums H over the splits (B, C) of I xor J
    g1 = {_tagged(0): sums.diagonal}
    for k, h in sums.splits.items():
        u = _tagged(digits & ~(_split_mask(k) + digits))  # the digits +1 and -1
        g1[u] = g1.get(u, 0.0) + 2.0 * h
    # T nonempty: the skew expansion of each multiset over its I & J
    bit_skew = [0.0 if skew is None else float(skew[i]) for i in sums.universe]
    skewed = sum(4**b for b, s in enumerate(bit_skew) if s != 0.0)
    for half in sums.multisets if skewed else ():
        for key, v in half.items():
            both = key >> _LOW + 1 & skewed
            terms = [(key >> _LOW & digits, 2.0 * v)]
            while both:
                low = both & -both
                s = bit_skew[low.bit_length() >> 1]
                terms += [(u | low, t * s) for u, t in terms]
                both ^= low
            for u, t in terms[1:]:
                u = _tagged(u)
                g1[u] = g1.get(u, 0.0) + t

    orders = {mask.bit_count() for mask in coeff}
    paired = {a + b for a in orders for b in orders}

    def g0(u: int) -> float:
        total, sub = 0.0, u
        while True:
            c = coeff.get(sub)
            if c is not None:
                total += c * coeff.get(u ^ sub, 0.0)
            if not sub:
                return total
            sub = (sub - 1) & u

    cross = _finite_sum(
        2.0 * t * g0(u >> _LOW) for u, t in g1.items() if (u >> _LOW).bit_count() in paired
    )
    return _finite_sum((sums.diagonal_free, cross, _finite_sum(t * t for t in g1.values())))


def off_diagonal_defect(f: Kernel) -> float:
    """(2m)! times the squared norm of the diagonal-hitting part of the
    symmetrized tensor square of f.

    With a_J = m! f_J, the symmetrized square takes the value
    2^{|I & J|} G_M / C(2m, m) / m!**2 on the multiset M = I + J, where
    G_M sums a_I a_J over the ordered pairs that add up to M, and M has
    (2m)! / 2^{|I & J|} orderings.  So the defect is
    sum_M 2^{|I & J|} G_M**2 over the multisets of the overlapping pairs:
    O(P) for P overlapping pairs, with no multiset enumeration.
    """
    if f.order == 0:
        return 0.0
    return _defect(_overlap_pairs(f.to_subset_coeffs()))


def tensor_square_residual(f: Kernel) -> float:
    """(2m)! ||f (~x) f||^2 - 2 (m! ||f||^2)^2; nonnegative, 0 at order 1.

    By the contraction expansion of ||f (~x) f||^2 this is
    (m!)^2 sum_{r=1}^{m-1} C(m, r)^2 ||f (x)_r f||^2.  The full norm is the
    disjoint block D0 of the overlapping-pair pass plus the off-diagonal
    defect, and m! ||f||^2 = sum_J a_J**2.
    """
    if f.order == 0:
        return 0.0
    sums = _overlap_pairs(f.to_subset_coeffs())
    square = sums.square_sum * sums.square_sum
    return _finite_sum((sums.diagonal_free, _defect(sums), -2.0 * square))
