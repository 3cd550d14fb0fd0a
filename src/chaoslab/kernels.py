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

Entries are validated once, at the public ``Kernel`` constructor, by one
input rule that ``io`` and ``support_plan`` share: a coordinate is a Python
or numpy integer and not a bool (``integer_key``), and a value a finite
real number and not a bool or a string (``real_value``); anything else
raises ``DomainError`` naming its key instead of being converted.  A kernel
derived from valid ones (``scale``, ``add``, ``truncate``,
``random_kernel`` and the chaos and Malliavin operators) has keys that
are valid by construction and skips that check
(``Kernel._from_valid_keys``).  Every path still stores float values,
drops zeros and rejects a non-finite value with ``DomainError``, so an
overflowing ``scale`` fails typed; so do ``norm_sq`` and ``sup_influence``
when finite coefficients square past the float range.

The norms of the symmetrized tensor square and the product-formula fourth
moment in ``moments`` come from one numpy pass over the pairs of support
subsets that share a coordinate, split into a plan and an evaluation
(``SupportPlan``).  The plan is built from the support alone: the index
arrays of the overlapping pairs, the groups of their multisets from one
sort, and from one more those of their splits and, in its runs, of their
symmetric differences.  An evaluation takes the coefficient values,
gathers the pair products and sums each group; the disjoint pairs enter
through closed sums.  ``support_plan`` builds the plan of a coefficient
mapping under the same input rule.  ``symmetrized_tensor`` enumerates
the multisets themselves into a plain dict; its distinct-index part is
the top kernel of a product.  Every total an evaluation returns is the
correctly rounded sum of its terms, ``math.fsum``'s value bit for bit
(``_finite_sum``): an array of at least ``_BINNED_FROM`` terms is added
exactly in exponent bins by a few numpy passes, anything shorter by
``math.fsum``.  Finite coefficients whose fourth-order sums leave the
float range raise ``DomainError``.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError

Subset = tuple[int, ...]


def integer_key(key: Iterable) -> Subset:
    """``key`` as a tuple of Python ints; every coordinate must already be
    a Python or numpy integer, and not a bool.

    With ``real_value`` this is the one input rule for kernel entries,
    used by ``Kernel``, ``io.kernel_from_dict`` and ``support_plan``: a
    float, bool, string or other coordinate raises ``DomainError`` naming
    the key, where ``int()`` would have truncated or read it.
    """
    key = tuple(key)
    if not all(type(i) is int for i in key):
        for i in key:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise DomainError(f"subset {key!r} has coordinate {i!r}, not an integer")
        key = tuple(map(int, key))
    return key


def real_value(key, value, label: str = "coefficient of {!r}") -> float:
    """``value`` as a float: it must be a finite real number, not a bool or
    a string; ``DomainError`` names ``label.format(key)`` otherwise."""
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise DomainError(f"{label.format(key)} is {value!r}, not a real number")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{label.format(key)} is {value}, not finite")
    return value


def checked_subset(key: Iterable, m: int, n: int) -> Subset:
    """``integer_key`` of a kernel key that must also have m coordinates,
    strictly increasing inside [0, n)."""
    key = integer_key(key)
    if len(key) != m:
        raise DomainError(f"subset {key} has size {len(key)}, kernel order is {m}")
    if key and (min(key) < 0 or max(key) >= n):
        raise DomainError(f"subset {key} out of range for horizon {n}")
    if any(map(operator.ge, key, key[1:])):
        raise DomainError(f"subset {key} must be strictly increasing")
    return key


def _check_shape(order: int, horizon: int) -> None:
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")


def _clean_values(
    order: int, horizon: int, items: Iterable[tuple[Subset, float]]
) -> dict[Subset, float]:
    """The value checks of a derived kernel: coefficients become floats,
    zeros are dropped and non-finite values rejected."""
    _check_shape(order, horizon)
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
        _check_shape(m, n)
        clean = {}
        for key, val in self.coeffs.items():
            key = checked_subset(key, m, n)
            val = real_value(key, val)
            if val != 0.0:
                clean[key] = val
        object.__setattr__(self, "coeffs", clean)

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
        """Full-tuple squared norm, m! * sum_J f_J**2; past the float range
        it raises ``DomainError``."""
        norm = math.factorial(self.order) * sum(v * v for v in self.coeffs.values())
        if not math.isfinite(norm):
            raise DomainError("the coefficients overflow the squared norm")
        return norm

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
        # Python floats: the same additions as on array entries, without a numpy scalar each
        out = [0.0] * self.horizon
        for key, v in self.coeffs.items():
            for i in key:
                out[i] += v * v
        return np.array(out, dtype=float)

    def sup_influence(self) -> float:
        """The largest ``influence``; past the float range it raises ``DomainError``."""
        if not self.coeffs:
            return 0.0
        sup = float(self.influence_vector().max())
        if not math.isfinite(sup):
            raise DomainError("the coefficients overflow the sup-influence")
        return sup

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
        return Kernel(
            order, horizon, {tuple(k): real_value(k, v) / fac for k, v in a.items()}
        )


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


def symmetrized_tensor(f: Kernel, g: Kernel) -> dict[Subset, float]:
    """Canonical symmetrization of the tensor product of two kernels, as a
    map from sorted multisets (repeats allowed) to its nonzero values.

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
    return values


# -- the support plan -----------------------------------------------------------


# terms from which ``_finite_sum`` adds an array in exponent bins rather
# than by ``math.fsum`` on its list: on a 2-CPU host (min of 7) the two
# tie near 1000 terms (0.049 ms by fsum, 0.047 ms in bins); 512 terms took
# 0.023 and 0.048 ms, 3000 terms 0.183 and 0.061 ms
_BINNED_FROM = 1024
# terms per chunk of the binned sum: a bin adds at most this many parts
# of 26 or 27 bits, far below the 2**26 terms that keep its float sum
# exact, and the chunk caps the temporaries at a few 512 KB arrays
_BINNED_CHUNK = 1 << 16
# ``np.frexp`` exponents run from -1073 (the least subnormal) to 1024
_EXPONENT_BIAS = 1073


def _finite_sum(terms: np.ndarray | Iterable[float]) -> float:
    """The correctly rounded sum of a fourth-order sum over finite
    coefficients: the value of ``math.fsum``, bit for bit.

    A numpy array of at least ``_BINNED_FROM`` terms is added in exponent
    bins (``_binned_sum``); a shorter one, any other sequence and a sum
    that might leave the float range go to ``math.fsum``.  The
    coefficients are checked finite, so a product or an fsum partial past
    the float range, an inf term, or fsum's inf - inf can only mean that
    the coefficients overflow the fourth moment.
    """
    if isinstance(terms, np.ndarray):
        if terms.size >= _BINNED_FROM:
            total = _binned_sum(terms)
            if total is not None:
                return total
        terms = terms.tolist()
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError) as exc:
        raise DomainError("the coefficients overflow the fourth moment") from exc
    if not math.isfinite(total):
        raise DomainError("the coefficients overflow the fourth moment")
    return total


def _binned_sum(terms: np.ndarray) -> float | None:
    """The correctly rounded sum of a float array, or None if the sum
    might reach the float range's end: a small superaccumulator with one
    bin per exponent (after Neal, 2015).

    ``np.frexp`` writes each term as m 2**e with 0.5 <= |m| < 1 (or m = 0),
    and m 2**26 splits exactly into its integer part, of 26 bits, and its
    fraction, a multiple of 2**-27.  Two ``np.bincount``s add the parts of
    each exponent; a chunk of ``_BINNED_CHUNK`` terms keeps those float
    sums exact.  The occupied bins fold into one Python integer, and one
    int / int division rounds it to the nearest float, ties to even, as
    ``math.fsum`` does (a sum that cancels to 0 gives 0.0, as there).  An
    inf or NaN term raises ``DomainError``.
    """
    size, total = terms.size, 0
    with np.errstate(invalid="ignore"):
        for start in range(0, size, _BINNED_CHUNK):
            m, e = np.frexp(terms[start : start + _BINNED_CHUNK])
            e += _EXPONENT_BIAS
            m *= 2.0**26
            whole = np.trunc(m)
            m -= whole
            whole, part = np.bincount(e, whole), np.bincount(e, m)
            if not (np.isfinite(whole).all() and np.isfinite(part).all()):
                raise DomainError("the coefficients overflow the fourth moment")
            # every term is below 2**top, so the sum is below 2**(top + bits)
            if len(whole) - 1 - _EXPONENT_BIAS + size.bit_length() > 1023:
                return None
            bins = np.flatnonzero((whole != 0.0) | (part != 0.0))
            part = part[bins] * 2.0**27
            for b, h, f in zip(bins.tolist(), whole[bins].tolist(), part.tolist()):
                total += ((int(h) << 27) + int(f)) << b
    return total / (1 << (_EXPONENT_BIAS + 53))


def _subset_rows(keys: Sequence, horizon: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The keys as columns of coordinate ids, and the coordinates they use.

    Coordinate ``universe[b]`` has id b.  Each column is sorted and padded
    at its end with the id ``len(universe)``, which sorts after every
    coordinate, so equal subsets give equal columns whatever the horizon.
    A coordinate is a Python or numpy integer (not a bool), appears once
    in its key and, when ``horizon`` is given, lies in [0, horizon).
    """
    flat = list(chain.from_iterable(keys))
    if not set(map(type, flat)) <= {int}:
        for key in keys:
            integer_key(key)
    try:
        coords = np.array(flat, dtype=np.int64)
    except OverflowError as exc:
        raise DomainError("a coordinate does not fit in 64 bits") from exc
    universe = np.array(sorted(set(flat)), dtype=np.int64)
    ids = np.searchsorted(universe, coords)
    if horizon is not None and len(universe) and (universe[0] < 0 or universe[-1] >= horizon):
        bad = universe[0] if universe[0] < 0 else universe[-1]
        raise DomainError(f"index {bad} out of range for the model horizon {horizon}")
    top = len(universe)
    lengths = [len(key) for key in keys]
    rows = np.full((max(lengths, default=0), len(keys)), top, np.min_scalar_type(top))
    rows.T[np.arange(len(rows)) < np.array(lengths)[:, None]] = ids
    _sort_columns(rows)
    repeats = (rows[1:] == rows[:-1]) & (rows[1:] < top)
    if repeats.any():
        raise DomainError(f"subset {tuple(keys[np.nonzero(repeats)[1][0]])} repeats an index")
    return rows, universe


def _sort_columns(rows: np.ndarray) -> np.ndarray:
    """Sort each column of ``rows`` in place.

    An odd-even transposition network: each of its len(rows) steps
    compares every other pair of adjacent rows across all columns at once,
    so the cost is a few numpy calls per row however many columns there
    are.  ``np.sort`` along the first axis sorts one column at a time.
    """
    height = len(rows)
    for step in range(height):
        upper, lower = rows[step % 2 : height - 1 : 2], rows[step % 2 + 1 : height : 2]
        low = np.minimum(upper, lower)
        np.maximum(upper, lower, out=lower)
        upper[...] = low
    return rows


def _index_type(count: int) -> type:
    """The narrowest of int32 and intp that indexes ``count`` entries."""
    return np.int32 if count < 2**31 else np.intp


def _packed(rows: np.ndarray, bits: int) -> np.ndarray:
    """Each column of ``rows`` as one int64 of ``bits`` per id, first row highest."""
    word = rows[0].astype(np.int64) if len(rows) else np.zeros(rows.shape[1], np.int64)
    for row in rows[1:]:
        word <<= bits
        word |= row
    return word


def _sorted_runs(rows: np.ndarray, top: int, prefix: int | None = None):
    """The order that sorts the columns of ``rows`` (entries in [0, top])
    lexicographically, equal columns in index order, and which sorted
    columns differ from the one before: in any row, and in the first
    ``prefix`` rows (all of them when None).

    From 256 columns, when the ids and the bits of a column index fit in
    63, a value sort of the distinct keys ``key << index_bits | index``
    gives the order in its low bits, whichever algorithm runs (on a 2-CPU
    host 0.32 ms for 27 000 keys against 2.3 ms by lexsort; they tie near
    200).  Otherwise words of whole rows, the prefix apart, take a lexsort.
    """
    height, count = rows.shape
    if count < 2:
        return np.arange(count), *np.ones((2, count), bool)
    bits, index_bits = max(int(top).bit_length(), 1), (count - 1).bit_length()
    cut = height if prefix is None else prefix
    if count >= 256 and height * bits + index_bits <= 63:
        key = _packed(rows, bits)
        key <<= index_bits
        key |= np.arange(count)
        key.sort()
        order = key & ((1 << index_bits) - 1)
        key >>= index_bits
        words, heads = [key >> (height - cut) * bits, key] if cut < height else [key], 1
    else:
        per = 63 // bits
        words = [_packed(rows[lo : min(lo + per, end)], bits) for start, end in ((0, cut), (cut, height))
                 for lo in range(start, end, per)]
        order = np.lexsort(words[::-1]) if words else np.arange(count)
        words, heads = [word[order] for word in words], -(-cut // per)
    new = np.zeros((2, count), bool)  # runs of the prefix, then of all rows
    new[:, :1] = True
    for at, word in enumerate(words):
        new[int(at >= heads) :, 1:] |= word[1:] != word[:-1]
    return order, new[1], new[0]


def _run_ids(order: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The number of the run of ``new`` flags each sorted entry lies in."""
    ids = np.empty(len(order), _index_type(len(order)))
    ids[order] = np.add.accumulate(new, dtype=ids.dtype) - 1
    return ids


def _group(rows: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Group ids of the equal columns of ``rows`` (entries in [0, top]),
    numbered in lexicographic order of the columns, and the first column
    of each group."""
    order, new, _ = _sorted_runs(rows, top)
    return _run_ids(order, new), order[new]


def _lookup(subsets: np.ndarray, rows: np.ndarray, top: int) -> np.ndarray:
    """The index of each column of ``rows`` (padded to the height of
    ``subsets``) among the columns of ``subsets`` (distinct), -1 if absent."""
    rows = np.concatenate([rows, np.full((len(subsets) - len(rows), rows.shape[1]), top, rows.dtype)])
    ids, _ = _group(np.concatenate([subsets, rows], 1), top)
    at = np.full(len(ids) and int(ids.max()) + 1, -1)
    at[ids[: subsets.shape[1]]] = np.arange(subsets.shape[1])
    return at[ids[subsets.shape[1] :]]


def _overlapping_pairs(subsets: np.ndarray, top: int):
    """(I, J) with I < J for every pair of subsets that share a coordinate,
    and the split {B, C} = {I - J, J - I} of each as columns (B, C) with
    B's first id the lower (the two are disjoint, not both empty, and
    each at most one id narrower than the widest subset), its I xor J and
    its I & J.  Each coordinate's bucket lists its subsets in order; every
    two members of a bucket make a candidate, kept at the lowest
    coordinate the two share, so each pair comes once in O(P) for P pairs.
    """
    (width, size), pad = subsets.shape, subsets.dtype.type(top)
    side, candidates = max(width - 1, 0), 0
    if width > 1:  # subsets of one coordinate share it only with themselves
        index_bits = max(size - 1, 0).bit_length()
        key = subsets.astype(np.int64) << index_bits | np.arange(size)  # (coordinate, subset)
        key = np.sort(key, axis=None)[: np.count_nonzero(subsets < top)]  # the buckets, the padding last
        coord, row = (key >> index_bits).astype(subsets.dtype), (key & ((1 << index_bits) - 1)).astype(_index_type(size))
        start = np.searchsorted(coord, coord)
        rank = np.arange(len(coord)) - start  # members before each one in its bucket
        candidates = int(rank.sum())
    if not candidates:
        return (np.zeros(0, np.int32),) * 2 + tuple(np.empty((h, 0), subsets.dtype) for h in (side, side, 2 * side, width))
    index = _index_type(candidates)
    early = np.repeat((start - np.cumsum(rank) + rank).astype(index), rank)
    early += np.arange(candidates, dtype=index)
    first, second, at = row[early], np.repeat(row, rank), np.repeat(coord, rank)
    del early
    a, b = subsets.take(first, axis=1), subsets.take(second, axis=1)
    equal = a[:, None] == b[None]
    in_a, in_b = equal.any(1) & (a < top), equal.any(0) & (b < top)
    keep = np.flatnonzero(~(in_a & (a < at)).any(0))  # no shared coordinate below the bucket's
    a, b, in_a, in_b = (x.take(keep, axis=1) for x in (a, b, in_a, in_b))
    # every id is at most top, so a maximum with top or 0 keeps or drops it
    only_a = _sort_columns(np.maximum(a, in_a * pad))[:side]
    only_b = _sort_columns(np.maximum(b, in_b * pad))[:side]
    both = _sort_columns(np.maximum(a, ~in_a * pad))
    xor = _sort_columns(np.concatenate([only_a, only_b]))
    # unsigned differences wrap, so adding the masked one swaps columns exactly
    step = only_b - only_a
    step *= only_b[:1] < only_a[:1]
    return first[keep], second[keep], only_a + step, only_b - step, xor, both


def _sub_columns(keys: np.ndarray, grow: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """The column of ``keys`` each sub-column came from, and every
    sub-column over the ids ``grow`` marks, with ``top`` in place of the
    ids left out.  The empty sub-columns come first, in the order of
    ``keys``."""
    owner = np.arange(keys.shape[1])
    part = np.full(keys.shape, top, keys.dtype)
    for j in range(len(keys)):
        more = grow[j, owner]
        sub = part.compress(more, axis=1)
        sub[j] = keys[j, owner[more]]
        owner, part = np.concatenate([owner, owner[more]]), np.concatenate([part, sub], 1)
    return owner, part


class SupportPlan:
    """The overlapping support pairs of F = sum_J c_J Y_J, planned once.

    The plan is built from the keys alone (and the skew of the model, None
    for fair coins); ``fourth_moment`` and ``tensor_terms`` evaluate it on
    any coefficient vector aligned with ``keys``.  Equal keys are merged
    into one subset.  The plan holds the ``pairs`` overlapping pairs
    (I, J), I < J, of the ``size`` subsets, the group of every pair's
    multiset (I xor J, I & J) from one sort, from one sort by
    (I xor J, I - J) the group of its split (I - J, J - I) and, in runs of
    I xor J, its g1 group, and for a skewed model the skewed coordinates
    of each I & J.  Within one I xor J the splits come in the order of
    I - J, as they would by (I - J, J - I).  An evaluation gathers c_I c_J
    and sums each group with ``np.bincount``, which adds in pair order, so
    a zero coefficient adds exact zeros and a plan evaluated on values
    that contain zeros gives a fresh plan's result on the nonzero ones bit
    for bit.  A subset, split or multiset is a sorted column of coordinate
    ids, so nothing depends on how wide the universe is.

    Over the ordered overlapping pairs the groups carry

    * H, keyed by the split (B, C) = (I - J, J - I), and
    * G, keyed by the multiset I + J = (I xor J) + 2 (I & J),

    and D0 = sum_U (g0_U)**2, where g0_U sums c_K c_L over the ordered
    disjoint pairs with K | L = U, is

        D0 = (sum c**2)**2 - sum_{overlapping} c_I**2 c_J**2
             + sum_{(B, C)} (2 c_B c_C H + H**2) - sum_M G_M**2.

    The first two terms square the disjoint pairs alone.  The third adds
    the cross terms of the pairs that share a split (B, C): the disjoint
    pair (B, C) and the overlapping pairs (A | B, A | C).  The last removes
    the quadruples (A | B, A | C), (A' | B, A' | C) whose shared parts A, A'
    meet; those correspond one to one to the pairs of overlapping pairs
    (A | B, A' | C), (A' | B, A | C) of one multiset, which sum G**2 counts.
    c_B c_C is nonzero only for mixed orders, where B and C are looked up.
    """

    def __init__(self, keys: Iterable, skew=None):
        self.keys = tuple(keys)
        rows, universe = _subset_rows(self.keys, None if skew is None else len(skew))
        top = len(universe)
        self.index, rep = _group(rows, top)
        subsets = rows.take(rep, axis=1)
        width, self.size = subsets.shape
        orders = (subsets < top).sum(0)
        self.nonempty = int(np.count_nonzero(orders))  # subsets; the empty one, if any, sorts last
        self.first, self.second, low, high, xor, both = _overlapping_pairs(subsets, top)
        self.pairs, side = len(self.first), len(low)
        self.multiset, multiset_rep = _group(np.concatenate([xor, both]), top)
        self.multiset_count = len(multiset_rep)
        # 2**(2 + |I & J|) over the multisets of the overlapping pairs, then the diagonal pairs (I, I)
        both = both.take(multiset_rep, axis=1)
        self.weight = np.ldexp(4.0, np.concatenate([(both < top).sum(0), orders[: self.nonempty]]))

        # g1 on I xor J: each split's H, the diagonal on the empty set and,
        # with skew, the expansion of each multiset over T inside its I & J.
        # One sort by (key, I - J) numbers the splits and, in runs of the key, g1
        key_height = max(2 * width - 1, 0)
        self.source, self.factors, expansion = np.zeros(0, np.intp), (), np.zeros((key_height, 0), xor.dtype)
        if skew is not None:
            m_both = np.concatenate([both, subsets[:, : self.nonempty]], 1)
            skew_u = np.append(np.asarray(skew, dtype=float)[universe], 1.0)
            skewed = np.append(skew_u[:-1] != 0.0, False)[m_both]
            source, part = _sub_columns(m_both, skewed, top)
            self.source, part = source[m_both.shape[1] :], part[:, m_both.shape[1] :]  # T nonempty
            self.factors = skew_u[part]
            m_xor = np.concatenate([xor.take(multiset_rep, axis=1), np.full((2 * side, self.nonempty), top, xor.dtype)], 1)
            expansion = _sort_columns(np.concatenate([m_xor.take(self.source, axis=1), part]))[:key_height]
        entries = np.full((key_height + side, self.pairs + 1 + expansion.shape[1]), top, xor.dtype)
        entries[: 2 * side, : self.pairs], entries[key_height:, : self.pairs] = xor, low
        entries[:key_height, self.pairs + 1 :] = expansion  # after the diagonal's empty key
        order, new, new_g1 = _sorted_runs(entries, top, key_height)
        split_new = new & (order < self.pairs)  # low sides are nonempty: no other entry ends a split's run
        self.split, split_rep = _run_ids(order, split_new)[: self.pairs], order[split_new]
        g1, g1_rep = _run_ids(order, new_g1), order[new_g1]
        self.g1 = np.concatenate([g1[self.pairs : self.pairs + 1], g1[split_rep], g1[self.pairs + 1 :]])
        self.split_count, self.g1_count = len(split_rep), len(g1_rep)

        present = set(orders.tolist())
        self.mixed = len(present) > 1
        if self.mixed:
            self.low = _lookup(subsets, low.take(split_rep, axis=1), top)
            self.high = _lookup(subsets, high.take(split_rep, axis=1), top)
            self._plan_disjoint(subsets, entries[:key_height].take(g1_rep, axis=1), present, top)

    def _plan_disjoint(self, subsets, keys, present, top) -> None:
        """The disjoint pairs (K, L) of the support with K | L = U for each
        g1 key U whose size is a sum of two support orders."""
        paired = [a + b for a in present for b in present]
        groups = np.nonzero(np.isin((keys < top).sum(0), paired))[0]
        keys = keys.take(groups, axis=1)
        owner, part = _sub_columns(keys, keys < top, top)  # K, and L = U - K
        rest = np.maximum(keys.take(owner, axis=1), (part < top) * keys.dtype.type(top))  # ids are at most top
        orders = list(present)
        fits = np.isin((part < top).sum(0), orders) & np.isin((rest < top).sum(0), orders)
        width = len(subsets)
        part = _lookup(subsets, _sort_columns(part.compress(fits, axis=1))[:width], top)
        rest = _lookup(subsets, _sort_columns(rest.compress(fits, axis=1))[:width], top)
        found = (part >= 0) & (rest >= 0)
        self.disjoint = (groups[owner[fits][found]], part[found], rest[found])

    def _sums(self, values: np.ndarray):
        """Coefficients c, split sums H, multiset sums G / 2 (the diagonal
        multisets last), D0, sum of c_J**2 over J nonempty, and sum c**2."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise DomainError("kernel coefficients must be finite")
        c = np.bincount(self.index, values, minlength=self.size)
        square = c * c
        inner = square[: self.nonempty]
        pair = c.take(self.first) * c.take(self.second)
        h = np.bincount(self.split, pair, minlength=self.split_count)
        half = np.concatenate([np.bincount(self.multiset, pair, minlength=self.multiset_count), 0.5 * inner])
        diagonal = _finite_sum(inner)
        const = float(c[self.nonempty :].sum())
        square_sum = _finite_sum((diagonal, const * const))
        # c_I**2 times the sum of c_J**2 over the pairs (I, J)
        rows = square * np.bincount(self.first, square.take(self.second), minlength=self.size)
        terms = [
            square_sum * square_sum,
            -2.0 * _finite_sum(rows),
            -_finite_sum(inner * inner),
            diagonal * (2.0 * const * const + diagonal),
            # each split stands for (B, C) and (C, B)
            2.0 * _finite_sum(h * h),
            -4.0 * _finite_sum(half * half),
        ]
        if self.mixed:
            coeff = np.append(c, 0.0)
            terms = np.concatenate([terms, 4.0 * h * coeff[self.low] * coeff[self.high]])
        return c, h, half, _finite_sum(terms), diagonal, square_sum

    def fourth_moment(self, values: np.ndarray) -> float:
        """E[(sum_J c_J Y_J)^4] = sum_U g_U^2 over the Y expansion of F^2.

        Y_I Y_J = Y_{I xor J} prod_{k in I & J} (1 + skew_k Y_k), so the
        ordered pair (I, J) contributes c_I c_J prod_{k in T} skew_k to
        g_{(I xor J) | T} for every T inside I & J.  The disjoint pairs make
        g0, on U = I | J, and the overlapping ones make g1: the part of g1
        with T empty sums the split sums H of each I xor J, and the rest is
        the skew expansion of the multiset sums G, since it depends only on
        I & J.  Then E[F^4] = D0 + sum_U (2 g0_U g1_U + g1_U^2), and g0_U
        is summed only where |U| is a sum of two support orders, which
        never happens for a pure order.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            c, h, half, d0, diagonal, _ = self._sums(values)
            terms = np.concatenate([[diagonal], h, half.take(self.source)])
            terms[1:] *= 2.0
            for factor in self.factors:
                terms[1 + self.split_count :] *= factor
            g1 = np.bincount(self.g1, terms, minlength=self.g1_count)
            cross = 0.0
            if self.mixed:
                key, part, rest = self.disjoint
                g0 = np.bincount(key, c[part] * c[rest], minlength=self.g1_count)
                cross = _finite_sum(2.0 * g1 * g0)
            return _finite_sum((d0, cross, _finite_sum(g1 * g1)))

    def tensor_terms(self, values: np.ndarray) -> tuple[float, float, float]:
        """(D0, sum_M 2^{|I & J|} G_M**2, (sum c**2)**2): the disjoint and
        the diagonal-hitting blocks of ||F (~x) F||**2, and the square of
        the second moment."""
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, half, d0, _, square_sum = self._sums(values)
            defect = _finite_sum(self.weight * half * half)
        return d0, defect, square_sum * square_sum


def support_plan(coeffs: Mapping[Subset, float], skew=None) -> tuple[SupportPlan, np.ndarray]:
    """The plan of the nonzero entries of ``coeffs`` and their values.

    Values and coordinates follow the input rule (``real_value``,
    ``integer_key``); a ``DomainError`` names the key of any other entry,
    whatever its value.
    ``skew`` is indexed by coordinate, and the coordinates must lie on it.
    """
    keys, values, zeros = [], [], []
    for key, v in coeffs.items():
        v = real_value(key, v)
        if v == 0.0:
            zeros.append(key)
        else:
            keys.append(key)
            values.append(v)
    if zeros:
        _subset_rows(zeros, None if skew is None else len(skew))
    return SupportPlan(keys, skew), np.array(values, dtype=float)


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
    plan, values = support_plan(f.to_subset_coeffs())
    return plan.tensor_terms(values)[1]


def tensor_square_residual(f: Kernel) -> float:
    """(2m)! ||f (~x) f||^2 - 2 (m! ||f||^2)^2; nonnegative, 0 at order 1.

    By the contraction expansion of ||f (~x) f||^2 this is
    (m!)^2 sum_{r=1}^{m-1} C(m, r)^2 ||f (x)_r f||^2.  The full norm is the
    disjoint block D0 of the support plan plus the off-diagonal defect, and
    m! ||f||^2 = sum_J a_J**2.
    """
    if f.order == 0:
        return 0.0
    plan, values = support_plan(f.to_subset_coeffs())
    d0, defect, square = plan.tensor_terms(values)
    return _finite_sum((d0, defect, -2.0 * square))
