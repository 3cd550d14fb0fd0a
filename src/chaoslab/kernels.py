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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

Subset = tuple[int, ...]


def _check_subset(key: Subset, m: int, n: int) -> None:
    if len(key) != m:
        raise DomainError(f"subset {key} has size {len(key)}, kernel order is {m}")
    if any(not 0 <= i < n for i in key):
        raise DomainError(f"subset {key} out of range for horizon {n}")
    if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
        raise DomainError(f"subset {key} must be strictly increasing")


@dataclass(frozen=True)
class Kernel:
    order: int
    horizon: int
    coeffs: Mapping[Subset, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 0:
            raise DomainError(f"order must be >= 0, got {self.order}")
        if self.horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {self.horizon}")
        # order may exceed the horizon: such a kernel is necessarily zero,
        # and the subset check below rejects any attempted support
        clean = {}
        for key, val in self.coeffs.items():
            key = tuple(int(i) for i in key)
            _check_subset(key, self.order, self.horizon)
            if val != 0.0:
                clean[key] = float(val)
        object.__setattr__(self, "coeffs", clean)

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
        return Kernel(self.order, self.horizon, {k: c * v for k, v in self.coeffs.items()})

    def add(self, other: "Kernel") -> "Kernel":
        if other.order != self.order:
            raise DomainError("cannot add kernels of different orders")
        horizon = max(self.horizon, other.horizon)
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, 0.0) + v
        return Kernel(self.order, horizon, merged)

    def truncate(self, n_prime: int) -> "Kernel":
        """Zero every coefficient whose subset leaves {0, .., n_prime-1}."""
        if n_prime > self.horizon:
            raise DomainError(
                f"truncation horizon {n_prime} exceeds kernel horizon {self.horizon}"
            )
        if n_prime < 1:
            raise DomainError(f"truncation horizon must be >= 1, got {n_prime}")
        kept = {k: v for k, v in self.coeffs.items() if not k or k[-1] < n_prime}
        return Kernel(self.order, self.horizon, kept)

    def normalized(self) -> "Kernel":
        """Scale so the multiple integral has second moment exactly 1."""
        s = self.second_moment()
        if s <= 0.0:
            raise DomainError("cannot normalize the zero kernel")
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
    kern = Kernel(m, n, coeffs)
    if normalized:
        if kern.is_zero():
            # density pruning may drop everything at tiny sizes; re-seat one entry
            key = tuple(range(m))
            kern = Kernel(m, n, {key: 1.0})
        kern = kern.normalized()
    return kern


# -- symmetrized tensor products -----------------------------------------


@dataclass(frozen=True)
class SymmetrizedTensor:
    """Canonical symmetrization of f (x) g as a map from sorted multisets.

    Multisets may repeat indices; the plain tensor square norm over all
    tuples weights each multiset by its number of distinct orderings.
    Built on demand, never stored inside kernels.
    """

    order: int
    horizon: int
    values: Mapping[Subset, float]  # key: sorted tuple, repeats allowed

    @staticmethod
    def _orderings(multiset: Subset) -> int:
        total = math.factorial(len(multiset))
        run = 1
        for i in range(1, len(multiset)):
            if multiset[i] == multiset[i - 1]:
                run += 1
            else:
                total //= math.factorial(run)
                run = 1
        total //= math.factorial(run)
        return total

    def norm_sq(self) -> float:
        """Squared norm over all (m+n)-tuples."""
        return sum(self._orderings(k) * v * v for k, v in self.values.items())

    def norm_sq_off_diagonal(self) -> float:
        """Squared norm restricted to tuples with a repeated index."""
        return sum(
            self._orderings(k) * v * v
            for k, v in self.values.items()
            if len(set(k)) != len(k)
        )

    def diagonal_free(self) -> Kernel:
        """Restriction to distinct tuples, as a kernel."""
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


def off_diagonal_defect(f: Kernel) -> float:
    """(2m)! times the squared norm of the diagonal-hitting part of the
    symmetrized tensor square of f."""
    if f.order == 0:
        return 0.0
    t = symmetrized_tensor(f, f)
    return math.factorial(2 * f.order) * t.norm_sq_off_diagonal()


def tensor_square_residual(f: Kernel) -> float:
    """(2m)! ||f (~x) f||^2 - 2 (m! ||f||^2)^2; nonnegative, 0 at order 1."""
    if f.order == 0:
        return 0.0
    t = symmetrized_tensor(f, f)
    full = math.factorial(2 * f.order) * t.norm_sq()
    return full - 2.0 * f.norm_sq() ** 2
