"""Multiple integrals, chaos vectors and exact value tables.

A ``ValueTable`` holds the value of a functional at every outcome of the
finite hypercube (bitmask order, see ``model``).  A ``ChaosVector`` is a
finite orthogonal decomposition: one kernel per order ``0..M``, i.e.
``F = sum_r r! sum_J f_{r,J} Y_J``.

Both representations meet in one dense array: the coefficients
``E[F * Y_S]`` of the orthonormal product basis {Y_S}, indexed by the
bitmask of S.  A single per-coordinate butterfly, O(n 2^n), maps a table
to that array (``basis_coefficients``) and back (``basis_synthesis``):

* ``to_table`` and ``integral_table`` place ``r! f_r(J)`` at bitmask J
  and synthesize once;
* ``stroock_decompose`` analyzes once and reads ``f_r(J) = E[F Y_J] / r!``
  off the array.

Every per-coordinate operation goes through ``split_coordinate``, which
views a table as its ``X_k = -1`` and ``X_k = +1`` halves.

A table's array is copied once.  The public ``ValueTable`` constructor
copies its input; arithmetic, the butterfly and the Malliavin operators
hand over the array they have just allocated (``ValueTable._owning``),
with the same shape and finiteness checks.  ``to_table`` synthesizes in
place on its own coefficient array, so its peak is that array plus a
half-sized scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError
from .kernels import Kernel, zero_kernel
from .model import Outcome, RademacherModel, split_coordinate


def _frozen(horizon: int, v: np.ndarray) -> np.ndarray:
    """``v`` after the shape and finiteness checks, marked read-only."""
    if v.shape != (2**horizon,):
        raise DomainError(f"table must have 2**{horizon} entries, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DomainError("table contains non-finite values")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ValueTable:
    horizon: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", _frozen(self.horizon, v))

    @classmethod
    def _owning(cls, horizon: int, values: np.ndarray) -> "ValueTable":
        """A table that takes ``values``, a float array nothing else holds."""
        table = object.__new__(cls)
        object.__setattr__(table, "horizon", horizon)
        object.__setattr__(table, "values", _frozen(horizon, values))
        return table

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def _combine(self, other, op) -> "ValueTable":
        if isinstance(other, ValueTable):
            if other.horizon != self.horizon:
                raise DomainError("tables live on different horizons")
            return ValueTable._owning(self.horizon, op(self.values, other.values))
        return ValueTable._owning(self.horizon, op(self.values, float(other)))

    def abs(self) -> "ValueTable":
        return ValueTable._owning(self.horizon, np.abs(self.values))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def constant_table(value: float, horizon: int) -> ValueTable:
    return ValueTable._owning(horizon, np.full(2**horizon, float(value)))


def expectation(table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS) -> float:
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    return float(np.dot(model.weights(caps), table.values))


def variance(table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS) -> float:
    """E[(F - E F)^2], summed about the mean so it is never negative."""
    centered = table.values - expectation(table, model, caps)
    return float(np.dot(model.weights(caps), centered * centered))


def join_coordinate(minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Flat table whose ``X_k = -1`` half is ``minus`` and ``+1`` half is ``plus``."""
    return np.stack([minus, plus], axis=1).reshape(-1)


def fold_coordinate(values: np.ndarray, k: int) -> np.ndarray:
    """Sum of the two ``split_coordinate`` halves of a table along coordinate k."""
    minus, plus = split_coordinate(values, k)
    return minus + plus


def conditional_expectation(
    table: ValueTable, model: RademacherModel, keep: set[int] | frozenset[int],
    caps: Caps = DEFAULT_CAPS,
) -> ValueTable:
    """Average out every coordinate not in ``keep`` under the model."""
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    vals = table.values.copy()
    for k in range(model.n):
        if k in keep:
            continue
        minus, plus = split_coordinate(vals, k)
        mean = model.p[k] * plus + model.q[k] * minus
        minus[...] = mean
        plus[...] = mean
    return ValueTable._owning(table.horizon, vals)


@dataclass(frozen=True)
class ChaosVector:
    """Finite chaos decomposition: kernels for orders 0..M on one horizon."""

    horizon: int
    kernels: tuple[Kernel, ...]

    def __post_init__(self):
        for r, kern in enumerate(self.kernels):
            if kern.order != r:
                raise DomainError(f"kernel at position {r} has order {kern.order}")
            if kern.horizon != self.horizon:
                raise DomainError("all kernels must share the vector's horizon")

    @staticmethod
    def from_kernel(kern: Kernel) -> "ChaosVector":
        parts = [zero_kernel(r, kern.horizon) for r in range(kern.order)]
        parts.append(kern)
        return ChaosVector(kern.horizon, tuple(parts))

    @staticmethod
    def constant(value: float, horizon: int) -> "ChaosVector":
        return ChaosVector(horizon, (Kernel(0, horizon, {(): value}),))

    @property
    def top_order(self) -> int:
        return len(self.kernels) - 1

    def kernel(self, r: int) -> Kernel:
        if 0 <= r < len(self.kernels):
            return self.kernels[r]
        return zero_kernel(r, self.horizon)

    def mean(self) -> float:
        return self.kernel(0).value(())

    def variance(self) -> float:
        return sum(k.second_moment() for k in self.kernels[1:])

    def pure_order(self) -> int | None:
        """The unique order with nonzero kernel, if there is exactly one."""
        live = [r for r, k in enumerate(self.kernels) if not k.is_zero()]
        return live[0] if len(live) == 1 else None

    def trimmed(self) -> "ChaosVector":
        top = self.top_order
        while top > 0 and self.kernels[top].is_zero():
            top -= 1
        return ChaosVector(self.horizon, self.kernels[: top + 1])

    def map_kernels(self, fn) -> "ChaosVector":
        return ChaosVector(self.horizon, tuple(fn(r, k) for r, k in enumerate(self.kernels)))

    def __add__(self, other: "ChaosVector") -> "ChaosVector":
        if other.horizon != self.horizon:
            raise DomainError("chaos vectors live on different horizons")
        top = max(self.top_order, other.top_order)
        parts = tuple(self.kernel(r).add(other.kernel(r)) for r in range(top + 1))
        return ChaosVector(self.horizon, parts)

    def scale(self, c: float) -> "ChaosVector":
        return self.map_kernels(lambda r, k: k.scale(c))


# -- evaluation ------------------------------------------------------------


def evaluate_integral(f: Kernel, outcome: Outcome, model: RademacherModel) -> float:
    """Multiple integral of f at one outcome: m! sum_J f_J prod_{i in J} Y_i."""
    if model.n != f.horizon:
        raise DomainError("kernel and model horizons differ")
    if len(outcome.signs) != model.n:
        raise DomainError("outcome and model horizons differ")
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


def integral_table(f: Kernel, model: RademacherModel, caps: Caps = DEFAULT_CAPS) -> ValueTable:
    """Exact table of the multiple integral of one kernel."""
    if model.n != f.horizon:
        raise DomainError("kernel and model horizons differ")
    return to_table(ChaosVector.from_kernel(f), model, caps)


def to_table(F: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS) -> ValueTable:
    """Exact values of a chaos vector at every outcome."""
    if model.n != F.horizon:
        raise DomainError("chaos vector and model horizons differ")
    model.check_enumerable(caps)
    return _synthesize(coefficient_array(F), model)


# -- orthonormal basis transform -------------------------------------------


def basis_coefficients(table: ValueTable, model: RademacherModel) -> np.ndarray:
    """Coefficients E[F * Y_S] for every subset S, indexed by bitmask.

    One butterfly pass per coordinate: writing F = A + B * Y_k along
    coordinate k gives A = p F+ + q F- (the conditional mean) and
    B = sqrt(pq) (F+ - F-) (the discrete gradient).
    """
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    c = table.values.copy()
    for k in range(model.n):
        minus, plus = split_coordinate(c, k)
        mean = model.p[k] * plus + model.q[k] * minus
        plus -= minus
        plus *= model.sqrt_pq[k]
        minus[...] = mean
    return c


def basis_synthesis(coeffs: np.ndarray, model: RademacherModel) -> ValueTable:
    """Inverse of ``basis_coefficients``: rebuild the table from E[F Y_S]."""
    v = np.array(coeffs, dtype=float)
    if v.shape != (2**model.n,):
        raise DomainError("coefficient array size does not match the model")
    return _synthesize(v, model)


def _synthesize(v: np.ndarray, model: RademacherModel) -> ValueTable:
    """``basis_synthesis`` in place on ``v``, a float coefficient array of
    the model's size that nothing else holds; the table takes ``v``.

    Per coordinate, F- = A + B y_minus and F+ = A + B y_plus, with one
    half-sized scratch array shared by all coordinates.
    """
    scratch = np.empty(v.size // 2)
    for k in range(model.n):
        minus, plus = split_coordinate(v, k)
        at_minus = np.multiply(plus, model.y_minus[k], out=scratch.reshape(minus.shape))
        plus *= model.y_plus[k]
        plus += minus
        minus += at_minus
    return ValueTable._owning(model.n, v)


def coefficient_array(F: ChaosVector) -> np.ndarray:
    """Basis coefficients E[F * Y_J] = r! f_r(J) of a chaos vector, by bitmask."""
    c = np.zeros(2**F.horizon)
    for r, kern in enumerate(F.kernels):
        fac = math.factorial(r)
        for key, v in kern.coeffs.items():
            c[sum(1 << i for i in key)] = fac * v
    return c


def subset_orders(n: int) -> np.ndarray:
    """The size |S| of every subset S of n coordinates, by bitmask."""
    r = np.zeros(2**n, dtype=np.intp)
    for k in range(n):
        _, plus = split_coordinate(r, k)
        plus += 1
    return r


def _mask_to_subset(mask: int) -> tuple[int, ...]:
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def stroock_decompose(
    table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> ChaosVector:
    """Exact chaos decomposition of a table.

    Kernel coefficients are f_r(J) = E[F * prod_{i in J} Y_i] / r! for
    strictly increasing J; reconstruction via ``to_table`` is exact up to
    rounding.
    """
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    n = model.n
    if n > caps.stroock_cap:
        raise CapacityError(
            f"horizon {n} exceeds stroock_cap={caps.stroock_cap} "
            "(decomposition touches all 2**n coefficients)",
            cap_name="stroock_cap",
            cap_value=caps.stroock_cap,
            requested=n,
        )
    coeffs = basis_coefficients(table, model)
    per_order: list[dict] = [dict() for _ in range(n + 1)]
    for mask in np.nonzero(coeffs)[0]:
        subset = _mask_to_subset(int(mask))
        r = len(subset)
        per_order[r][subset] = float(coeffs[mask]) / math.factorial(r)
    kernels = tuple(Kernel._from_valid_keys(r, n, per_order[r]) for r in range(n + 1))
    return ChaosVector(n, kernels).trimmed()


# -- derived operations ------------------------------------------------------


def multiply(
    F: ChaosVector, G: ChaosVector, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> ChaosVector:
    """Chaos decomposition of the pointwise product F * G."""
    if F.horizon != G.horizon:
        raise DomainError("chaos vectors live on different horizons")
    table = to_table(F, model, caps) * to_table(G, model, caps)
    return stroock_decompose(table, model, caps)


def project(F: ChaosVector, r: int) -> ChaosVector:
    """Keep only the order-r component."""
    if r < 0:
        raise DomainError(f"order must be >= 0, got {r}")
    parts = [zero_kernel(s, F.horizon) for s in range(r)]
    parts.append(F.kernel(r))
    return ChaosVector(F.horizon, tuple(parts))


def ou_semigroup(F: ChaosVector, t: float) -> ChaosVector:
    """Heat flow of the number operator: order r scales by exp(-t r)."""
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    return F.map_kernels(lambda r, k: k.scale(math.exp(-t * r)))
