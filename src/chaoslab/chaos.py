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
  with one scatter and synthesize once;
* ``stroock_decompose`` analyzes once and reads ``f_r(J) = E[F Y_J] / r!``
  off the array.

One pass driver, ``_butterfly``, runs both directions: one step per
coordinate k = 0..n-1, each an elementwise operation on the pairs of
entries that differ in bit k.  It has two paths:

* below ``_ROTATE_FROM`` coordinates each step is one self-sorting pass
  over the whole table (Stockham's layout): the pairs along bit 0 are the
  table's two stride-2 views, and the step writes its two results to the
  contiguous halves of a second, same-sized array, which the next pass
  reads.  A pass rotates the index bits right by one, so the next
  coordinate sits at bit 0, and after n passes the table is back in
  bitmask order.  The peak is the array plus that one buffer.
* from ``_ROTATE_FROM`` on, the low coordinates' halves, short strided
  runs that numpy walks slowly, are put at the top bits of each half of
  the table by rotating its index bits through a half-sized scratch
  before each group of steps runs in place; the last rotation restores
  the bitmask order.  The peak is the array plus the half-sized scratch.

A step sees the same pairs and does the same arithmetic in any layout,
the coordinates keep their order for every pair, and the out-of-place
steps of the first path round every entry as the in-place steps of the
second do, so every table and coefficient is the plain loop's over
``split_coordinate``'s halves bit for bit.  Every per-coordinate operation
outside the butterfly goes through ``split_coordinate``, which views a
table as its ``X_k = -1`` and ``X_k = +1`` halves.

A table's array is copied once.  The public ``ValueTable`` constructor
copies its input; arithmetic, the butterfly and the Malliavin operators
hand over the array they have just allocated (``ValueTable._owning``),
with the same shape and finiteness checks.  ``to_table`` synthesizes on
its own coefficient array, so its peak is that array plus the butterfly's
buffer: a second table below ``_ROTATE_FROM``, half a table from it on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import DomainError
from .kernels import Kernel, zero_kernel
from .model import RademacherModel, split_coordinate


# elements per operand buffer of a numpy ufunc, which ``_butterfly`` sets
# for its rotated path; numpy buffers the 2-D halves of that path's steps
# in blocks of this size, and its default of 8192 costs 64 KB per operand
# (at n = 14 ``basis_coefficients``, ``integral_table`` and
# ``basis_synthesis`` each peaked at about 2.27 tables with it, 1.52 with
# this); the self-sorting passes' 1-D views are not buffered
_UFUNC_BUFFER = 1024
# horizon from which ``_butterfly`` rotates instead of running self-sorting
# passes: on a 2-CPU host a synthesis plus an analysis took 504 us
# self-sorted and 827 us rotated at n = 13, 807 against 1099 us at n = 14
# (medians of 30 alternating runs, 30 and 29 won), 1475 against 1460 us at
# n = 15 (15 won) and 4712 against 3402 us at n = 16 (1 won); rotating
# from n = 14, short of that break-even, keeps the peak at the half-sized
# scratch instead of a second table from there on
_ROTATE_FROM = 14
# fewest coordinates per rotation; synthesis took 1.26 and 2.16 ms at
# n = 16 and 17 with 3, and 1.55 and 2.31 ms with 4
_GROUP = 3
# halves whose contiguous runs hold at least 2**_LONG_RUN entries step at
# full speed (looped at n = 22: 5-8 ms per coordinate from 12 on, 11-16 ms
# for 8..11), so larger tables rotate larger groups: synthesis took 158 and
# 937 ms at n = 22 and 24, against 171 and 1052 ms in groups of 3
_LONG_RUN = 12
# entries per block of a rotation's transposing copy, whose reads then stay
# in cache: rotating a table by 3 bits took 52 ms at n = 24 (105 ms in one
# copy, 81 ms in blocks of 2**19) and 7.8 ms at n = 22 (16.4 ms)
_ROTATE_BLOCK = 1 << 17


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


def even_moments(
    table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> tuple[float, float]:
    """(E[F^2], E[F^4]) off one squared table.

    The fourth power squares the squares in place; numpy's generic power
    ``v**4`` costs several times as much.  ``v**2`` is the same product as
    ``v * v``, so E[F^2] equals ``moments.moment(table, 2)`` bit for bit.
    An E[F^4] past the float range raises ``DomainError``.
    """
    w = model.weights(caps)
    with np.errstate(over="ignore"):
        sq = table.values * table.values
        second = float(np.dot(w, sq))
        sq *= sq
        fourth = float(np.dot(w, sq))
    if not math.isfinite(fourth):
        raise DomainError("the values overflow the fourth moment")
    return second, fourth


def join_coordinate(minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Flat table whose ``X_k = -1`` half is ``minus`` and ``+1`` half is ``plus``."""
    out = np.empty((minus.shape[0], 2, minus.shape[1]), dtype=np.result_type(minus, plus))
    out[:, 0], out[:, 1] = minus, plus
    return out.reshape(-1)


def conditional_expectation(
    table: ValueTable, model: RademacherModel, keep: set[int] | frozenset[int]
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
    B = sqrt(pq) (F+ - F-) (the discrete gradient).  The passes run on one
    copy of the table (see ``_butterfly``); q F- + p F+ is the same float
    as p F+ + q F-.
    """
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    return _butterfly(table.values.copy(), model, _analysis_step, _analysis_pass)


def basis_synthesis(coeffs: np.ndarray, model: RademacherModel) -> ValueTable:
    """Inverse of ``basis_coefficients``: rebuild the table from E[F Y_S]."""
    v = np.array(coeffs, dtype=float)
    if v.shape != (2**model.n,):
        raise DomainError("coefficient array size does not match the model")
    return _synthesize(v, model)


def _synthesize(v: np.ndarray, model: RademacherModel) -> ValueTable:
    """``basis_synthesis`` of ``v``, a float coefficient array of the
    model's size that nothing else holds and that the butterfly may
    overwrite; the table takes the array that holds the result."""
    return ValueTable._owning(model.n, _butterfly(v, model, _synthesis_step, _synthesis_pass))


def _analysis_step(minus, plus, tmp, model: RademacherModel, k: int) -> None:
    """(F-, F+) -> (A, B) = (p F+ + q F-, sqrt(pq) (F+ - F-)) along coordinate k."""
    np.subtract(plus, minus, out=tmp)
    plus *= model.p[k]
    minus *= model.q[k]
    minus += plus
    np.multiply(tmp, model.sqrt_pq[k], out=plus)


def _analysis_pass(minus, plus, lo, hi, model: RademacherModel, k: int) -> None:
    """``_analysis_step`` from (F-, F+) into (lo, hi) = (A, B), with the
    same roundings; ``hi`` holds p F+ until A is summed."""
    np.multiply(minus, model.q[k], out=lo)
    np.multiply(plus, model.p[k], out=hi)
    lo += hi
    np.subtract(plus, minus, out=hi)
    hi *= model.sqrt_pq[k]


def _synthesis_step(minus, plus, tmp, model: RademacherModel, k: int) -> None:
    """(A, B) -> (F-, F+) = (A + B y_minus, A + B y_plus) along coordinate k."""
    np.multiply(plus, model.y_minus[k], out=tmp)
    plus *= model.y_plus[k]
    plus += minus
    minus += tmp


def _synthesis_pass(minus, plus, lo, hi, model: RademacherModel, k: int) -> None:
    """``_synthesis_step`` from (A, B) into (lo, hi) = (F-, F+), with the
    same roundings."""
    np.multiply(plus, model.y_minus[k], out=lo)
    lo += minus
    np.multiply(plus, model.y_plus[k], out=hi)
    hi += minus


def _butterfly(v: np.ndarray, model: RademacherModel, step, step_out) -> np.ndarray:
    """Run one butterfly step along each coordinate k = 0..n-1 in turn on
    ``v``, which it may overwrite, and return the array holding the result:
    ``v`` itself, or on the self-sorting path a buffer of the same size.

    Below ``_ROTATE_FROM`` coordinates each coordinate is one self-sorting
    pass ``step_out(minus, plus, lo, hi, model, k)``: ``minus`` and
    ``plus`` are the stride-2 views of the entries with bit 0 clear and
    set, ``lo`` and ``hi`` the contiguous halves of the other array, and
    the two arrays then swap roles.  Entry 2i + b moves to b 2**(n-1) + i,
    a right rotation of the index bits, so coordinate k is at bit 0 when
    its pass runs and the n-th pass restores the bitmask order.  The peak
    is ``v`` plus one same-sized buffer.

    From ``_ROTATE_FROM`` on, ``step(minus, plus, tmp, model, k)`` runs in
    place on the halves along each coordinate, with ``tmp`` a view of one
    half-sized scratch array, which is the peak on top of ``v``.  The steps
    of coordinates 0..n-2, which never pair entries of different halves of
    ``v``, run on one half at a time.  Before each group of them the half's
    index bits are rotated right by the group's size, which puts the group
    at the top bits, where its halves are long contiguous runs.  Each
    rotation is one transposing copy between the half and the scratch, and
    the other of the two serves as ``tmp``.  The group sizes sum to n-1, so
    the last rotation restores the bitmask order (one copy moves the half
    back from the scratch when the number of groups is odd).  Groups hold
    ``_GROUP`` coordinates, or more on large tables, as many as keeps each
    run at 2**_LONG_RUN entries.  The rotated steps run with numpy's ufunc
    buffer at ``_UFUNC_BUFFER`` elements.
    """
    n = model.n
    if n < _ROTATE_FROM:
        data, free = v, np.empty_like(v)
        for k in range(n):
            lo, hi = free.reshape(2, -1)
            step_out(data[0::2], data[1::2], lo, hi, model, k)
            data, free = free, data
        return data
    buffer = np.setbufsize(_UFUNC_BUFFER)
    try:
        scratch = np.empty(v.size // 2)
        top = n - 1
        size = max(_GROUP, top - _LONG_RUN)
        for half in v.reshape(2, -1):
            # the steps below the top coordinate stay inside one half; its data
            # moves between the half and the scratch at each rotation
            data, free = half, scratch
            for first in range(0, top, size):
                g = min(size, top - first)
                _rotate(data, free, g)
                data, free = free, data
                tmp = free[: data.size // 2]
                for j in range(g):
                    minus, plus = split_coordinate(data, top - g + j)
                    step(minus, plus, tmp.reshape(minus.shape), model, first + j)
            if data is not half:
                half[...] = data
        minus, plus = split_coordinate(v, top)
        step(minus, plus, scratch.reshape(minus.shape), model, top)
    finally:
        np.setbufsize(buffer)
    return v


def _rotate(src: np.ndarray, dst: np.ndarray, g: int) -> None:
    """``dst`` = ``src`` with its index bits rotated right by g.

    Entry hi * 2**g + lo moves to lo * 2**(bits-g) + hi: a transpose of the
    (2**(bits-g), 2**g) view, copied ``_ROTATE_BLOCK`` entries at a time so
    that the rows each block reads stay in cache while its 2**g strided
    passes run.
    """
    rows = src.reshape(-1, 1 << g)
    cols = dst.reshape(1 << g, -1)
    block = max(_ROTATE_BLOCK >> g, 1)
    for i in range(0, len(rows), block):
        cols[:, i : i + block] = rows[i : i + block].T


def coefficient_array(F: ChaosVector) -> np.ndarray:
    """Basis coefficients E[F * Y_J] = r! f_r(J) of a chaos vector, by bitmask."""
    c = np.zeros(2**F.horizon)
    for r, kern in enumerate(F.kernels):
        size = len(kern.coeffs)
        if size:
            keys = np.fromiter(chain.from_iterable(kern.coeffs), np.int64, size * r)
            values = np.fromiter(kern.coeffs.values(), float, size)
            c[(1 << keys.reshape(size, r)).sum(axis=1)] = float(math.factorial(r)) * values
    return c


def subset_orders(n: int) -> np.ndarray:
    """The size |S| of every subset S of n coordinates, by bitmask."""
    r = np.empty(2**n, dtype=np.intp)
    r[0] = 0
    # the masks in [2**k, 2**(k+1)) are those below 2**k with bit k added
    for k in range(n):
        np.add(r[: 1 << k], 1, out=r[1 << k : 2 << k])
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
    caps.check("stroock_cap", n, "horizon {requested} exceeds stroock_cap={value} "
               "(decomposition touches all 2**n coefficients)")
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


def ou_semigroup(F: ChaosVector, t: float) -> ChaosVector:
    """Heat flow of the number operator: order r scales by exp(-t r)."""
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    return F.map_kernels(lambda r, k: k.scale(math.exp(-t * r)))
