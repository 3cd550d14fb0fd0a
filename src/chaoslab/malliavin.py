"""Discrete Malliavin operators on exact tables and chaos vectors.

Pathwise operators act on ``ValueTable`` entries through one-coordinate
flips, taken on the two halves that ``split_coordinate`` views; a spectral
operator is its order scale c(r) alone, which multiplies order-r kernels,
and the table of a pure order-m integral (its eigenfunction), by c(m).  The
squared field ``gamma`` works on the dense Walsh coefficient array: it
multiplies tables, analyzes the product and applies the generator as a
scaling by ``-|S|``.  At a finite horizon every functional has a finite
decomposition, so no domain conditions beyond horizon checks are needed.
"""

from __future__ import annotations

import math

import numpy as np

from .chaos import (
    ChaosVector,
    ValueTable,
    basis_coefficients,
    basis_synthesis,
    join_coordinate,
    split_coordinate,
    subset_orders,
    to_table,
)
from .config import Caps, DEFAULT_CAPS
from .errors import DomainError
from .kernels import Kernel
from .model import RademacherModel


def _check_coord(table: ValueTable, k: int) -> None:
    if not 0 <= k < table.horizon:
        raise DomainError(f"coordinate {k} out of range for horizon {table.horizon}")


def shift_plus(table: ValueTable, k: int) -> ValueTable:
    """Table of F with coordinate k forced to +1."""
    _check_coord(table, k)
    _, plus = split_coordinate(table.values, k)
    return ValueTable._owning(table.horizon, join_coordinate(plus, plus))


def shift_minus(table: ValueTable, k: int) -> ValueTable:
    """Table of F with coordinate k forced to -1."""
    _check_coord(table, k)
    minus, _ = split_coordinate(table.values, k)
    return ValueTable._owning(table.horizon, join_coordinate(minus, minus))


def d_plus(table: ValueTable, k: int) -> ValueTable:
    """Forward difference F(k -> +1) - F."""
    return shift_plus(table, k) - table


def d_minus(table: ValueTable, k: int) -> ValueTable:
    """Backward difference F(k -> -1) - F."""
    return shift_minus(table, k) - table


def d_half(table: ValueTable, k: int, model: RademacherModel) -> np.ndarray:
    """D_k F on one ``split_coordinate`` half, shape ``(2**(n-k-1), 2**k)``.

    D_k F is constant in coordinate k, so this half holds all of it; sums
    against it take the weights of both halves added.
    """
    _check_coord(table, k)
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    minus, plus = split_coordinate(table.values, k)
    grad = plus - minus
    grad *= model.sqrt_pq[k]
    return grad


def d(table: ValueTable, k: int, model: RademacherModel) -> ValueTable:
    """Gradient sqrt(p_k q_k) (F(k -> +1) - F(k -> -1)).

    Constant in coordinate k; equals sqrt(p_k q_k) (d_plus - d_minus).
    """
    grad = d_half(table, k, model)
    return ValueTable._owning(table.horizon, join_coordinate(grad, grad))


def ou_generator_pathwise(table: ValueTable, model: RademacherModel) -> ValueTable:
    """Generator of the number-operator semigroup, evaluated pathwise as
    sum_k (q_k D_k^- F + p_k D_k^+ F).

    D_k^+ F vanishes where X_k = +1 and D_k^- F where X_k = -1, so
    coordinate k adds p_k (F+ - F-) on one half and q_k (F- - F+) on the
    other.
    """
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    acc = np.zeros(2**table.horizon)
    for k in range(model.n):
        minus, plus = split_coordinate(table.values, k)
        diff = plus - minus
        acc_minus, acc_plus = split_coordinate(acc, k)
        acc_minus += model.p[k] * diff
        # the bits of += q (minus - plus): negation is exact, and acc never holds -0.0
        acc_plus -= model.q[k] * diff
    return ValueTable._owning(table.horizon, acc)


def ou_generator_spectral(F: ChaosVector) -> ChaosVector:
    """Scale the order-r kernel by -r."""
    return F.map_kernels(lambda r, k: k.scale(-float(r)))


def pseudo_inverse(F: ChaosVector) -> ChaosVector:
    """Inverse of the generator on centered vectors: order r scales by -1/r.

    The order-0 part must vanish; a residue below rounding scale
    (1e-9 relative to the fluctuation size) is dropped silently.
    """
    return _centered(F).map_kernels(lambda r, k: k.scale(-1.0 / r) if r else k.scale(0.0))


def _centered(F: ChaosVector) -> ChaosVector:
    mean = F.kernel(0).value(())
    # the standard deviation as a hypot of the r! f_r(J), whose squares may leave the float range
    sd = math.hypot(*(math.factorial(r) * v for r, k in enumerate(F.kernels) if r for v in k.coeffs.values()))
    if abs(mean) > 1e-9 * (1.0 + sd):
        raise DomainError(f"pseudo-inverse needs a centered input; mean is {mean}")
    return F


def _operator_table(F: ChaosVector, table: ValueTable, scale, model, caps) -> ValueTable:
    """The table of the spectral operator that scales order r by
    ``scale(r)``, applied to F: for a pure order m >= 1 F's ``table`` times
    scale(m), else the synthesis of the rescaled kernels."""
    if m := F.pure_order():
        with np.errstate(over="ignore"):  # past the float range ``_owning`` raises DomainError
            return table * scale(m)
    return to_table(F.map_kernels(lambda r, k: k.scale(scale(r))), model, caps)


def gamma0(
    F: ValueTable, G: ValueTable, model: RademacherModel
) -> ValueTable:
    """Pathwise squared-field form built from one-coordinate differences:
    (1/2) sum_k (q_k D_k^-F D_k^-G + p_k D_k^+F D_k^+G).

    Only D_k^+ survives where X_k = -1 and only D_k^- where X_k = +1; both
    products there equal (F+ - F-)(G+ - G-).
    """
    if F.horizon != G.horizon:
        raise DomainError("tables live on different horizons")
    if model.n != F.horizon:
        raise DomainError("model and table horizons differ")
    acc = np.zeros(2**model.n)
    for k in range(model.n):
        f_minus, f_plus = split_coordinate(F.values, k)
        g_minus, g_plus = split_coordinate(G.values, k)
        prod = (f_plus - f_minus) * (g_plus - g_minus)
        acc_minus, acc_plus = split_coordinate(acc, k)
        acc_minus += 0.5 * (model.p[k] * prod)
        acc_plus += 0.5 * (model.q[k] * prod)
    return ValueTable._owning(model.n, acc)


def gamma(
    F: ChaosVector,
    G: ChaosVector,
    model: RademacherModel,
    caps: Caps = DEFAULT_CAPS,
) -> ValueTable:
    """Carre du champ (1/2)(L(FG) - F LG - G LF), evaluated exactly.

    The product table is analyzed once; on its Walsh coefficient array
    the generator scales E[FG Y_S] by -|S| before one synthesis.  LF is
    -m times F's table for a pure order m; G = F reuses F's tables.
    """
    def tables(H: ChaosVector) -> tuple[ValueTable, ValueTable]:
        t = to_table(H, model, caps)
        return t, _operator_table(H, t, lambda r: -float(r), model, caps)
    f_t, lf = tables(F)
    g_t, lg = (f_t, lf) if G is F else tables(G)
    return _gamma_tables(f_t, lf, g_t, lg, model)


def _gamma_tables(
    f_t: ValueTable, lf: ValueTable, g_t: ValueTable, lg: ValueTable,
    model: RademacherModel,
) -> ValueTable:
    """``gamma`` from the tables of F, LF, G and LG, for callers that
    already hold them."""
    prod = basis_coefficients(f_t * g_t, model)
    l_prod = basis_synthesis(-subset_orders(model.n) * prod, model)
    vals = 0.5 * (l_prod.values - f_t.values * lg.values - g_t.values * lf.values)
    return ValueTable._owning(model.n, vals)


def skorohod(u: list[ChaosVector], model: RademacherModel) -> ChaosVector:
    """Adjoint of the gradient on chaos-vector-valued processes.

    For each component order r, the order-(r+1) output kernel at a subset
    T collects (1/(r+1)) sum_{k in T} g_k(T \\ {k}), i.e. the canonical
    symmetrization of k -> g_k restricted off the diagonal.  Coefficients
    of u_k on subsets containing k never contribute.
    """
    if len(u) != model.n:
        raise DomainError(f"need one process component per coordinate, got {len(u)}")
    for comp in u:
        if comp.horizon != model.n:
            raise DomainError("process components must live on the model horizon")
    n = model.n
    top = max(comp.top_order for comp in u)
    per_order: list[dict] = [dict() for _ in range(top + 2)]
    for k, comp in enumerate(u):
        for r in range(comp.top_order + 1):
            kern = comp.kernel(r)
            for key, val in kern.coeffs.items():
                if k in key:
                    continue
                target = tuple(sorted(key + (k,)))
                bucket = per_order[r + 1]
                bucket[target] = bucket.get(target, 0.0) + val / (r + 1)
    kernels = tuple(Kernel._from_valid_keys(r, n, per_order[r]) for r in range(top + 2))
    return ChaosVector(n, kernels).trimmed()


def gradient_process(F: ChaosVector) -> list[ChaosVector]:
    """The gradient as a chaos-vector process: component k holds D_k F.

    D_k of the order-r term is r J_{r-1}(f_r(k, .)); kernels of the
    component never mention coordinate k.
    """
    n = F.horizon
    out = []
    for k in range(n):
        per_order: list[dict] = [dict() for _ in range(max(F.top_order, 1))]
        for r in range(1, F.top_order + 1):
            kern = F.kernel(r)
            for key, val in kern.coeffs.items():
                if k not in key:
                    continue
                rest = tuple(i for i in key if i != k)
                bucket = per_order[r - 1]
                bucket[rest] = bucket.get(rest, 0.0) + r * val
        kernels = tuple(
            Kernel._from_valid_keys(r, n, per_order[r]) for r in range(len(per_order))
        )
        out.append(ChaosVector(n, kernels).trimmed())
    return out
