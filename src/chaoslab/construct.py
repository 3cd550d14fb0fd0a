"""Generators for the named example families.

Three families matter:

* a homogeneous model with tuned success probability making the pure
  product Y_0 ... Y_{m-1} match all four normal moments while staying a
  finitely supported (hence non-normal) law;
* a fair-coin kernel of order 2 found by bisection on the unit sphere of
  subset coefficients, where the quadruple sum crosses the value 3
  between a one-coordinate-dominated point and the uniform point;
* the classic bounded-influence sequence (sign times a growing average)
  whose maximal influence never vanishes although it is asymptotically
  normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .chaos import integral_table
from .config import Caps, DEFAULT_CAPS
from .errors import DomainError
from .kernels import Kernel, SupportPlan
from .model import RademacherModel, y_moment
from .moments import fourth_moment_symmetric, moment

Subset = tuple[int, ...]

# halvings of the sphere path before the bisection gives up
_MAX_BISECTION_STEPS = 200


def inhomogeneous_counterexample(m: int, sign: str = "+") -> tuple[RademacherModel, Kernel]:
    """Homogeneous model and kernel with E[F^4] = 3 but F finitely supported.

    The success probability solves E[Y^4] = 3**(1/m), so the product of m
    normalized coordinates has unit variance and fourth moment exactly 3.
    """
    if m < 1:
        raise DomainError(f"order must be >= 1, got {m}")
    if sign not in {"+", "-"}:
        raise DomainError(f"sign must be '+' or '-', got {sign!r}")
    root = 3.0 ** (1.0 / m)
    delta = math.sqrt(root - 1.0) / (2.0 * math.sqrt(root + 3.0))
    p = 0.5 + delta if sign == "+" else 0.5 - delta
    model = RademacherModel.homogeneous(p, m)
    kern = Kernel(m, m, {tuple(range(m)): 1.0 / math.factorial(m)})
    return model, kern


def g_value(a: dict[Subset, float]) -> float:
    """Quadruple sum over coefficient quadruples with matching symmetric
    differences, for a point on the coefficient sphere."""
    norm = sum(v * v for v in a.values())
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"coefficients must lie on the unit sphere; norm^2 = {norm}")
    return fourth_moment_symmetric(a)


def uniform_sphere_point(m: int, n: int) -> dict[Subset, float]:
    """Equal coefficients on all m-subsets of the horizon."""
    subsets = list(combinations(range(n), m))
    c = 1.0 / math.sqrt(len(subsets))
    return {J: c for J in subsets}


def first_coordinate_point(m: int, n: int) -> dict[Subset, float]:
    """Coefficients supported on subsets through coordinate 0."""
    subsets = [J for J in combinations(range(n), m) if 0 in J]
    c = 1.0 / math.sqrt(len(subsets))
    return {J: c for J in subsets}


@dataclass(frozen=True)
class BisectionTrace:
    theta: float
    residual: float
    iterations: int
    brackets: tuple[tuple[float, float], ...]
    endpoint_low: float  # quadruple sum at theta = 0
    endpoint_high: float  # quadruple sum at theta = 1


def symmetric_counterexample(
    m: int, n: int, bisection_tol: float = 1e-12
) -> tuple[Kernel, BisectionTrace]:
    """Fair-coin kernel of order m with fourth moment exactly 3 (to tol).

    For m = 2 the path normalize((1-theta) c + theta b) connects a point
    with quadruple sum below 3 to one above 3, so bisection pins the
    crossing.  Orders above 2 append fresh coordinates, multiplying by a
    product of independent signs, which preserves variance and fourth
    moment.  One fair-coin plan of the union support of the endpoints
    evaluates the quadruple sum ``g_value`` at both endpoints and at every
    bisection step, on arrays of the path's coefficients; the values equal
    fresh calls on dictionaries bit for bit.
    """
    if m < 2:
        raise DomainError(f"order must be >= 2, got {m}")
    if n < 4:
        raise DomainError(f"requires n >= 4, got {n} (the uniform endpoint must exceed 3)")
    if not (math.isfinite(bisection_tol) and bisection_tol > 0):
        raise DomainError(f"bisection tolerance must be finite and positive, got {bisection_tol}")

    b = uniform_sphere_point(2, n)
    c = first_coordinate_point(2, n)
    # the path's coordinates in the order of ``set(c) | set(b)``; a plan's
    # sums do not depend on the order of its keys
    keys = list(set(c) | set(b))
    plan = SupportPlan(keys)
    low, high = (np.array([a.get(key, 0.0) for key in keys]) for a in (c, b))

    def path_point(theta: float) -> np.ndarray:
        """normalize((1 - theta) c + theta b); the norm adds the squares
        left to right, as ``sum`` over the nonzero entries does.  c and b
        are nonnegative unit vectors, so the norm is at least 1/2."""
        v = (1.0 - theta) * low + theta * high
        norm = math.sqrt(np.add.accumulate(v * v)[-1])
        return v / norm

    def g_minus_3(point: np.ndarray) -> float:
        return plan.fourth_moment(point) - 3.0

    g_low = g_minus_3(low)
    g_high = g_minus_3(high)
    if not (g_low < 0.0 < g_high):
        raise DomainError(
            f"endpoints do not bracket g = 3 (tolerance {bisection_tol}): "
            f"g(c)-3 = {g_low}, g(b)-3 = {g_high}"
        )

    lo, hi = 0.0, 1.0
    h_lo = g_low
    brackets = [(lo, hi)]
    theta = 0.5
    residual = math.inf
    iterations = 0
    for _ in range(_MAX_BISECTION_STEPS):
        theta = 0.5 * (lo + hi)
        iterations += 1
        h_mid = g_minus_3(path_point(theta))
        residual = h_mid
        if abs(h_mid) <= bisection_tol:
            break
        if (h_mid < 0.0) == (h_lo < 0.0):
            lo = theta
            h_lo = h_mid
        else:
            hi = theta
        brackets.append((lo, hi))
    else:
        raise DomainError(
            f"bisection did not reach tolerance {bisection_tol} in "
            f"{_MAX_BISECTION_STEPS} iterations; last residual {residual}"
        )

    a = {key: v for key, v in zip(keys, path_point(theta).tolist()) if v != 0.0}
    trace = BisectionTrace(
        theta=theta,
        residual=residual,
        iterations=iterations,
        brackets=tuple(brackets),
        endpoint_low=g_low + 3.0,
        endpoint_high=g_high + 3.0,
    )

    if m == 2:
        kern = Kernel.from_subset_coeffs(2, n, a)
    else:
        extra = tuple(range(n, n + m - 2))
        lifted = {tuple(sorted(J + extra)): v for J, v in a.items()}
        kern = Kernel.from_subset_coeffs(m, n + m - 2, lifted)
    return kern, trace


def product_chaos_sequence(m: int, n: int) -> tuple[Kernel, RademacherModel]:
    """Sign-times-average sequence: bounded influence, asymptotically normal.

    Kernel value 1/(m! sqrt(n-m+1)) on subsets {0, .., m-2, l} for
    l = m-1 .. n-1, on the fair-coin model.
    """
    if m < 2:
        raise DomainError(f"order must be >= 2, got {m}")
    if n < m:
        raise DomainError(f"horizon {n} below order {m}")
    value = 1.0 / (math.factorial(m) * math.sqrt(n - m + 1))
    head = tuple(range(m - 1))
    coeffs = {tuple(sorted(head + (l,))): value for l in range(m - 1, n)}
    return Kernel(m, n, coeffs), RademacherModel.symmetric(n)


def order_one_identity_check(
    f: Kernel, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> tuple[float, float]:
    """Both sides of E[F^4] - 3 = (lambda - 3) sum_j f(j)^4 for order-1 F.

    The left side is computed by exact enumeration; the right side uses
    only lambda = E[Y^4] of the homogeneous model and the coefficient
    fourth powers.  Requires unit variance.
    """
    if f.order != 1:
        raise DomainError(f"kernel must have order 1, got {f.order}")
    if len(set(model.probs)) != 1:
        raise DomainError("model must be homogeneous")
    if model.n != f.horizon:
        raise DomainError("kernel and model horizons differ")
    var = sum(v * v for v in f.coeffs.values())
    if abs(var - 1.0) > 1e-9:
        raise DomainError(f"kernel must have unit variance, got {var}")
    table = integral_table(f, model, caps)
    lhs = moment(table, 4, model, caps) - 3.0
    lam = y_moment(model.probs[0], 4)
    rhs = (lam - 3.0) * sum(v**4 for v in f.coeffs.values())
    return lhs, rhs


def matched_pairs_kernel(n: int) -> tuple[Kernel, RademacherModel]:
    """Unit-variance order-2 kernel uniform on a perfect matching of [n].

    The integral is a standardized sum of n/2 independent signs, so the
    fourth moment tends to 3 and the maximal influence to 0: the cleanest
    sequence satisfying every hypothesis of the fourth-moment-influence
    convergence statement.
    """
    if n < 2 or n % 2:
        raise DomainError(f"horizon must be even and >= 2, got {n}")
    pairs = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    a = 1.0 / math.sqrt(len(pairs))
    kern = Kernel.from_subset_coeffs(2, n, {J: a for J in pairs})
    return kern, RademacherModel.symmetric(n)
