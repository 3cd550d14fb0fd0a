"""Finite-horizon Rademacher sequences and exact outcome enumeration.

A model is a vector of success probabilities ``p_0 .. p_{n-1}`` for
independent signs ``X_k`` with ``P(X_k = +1) = p_k``.  The normalized
coordinates

    Y_k = (X_k - p_k + q_k) / (2 sqrt(p_k q_k)),   q_k = 1 - p_k,

have mean 0 and variance 1; they take the value ``sqrt(q_k/p_k)`` on
``X_k = +1`` and ``-sqrt(p_k/q_k)`` on ``X_k = -1``.

Outcomes of the whole sequence are indexed by bitmask: bit ``k`` of the
index is set iff ``X_k = +1``.  All coordinate indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError


def split_coordinate(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``X_k = -1`` and ``X_k = +1`` halves of a 2**n table, as views.

    Bit k of an outcome index selects the middle axis of the reshape
    ``(2**(n-k-1), 2, 2**k)``; writing to a half writes to ``values``.
    ``chaos.join_coordinate`` is the inverse.
    """
    v = values.reshape(-1, 2, 1 << k)
    return v[:, 0, :], v[:, 1, :]


def normalized_value(p: float, sign: int) -> float:
    """Value of the normalized coordinate Y for one sign of X.

    Returns sqrt(q/p) for sign +1 and -sqrt(p/q) for sign -1.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"success probability must lie in (0,1), got {p}")
    if sign == 1:
        return math.sqrt((1.0 - p) / p)
    if sign == -1:
        return -math.sqrt(p / (1.0 - p))
    raise DomainError(f"sign must be +1 or -1, got {sign}")


def y_moment(p: float, r: int) -> float:
    """Closed-form moment E[Y^r] of a normalized coordinate, r in 1..4.

    E[Y] = 0, E[Y^2] = 1, E[Y^3] = (q-p)/sqrt(pq),
    E[Y^4] = 1 + (q-p)^2/(pq).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"success probability must lie in (0,1), got {p}")
    q = 1.0 - p
    if r == 1:
        return 0.0
    if r == 2:
        return 1.0
    if r == 3:
        return (q - p) / math.sqrt(p * q)
    if r == 4:
        return 1.0 + (q - p) ** 2 / (p * q)
    raise DomainError(f"moment order must be in 1..4, got {r}")


@dataclass(frozen=True)
class RademacherModel:
    """Product measure on {-1,+1}^n with per-coordinate success probabilities."""

    probs: tuple[float, ...]
    prob_floor: float = field(default=DEFAULT_CAPS.prob_floor, repr=False)

    def __post_init__(self):
        if len(self.probs) == 0:
            raise DomainError("model needs at least one coordinate")
        lo, hi = self.prob_floor, 1.0 - self.prob_floor
        for k, p in enumerate(self.probs):
            if not (lo <= p <= hi):
                raise DomainError(
                    f"p[{k}] = {p} outside [{lo}, {hi}]; values this extreme "
                    "overflow sqrt(p/q)"
                )

    @staticmethod
    def homogeneous(p: float, n: int) -> "RademacherModel":
        if n < 1:
            raise DomainError(f"horizon must be positive, got {n}")
        return RademacherModel(tuple(float(p) for _ in range(n)))

    @staticmethod
    def symmetric(n: int) -> "RademacherModel":
        return RademacherModel.homogeneous(0.5, n)

    @property
    def n(self) -> int:
        return len(self.probs)

    @cached_property
    def p(self) -> np.ndarray:
        return np.array(self.probs, dtype=float)

    @cached_property
    def q(self) -> np.ndarray:
        return 1.0 - self.p

    @cached_property
    def pq(self) -> np.ndarray:
        return self.p * self.q

    @cached_property
    def sqrt_pq(self) -> np.ndarray:
        return np.sqrt(self.pq)

    @cached_property
    def y_plus(self) -> np.ndarray:
        return np.sqrt(self.q / self.p)

    @cached_property
    def y_minus(self) -> np.ndarray:
        return -np.sqrt(self.p / self.q)

    @cached_property
    def skew(self) -> np.ndarray:
        """Structure-identity coefficient (q-p)/sqrt(pq), i.e. E[Y^3]."""
        return (self.q - self.p) / self.sqrt_pq

    def check_enumerable(self, caps: Caps = DEFAULT_CAPS) -> None:
        if self.n > caps.enum_cap:
            raise CapacityError(
                f"horizon {self.n} exceeds enum_cap={caps.enum_cap} "
                "(2**n outcomes); use sampling instead",
                cap_name="enum_cap",
                cap_value=caps.enum_cap,
                requested=self.n,
            )

    @cached_property
    def _weights(self) -> np.ndarray:
        # weight of outcome index w: prod over k of (p_k if bit k of w else q_k);
        # doubling keeps bit k of the index aligned with coordinate k
        w = np.array([1.0])
        for k in range(self.n):
            w = np.concatenate([w * self.q[k], w * self.p[k]])
        return w

    def weights(self, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
        """Exact probabilities of all 2**n outcomes, bitmask order."""
        self.check_enumerable(caps)
        return self._weights

    def y_table(self, k: int) -> np.ndarray:
        """Values of Y_k at all 2**n outcomes, bitmask order."""
        return self._coordinate_table(k, self.y_minus, self.y_plus)

    def signs_table(self, k: int) -> np.ndarray:
        """Values of X_k at all 2**n outcomes, bitmask order."""
        return self._coordinate_table(k, -np.ones(self.n), np.ones(self.n))

    def _coordinate_table(
        self, k: int, at_minus: np.ndarray, at_plus: np.ndarray
    ) -> np.ndarray:
        """The table equal to ``at_minus[k]`` where X_k = -1 and to
        ``at_plus[k]`` where X_k = +1."""
        if not 0 <= k < self.n:
            raise DomainError(f"coordinate {k} out of range for n={self.n}")
        out = np.empty(2**self.n)
        minus, plus = split_coordinate(out, k)
        minus[...] = at_minus[k]
        plus[...] = at_plus[k]
        return out


@dataclass(frozen=True)
class Outcome:
    """One point of {-1,+1}^n together with its exact probability."""

    signs: tuple[int, ...]
    weight: float

    @property
    def index(self) -> int:
        return sum(1 << k for k, s in enumerate(self.signs) if s == 1)


def enumerate_outcomes(
    model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> Iterator[Outcome]:
    """Yield all 2**n outcomes exactly once, with exact weights."""
    model.check_enumerable(caps)
    w = model.weights(caps)
    n = model.n
    for idx in range(2**n):
        signs = tuple(1 if (idx >> k) & 1 else -1 for k in range(n))
        yield Outcome(signs=signs, weight=float(w[idx]))


def sample(model: RademacherModel, seed: int, count: int) -> list[Outcome]:
    """Draw i.i.d. outcomes; deterministic for a given seed."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    u = rng.random((count, model.n))
    plus = u < model.p
    out = []
    for row in plus:
        signs = tuple(1 if b else -1 for b in row)
        weight = float(np.prod(np.where(row, model.p, model.q)))
        out.append(Outcome(signs=signs, weight=weight))
    return out


def sample_y_matrix(model: RademacherModel, seed: int, count: int) -> np.ndarray:
    """Matrix of normalized coordinates for `count` i.i.d. draws."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    plus = rng.random((count, model.n)) < model.p
    return np.where(plus, model.y_plus, model.y_minus)
