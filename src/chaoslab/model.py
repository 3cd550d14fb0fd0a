"""Finite-horizon Rademacher sequences: exact outcome weights and tables.

A model is a vector of success probabilities ``p_0 .. p_{n-1}`` for
independent signs ``X_k`` with ``P(X_k = +1) = p_k``.  The normalized
coordinates

    Y_k = (X_k - p_k + q_k) / (2 sqrt(p_k q_k)),   q_k = 1 - p_k,

have mean 0 and variance 1; they take the value ``sqrt(q_k/p_k)`` on
``X_k = +1`` and ``-sqrt(p_k/q_k)`` on ``X_k = -1``.

Outcomes of the whole sequence are indexed by bitmask: bit ``k`` of the
index is set iff ``X_k = +1``.  A model gives the exact weights of all
2**n outcomes and the tables of ``X_k`` and ``Y_k`` in that order;
``sample_signs`` draws i.i.d. rows of signs for the empirical checks, and
``sample_y_matrix`` maps the same draws to ``Y``.  Every
``p_k`` must be a real number under the kernels' input rule
(``kernels.real_value``), stored as a Python float, and lie in
``[PROB_FLOOR, 1 - PROB_FLOOR]``.  All coordinate indices are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import Caps, DEFAULT_CAPS
from .errors import DomainError
from .kernels import real_value

# success probabilities must lie in [PROB_FLOOR, 1 - PROB_FLOOR], so that
# sqrt(q/p) and sqrt(p/q) stay representable
PROB_FLOOR = 1e-6


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

    def __post_init__(self):
        try:
            entries = enumerate(self.probs)
        except TypeError:
            raise DomainError(f"probs must be a sequence, got {self.probs!r}") from None
        lo, hi = PROB_FLOOR, 1.0 - PROB_FLOOR
        probs = []
        for k, p in entries:
            if type(p) is not float:
                p = real_value(k, p, "p[{}]")
            if not (lo <= p <= hi):
                raise DomainError(
                    f"p[{k}] = {p} outside [{lo}, {hi}]; values this extreme "
                    "overflow sqrt(p/q)"
                )
            probs.append(p)
        if not probs:
            raise DomainError("model needs at least one coordinate")
        # a tuple of Python floats, so that a list or numpy input gives a
        # hashable model equal to the tuple one
        object.__setattr__(self, "probs", tuple(probs))

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
        caps.check("enum_cap", self.n, "horizon {requested} exceeds enum_cap={value} "
                   "(2**n outcomes); use sampling instead")

    @cached_property
    def _weights(self) -> np.ndarray:
        # weight of outcome index w: prod over k of (p_k if bit k of w else q_k);
        # doubling keeps bit k of the index aligned with coordinate k, and
        # read-only because every caller shares the array
        w = np.empty(2**self.n)
        w[0] = 1.0
        for k in range(self.n):
            s = 1 << k
            np.multiply(w[:s], self.p[k], out=w[s : 2 * s])
            w[:s] *= self.q[k]
        w.flags.writeable = False
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


def sample_signs(model: RademacherModel, seed: int, count: int) -> np.ndarray:
    """Boolean matrix of `count` i.i.d. draws, True where X_k = +1: the
    uniforms ``default_rng(seed).random((count, n))`` compared with p."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return rng.random((count, model.n)) < model.p


def outcome_index(plus: np.ndarray) -> np.ndarray:
    """Bitmask index of each row of a sign matrix that is True where X_k = +1."""
    return plus @ (1 << np.arange(plus.shape[1]))


def sample_y_matrix(model: RademacherModel, seed: int, count: int) -> np.ndarray:
    """Matrix of normalized coordinates for the draws of ``sample_signs``."""
    return np.where(sample_signs(model, seed, count), model.y_plus, model.y_minus)
