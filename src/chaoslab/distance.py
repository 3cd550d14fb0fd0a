"""Exact and empirical distances between finite laws and the standard normal.

A finitely supported law admits closed-form distances: the Kolmogorov
distance is a max over atoms of one-sided CDF gaps, and the Wasserstein
distance is the L1 distance between CDFs, integrated segment by segment
using E[(a - N)^+] = phi(a) + a Phi(a) and its mirror image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .chaos import ValueTable
from .config import Caps, DEFAULT_CAPS
from .errors import DomainError
from .model import RademacherModel

_MERGE_TOL = 1e-12
_STD_NORMAL = NormalDist()


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; exact at 0, monotone, |err| << 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must lie in (0,1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class DistributionTable:
    """Sorted atoms with positive probabilities summing to 1."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if a.ndim != 1 or a.shape != p.shape or len(a) == 0:
            raise DomainError("atoms and probs must be equal-length 1-d arrays")
        if np.any(np.diff(a) <= 0):
            raise DomainError("atoms must be strictly increasing")
        if np.any(p <= 0):
            raise DomainError("probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {p.sum()}, expected 1")
        a = a.copy()
        p = p.copy()
        a.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "probs", p)

    @property
    def cdf_levels(self) -> np.ndarray:
        """CDF value at and after each atom."""
        return np.cumsum(self.probs)

    def shift(self, c: float) -> "DistributionTable":
        return DistributionTable(self.atoms + c, self.probs.copy())


def from_weighted_values(values: np.ndarray, weights: np.ndarray) -> DistributionTable:
    """Aggregate weighted values into a law, merging atoms within 1e-12."""
    order = np.argsort(values, kind="stable")
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    # new group whenever the gap to the previous sorted value exceeds the
    # merge tolerance; chained sub-tolerance steps merge into one atom
    starts = np.concatenate([[0], np.flatnonzero(np.diff(v) > _MERGE_TOL) + 1])
    atoms = v[starts]
    probs = np.add.reduceat(w, starts)
    probs = probs / math.fsum(probs)
    return DistributionTable(atoms, probs)


def exact_distribution(
    table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> DistributionTable:
    """Exact law of a functional from its value table."""
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    return from_weighted_values(table.values, model.weights(caps))


def kolmogorov_to_normal(dist: DistributionTable) -> float:
    """sup_x |P(F <= x) - Phi(x)|, attained at an atom from one side."""
    best = 0.0
    level_before = 0.0
    for atom, level in zip(dist.atoms, dist.cdf_levels):
        phi = normal_cdf(float(atom))
        best = max(best, abs(level - phi), abs(level_before - phi))
        level_before = level
    return best


def _integral_cdf_below(a: float) -> float:
    """integral_{-inf}^{a} Phi(x) dx = E[(a - N)^+]."""
    return normal_pdf(a) + a * normal_cdf(a)


def _integral_sf_above(b: float) -> float:
    """integral_{b}^{inf} (1 - Phi(x)) dx = E[(N - b)^+]."""
    return normal_pdf(b) - b * (1.0 - normal_cdf(b))


def _segment(a: float, b: float, level: float) -> float:
    """integral_a^b |level - Phi(x)| dx in closed form."""
    if level <= 0.0:
        return _integral_cdf_below(b) - _integral_cdf_below(a)
    if level >= 1.0:
        return _integral_sf_above(a) - _integral_sf_above(b)
    cross = normal_quantile(level)
    if cross <= a:
        # Phi >= level throughout
        lo, hi = a, b
        return (_integral_cdf_below(hi) - _integral_cdf_below(lo)) - level * (hi - lo)
    if cross >= b:
        return level * (b - a) - (_integral_cdf_below(b) - _integral_cdf_below(a))
    left = level * (cross - a) - (_integral_cdf_below(cross) - _integral_cdf_below(a))
    right = (_integral_cdf_below(b) - _integral_cdf_below(cross)) - level * (b - cross)
    return left + right


def wasserstein_to_normal(dist: DistributionTable) -> float:
    """L1 distance between the law's CDF and Phi over the whole line.

    Segments between consecutive atoms integrate |level - Phi| in closed
    form, and both tails are exact, so the result is limited only by
    rounding.
    """
    atoms = dist.atoms
    levels = dist.cdf_levels
    total = _integral_cdf_below(float(atoms[0]))
    for i in range(len(atoms) - 1):
        total += _segment(float(atoms[i]), float(atoms[i + 1]), float(levels[i]))
    total += _integral_sf_above(float(atoms[-1]))
    return total


def empirical_distances(
    samples, confidence: float = 0.95
) -> tuple[float, float, float]:
    """Empirical-CDF distances to the normal plus a DKW half-width.

    Returns (d_K estimate, Wasserstein estimate, half-width h) where the
    true d_K of the sampled law lies within h of the estimate with the
    requested confidence.
    """
    x = np.asarray(list(samples), dtype=float)
    N = len(x)
    if N < 1000:
        raise DomainError(f"need at least 1000 samples, got {N}")
    law = from_weighted_values(x, np.full(N, 1.0 / N))
    dk = kolmogorov_to_normal(law)
    dw = wasserstein_to_normal(law)
    delta = 1.0 - confidence
    half_width = math.sqrt(math.log(2.0 / delta) / (2.0 * N))
    return dk, dw, half_width
