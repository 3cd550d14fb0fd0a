"""Exact and empirical distances between finite laws and the standard normal.

A finitely supported law admits closed-form distances: the Kolmogorov
distance is a max over atoms of one-sided CDF gaps, and the Wasserstein
distance is the L1 distance between CDFs, integrated segment by segment
using E[(a - N)^+] = phi(a) + a Phi(a) and its mirror image.

A law has one atom per level of the values (``_levels``, which also gives
the levels of the indicator sup in ``moments``).  It is built by one
unstable sort of the values and one of their indices; the sort order inside
a level only changes the order in which its weights are added, and the
probabilities are renormalized by one numpy sum.

The law of a multiple integral can also come without a 2^n table.  When
the kernel's support splits into pieces that share no coordinate, F is a
sum of independent integrals; ``integral_law`` builds each piece's law
from a table over its own coordinates and folds the laws together, one
outer sum of atoms at a time, through ``from_weighted_values``.  A
support that joins all n coordinates is one piece, on the model itself.

Both distances walk the atoms in numpy blocks of ``_BLOCK``.  On a block
of at least ``_PHI_NUMPY`` atoms Phi comes from the numpy ``erfc`` (the
fdlibm algorithm of ``math.erfc``, within ``erfc.ERFC_ULPS`` = 4 ulp of
it), so it is within 2.2e-16 of ``normal_cdf`` on the tested grid and
within ``_PHI_ERR`` = 1e-14 by contract; on a smaller block it is
``math.erfc`` applied elementwise, the same scalar as ``normal_cdf``.
The Kolmogorov distance stays bit for bit the atom-by-atom maximum
either way: ``_gap`` re-evaluates ``normal_cdf`` at the atoms whose
approximate gap is within 2 ``_PHI_ERR`` of the block's maximum, among
which the exact maximum lies, and returns the exact largest gap there.
The Wasserstein distance uses the block's Phi as it is: each closed-form
piece moves by the error of Phi at its two ends, so W1 is no longer bit
for bit the value with ``math.erfc`` but stays inside the tolerance the
differential tests hold it to.  Phi^{-1} is evaluated only on the
segments the CDF level crosses inside.  Each block's Wasserstein pieces
are non-negative and are added by one numpy sum, and ``math.fsum`` adds
the block sums.  ``normal_distances`` computes both distances from one
walk that evaluates Phi once per atom, equal to the two separate walks
bit for bit.  Blocks bound the temporaries of Phi, so the distances add
no 2^n-sized memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .chaos import ValueTable, integral_table
from .config import Caps, DEFAULT_CAPS
from .erfc import erfc
from .errors import CapacityError, DomainError
from .kernels import Kernel, Subset
from .model import RademacherModel

# relative gap, in units of max(1, |F|), below which sorted values share a level
_MERGE_TOL = 1e-12
# atoms per numpy block of the distance walks
_BLOCK = 1 << 16
# arrays of at least this many entries take Phi from the numpy ``erfc``,
# below it from ``math.erfc`` elementwise: the numpy path costs 60-120 us
# up to 1024 atoms, and the two break even, with the recheck in ``_gap``,
# between 1536 and 2048 atoms (measured on a 2-CPU host)
_PHI_NUMPY = 2048
# bound on |Phi - normal_cdf| through the numpy ``erfc``: about 100 times
# the tested worst case of 1.1e-16, so it also covers the rounding of a gap
_PHI_ERR = 1e-14
_ERFC = np.frompyfunc(math.erfc, 1, 1)
_INV_CDF = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
_DKW_CONFIDENCE = 0.95


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; exact at 0, monotone, |err| << 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_pdf(x):
    """Standard normal density of a float or an array."""
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _exact_cdf_array(x: np.ndarray) -> np.ndarray:
    """``normal_cdf`` elementwise, bit for bit."""
    return 0.5 * _ERFC(-x / math.sqrt(2.0)).astype(float)


def _normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """Phi of an ascending array: ``_exact_cdf_array`` below ``_PHI_NUMPY``
    entries, and within ``_PHI_ERR`` of it through the numpy ``erfc`` at or
    above (any order is correct; ascending is fastest)."""
    if len(x) < _PHI_NUMPY:
        return _exact_cdf_array(x)
    return 0.5 * erfc((-x / math.sqrt(2.0))[::-1])[::-1]


@dataclass(frozen=True)
class DistributionTable:
    """Sorted atoms with positive probabilities summing to 1."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.atoms, dtype=float), np.array(self.probs, dtype=float))

    @classmethod
    def _owning(cls, atoms: np.ndarray, probs: np.ndarray) -> "DistributionTable":
        """A law that takes ``atoms`` and ``probs``, float arrays nobody
        writes to afterwards, with the same checks and no copy."""
        law = object.__new__(cls)
        law._freeze(atoms, probs)
        return law

    def _freeze(self, a: np.ndarray, p: np.ndarray) -> None:
        if a.ndim != 1 or a.shape != p.shape or len(a) == 0:
            raise DomainError("atoms and probs must be equal-length 1-d arrays")
        if np.any(np.diff(a) <= 0):
            raise DomainError("atoms must be strictly increasing")
        if np.any(p <= 0):
            raise DomainError("probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {p.sum()}, expected 1")
        a.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "probs", p)

    @cached_property
    def cdf_levels(self) -> np.ndarray:
        """CDF value at and after each atom, summed once per law."""
        levels = np.cumsum(self.probs)
        levels.flags.writeable = False
        return levels

    def shift(self, c: float) -> "DistributionTable":
        return DistributionTable._owning(self.atoms + c, self.probs)


def _levels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted values, an argsort of ``values``, the start of each level in
    the sorted order): the one rule for what a level of F is.

    Consecutive sorted values share a level, chained, when their gap is at
    most ``_MERGE_TOL * max(1, |v_min|, |v_max|)``: a table's rounding
    scales with its largest entries, and at the probability floor, where |F|
    reaches 1e5, one ulp (1.5e-11) already exceeds an absolute 1e-12.
    """
    v = np.sort(values)
    if not (len(v) and np.isfinite(v[0]) and np.isfinite(v[-1])):  # NaN sorts last
        raise DomainError("values must be finite and non-empty")
    tol = _MERGE_TOL * max(1.0, abs(float(v[0])), abs(float(v[-1])))
    starts = np.flatnonzero(np.concatenate(([True], np.diff(v) > tol)))
    return v, np.argsort(values), starts  # argsort after diff's table is freed


def from_weighted_values(values: np.ndarray, weights: np.ndarray) -> DistributionTable:
    """Aggregate weighted values into a law with one atom per ``_levels`` level."""
    v, order, starts = _levels(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)[order]
    del order
    atoms = v[starts]
    del v
    probs = np.add.reduceat(w, starts)
    del w, starts  # freed before the table's checks allocate
    probs /= probs.sum()
    return DistributionTable._owning(atoms, probs)


def exact_distribution(
    table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> DistributionTable:
    """Exact law of a functional from its value table."""
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    return from_weighted_values(table.values, model.weights(caps))


# -- laws of multiple integrals by independent pieces -------------------------


def independent_pieces(f: Kernel) -> list[tuple[tuple[int, ...], list[Subset]]]:
    """(coordinates, support subsets) of each independent piece of f.

    Two support subsets share a piece when a chain of subsets, each sharing
    a coordinate with the next, joins them; a union-find over coordinates
    builds the pieces, ordered by their smallest coordinate.  The integrals
    of different pieces are functions of disjoint sets of independent signs.
    A support that joins all n coordinates is recognized at the subset that
    completes it and comes back as one piece over ``range(n)``.  The empty
    subset of an order-0 kernel touches no coordinate and is in no piece.
    """
    n = f.horizon
    parent = list(range(n))
    seen = [False] * n
    touched = joined = 0  # coordinates seen, and unions made among them

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    subsets = [key for key in f.coeffs if key]
    for key in subsets:
        root = find(key[0])
        for i in key:
            if not seen[i]:
                seen[i] = True
                touched += 1
            r = find(i)
            if r != root:
                parent[r] = root
                joined += 1
        if touched == n and joined == n - 1:
            return [(tuple(range(n)), subsets)]
    groups: dict[int, list[Subset]] = {}
    for key in subsets:
        groups.setdefault(find(key[0]), []).append(key)
    pieces = [(tuple(sorted({i for key in g for i in key})), g) for g in groups.values()]
    pieces.sort(key=lambda piece: piece[0][0])
    return pieces


@dataclass(frozen=True)
class IntegralLaw:
    """The exact law of a multiple integral, assembled from its pieces.

    ``stats`` holds ``stat(table, piece_model, caps)`` of every piece in
    piece order; a repeated piece repeats its entry.  ``dropped`` counts
    the products of piece masses that underflowed to 0 and were left out.
    Each stood for outcomes of total mass below 2**-1074, so the law leaves
    out at most ``dropped * 2**-1074`` of mass before it is renormalized.
    """

    law: DistributionTable
    stats: tuple
    dropped: int


def integral_law(
    f: Kernel, model: RademacherModel, caps: Caps = DEFAULT_CAPS, stat=None
) -> IntegralLaw:
    """Exact law of the multiple integral of f, piece by piece.

    F = sum_i P_i over the ``independent_pieces`` of f, and the P_i are
    independent.  Each piece's table is built by ``integral_table`` on its
    coordinates alone, relabelled 0..k-1 with their probabilities, and its
    law by ``exact_distribution``; a piece equal to one already built,
    kernel and probabilities alike, is built once.  The piece laws are
    folded together in piece order: each outer sum of atoms goes through
    ``from_weighted_values``, so every partial sum has one atom per
    ``_levels`` level.  A support that joins all n coordinates is one
    piece on the model itself, which is plain enumeration.

    ``enum_cap`` bounds each piece's number of coordinates and each outer
    sum, at most 2**enum_cap atom pairs before it is merged; the horizon n
    may exceed it.  Past either limit ``CapacityError`` names ``enum_cap``.
    Products of masses that underflow to 0 are dropped (``IntegralLaw``).
    """
    if model.n != f.horizon:
        raise DomainError("kernel and model horizons differ")
    pieces = independent_pieces(f)
    widest = max((len(coords) for coords, _ in pieces), default=0)
    if widest > caps.enum_cap:
        raise CapacityError(
            f"a piece of the support spans {widest} coordinates, above "
            f"enum_cap={caps.enum_cap} (2**{widest} outcomes)",
            cap_name="enum_cap",
            cap_value=caps.enum_cap,
            requested=widest,
        )
    law, stats, dropped, built = None, [], 0, {}
    for coords, subsets in pieces:
        # a piece is keyed by its probabilities and relabelled coefficients;
        # None is f on the model itself
        key = None
        if len(coords) < model.n:
            at = {c: i for i, c in enumerate(coords)}
            key = (
                tuple(model.probs[c] for c in coords),
                tuple(sorted((tuple(at[i] for i in s), f.coeffs[s]) for s in subsets)),
            )
        if key not in built:
            sub_f, sub_model = (f, model) if key is None else (
                Kernel._from_valid_keys(f.order, len(coords), dict(key[1])),
                RademacherModel(key[0]),
            )
            table = integral_table(sub_f, sub_model, caps)
            piece_stat = stat(table, sub_model, caps) if stat is not None else None
            built[key] = piece_stat, exact_distribution(table, sub_model, caps)
            del table
        piece_stat, piece_law = built[key]
        stats.append(piece_stat)
        if law is None:
            law = piece_law
        else:
            law, lost = _convolve(law, piece_law, caps)
            dropped += lost
    if law is None:  # no coordinate: F is the constant of an order-0 kernel, or 0
        law = DistributionTable._owning(np.array([f.coeffs.get((), 0.0)]), np.ones(1))
    return IntegralLaw(law, tuple(stats), dropped)


def _convolve(
    a: DistributionTable, b: DistributionTable, caps: Caps
) -> tuple[DistributionTable, int]:
    """(law of the sum of independent draws from a and b, products dropped).

    A product of masses that underflows to 0 is dropped: it cannot enter
    a law, and what it stood for weighs less than 2**-1074.
    """
    size = len(a.atoms) * len(b.atoms)
    if size > 1 << caps.enum_cap:
        raise CapacityError(
            f"a partial sum of the pieces has {size} atom pairs, above "
            f"2**enum_cap with enum_cap={caps.enum_cap}",
            cap_name="enum_cap",
            cap_value=caps.enum_cap,
            requested=size,
        )
    values = np.add.outer(a.atoms, b.atoms).ravel()
    mass = np.multiply.outer(a.probs, b.probs).ravel()
    lost = size - int(np.count_nonzero(mass))
    if lost:
        kept = mass > 0.0
        values, mass = values[kept], mass[kept]
    return from_weighted_values(values, mass), lost


def _phi_blocks(atoms: np.ndarray):
    """(lo, Phi of atoms[lo:lo + _BLOCK]) for each block of atoms."""
    for lo in range(0, len(atoms), _BLOCK):
        yield lo, _normal_cdf_array(atoms[lo:lo + _BLOCK])


def _gap(atoms: np.ndarray, levels: np.ndarray, lo: int, phi: np.ndarray) -> float:
    """Largest one-sided CDF gap |level - Phi| at the atoms of one block.

    With the levels nondecreasing, the larger of the two gaps at atom i is
    max(after_i - Phi_i, Phi_i - before_i), and it equals the larger of
    their absolute values bit for bit.  An exact ``phi`` gives the answer at
    once.  Otherwise each gap is within ``_PHI_ERR`` of its exact value, so
    the atom of the exact maximum is among those within 2 ``_PHI_ERR`` of
    the approximate one; Phi is evaluated exactly there and the exact
    maximum of those gaps is returned.
    """
    after = levels[lo:lo + len(phi)]
    gaps = after - phi
    np.maximum(gaps[1:], phi[1:] - after[:-1], out=gaps[1:])
    gaps[0] = max(gaps[0], phi[0] - (levels[lo - 1] if lo else 0.0))
    top = np.maximum.reduce(gaps)
    if len(phi) < _PHI_NUMPY:  # ``_normal_cdf_array`` is exact
        return float(top)
    near = np.flatnonzero(gaps >= top - 2.0 * _PHI_ERR) + lo
    exact = _exact_cdf_array(atoms[near])
    before = np.where(near > 0, levels[near - 1], 0.0)
    return float(np.maximum.reduce(np.maximum(levels[near] - exact, exact - before)))


def kolmogorov_to_normal(dist: DistributionTable) -> float:
    """sup_x |P(F <= x) - Phi(x)|, attained at an atom from one side."""
    atoms, levels = dist.atoms, dist.cdf_levels
    return max(_gap(atoms, levels, lo, phi) for lo, phi in _phi_blocks(atoms))


def _integral_cdf_below(a, phi):
    """integral_{-inf}^{a} Phi(x) dx = E[(a - N)^+], given phi = Phi(a)."""
    return normal_pdf(a) + a * phi


def _integral_sf_above(b, phi):
    """integral_{b}^{inf} (1 - Phi(x)) dx = E[(N - b)^+], given phi = Phi(b)."""
    return normal_pdf(b) - b * (1.0 - phi)


def _segment_sum(
    atoms: np.ndarray, levels: np.ndarray, lo: int, phi: np.ndarray, phi_before
) -> float:
    """Sum of integral_a^b |level - Phi(x)| dx over the consecutive atoms
    a < b whose right end b lies in the block at ``lo``.

    ``phi`` is Phi on the block and ``phi_before`` is Phi of the atom before
    it (unused at lo = 0).  Phi - level changes sign once, at the crossing
    c = Phi^{-1}(level) clipped to [a, b]; the quantile is evaluated only
    where level lies strictly between Phi(a) and Phi(b).  A level that
    rounds to 1 uses the survival form, which has no cancellation far in the
    right tail.  Every piece is non-negative, so one numpy sum adds them.
    """
    if lo:
        lo -= 1
        phi = np.concatenate(([phi_before], phi))
    ends = atoms[lo:lo + len(phi)]
    g = _integral_cdf_below(ends, phi)
    a, b = ends[:-1], ends[1:]
    phi_a, phi_b = phi[:-1], phi[1:]
    g_a, g_b = g[:-1], g[1:]
    level = levels[lo:lo + len(a)]
    below = level <= phi_a
    cross = np.where(below, a, b)
    g_cross = np.where(below, g_a, g_b)
    inside = np.flatnonzero(~below & (level < phi_b))
    if len(inside):
        c = np.clip(_INV_CDF(level[inside]).astype(float), a[inside], b[inside])
        cross[inside] = c
        g_cross[inside] = _integral_cdf_below(c, _normal_cdf_array(c))
    seg = (level * (cross - a) - (g_cross - g_a)) + ((g_b - g_cross) - level * (b - cross))
    top = np.flatnonzero(level >= 1.0)
    if len(top):
        seg[top] = _integral_sf_above(a[top], phi_a[top]) - _integral_sf_above(b[top], phi_b[top])
    return float(seg.sum())


def _wasserstein(atoms: np.ndarray, levels: np.ndarray, blocks) -> float:
    """W1 from the ``_phi_blocks`` of the atoms: ``math.fsum`` adds both exact
    tails and the per-block sums of the segment pieces."""
    pieces, phi_before = [], None
    for lo, phi in blocks:
        if not lo:
            pieces.append(_integral_cdf_below(float(atoms[0]), float(phi[0])))
        pieces.append(_segment_sum(atoms, levels, lo, phi, phi_before))
        phi_before = phi[-1]
    pieces.append(_integral_sf_above(float(atoms[-1]), float(phi_before)))
    return math.fsum(pieces)


def normal_distances(dist: DistributionTable) -> tuple[float, float]:
    """(Wasserstein, Kolmogorov) distances to the normal from one block walk.

    Phi is evaluated once per atom and feeds both; each equals the value of
    ``wasserstein_to_normal`` and ``kolmogorov_to_normal`` bit for bit.
    """
    atoms, levels = dist.atoms, dist.cdf_levels
    gaps = []

    def blocks():
        for lo, phi in _phi_blocks(atoms):
            gaps.append(_gap(atoms, levels, lo, phi))
            yield lo, phi

    return _wasserstein(atoms, levels, blocks()), max(gaps)


def wasserstein_to_normal(dist: DistributionTable) -> float:
    """L1 distance between the law's CDF and Phi over the whole line.

    Segments between consecutive atoms integrate |level - Phi| in closed
    form and both tails are exact, so the result is limited only by the
    error of Phi (see the module docstring) and the rounding of each
    piece and of the per-block sums.
    """
    return _wasserstein(dist.atoms, dist.cdf_levels, _phi_blocks(dist.atoms))


def empirical_distances(samples) -> tuple[float, float, float]:
    """Empirical-CDF distances to the normal plus a DKW half-width.

    Returns (d_K estimate, Wasserstein estimate, half-width h) where the
    true d_K of the sampled law lies within h of the estimate with 95%
    confidence (``_DKW_CONFIDENCE``).
    """
    x = np.asarray(samples, dtype=float)
    N = len(x)
    if N < 1000:
        raise DomainError(f"need at least 1000 samples, got {N}")
    law = from_weighted_values(x, np.full(N, 1.0 / N))
    dw, dk = normal_distances(law)
    delta = 1.0 - _DKW_CONFIDENCE
    half_width = math.sqrt(math.log(2.0 / delta) / (2.0 * N))
    return dk, dw, half_width
