"""Exact and empirical distances between finite laws and the standard normal.

A finitely supported law admits closed-form distances: the Kolmogorov
distance is a max over atoms of one-sided CDF gaps, and the Wasserstein
distance is the L1 distance between CDFs, integrated segment by segment
using E[(a - N)^+] = phi(a) + a Phi(a) and its mirror image.

A law has one atom per level of the values (``_levels``, which also gives
the levels of the indicator sup in ``moments``).  It is built by one
unstable argsort of the values, which also gives them sorted; the sort
order inside a level only changes the order in which its weights are
added, and which of its equal values (0.0 or -0.0) is its atom, and the
probabilities are renormalized by one numpy sum.  When every value has
the same weight, as on a fair-coin model or a sample, ``np.sort`` replaces
the argsort and the weights need no gather.  When every level holds one
value, as on a dense table, the sorted values and weights are the atoms
and masses, with the bits ``np.add.reduceat`` gives; only a law with a
level that merges values finds the level starts and sums them.

``integral_law`` is the one route from a kernel to its law and moments.
When the support splits into pieces that share no coordinate, F is a sum
of independent integrals and no 2^n table is built: each piece's table,
over its own coordinates, gives its E[P^2], E[P^4] (``chaos.even_moments``)
and law, and the laws fold together one outer sum of atoms at a time,
through ``from_weighted_values``.  A support that joins all n coordinates
is one piece, on the model itself.  An E[F^4] past the float range, on a
piece or in the fold, raises ``DomainError``.

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
segments the CDF level crosses inside; every other segment is one signed
difference of the closed form, with the general formula's bits
(``_segment_sum``).  Each block's Wasserstein pieces are non-negative
and are added by one numpy sum, and ``math.fsum`` adds the block sums.
``normal_distances`` is the one walk of both distances, with Phi once
per atom; ``wasserstein_to_normal`` is its first value, and
``kolmogorov_to_normal`` takes the same walk without the W1 segments.
Blocks bound the temporaries of Phi, so the distances add no 2^n-sized
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .chaos import ValueTable, even_moments, integral_table
from .config import Caps, DEFAULT_CAPS
from .erfc import erfc
from .errors import DomainError
from .kernels import Kernel, Subset, _finite_sum
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
    # x / -sqrt 2 is -x / sqrt 2 bit for bit, and the halving is in place
    phi = erfc(np.divide(x[::-1], -math.sqrt(2.0)))
    phi *= 0.5
    return phi[::-1]


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
        # each check is written so that a NaN fails it
        if not (a[1:] > a[:-1]).all():
            raise DomainError("atoms must be strictly increasing")
        if not (math.isfinite(a[0]) and math.isfinite(a[-1])):
            raise DomainError("atoms must be finite")
        if not (p > 0).all():
            raise DomainError("probabilities must be positive")
        if not abs(p.sum() - 1.0) <= 1e-12:
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


def _levels(values: np.ndarray, argsort: bool = True) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(sorted values, an argsort of ``values``, a mask that is True where a
    level opens in the sorted order): the one rule for what a level of F is.

    Consecutive sorted values share a level, chained, when their gap is at
    most ``_MERGE_TOL * max(1, |v_min|, |v_max|)``: a table's rounding
    scales with its largest entries, and at the probability floor, where |F|
    reaches 1e5, one ulp (1.5e-11) already exceeds an absolute 1e-12.
    Without ``argsort`` the values are sorted by ``np.sort`` and the argsort
    is None; the sorted values are the same but for the order of 0.0 and
    -0.0 within a level.
    """
    order = np.argsort(values) if argsort else None
    v = np.sort(values) if order is None else values[order]
    if not (len(v) and np.isfinite(v[0]) and np.isfinite(v[-1])):  # NaN sorts last
        raise DomainError("values must be finite and non-empty")
    tol = _MERGE_TOL * max(1.0, abs(float(v[0])), abs(float(v[-1])))
    opens = np.empty(len(v), dtype=bool)
    opens[0] = True
    np.greater(np.diff(v), tol, out=opens[1:])
    return v, order, opens


def from_weighted_values(values: np.ndarray, weights: np.ndarray | float) -> DistributionTable:
    """Aggregate weighted values into a law with one atom per ``_levels`` level.

    ``weights`` is an array with one weight per value, or one float that
    every value shares: then the values are sorted without an argsort, and
    the masses before the sum are ``np.full`` of that float, the array a
    gather of equal weights gives, so the law has the same bits.  When no
    two values share a level, the sorted values are the atoms and the sorted
    weights their masses, with the bits ``np.add.reduceat`` gives on
    one-value levels.
    """
    shared = np.ndim(weights) == 0
    atoms, order, opens = _levels(np.asarray(values, dtype=float), argsort=not shared)
    probs = np.full(len(atoms), float(weights)) if shared else np.asarray(weights, dtype=float)[order]
    del order
    if not opens.all():  # some level holds several values
        starts = np.flatnonzero(opens)
        atoms = atoms[starts]
        probs = np.add.reduceat(probs, starts)
        del starts
    del opens  # freed before the table's checks allocate
    if not (total := probs.sum()) > 0.0:  # a zero or NaN total fails before the divide warns
        raise DomainError(f"weights sum to {total}; a law needs positive mass")
    probs /= total
    return DistributionTable._owning(atoms, probs)


def exact_distribution(
    table: ValueTable, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> DistributionTable:
    """Exact law of a functional from its value table; on fair coins every
    outcome weighs 2**-n exactly, and that one weight is passed."""
    if model.n != table.horizon:
        raise DomainError("model and table horizons differ")
    if all(p == 0.5 for p in model.probs):
        model.check_enumerable(caps)
        return from_weighted_values(table.values, 0.5**model.n)
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
    """The exact law of a multiple integral and its central moments.

    ``variance`` and ``fourth`` are E[(F - E F)^2] and E[(F - E F)^4]: E[F^2]
    and E[F^4] at order >= 1, where F is centred, and 0 for the constant of
    an order-0 kernel.  ``dropped`` counts the
    products of piece masses that underflowed to 0 and were left out.
    Each stood for outcomes of total mass below 2**-1074, so the law leaves
    out at most ``dropped * 2**-1074`` of mass before it is renormalized.
    """

    law: DistributionTable
    variance: float
    fourth: float
    dropped: int


def integral_law(
    f: Kernel, model: RademacherModel, caps: Caps = DEFAULT_CAPS
) -> IntegralLaw:
    """Exact law and central moments of the multiple integral of f.

    F = sum_i P_i over the ``independent_pieces`` of f, and the P_i are
    independent.  Each piece's table is built by ``integral_table`` on its
    coordinates alone, relabelled 0..k-1 with their probabilities; it gives
    the piece's law (``exact_distribution``) and (v_i, e4_i) = (E[P_i^2],
    E[P_i^4]) (``even_moments``).  A piece equal to one already built,
    kernel and probabilities alike, is built once.  The piece laws are
    folded together in piece order: each outer sum of atoms goes through
    ``from_weighted_values``, so every partial sum has one atom per
    ``_levels`` level.  The odd cross moments vanish, so E[F^2] = sum v_i
    and E[F^4] = sum e4_i + 3 ((sum v_i)^2 - sum v_i^2), summed by the
    checked ``kernels._finite_sum`` (``math.fsum``'s value, and a
    ``DomainError`` past the float range).  A support that joins all n
    coordinates is one piece on the model itself, which is plain enumeration.

    ``enum_cap`` bounds each piece's number of coordinates and each outer
    sum, at most 2**enum_cap atom pairs before it is merged; the horizon n
    may exceed it.  Past either limit ``CapacityError`` names ``enum_cap``.
    Products of masses that underflow to 0 are dropped (``IntegralLaw``).
    """
    if model.n != f.horizon:
        raise DomainError("kernel and model horizons differ")
    pieces = independent_pieces(f)
    widest = max((len(coords) for coords, _ in pieces), default=0)
    caps.check("enum_cap", widest, "a piece of the support spans {requested} coordinates, "
               "above enum_cap={value} (2**{requested} outcomes)")
    law, parts, dropped, built = None, [], 0, {}
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
            built[key] = (
                even_moments(table, sub_model, caps),
                exact_distribution(table, sub_model, caps),
            )
            del table
        piece_moments, piece_law = built[key]
        parts.append(piece_moments)
        if law is None:
            law = piece_law
        else:
            law, lost = _convolve(law, piece_law, caps)
            dropped += lost
    if law is None:  # no coordinate: F is the constant of an order-0 kernel, or 0
        law = DistributionTable._owning(np.array([f.coeffs.get((), 0.0)]), np.ones(1))
    second = _finite_sum(v for v, _ in parts)
    cross = second * second - _finite_sum(v * v for v, _ in parts)
    fourth = _finite_sum((_finite_sum(e4 for _, e4 in parts), 3.0 * cross))
    return IntegralLaw(law, second, fourth, dropped)


def _convolve(
    a: DistributionTable, b: DistributionTable, caps: Caps
) -> tuple[DistributionTable, int]:
    """(law of the sum of independent draws from a and b, products dropped).

    A product of masses that underflows to 0 is dropped: it cannot enter
    a law, and what it stood for weighs less than 2**-1074.
    """
    size = len(a.atoms) * len(b.atoms)
    caps.check("enum_cap", size, "a partial sum of the pieces has {requested} atom pairs, "
               "above 2**enum_cap with enum_cap={value}", limit=1 << caps.enum_cap)
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
    c = Phi^{-1}(level) clipped to [a, b], and with G = ``_integral_cdf_below``
    the segment is level (c - a) - (G(c) - G(a)) + (G(b) - G(c)) - level (b - c).
    Where c clips to a or b this is the signed difference
    d = (G(b) - G(a)) - level (b - a), negated where level > Phi(a), bit for
    bit, so each segment forms d once; the quantile is evaluated only on the
    segments where level lies strictly between Phi(a) and Phi(b), which take
    the general form.  The levels that round to 1, a suffix of the sorted
    levels, use the survival form, which has no cancellation far in the
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
    seg = np.subtract(g_b, g_a)
    width = np.subtract(b, a)
    width *= level
    seg -= width
    above = level > phi_a
    sign = np.multiply(above, -2.0, out=width)
    sign += 1.0
    seg *= sign  # -(x - y) is y - x, and a zero's sign does not reach the sum
    del width, sign
    above &= level < phi_b
    inside = np.flatnonzero(above)
    if len(inside):
        a_in, b_in, l_in, g_a_in = a[inside], b[inside], level[inside], g_a[inside]
        c = np.clip(_INV_CDF(l_in).astype(float), a_in, b_in)
        g_c = _integral_cdf_below(c, _normal_cdf_array(c))
        seg[inside] = (l_in * (c - a_in) - (g_c - g_a_in)) + ((g_b[inside] - g_c) - l_in * (b_in - c))
    top = int(np.searchsorted(level, 1.0))
    if top < len(level):
        seg[top:] = _integral_sf_above(a[top:], phi_a[top:]) - _integral_sf_above(b[top:], phi_b[top:])
    return float(seg.sum())


def normal_distances(
    dist: DistributionTable, *, wasserstein: bool = True
) -> tuple[float | None, float]:
    """(Wasserstein, Kolmogorov) distances to the normal from one block walk.

    Each block gives its largest CDF gap (``_gap``) and the sum of its
    closed-form W1 segments (``_segment_sum``); ``math.fsum`` adds both
    exact tails and the segment sums, so W1 is limited only by the error of
    Phi (see the module docstring) and the rounding of each piece and of
    the per-block sums.  dK is the exact largest atom gap (``_gap``).  With
    ``wasserstein`` false the walk forms no segment and W1 is None.
    """
    atoms, levels = dist.atoms, dist.cdf_levels
    gaps, pieces, phi_before = [], [], None
    for lo, phi in _phi_blocks(atoms):
        gaps.append(_gap(atoms, levels, lo, phi))
        if not wasserstein:
            continue
        if not lo:
            pieces.append(_integral_cdf_below(float(atoms[0]), float(phi[0])))
        pieces.append(_segment_sum(atoms, levels, lo, phi, phi_before))
        phi_before = phi[-1]
    if not wasserstein:
        return None, max(gaps)
    pieces.append(_integral_sf_above(float(atoms[-1]), float(phi_before)))
    return math.fsum(pieces), max(gaps)


def wasserstein_to_normal(dist: DistributionTable) -> float:
    """L1 distance between the law's CDF and Phi over the whole line, from
    the walk of ``normal_distances``."""
    return normal_distances(dist)[0]


def kolmogorov_to_normal(dist: DistributionTable) -> float:
    """sup_x |P(F <= x) - Phi(x)|, attained at an atom from one side, from
    the walk of ``normal_distances`` without its W1 segments."""
    return normal_distances(dist, wasserstein=False)[1]


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
    law = from_weighted_values(x, 1.0 / N)
    dw, dk = normal_distances(law)
    delta = 1.0 - _DKW_CONFIDENCE
    half_width = math.sqrt(math.log(2.0 / delta) / (2.0 * N))
    return dk, dw, half_width
