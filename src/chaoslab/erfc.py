"""The complementary error function on float arrays, in numpy.

``erfc`` is fdlibm's ``s_erf.c`` algorithm, the one glibc's ``erfc`` (and
so ``math.erfc``) runs: a rational function in x^2 below 0.84375, one in
|x| - 1 up to 1.25, and above that exp(-z^2 - 0.5625) exp((z-x)(z+x) + R/S)
/ |x| with a rational R/S in 1/x^2 on [1.25, 1/0.35) and on [1/0.35, 28),
where z is x with the low 32 bits of its mantissa cleared.  The
polynomials are evaluated in glibc's order, coefficient pairs added left
to right, so on every range without an exponential the result equals
``math.erfc`` bit for bit.  The tails differ only through numpy's ``exp``:
on a grid over every range boundary, both signs and the whole line, 97%
of values are bit-identical, the worst is ``ERFC_ULPS`` = 4 ulp and the
worst absolute error is 2.2e-16 (``tests/test_distance.py``).

The input is walked as ascending slices, one per range, found by binary
search, so each range costs a few numpy calls on a contiguous view; an
unsorted input is sorted first.
"""

from __future__ import annotations

import numpy as np

# the tested bound on |erfc(x) - math.erfc(x)| in units in the last place
ERFC_ULPS = 4

# ====================================================
# Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
#
# Developed at SunPro, a Sun Microsystems, Inc. business.
# Permission to use, copy, modify, and distribute this
# software is freely granted, provided that this notice
# is preserved.
# ====================================================

_ERX = 8.45062911510467529297e-01
# erf(x) = x + x y, y = PP(x^2) / QQ(x^2) on |x| < 0.84375
_PP = (
    1.28379167095512558561e-01,
    -3.25042107247001499370e-01,
    -2.84817495755985104766e-02,
    -5.77027029648944159157e-03,
    -2.37630166566501626084e-05,
)
_QQ = (
    1.0,
    3.97917223959155352819e-01,
    6.50222499887672944485e-02,
    5.08130628187576562776e-03,
    1.32494738004321644526e-04,
    -3.96022827877536812320e-06,
)
# erf(|x|) = erx + PA(s) / QA(s), s = |x| - 1, on 0.84375 <= |x| < 1.25
_PA = (
    -2.36211856075265944077e-03,
    4.14856118683748331666e-01,
    -3.72207876035701323847e-01,
    3.18346619901161753674e-01,
    -1.10894694282396677476e-01,
    3.54783043256182359371e-02,
    -2.16637559486879084300e-03,
)
_QA = (
    1.0,
    1.06420880400844228286e-01,
    5.40397917702171048937e-01,
    7.18286544141962662868e-02,
    1.26171219808761642112e-01,
    1.36370839120290507362e-02,
    1.19844998467991074170e-02,
)
# R/S in s = 1/x^2 on 1.25 <= |x| < 1/0.35
_RA = (
    -9.86494403484714822705e-03,
    -6.93858572707181764372e-01,
    -1.05586262253232909814e01,
    -6.23753324503260060396e01,
    -1.62396669462573470355e02,
    -1.84605092906711035994e02,
    -8.12874355063065934246e01,
    -9.81432934416914548592e00,
)
_SA = (
    1.0,
    1.96512716674392571292e01,
    1.37657754143519042600e02,
    4.34565877475229228821e02,
    6.45387271733267880336e02,
    4.29008140027567833386e02,
    1.08635005541779435134e02,
    6.57024977031928170135e00,
    -6.04244152148580987438e-02,
)
# R/S in s = 1/x^2 on 1/0.35 <= |x| < 28
_RB = (
    -9.86494292470009928597e-03,
    -7.99283237680523006574e-01,
    -1.77579549177547519889e01,
    -1.60636384855821916062e02,
    -6.37566443368389627722e02,
    -1.02509513161107724954e03,
    -4.83519191608651397019e02,
)
_SB = (
    1.0,
    3.03380607434824582924e01,
    3.25792512996573918826e02,
    1.53672958608443695994e03,
    3.19985821950859553908e03,
    2.55305040643316442583e03,
    4.74528541206955367215e02,
    -2.24409524465858183362e01,
)

# fdlibm compares high words; 0x4006DB6D is the high word of the 1/0.35 cut
_CUT_035 = float.fromhex("0x1.6db6dp+1")
# the range boundaries below 0 (a boundary value takes the range above it
# in |x|) and above 0, for an ascending x
_NEG_CUTS = np.array([-6.0, -_CUT_035, -1.25, -0.84375])
_POS_CUTS = np.array([0.25, 0.84375, 1.25, _CUT_035, 28.0, np.inf])
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)
# entries per chunk of an ascending input
_CHUNK = 16384


def _ratio(s: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """num(s) / den(s) for polynomials given by their coefficients from the
    constant up, in glibc's order: the pairs c_2j + s c_2j+1 (or a last
    lone c_2j) times s^2j, added left to right, with s^4 = s^2 s^2,
    s^6 = s^4 s^2 and s^8 = s^4 s^4 shared by both."""
    powers = [None, s * s]
    for j in range(2, (max(len(num), len(den)) + 1) // 2):
        powers.append(powers[j // 2] * powers[j - j // 2])

    def poly(coeffs):
        total = coeffs[0] + s * coeffs[1]
        for j in range(1, (len(coeffs) + 1) // 2):
            pair = coeffs[2 * j] + s * coeffs[2 * j + 1] if 2 * j + 1 < len(coeffs) else coeffs[2 * j]
            total = total + powers[j] * pair
        return total

    return poly(num) / poly(den)


def _tail(a: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """erfc(a) for a in [1.25, 28): exp(-z^2 - 0.5625) exp((z-a)(z+a) + R/S) / a."""
    ratio = _ratio(1.0 / (a * a), num, den)
    z = (a.view(np.uint64) & _HIGH_WORD).view(np.float64)
    return np.exp(-z * z - 0.5625) * np.exp((z - a) * (z + a) + ratio) / a


def _erfc_ascending(x: np.ndarray, out: np.ndarray) -> None:
    """erfc of an ascending x into out.  Each range is a slice below 0 and
    one above; a range's rational function of |x| is evaluated once on both."""
    n6, n035, n125, n084 = np.searchsorted(x, _NEG_CUTS, side="right").tolist()
    p025, p084, p125, p035, p28, nan = np.searchsorted(x, _POS_CUTS, side="left").tolist()
    nan += int(np.searchsorted(x[nan:], np.inf, side="right"))
    out[:n6] = 2.0
    for lo, hi, up, top, num, den in (
        (n6, n035, p035, p28, _RB, _SB),
        (n035, n125, p125, p035, _RA, _SA),
    ):
        if hi - lo + top - up:
            tail = _tail(np.concatenate((-x[lo:hi], x[up:top])), num, den)
            out[lo:hi] = 2.0 - tail[: hi - lo]
            out[up:top] = tail[hi - lo :]
    if n084 - n125 + p125 - p084:
        ratio = _ratio(np.concatenate((-x[n125:n084], x[p084:p125])) - 1.0, _PA, _QA)
        out[n125:n084] = 1.0 + (_ERX + ratio[: n084 - n125])
        out[p084:p125] = (1.0 - _ERX) - ratio[n084 - n125 :]
    if p084 > n084:
        # |x| < 0.84375; below 2**-56 this is 1 - x, as fdlibm returns there
        small = x[n084:p084]
        xy = small * _ratio(small * small, _PP, _QQ)
        cut = p025 - n084
        out[n084:p025] = 1.0 - (small[:cut] + xy[:cut])
        out[p025:p084] = 0.5 - (xy[cut:] + (small[cut:] - 0.5))
    out[p28:nan] = 0.0
    out[nan:] = np.nan


def erfc(x) -> np.ndarray:
    """erfc of each entry of a 1-d float array, within ``ERFC_ULPS`` of
    ``math.erfc``.  The input is walked ascending, sorted first if it is
    not, in chunks of ``_CHUNK`` whose temporaries stay small."""
    x = np.asarray(x, dtype=float)
    order = None if np.all(x[1:] >= x[:-1]) else np.argsort(x)
    ascending = x if order is None else x[order]
    out = np.empty_like(x)
    with np.errstate(under="ignore"):
        for lo in range(0, len(x), _CHUNK):
            _erfc_ascending(ascending[lo:lo + _CHUNK], out[lo:lo + _CHUNK])
    if order is not None:
        out[order] = out.copy()
    return out
