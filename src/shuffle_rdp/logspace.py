"""Log-domain arithmetic primitives.

Every bound in this package multiplies binomial coefficients as large as
C(4096, 2048) by Gamma factors and tiny sampling powers.  To keep those
products finite, the kernels build them as logs: the log of e^x - 1, a
logsumexp, and the log pmf of a binomial.
"""

from __future__ import annotations

import math
from functools import lru_cache
import numpy as np


def log_expm1(x: float) -> float:
    """ln(exp(x) - 1) for x > 0, stable for both tiny and huge x."""
    if not x > 0:
        raise ValueError(f"log_expm1 requires x > 0, got {x}")
    if x > 1.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def logsumexp(a: np.ndarray) -> float:
    """ln sum(exp(a)), shifted by the largest entry so that nothing
    overflows; -inf for an empty or all -inf array."""
    top = float(np.max(a, initial=-np.inf))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(a - top))))


# Stirling's error ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 1..15, from
# 50-digit mpmath.  Above 15 it is Stirling's series 1/(12n) - 1/(360n^3)
# + ..., cut as in R's stirlerr: past each breakpoint one term fewer keeps
# the first omitted term under 1e-16 of the value.
_STIRLERR_SMALL = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])
_STIRLING_SERIES = (1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188)  # alternating signs
_STIRLING_BREAKS = (15, 35, 80, 500)  # above each: 5, 4, 3, 2 terms

# Loader's deviance bd0 sums its series where |v| < 0.1, v = (x - c)/(x + c):
# the first omitted term, 2 x v^17 / 17, is under 1e-18 of the sum.
_BD0_TERMS = 8


def _stirlerr(m: np.ndarray) -> np.ndarray:
    """Stirling's error of each integer-valued m >= 1, m ascending."""
    out = np.empty_like(m)
    edges = [0, *np.searchsorted(m, _STIRLING_BREAKS, side="right"), m.size]
    out[: edges[1]] = _STIRLERR_SMALL[m[: edges[1]].astype(np.intp) - 1]
    for terms, lo, hi in zip((5, 4, 3, 2), edges[1:], edges[2:]):
        x, y = m[lo:hi], out[lo:hi]
        nn = x * x
        np.divide(_STIRLING_SERIES[terms - 1], nn, out=y)
        for c in _STIRLING_SERIES[terms - 2:0:-1]:
            np.subtract(c, y, out=y)
            y /= nn
        np.subtract(_STIRLING_SERIES[0], y, out=y)
        y /= x
    return out


def _bd0(m: np.ndarray, c: float, out: np.ndarray) -> None:
    """Loader's deviance x ln(x/c) + c - x of each x in m (ascending), into out.

    Where |x - c| < 0.1 (x + c), a contiguous slice of m, the two sides
    nearly cancel, so it is (x - c) v + 2x (v^3/3 + v^5/5 + ...) with
    v = (x - c)/(x + c) instead.  x/c overflows to +inf only where c = kp
    and p < 1/DBL_MAX.
    """
    lo = np.searchsorted(m, 9.0 * c / 11.0, side="right")
    hi = np.searchsorted(m, 11.0 * c / 9.0, side="left")
    for part in (slice(0, lo), slice(hi, None)):
        x, y = m[part], out[part]
        np.divide(x, c, out=y)
        np.log(y, out=y)
        y *= x
        y += c
        y -= x
    x, y = m[lo:hi], out[lo:hi]
    s = x - c
    np.add(x, c, out=y)
    np.divide(s, y, out=y)  # v
    s *= y  # (x - c) v
    w = y * y
    y *= w
    y *= x
    y *= 2.0 / 3.0  # 2x v^3 / 3, the first term of the series
    for j in range(1, _BD0_TERMS + 1):
        s += y
        y *= w
        y *= (2 * j + 1) / (2 * j + 3)
    out[lo:hi] = s


@lru_cache(maxsize=2)
def binom_log_pmf(k: int, p: float) -> np.ndarray:
    """log pmf of Bin(k, p) over m = 0..k (read-only, memoized per (k, p)).

    The memo keeps two entries, enough for the 2RR oracle's (k, p) and
    (k - 1, p); one entry is 8 MB at k = 1e6.

    For 0 < p < 1 and 0 < m < k this is Loader's saddle-point form ("Fast
    and accurate computation of binomial probabilities", 2000):

        stirlerr(k) - stirlerr(m) - stirlerr(k-m) - bd0(m, kp)
        - bd0(k-m, kq) - ln(2 pi m (k-m) / k) / 2,

    with Stirling's error and the deviance bd0 (see :func:`_bd0`).  No
    entry is a difference of ln k!-sized terms, so each is within about
    1e-14 relative of the exact log pmf, and the pmf sums to 1 without a
    normalising shift.  Over m = 1..k-1 ascending, stirlerr(k - m) and
    ln(k - m) are stirlerr(m) and ln m reversed, and bd0(k - m, kq) is
    bd0(m, kq) reversed.  The ends are k ln(1-p) and k ln p.
    """
    if p == 0.0 or p == 1.0:
        out = np.full(k + 1, -np.inf)
        out[0 if p == 0.0 else k] = 0.0
    else:
        out = _loader_log_pmf(k, p)
    out.setflags(write=False)
    return out


def _loader_log_pmf(k: int, p: float) -> np.ndarray:
    """binom_log_pmf for 0 < p < 1, holding three arrays of k doubles."""
    m = np.arange(1.0, k)
    work = _stirlerr(m)
    out = np.empty(k + 1)
    inner = out[1:k]
    np.add(work, work[::-1], out=inner)
    edge = _stirlerr(np.array([float(k)]))[0] + 0.5 * math.log(k / (2.0 * math.pi))
    np.subtract(edge, inner, out=inner)
    _bd0(m, k * p, work)
    inner -= work
    _bd0(m, k * (1.0 - p), work)
    inner -= work[::-1]
    np.log(m, out=work)
    work *= 0.5
    inner -= work
    inner -= work[::-1]
    out[0] = k * math.log1p(-p)
    out[k] = k * math.log(p)
    return out
