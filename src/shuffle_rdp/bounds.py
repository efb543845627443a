"""Renyi-DP bounds for the subsampled shuffle mechanism.

The mechanism samples k of n clients without replacement, passes each
datum through a discrete eps0-LDP randomizer, and releases a uniformly
random permutation of the k reports.  This module evaluates:

* ternary chi^alpha divergence bounds for the shuffle step, both the
  all-identical special case and the general mechanism;
* the closed-form upper bound on the order-lambda Renyi divergence of the
  subsampled shuffle mechanism, one sum over j of C(lambda, j) times the
  sampling rate's j-th power times the ternary bound at alpha = j;
* the matching lower bound, the exact divergence of the binary
  randomized-response instance, as a sum of nonnegative terms over the
  ones-count m = 0..k, for k up to LOWER_BOUND_MAX_K = 1e6.  Each order
  skips the m whose terms together make less than 1e-40 of its sum, found
  from bounds on the terms that are linear in the order; the set-up of a
  mechanism is memoized.

For the upper bound, :func:`rdp_upper_term_lines` also gives lines below
g(lambda) = (lambda - 1) eps(lambda) over orders not computed, which the
accountant's order search uses with its own floors.

Both RDP bounds take one order or a sequence of them and evaluate a
sequence as one array expression over a (term x order) grid, in chunks of
at most _CHUNK_CELLS cells.  Each order's terms are summed down its column
in sequence, so a value does not depend on which other orders are asked
for with it.  The upper bound's ln C(lambda, j) grid of a chunk depends on
its orders alone, and for a range of orders that is one chunk it is read
from a small cache that fills on first use.  Orders are restricted to
integers lambda >= 2, exactly as the closed forms are stated, and at most
MAX_ORDER.  At eps0 = 0 every quantity here is identically zero.  Every
closed form evaluates e^{eps0}, so eps0 must lie in [0, EPS0_MAX], where
EPS0_MAX = ln(largest double) ~ 709.78 is the largest eps0 whose e^{eps0}
is a finite double.

The package checks its scalar arguments here: :func:`check_eps0`,
:func:`check_int` for every count and order (n, k, T, lambda, ...), which
must be a finite integer in its range, and :func:`check_delta` for every
delta in (0, 1).  Each raises ValueError naming the argument.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .logspace import binom_log_pmf, log_expm1

#: Largest k the lower bound accepts.  Setting up one mechanism briefly
#: holds about ten arrays of k + 1 doubles (8 MB each at this k), and a
#: `compare` over orders up to 2048 at this k takes about 0.2 s on a 2-vCPU
#: host.
LOWER_BOUND_MAX_K = 1_000_000

#: Largest eps0 whose e^{eps0} is a finite double.
EPS0_MAX = math.log(sys.float_info.max)

#: Largest order accepted: the largest whose accuracy the tests pin against
#: 60-digit references.  It bounds one column of the upper bound's grid to
#: MAX_ORDER - 1 cells.
MAX_ORDER = 4096

# Cells per temporary grid: 96 KB stays under malloc's
# 128 KB mmap threshold, so the temporaries reuse heap memory and peak RSS
# does not grow (at 2**15 a `compare` sweep's rose by about 1.2 MB).  It
# also fits a block of 32 orders of the lower bound at k = 1e3 (about 290
# columns) in one chunk.
_CHUNK_CELLS = 3 * 2**12

# A grid of at least this many orders is summed by one reduce, vectorized
# across the orders (see _column_sums).  The lower bound stores every grid
# F-ordered, built as (order x m) rows: its ten or so elementwise passes
# per sum outweigh the sum even at 32 orders.
_WIDE_CHUNK = 16

# The upper bound's ln C(lambda, j) grids kept for ranges of orders that
# are one chunk; at most _CHUNK_CELLS cells each, so 4 hold at most 384 KB.
_BLOCK_GRIDS = 4

#: Relative allowance for the rounding of a computed g(lambda) = (lambda - 1)
#: eps(lambda), about 1e-13 (the tests pin 1e-11 against 60-digit sums):
#: every line drawn below g from computed values is lowered by this much.
G_TOL = 1e-9

#: Largest lambda ln(1 + u) summed in linear space; e^700 is still finite.
_LOG_SUM_SWITCH = 700.0

# The lower bound drops the terms below e^{-cut} of a row's largest, with
# cut = _DROP_BELOW + ln(k + 1): together they are under 1e-40 of its sum.
_DROP_BELOW = math.log(1e40) + 1.0

# Tables the upper bound reads its columns from, all from one checked-in
# table of ln Gamma(h/2), h = 1..2 (MAX_ORDER + 1), that tools/gamma_table.py
# writes with scipy's gammaln.  _LOG_FACTORIAL holds ln i! = ln Gamma(i + 1)
# at index MAX_ORDER + i for i = -MAX_ORDER..MAX_ORDER, with the +inf of
# Gamma's poles at i < 0, so ln C(lambda, j) = ln lambda! - ln j!
# - ln (lambda - j)! is -inf where j > lambda.  Two views of it read, for
# j = 2, 3, ..., ln j! (a column) and, in column MAX_ORDER + 2 - lambda,
# ln (lambda - j)!.  The others hold j, ln j and ln Gamma(j/2) for
# j = 2..MAX_ORDER; _J, read-only, also holds the orders of a range.
_GAMMALN_HALVES = np.load(Path(__file__).with_name("_gammaln_halves.npy"))
_GAMMALN_HALVES.flags.writeable = False
_LOG_FACTORIAL = np.concatenate([np.full(MAX_ORDER, np.inf), _GAMMALN_HALVES[1::2]])
_LOG_FACTORIAL_J = _LOG_FACTORIAL[MAX_ORDER + 2:, None]
_LOG_FACTORIAL_DOWN = sliding_window_view(_LOG_FACTORIAL[::-1], MAX_ORDER + 1)
_J = np.arange(2.0, MAX_ORDER + 1.0)
_J.flags.writeable = False
_LOG_J = np.log(_J)
_LOG_GAMMA_HALF_J = _GAMMALN_HALVES[1:MAX_ORDER]

# Taylor coefficients of e^t - 1 - t (from t^2) and of ln(1 + u) - u (from
# u^2).  Below |x| = 0.01 the first omitted term is under 1e-17 relative.
_EXPM1_SERIES = [1.0 / math.factorial(n) for n in range(2, 9)]
_LOG1P_SERIES = [(-1.0) ** (n + 1) / n for n in range(2, 11)]


def check_eps0(eps0: float) -> float:
    """Return eps0 if it lies in [0, EPS0_MAX]; raise ValueError otherwise."""
    if not 0.0 <= eps0 <= EPS0_MAX:
        raise ValueError(
            f"eps0 must lie in [0, {EPS0_MAX:.6f}] so that e^eps0 is finite, got {eps0}"
        )
    return eps0


def check_int(name: str, value, lo, hi=math.inf):
    """Return value if it is an integer in [lo, hi]; raise ValueError naming
    ``name`` otherwise.  The value may be any number type with an integral
    value (10, 10.0, np.int64(10)); inf and NaN fail, as x % 1 is NaN for
    both.  An upper end of MAX_ORDER is named as such."""
    if not (lo <= value <= hi and value % 1 == 0):
        if hi == math.inf:
            what = "a positive integer" if lo == 1 else f"an integer >= {lo}"
        else:
            what = f"an integer in [{lo}, {'MAX_ORDER = ' if hi == MAX_ORDER else ''}{hi}]"
        raise ValueError(f"{name} must be {what}, got {value}")
    return value


def check_delta(value: float, name: str = "delta") -> float:
    """Return value if it lies in the open interval (0, 1); raise ValueError
    naming ``name`` otherwise (NaN fails too)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


@dataclass(frozen=True)
class SubsampledShuffleParams:
    """Mechanism instance: n clients total, k sampled, eps0-LDP randomizer."""

    n: int
    k: int
    eps0: float

    def __post_init__(self):
        check_int("k", self.k, 1)
        check_int("n", self.n, self.k)
        check_eps0(self.eps0)

    @property
    def gamma(self) -> float:
        """Sampling rate k/n, in (0, 1]."""
        return self.k / self.n


class CurveKind(Enum):
    UPPER_BOUND = "upper"
    LOWER_BOUND = "lower"
    EXACT = "exact"


@dataclass(frozen=True)
class RdpCurve:
    """Tabulated eps(lambda) over strictly increasing integer orders >= 2."""

    entries: tuple[tuple[int, float], ...]
    kind: CurveKind

    def __post_init__(self):
        prev = 1
        for lam, eps in self.entries:
            check_int("order", lam, 2)
            if lam <= prev:
                raise ValueError("orders must be strictly increasing")
            if not (math.isfinite(eps) and eps >= 0):
                raise ValueError(f"eps values must be finite and >= 0, got {eps}")
            prev = lam


@dataclass(frozen=True)
class ZetaBound:
    """Bound on zeta(alpha)^alpha, the ternary chi^alpha divergence ceiling."""

    alpha: int
    value: float

    def __post_init__(self):
        check_int("alpha", self.alpha, 2)
        if not self.value >= 0:
            raise ValueError(f"value must be >= 0, got {self.value}")


def kbar(k: int, eps0: float) -> int:
    """floor((k - 1) / (2 e^{eps0})) + 1 -- the effective cohort size."""
    return math.floor((k - 1) / (2.0 * math.exp(check_eps0(eps0)))) + 1


def _log_2sinh(eps0: float) -> float:
    """ln(e^{eps0} - e^{-eps0}) for eps0 > 0, down to the smallest double."""
    return eps0 + math.log(-math.expm1(-2.0 * eps0))


def _exp_or_inf(log_x: float) -> float:
    """e^log_x, or +inf once it leaves float range (still a valid upper bound)."""
    return math.exp(log_x) if log_x <= EPS0_MAX else math.inf


def log_zeta_special(alpha: int, m: int, eps0: float) -> float:
    """ln of the special-case ternary bound; -inf at eps0 = 0."""
    check_int("alpha", alpha, 2)
    check_int("m", m, 1)
    check_eps0(eps0)
    if eps0 == 0.0:
        return -math.inf
    if alpha == 2:
        return math.log(4.0) + 2.0 * log_expm1(eps0) - math.log(m) - eps0
    return (
        math.log(alpha)
        + math.lgamma(alpha / 2.0)
        + (alpha / 2.0)
        * (math.log(2.0) + 2.0 * log_expm1(2.0 * eps0) - math.log(m) - 2.0 * eps0)
    )


def zeta_special(alpha: int, m: int, eps0: float) -> float:
    """Ternary chi^alpha bound for the all-identical ("special") datasets.

    4 (e^{eps0}-1)^2 / (m e^{eps0}) at alpha = 2, otherwise
    alpha Gamma(alpha/2) (2 (e^{2 eps0}-1)^2 / (m e^{2 eps0}))^{alpha/2}.
    +inf once the bound leaves float range.
    """
    return _exp_or_inf(log_zeta_special(alpha, m, eps0))


def zeta_shuffle(alpha: int, k: int, eps0: float) -> ZetaBound:
    """Ternary chi^alpha bound for the k-client shuffle mechanism (k >= 2).

    The special-case bound at the effective cohort size kbar, plus the
    binomial-concentration tail (e^{eps0}-e^{-eps0})^alpha e^{-(k-1)/(8 e^{eps0})}.
    """
    check_int("k", k, 2)
    check_int("alpha", alpha, 2)
    check_eps0(eps0)
    if eps0 == 0.0:
        return ZetaBound(alpha=int(alpha), value=0.0)
    kb = kbar(k, eps0)
    main = _exp_or_inf(log_zeta_special(alpha, kb, eps0))
    log_tail = alpha * _log_2sinh(eps0) - (k - 1) / (8.0 * math.exp(eps0))
    return ZetaBound(alpha=int(alpha), value=main + _exp_or_inf(log_tail))


def _orders(lam) -> np.ndarray:
    """One integer order or a sequence of them, checked, as a float array."""
    if isinstance(lam, range) and lam.step == 1 and 2 <= lam.start and lam.stop <= MAX_ORDER + 1:
        return _J[lam.start - 2:lam.stop - 2]
    given = np.atleast_1d(np.asarray(lam))
    lams = given.astype(np.float64)
    if (
        given.ndim != 1
        or given.dtype.kind not in "iuf"
        or lams.size
        and not (2 <= lams.min() and lams.max() <= MAX_ORDER and (lams == np.floor(lams)).all())
    ):
        raise ValueError(
            f"order lambda must be an integer in [2, MAX_ORDER = {MAX_ORDER}], got {lam!r}"
        )
    return lams


def _shaped(values: np.ndarray, lam):
    """A float for one order, the array for a sequence."""
    return values if isinstance(lam, range) or np.ndim(lam) else float(values[0])


def _order_chunks(n_orders: int, n_terms: int):
    """Slices of at most _CHUNK_CELLS cells' worth of orders (at least one)."""
    step = max(1, _CHUNK_CELLS // n_terms)
    return (slice(i, i + step) for i in range(0, n_orders, step))


def _column_sums(cells: np.ndarray) -> np.ndarray:
    """The sum of each column of a (term x order) grid, added in sequence
    down the column, so that a column's value depends neither on the other
    columns nor on cells that hold an exact zero.

    numpy reduces a C-ordered grid row after row, vectorized across the
    columns and in sequence down each; a lone or F-ordered column it would
    sum pairwise.  So a grid of at least _WIDE_CHUNK columns is reduced in C
    order (copied into it if need be), and a narrower one is summed by a
    cumsum down its columns.
    """
    if cells.shape[1] < _WIDE_CHUNK:
        return np.cumsum(cells, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(cells), axis=0)


def _upper_log_coefficients(params: SubsampledShuffleParams, n_j: int) -> np.ndarray:
    """ln c_j = j ln gamma + ln zeta_j for j = 2..n_j + 1, the log of
    :func:`rdp_upper`'s j-th term without its C(lambda, j); eps0 > 0 and
    k >= 2.  zeta_j (:func:`zeta_shuffle`) adds the concentration tail to
    the ternary bound at kbar, so ln c_j is the logaddexp of the two."""
    eps0, k = params.eps0, params.k
    kb = kbar(k, eps0)
    log_gamma_s = math.log(params.gamma)
    j = _J[:n_j]
    log_base = math.log(2.0) + 2.0 * log_expm1(2.0 * eps0) - math.log(kb) - 2.0 * eps0
    ternary = j * log_gamma_s + _LOG_J[:n_j] + _LOG_GAMMA_HALF_J[:n_j] + (j / 2.0) * log_base
    ternary[0] = math.log(4.0) + 2.0 * log_gamma_s + 2.0 * log_expm1(eps0) - math.log(kb) - eps0
    tail = j * (log_gamma_s + _log_2sinh(eps0)) - (k - 1) / (8.0 * math.exp(eps0))
    return np.logaddexp(ternary, tail, out=ternary)


def rdp_upper_term_lines(params: SubsampledShuffleParams, lo: int, hi: int):
    """Two lines (q, slope), q + slope lambda, each below (lambda - 1) times
    :func:`rdp_upper` at every order in lo..hi (2 <= lo <= hi, eps0 > 0,
    k >= 2).

    g = ln(1 + S) >= u(lambda) = ln C(lambda, j) + ln c_j, the log of any one
    of S's terms with j <= lambda.  u is concave in lambda (its slope
    psi(lambda + 1) - psi(lambda - j + 1) falls), so its chord from lo to
    hi lies below it.  The lines take the j <= lo whose term is largest at
    lo, and at hi, and are yielded in that order.  Each is lowered by G_TOL
    relative for rounding.
    """
    log_c = _upper_log_coefficients(params, lo - 1)  # ln c_j, j = 2..lo
    fact = _LOG_FACTORIAL[MAX_ORDER:]  # ln i!
    term = log_c - fact[2:lo + 1]  # ln c_j - ln j!, j = 2..lo
    for at in (lo, hi):
        j = int(np.argmax(term - fact[at - lo:at - 1][::-1])) + 2  # - ln (at - j)!
        u_lo, u_hi = (float(fact[x] - fact[x - j] + term[j - 2]) for x in (lo, hi))
        slope = (u_hi - u_lo) / (hi - lo) if hi > lo else 0.0
        yield u_lo - G_TOL * (abs(u_lo) + abs(u_hi)) - slope * lo, slope


def rdp_upper(lam, params: SubsampledShuffleParams):
    """Upper bound on the order-lambda RDP of the subsampled shuffle mechanism.

    ``lam`` is one integer order >= 2 or a sequence of them; the result is
    a float or an array to match.  A value does not depend on which other
    orders are asked for with it.

    (1/(lambda-1)) ln(1 + S), S = sum_{j=2}^{lambda} C(lambda, j) c_j with
    c_j = gamma^j zeta_j and zeta_j = zeta_shuffle(j, k, eps0): the ternary
    bound at kbar, 4 (e^{eps0}-1)^2 / (kbar e^{eps0}) at j = 2 and
    j Gamma(j/2) (2 (e^{2 eps0}-1)^2 / (kbar e^{2 eps0}))^{j/2} past it,
    plus the concentration tail (2 sinh eps0)^j e^{-(k-1)/(8 e^{eps0})}.
    Summed over j, the tails make Upsilon = ((1 + A)^lambda - 1 - lambda A)
    e^{-(k-1)/(8 e^{eps0})}, A = 2 gamma sinh eps0; term by term S stays in
    log space even when (1 + A)^lambda overflows.  Each order is one column
    of a (j x order) grid of log terms: the ln C(lambda, j) grid
    (:func:`_log_binomials`, cached for a range of orders that is one
    chunk) plus ln c_j (:func:`_upper_log_coefficients`).
    """
    lams = _orders(lam)
    if params.k < 2:
        raise ValueError(f"the upper bound requires k >= 2, got k={params.k}")
    eps0, k = params.eps0, params.k
    out = np.zeros(lams.size)
    if eps0 == 0.0 or not lams.size:
        return _shaped(out, lam)
    n_j = int(lams.max()) - 1
    log_c = _upper_log_coefficients(params, n_j)[:, None]
    orders = lams.astype(np.intp)
    cached = isinstance(lam, range) and lam.step == 1 and lams.size * n_j <= _CHUNK_CELLS
    for at in _order_chunks(lams.size, n_j):
        o = orders[at]
        grid = _block_log_binomials(int(o[0]), int(o[-1]) + 1) if cached else _log_binomials(o)
        cells = grid + log_c[:grid.shape[0]]
        top = cells.max(axis=0)
        cells -= top
        log_sum = top + np.log(_column_sums(np.exp(cells, out=cells)))
        out[at] = np.logaddexp(0.0, log_sum) / (lams[at] - 1.0)
    return _shaped(out, lam)


def _log_binomials(orders: np.ndarray) -> np.ndarray:
    """ln C(lambda, j) for j = 2..max(orders) (rows) and lambda in
    ``orders`` (columns), -inf where j > lambda, C-ordered: the grid that
    :func:`rdp_upper` adds ln c_j to, row by row."""
    height = int(orders.max()) - 1
    grid = np.subtract(_LOG_FACTORIAL[MAX_ORDER + orders], _LOG_FACTORIAL_J[:height])
    grid -= _LOG_FACTORIAL_DOWN[:height, MAX_ORDER + 2 - orders]
    return grid


@lru_cache(maxsize=_BLOCK_GRIDS)
def _block_log_binomials(start: int, stop: int) -> np.ndarray:
    """_log_binomials of the orders start..stop - 1, read-only and memoized:
    the order search asks for the same few blocks for every mechanism."""
    grid = _log_binomials(np.arange(start, stop))
    grid.flags.writeable = False
    return grid


def _rr2_ratio_minus_one(k: int, eps0: float) -> np.ndarray:
    """mu1(m)/mu0(m) - 1 >= -1 over m = 0..k, by the exact algebraic ratio.

    mu0 = Bin(k, p) is the law of the ones-count under binary randomized
    response when all k inputs are 0, mu1 when one is 1, with
    p = 1/(e^{eps0}+1).  mu1/mu0 = (m/k) e^{eps0} + ((k-m)/k) e^{-eps0};
    subtracting 1 in this form avoids the cancellation a log-pmf difference
    would reintroduce.
    """
    m = np.arange(k + 1, dtype=np.float64)
    return (m / k) * math.expm1(eps0) - ((k - m) / k) * (-math.expm1(-eps0))


def _series_below(x: np.ndarray, value: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """value, except x^2 (coeffs[0] + coeffs[1] x + ...) where |x| < 0.01.

    The polynomial runs on those cells only; ``value`` is overwritten.
    """
    small = np.abs(x) < 0.01
    x = x[small]
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    value[small] = x * x * acc
    return value


def _bracket(lam_col: np.ndarray, u: np.ndarray, log1p_u: np.ndarray, log1p_minus_u: np.ndarray):
    """(1+u)^lambda - 1 - lambda u >= 0 for rows lam_col and columns u >= -1.

    With t = lambda ln(1+u): where |t| < 1 it is the split
    (e^t - 1 - t) + lambda (ln(1+u) - u), each part from its series near 0,
    because e^t - 1 - lambda u loses digits when lambda u is tiny (1e-7
    relative at n = 1e12, k = 1e3); elsewhere e^t - 1 - lambda u, which
    also holds at u = -1.
    """
    t = lam_col * log1p_u
    e = np.expm1(t)
    with np.errstate(invalid="ignore"):  # np.where evaluates both; the split is nan at u = -1
        split = _series_below(t, e - t, _EXPM1_SERIES) + lam_col * log1p_minus_u
        return np.where(np.abs(t) < 1.0, split, e - lam_col * u)


def _window(envelopes, lo: float, hi: float, cut: float) -> slice:
    """One slice of columns that holds, for every order in [lo, hi], the
    columns its row keeps and the peak of its lower bound.

    ``envelopes(lam)`` gives a lower and an upper bound on each column's log
    term, both linear in lam.  A row keeps the columns whose upper bound
    reaches the peak of its lower bound less ``cut`` (see :func:`_kept`).
    Between lo and hi a column's upper bound is at most the larger of its
    two end values, and a row's lower-bound peak at least the largest of the
    smaller ones.  Rounding is monotone, so this holds in floating point too.
    """
    (lower_lo, upper_lo), (lower_hi, upper_hi) = envelopes(lo), envelopes(hi)
    floor = np.minimum(lower_lo, lower_hi).max() - cut
    at = np.flatnonzero(np.maximum(upper_lo, upper_hi) >= floor)
    return slice(at[0], at[-1] + 1)


def _kept(lower: np.ndarray, upper: np.ndarray, cut: float) -> np.ndarray:
    """The cells whose upper bound reaches their row's lower-bound peak less cut."""
    return upper >= lower.max(axis=1, keepdims=True) - cut


class _LinearTerms:
    """mu0 [(1+u)^lambda - 1 - lambda u] over a slice of m, summed in linear space.

    By Taylor's remainder a bracket lies between C(lambda,2) u^2
    min(1, (1+u)^{lambda-2}) and the same with max.  Without the row's common
    factor C(lambda,2), their logs are a + (lambda-2) min(0, ln(1+u)) and
    a + (lambda-2) max(0, ln(1+u)), with a = ln mu0 + 2 ln|u|.
    """

    def __init__(self, log_mu0: np.ndarray, u: np.ndarray, log1p_u: np.ndarray):
        with np.errstate(divide="ignore"):  # a = -inf where u = 0
            self.a = log_mu0 + 2.0 * np.log(np.abs(u))
        # ln(1+u) = -inf only at u = -1, where the bracket is lambda - 1: any
        # slope <= -1/2 still bounds it from below, and a finite one keeps
        # (lambda - 2) * slope a number at lambda = 2.
        self.down = np.clip(log1p_u, -_LOG_SUM_SWITCH, 0.0)
        self.up = np.maximum(log1p_u, 0.0)
        self.log_mu0, self.u, self.log1p_u = log_mu0, u, log1p_u

    # Built on first use, so the set-up's full-width instance never builds them.
    @cached_property
    def mu0(self) -> np.ndarray:
        return np.exp(self.log_mu0)

    @cached_property
    def log1p_minus_u(self) -> np.ndarray:
        return _series_below(self.u, self.log1p_u - self.u, _LOG1P_SERIES)

    def envelopes(self, lam, cols=slice(None)):
        lam, a = lam - 2.0, self.a[cols]
        return a + lam * self.down[cols], a + lam * self.up[cols]

    def sums(self, lam_col: np.ndarray, cols: slice, cut: float) -> np.ndarray:
        """ln(1 + the sum of each row's kept terms)."""
        kept = _kept(*self.envelopes(lam_col, cols), cut)
        terms = _bracket(lam_col, self.u[cols], self.log1p_u[cols], self.log1p_minus_u[cols])
        terms *= self.mu0[cols]
        return np.log1p(_column_sums(np.where(kept, terms, 0.0).T))


class _LogTerms:
    """ln mu0 + lambda ln(1+u) over a slice of m, summed in log space.  Each
    term is linear in lambda, so it is its own lower and upper envelope."""

    def __init__(self, log_mu0: np.ndarray, u: np.ndarray, log1p_u: np.ndarray):
        self.log_mu0, self.log1p_u = log_mu0, log1p_u

    def envelopes(self, lam, cols=slice(None)):
        t = self.log_mu0[cols] + lam * self.log1p_u[cols]
        return t, t

    def sums(self, lam_col: np.ndarray, cols: slice, cut: float) -> np.ndarray:
        """ln of the sum of each row's kept terms."""
        t, _ = self.envelopes(lam_col, cols)
        top = t.max(axis=1, keepdims=True)
        scaled = np.where(_kept(t, t, cut), np.exp(t - top), 0.0)
        return top[:, 0] + np.log(_column_sums(scaled.T))


@lru_cache(maxsize=2)
def _lower_terms(params: SubsampledShuffleParams):
    """(max_m ln(1+u_m), cut, branches) for :func:`rdp_lower`, built once
    per mechanism.

    Each of the two branches, linear space and log space, holds its terms
    over only the m that some order of it up to MAX_ORDER keeps.
    """
    eps0, k = params.eps0, params.k
    log_mu0 = binom_log_pmf(k, 1.0 / (math.exp(eps0) + 1.0))
    u = params.gamma * _rr2_ratio_minus_one(k, eps0)
    with np.errstate(divide="ignore"):  # u_0 = -1 once gamma = 1 and e^{-eps0} rounds away
        log1p_u = np.log1p(u)
    cut = _DROP_BELOW + math.log(k + 1.0)
    log1p_u_max = log1p_u[-1]  # u_m grows with m
    orders = np.arange(2.0, MAX_ORDER + 1.0)
    linear = orders * log1p_u_max < _LOG_SUM_SWITCH
    branches = []
    for kind, at in ((_LinearTerms, orders[linear]), (_LogTerms, orders[~linear])):
        cols = slice(0)
        if at.size:
            cols = _window(kind(log_mu0, u, log1p_u).envelopes, at[0], at[-1], cut)
        branches.append(kind(*(x[cols].copy() for x in (log_mu0, u, log1p_u))))
    return log1p_u_max, cut, branches


def rdp_lower(lam, params: SubsampledShuffleParams):
    """Lower bound on the order-lambda RDP of the subsampled shuffle mechanism.

    ``lam`` is one integer order >= 2 or a sequence of them, as for
    :func:`rdp_upper`.  The bound is the exact Renyi divergence of the
    binary randomized-response instance,

        (1/(lambda-1)) ln(1 + sum_m mu0(m) [(1+u_m)^lambda - 1 - lambda u_m]),

    with mu0 = Bin(k, 1/(e^{eps0}+1)) and u_m = gamma (mu1(m)/mu0(m) - 1)
    (see :func:`_rr2_ratio_minus_one`).  Every bracket is >= 0 (Bernoulli's
    inequality), so the sum has no cancellation; expanded in powers of u it
    is C(lambda,2) gamma^2 (e^{eps0}-1)^2/(k e^{eps0}) plus the j >= 3
    binomial central-moment terms.  Orders with some lambda ln(1+u_m) >= 700
    sum ln sum_m mu0(m) (1+u_m)^lambda in log space instead.  Accepts k = 1
    (the expression is well defined there, unlike the upper bound's premise).

    Each row sums only the terms that can reach e^{-cut} of its largest,
    cut = ln(1e40) + ln(k+1) + 1: the terms it drops sum to less than 1e-40
    of the row's sum, and a subset of nonnegative terms still sums to a
    lower bound.  Bounds on each log term that are linear in lambda (see
    :class:`_LinearTerms`) pick those terms, and at the lowest and highest
    order asked for they give one slice of m that holds the kept terms and
    the peak of every order in between: 286 of 1001 columns at k = 1e3,
    9726 of 1,000,001 at k = 1e6 (gamma = 1e-3, orders 2..33).  The rows
    of each (order x m) array are the columns of an F-ordered (m x order)
    grid, which :func:`_column_sums` adds in sequence, with exact zeros
    outside each order's kept terms, so a value does not depend on which
    other orders are asked for with it.
    """
    lams = _orders(lam)
    eps0, k = params.eps0, params.k
    out = np.zeros(lams.size)
    if eps0 == 0.0:
        return _shaped(out, lam)
    if k > LOWER_BOUND_MAX_K:
        raise ValueError(f"the lower bound accepts k <= {LOWER_BOUND_MAX_K}, got k={k}")
    log1p_u_max, cut, branches = _lower_terms(params)
    linear = lams * log1p_u_max < _LOG_SUM_SWITCH
    for at, terms in zip((np.flatnonzero(linear), np.flatnonzero(~linear)), branches):
        if not at.size:
            continue
        cols = _window(terms.envelopes, lams[at].min(), lams[at].max(), cut)
        for rows in _order_chunks(at.size, cols.stop - cols.start):
            out[at[rows]] = terms.sums(lams[at[rows], None], cols, cut)
    out /= lams - 1.0
    return _shaped(out, lam)


def rdp_upper_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the upper bound over the given orders."""
    lambdas = list(lambdas)
    entries = tuple(zip(map(int, lambdas), rdp_upper(lambdas, params).tolist()))
    return RdpCurve(entries=entries, kind=CurveKind.UPPER_BOUND)


def rdp_lower_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the lower bound over the given orders."""
    lambdas = list(lambdas)
    entries = tuple(zip(map(int, lambdas), rdp_lower(lambdas, params).tolist()))
    return RdpCurve(entries=entries, kind=CurveKind.LOWER_BOUND)
