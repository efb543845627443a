"""Renyi-DP bounds for the subsampled shuffle mechanism.

The mechanism samples k of n clients without replacement, passes each
datum through a discrete eps0-LDP randomizer, and releases a uniformly
random permutation of the k reports.  This module evaluates:

* ternary chi^alpha divergence bounds for the shuffle step, both the
  all-identical special case and the general mechanism;
* the closed-form upper bound on the order-lambda Renyi divergence of the
  subsampled shuffle mechanism, assembled from those ternary bounds;
* the matching lower bound, the exact divergence of the binary
  randomized-response instance, as a sum of nonnegative terms.

Both RDP bounds take one order or a sequence of them and evaluate a
sequence as one array expression, one row per order, in chunks of at most
_CHUNK_CELLS cells.  Orders are restricted to integers lambda >= 2, exactly
as the closed forms are stated.  At eps0 = 0 every quantity here is
identically zero.  Every closed form evaluates e^{eps0}, so eps0 must lie
in [0, EPS0_MAX], where EPS0_MAX = ln(largest double) ~ 709.78 is the
largest eps0 whose e^{eps0} is a finite double.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .logspace import binom_log_pmf, log_binomial_row, log_expm1

#: Hard cap used by the lower bound's O(k) sum per order.
LOWER_BOUND_MAX_K = 100_000

#: Largest eps0 whose e^{eps0} is a finite double.
EPS0_MAX = math.log(sys.float_info.max)

# Cells per temporary (order x term) array: 64 KB stays under malloc's
# 128 KB mmap threshold, so the temporaries reuse heap memory and peak RSS
# does not grow (at 2**15 a `compare` sweep's rose by about 1.2 MB).
_CHUNK_CELLS = 2**13

#: Largest lambda ln(1 + u) summed in linear space; e^700 is still finite.
_LOG_SUM_SWITCH = 700.0

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


@dataclass(frozen=True)
class SubsampledShuffleParams:
    """Mechanism instance: n clients total, k sampled, eps0-LDP randomizer."""

    n: int
    k: int
    eps0: float

    def __post_init__(self):
        if self.n != int(self.n) or self.k != int(self.k):
            raise ValueError("n and k must be integers")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"require 1 <= k <= n, got k={self.k}, n={self.n}")
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
    """Tabulated eps(lambda) over strictly increasing integer orders >= 2.

    ``params`` may be None for curves loaded from files, where the
    generating mechanism is unknown.
    """

    entries: tuple[tuple[int, float], ...]
    kind: CurveKind
    params: Optional[SubsampledShuffleParams] = None

    def __post_init__(self):
        prev = 1
        for lam, eps in self.entries:
            if lam != int(lam) or lam < 2:
                raise ValueError(f"orders must be integers >= 2, got {lam}")
            if lam <= prev:
                raise ValueError("orders must be strictly increasing")
            if not (math.isfinite(eps) and eps >= 0):
                raise ValueError(f"eps values must be finite and >= 0, got {eps}")
            prev = lam

    def lambdas(self) -> list[int]:
        return [lam for lam, _ in self.entries]

    def eps_values(self) -> list[float]:
        return [eps for _, eps in self.entries]


@dataclass(frozen=True)
class ZetaBound:
    """Bound on zeta(alpha)^alpha, the ternary chi^alpha divergence ceiling."""

    alpha: int
    value: float

    def __post_init__(self):
        if self.alpha < 2 or self.alpha != int(self.alpha):
            raise ValueError(f"alpha must be an integer >= 2, got {self.alpha}")
        if not self.value >= 0:
            raise ValueError(f"value must be >= 0, got {self.value}")


def kbar(k: int, eps0: float) -> int:
    """floor((k - 1) / (2 e^{eps0})) + 1 -- the effective cohort size."""
    return math.floor((k - 1) / (2.0 * math.exp(eps0))) + 1


def _log_2sinh(eps0: float) -> float:
    """ln(e^{eps0} - e^{-eps0}) for eps0 > 0, down to the smallest double."""
    return eps0 + math.log(-math.expm1(-2.0 * eps0))


def _exp_or_inf(log_x: float) -> float:
    """e^log_x, or +inf once it leaves float range (still a valid upper bound)."""
    return math.exp(log_x) if log_x <= EPS0_MAX else math.inf


def log_zeta_special(alpha: int, m: int, eps0: float) -> float:
    """ln of the special-case ternary bound; -inf at eps0 = 0."""
    if alpha < 2 or alpha != int(alpha):
        raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
    if m < 1 or m != int(m):
        raise ValueError(f"m must be a positive integer, got {m}")
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
    if k < 2 or k != int(k):
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if alpha < 2 or alpha != int(alpha):
        raise ValueError(f"alpha must be an integer >= 2, got {alpha}")
    check_eps0(eps0)
    if eps0 == 0.0:
        return ZetaBound(alpha=int(alpha), value=0.0)
    kb = kbar(k, eps0)
    main = _exp_or_inf(log_zeta_special(alpha, kb, eps0))
    log_tail = alpha * _log_2sinh(eps0) - (k - 1) / (8.0 * math.exp(eps0))
    return ZetaBound(alpha=int(alpha), value=main + _exp_or_inf(log_tail))


def _orders(lam) -> np.ndarray:
    """One integer order or a sequence of them, checked, as a float array."""
    lams = np.atleast_1d(np.asarray(lam))
    if (
        lams.ndim != 1
        or lams.dtype.kind not in "iuf"
        or not np.all(np.isfinite(lams) & (lams >= 2) & (lams == np.floor(lams)))
    ):
        raise ValueError(f"order lambda must be an integer >= 2, got {lam!r}")
    return lams.astype(np.float64)


def _shaped(values: np.ndarray, lam):
    """A float for one order, the array for a sequence."""
    return float(values[0]) if np.ndim(lam) == 0 else values


def _row_chunks(n_rows: int, width: int):
    """Slices of at most _CHUNK_CELLS cells' worth of rows (at least one row)."""
    step = max(1, _CHUNK_CELLS // width)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _row_logsumexp(cells: np.ndarray) -> np.ndarray:
    """ln sum exp of each row.  The sum runs in sequence, so a row's value
    does not depend on the other rows or on -inf cells (exact zeros)."""
    top = cells.max(axis=1, keepdims=True)
    return top[:, 0] + np.log(np.cumsum(np.exp(cells - top), axis=1)[:, -1])


def rdp_upper(lam, params: SubsampledShuffleParams):
    """Upper bound on the order-lambda RDP of the subsampled shuffle mechanism.

    ``lam`` is one integer order >= 2 or a sequence of them; the result is
    a float or an array to match.  A value does not depend on which other
    orders are asked for with it.

    (1/(lambda-1)) ln(1 + S) where S collects, in log space:
      * the pair term 4 C(lambda,2) gamma^2 (e^{eps0}-1)^2 / (kbar e^{eps0}),
      * the j = 3..lambda ternary terms
        C(lambda,j) gamma^j j Gamma(j/2) (2 (e^{2 eps0}-1)^2 / (kbar e^{2 eps0}))^{j/2},
      * the concentration remainder
        Upsilon = ((1 + A)^lambda - 1 - lambda A) e^{-(k-1)/(8 e^{eps0})} with
        A = gamma (e^{2 eps0}-1)/e^{eps0}, expanded binomially so it stays in
        log space even when (1 + A)^lambda overflows.
    Each order is one row of an (order x j) grid of these log terms.
    """
    lams = _orders(lam)
    if params.k < 2:
        raise ValueError(f"the upper bound requires k >= 2, got k={params.k}")
    eps0, k = params.eps0, params.k
    out = np.zeros(lams.size)
    if eps0 == 0.0 or not lams.size:
        return _shaped(out, lam)
    kb = kbar(k, eps0)
    log_gamma_s = math.log(params.gamma)
    j = np.arange(2.0, lams.max() + 1.0)
    log_base = math.log(2.0) + 2.0 * log_expm1(2.0 * eps0) - math.log(kb) - 2.0 * eps0
    ternary = j * log_gamma_s + np.log(j) + gammaln(j / 2.0) + (j / 2.0) * log_base
    ternary[0] = math.log(4.0) + 2.0 * log_gamma_s + 2.0 * log_expm1(eps0) - math.log(kb) - eps0
    upsilon = j * (log_gamma_s + _log_2sinh(eps0)) - (k - 1) / (8.0 * math.exp(eps0))
    for rows in _row_chunks(lams.size, 2 * j.size):
        lam_col = lams[rows, None]
        width = int(lam_col.max()) - 1
        binom = log_binomial_row(lam_col, j[:width])  # -inf past each row's order
        log_s = _row_logsumexp(
            np.concatenate([binom + ternary[:width], binom + upsilon[:width]], axis=1)
        )
        out[rows] = np.logaddexp(0.0, log_s) / (lam_col[:, 0] - 1.0)
    return _shaped(out, lam)


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
    """value, except x^2 (coeffs[0] + coeffs[1] x + ...) where |x| < 0.01."""
    small = np.abs(x) < 0.01
    x = np.where(small, x, 0.0)
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return np.where(small, x * x * acc, value)


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
    """
    lams = _orders(lam)
    eps0, k = params.eps0, params.k
    out = np.zeros(lams.size)
    if eps0 == 0.0:
        return _shaped(out, lam)
    if k > LOWER_BOUND_MAX_K:
        raise ValueError(f"lower bound uses O(k) sums per order; k={k} exceeds {LOWER_BOUND_MAX_K}")
    log_mu0 = binom_log_pmf(k, 1.0 / (math.exp(eps0) + 1.0))
    u = params.gamma * _rr2_ratio_minus_one(k, eps0)
    with np.errstate(divide="ignore"):  # u_0 = -1 once gamma = 1 and e^{-eps0} rounds away
        log1p_u = np.log1p(u)
    linear = lams * log1p_u[-1] < _LOG_SUM_SWITCH  # u_m grows with m
    mu0 = np.exp(log_mu0)
    kept = mu0 > 0.0  # in linear space the other terms are exact zeros
    mu0, u, log1p_u_kept = mu0[kept], u[kept], log1p_u[kept]
    log1p_minus_u = _series_below(u, log1p_u_kept - u, _LOG1P_SERIES)
    at = np.flatnonzero(linear)
    for rows in _row_chunks(at.size, mu0.size):
        lam_col = lams[at[rows], None]
        terms = _bracket(lam_col, u, log1p_u_kept, log1p_minus_u) * mu0
        s = np.sum(terms, axis=1)  # every row has the same width, so the same pairwise sum
        out[at[rows]] = np.log1p(s) / (lam_col[:, 0] - 1.0)
    at = np.flatnonzero(~linear)
    for rows in _row_chunks(at.size, k + 1):
        lam_col = lams[at[rows], None]
        out[at[rows]] = _row_logsumexp(log_mu0 + lam_col * log1p_u) / (lam_col[:, 0] - 1.0)
    return _shaped(out, lam)


def rdp_upper_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the upper bound over the given orders."""
    lambdas = list(lambdas)
    entries = tuple(zip(map(int, lambdas), rdp_upper(lambdas, params).tolist()))
    return RdpCurve(entries=entries, kind=CurveKind.UPPER_BOUND, params=params)


def rdp_lower_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the lower bound over the given orders."""
    lambdas = list(lambdas)
    entries = tuple(zip(map(int, lambdas), rdp_lower(lambdas, params).tolist()))
    return RdpCurve(entries=entries, kind=CurveKind.LOWER_BOUND, params=params)
