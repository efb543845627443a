"""Renyi-DP bounds for the subsampled shuffle mechanism.

The mechanism samples k of n clients without replacement, passes each
datum through a discrete eps0-LDP randomizer, and releases a uniformly
random permutation of the k reports.  This module evaluates:

* ternary chi^alpha divergence bounds for the shuffle step, both the
  all-identical special case and the general mechanism;
* the closed-form upper bound on the order-lambda Renyi divergence of the
  subsampled shuffle mechanism, assembled from those ternary bounds;
* the matching lower bound, built from binomial central moments of the
  binary randomized-response instance.

All sums are accumulated in log space (see :mod:`shuffle_rdp.logspace`);
orders are restricted to integers lambda >= 2, exactly as the closed
forms are stated.  At eps0 = 0 every quantity here is identically zero.
Every closed form evaluates e^{eps0}, so eps0 must lie in [0, EPS0_MAX],
where EPS0_MAX = ln(largest double) ~ 709.78 is the largest eps0 whose
e^{eps0} is a finite double.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaln

from .logspace import (
    log1p_exp,
    log_binomial,
    log_binomial_row,
    log_expm1,
    binom_central_moment_signed,
    signed_logsumexp_arrays,
)

#: Hard cap used by the lower bound's O(k) moment summation.
LOWER_BOUND_MAX_K = 100_000

#: Largest eps0 whose e^{eps0} is a finite double.
EPS0_MAX = math.log(sys.float_info.max)


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
    """ln(e^{eps0} - e^{-eps0}) for eps0 > 0."""
    return eps0 + math.log1p(-math.exp(-2.0 * eps0))


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


def _check_order(lam: int) -> int:
    if lam != int(lam) or lam < 2:
        raise ValueError(f"order lambda must be an integer >= 2, got {lam}")
    return int(lam)


def rdp_upper(lam: int, params: SubsampledShuffleParams) -> float:
    """Upper bound on the order-lambda RDP of the subsampled shuffle mechanism.

    (1/(lambda-1)) ln(1 + S) where S collects, in log space:
      * the pair term 4 C(lambda,2) gamma^2 (e^{eps0}-1)^2 / (kbar e^{eps0}),
      * the j = 3..lambda ternary terms
        C(lambda,j) gamma^j j Gamma(j/2) (2 (e^{2 eps0}-1)^2 / (kbar e^{2 eps0}))^{j/2},
      * the concentration remainder
        Upsilon = ((1 + A)^lambda - 1 - lambda A) e^{-(k-1)/(8 e^{eps0})} with
        A = gamma (e^{2 eps0}-1)/e^{eps0}, expanded binomially so it stays in
        log space even when (1 + A)^lambda overflows.
    """
    lam = _check_order(lam)
    if params.k < 2:
        raise ValueError(f"the upper bound requires k >= 2, got k={params.k}")
    eps0 = params.eps0
    if eps0 == 0.0:
        return 0.0
    gamma = params.gamma
    k = params.k
    kb = kbar(k, eps0)
    log_gamma_s = math.log(gamma)

    logs: list[float] = []
    # Pair term, j = 2.
    logs.append(
        math.log(4.0)
        + log_binomial(lam, 2)
        + 2.0 * log_gamma_s
        + 2.0 * log_expm1(eps0)
        - math.log(kb)
        - eps0
    )
    # Higher-order ternary terms, j = 3..lambda.
    if lam >= 3:
        j = np.arange(3, lam + 1, dtype=np.float64)
        log_base = (
            math.log(2.0) + 2.0 * log_expm1(2.0 * eps0) - math.log(kb) - 2.0 * eps0
        )
        term = (
            log_binomial_row(lam, j)
            + j * log_gamma_s
            + np.log(j)
            + gammaln(j / 2.0)
            + (j / 2.0) * log_base
        )
        logs.extend(term.tolist())
    # Upsilon as sum_{j=2}^{lambda} C(lambda, j) A^j, damped.
    log_a = log_gamma_s + _log_2sinh(eps0)
    damp = -(k - 1) / (8.0 * math.exp(eps0))
    j2 = np.arange(2, lam + 1, dtype=np.float64)
    ups = log_binomial_row(lam, j2) + j2 * log_a + damp
    logs.extend(ups.tolist())

    m = max(logs)
    log_s = m + math.log(math.fsum(math.exp(v - m) for v in logs))
    return log1p_exp(log_s) / (lam - 1)


# Central moments of Bin(k, p) as (k, p, signs, log magnitudes) for the last
# (k, p) asked for, grown on demand up to the largest order a scan has
# reached.  Every caller walks orders at a fixed (k, p), so a new key
# replaces the old one.  The tuple is rebound whole and never mutated, so a
# concurrent reader always sees a consistent snapshot.
_MOMENT_CACHE: tuple = (None, None, np.zeros(0, dtype=np.int64), np.zeros(0))


def _moment_arrays(k: int, p: float, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log magnitudes) of E[(m - kp)^j] for j = 0..j_max (read-only)."""
    global _MOMENT_CACHE
    cached_k, cached_p, signs, logs = _MOMENT_CACHE
    if (cached_k, cached_p) != (k, p):
        signs, logs = signs[:0], logs[:0]
    if len(signs) <= j_max:
        new = [binom_central_moment_signed(k, p, j) for j in range(len(signs), j_max + 1)]
        signs = np.concatenate([signs, [m.sign for m in new]])
        logs = np.concatenate([logs, [m.log_mag for m in new]])
        signs.setflags(write=False)
        logs.setflags(write=False)
        _MOMENT_CACHE = (k, p, signs, logs)
    return signs[: j_max + 1], logs[: j_max + 1]


def rdp_lower(lam: int, params: SubsampledShuffleParams) -> float:
    """Lower bound on the order-lambda RDP of the subsampled shuffle mechanism.

    (1/(lambda-1)) ln(1 + C(lambda,2) gamma^2 (e^{eps0}-1)^2/(k e^{eps0})
    + sum_{j=3}^{lambda} C(lambda,j) gamma^j ((e^{2 eps0}-1)/(k e^{eps0}))^j
    E[(m - k/(e^{eps0}+1))^j]) with m ~ Bin(k, 1/(e^{eps0}+1)).

    The binary randomized-response construction behind this bound makes it
    exact for that instance.  Accepts k = 1 (the expression is well defined
    there, unlike the upper bound's premise).
    """
    lam = _check_order(lam)
    eps0 = params.eps0
    if eps0 == 0.0:
        return 0.0
    k = params.k
    if k > LOWER_BOUND_MAX_K:
        raise ValueError(
            f"lower bound uses O(k) moment sums; k={k} exceeds {LOWER_BOUND_MAX_K}"
        )
    gamma = params.gamma
    p = 1.0 / (math.exp(eps0) + 1.0)
    log_gamma_s = math.log(gamma)
    # log of (e^{2 eps0}-1)/(k e^{eps0}) = (e^{eps0}-e^{-eps0})/k.
    log_c = _log_2sinh(eps0) - math.log(k)

    pair_log = (
        log_binomial(lam, 2)
        + 2.0 * log_gamma_s
        + 2.0 * log_expm1(eps0)
        - math.log(k)
        - eps0
    )
    if lam == 2:
        all_signs = np.array([1])
        all_logs = np.array([pair_log])
    else:
        mom_signs, mom_logs = _moment_arrays(k, p, lam)
        j = np.arange(3, lam + 1, dtype=np.float64)
        term_logs = log_binomial_row(lam, j) + j * (log_gamma_s + log_c) + mom_logs[3:]
        all_signs = np.concatenate([[1], mom_signs[3:]])
        all_logs = np.concatenate([[pair_log], term_logs])
    s = signed_logsumexp_arrays(all_signs, all_logs)
    if s.sign == 0:
        return 0.0
    if s.sign > 0:
        return log1p_exp(s.log_mag) / (lam - 1)
    # Defensive: the accumulated sum is provably >= 0 for p <= 1/2, but a
    # negatively-rounded zero must not crash the log.
    if s.log_mag >= 0.0:
        raise ArithmeticError("lower-bound sum fell below -1; inputs out of range")
    return math.log1p(-math.exp(s.log_mag)) / (lam - 1)


def rdp_upper_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the upper bound over the given orders."""
    entries = tuple((int(lam), rdp_upper(lam, params)) for lam in lambdas)
    return RdpCurve(entries=entries, kind=CurveKind.UPPER_BOUND, params=params)


def rdp_lower_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the lower bound over the given orders."""
    entries = tuple((int(lam), rdp_lower(lam, params)) for lam in lambdas)
    return RdpCurve(entries=entries, kind=CurveKind.LOWER_BOUND, params=params)
