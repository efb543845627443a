"""Log-domain arithmetic primitives.

Every bound in this package multiplies binomial coefficients as large as
C(4096, 2048) by Gamma factors and tiny sampling powers.  To keep those
sums finite and cancellation-free, all intermediate quantities live as
(sign, log|value|) pairs and are only exponentiated at the very end,
through log1p/expm1-style compositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np
from scipy.special import gammaln

#: Module-wide relative tolerance the scalar kernels are tested against.
REL_TOL = 1e-12

#: Per-term tolerance budget of signed accumulation (error <= n_terms * this,
#: measured against the largest accumulated magnitude).
SUM_TOL_PER_TERM = 1e-14

# Below this n, log_binomial goes through exact integer arithmetic, so the
# result is the correctly rounded log of the exact coefficient.
_EXACT_BINOM_MAX_N = 64


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as a sign and the log of its magnitude.

    ``sign`` is -1, 0, or +1 and ``log_mag`` is ``-inf`` exactly when the
    value is zero.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.log_mag == -math.inf):
            raise ValueError("sign == 0 iff log_mag == -inf")

    def to_real(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_mag)


ZERO = SignedLog(0, -math.inf)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n.

    Exact (up to final rounding) for n <= 64 via integer factorials;
    lgamma-based otherwise, with relative error well under 1e-12.
    """
    if n != int(n) or k != int(k):
        raise ValueError("n and k must be integers")
    n, k = int(n), int(k)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"require 0 <= k <= n, got n={n}, k={k}")
    if n <= _EXACT_BINOM_MAX_N:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_binomial_row(n: int, ks: np.ndarray) -> np.ndarray:
    """Vectorized ln C(n, ks) for an integer array of ks in [0, n]."""
    return gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)


def _logsumexp_np(logs: np.ndarray) -> float:
    if logs.size == 0:
        return -math.inf
    m = float(np.max(logs))
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(logs - m))))


def _log_diff(log_pos: float, log_neg: float) -> SignedLog:
    """SignedLog of exp(log_pos) - exp(log_neg)."""
    if log_pos == log_neg:  # includes both sides empty (-inf): exact zero
        return ZERO
    if log_pos > log_neg:
        return SignedLog(1, log_pos + math.log1p(-math.exp(log_neg - log_pos)))
    return SignedLog(-1, log_neg + math.log1p(-math.exp(log_pos - log_neg)))


def signed_logsumexp_arrays(signs: np.ndarray, log_mags: np.ndarray) -> SignedLog:
    """Sum of signed log-domain terms given as parallel sign / log-magnitude arrays.

    Positive and negative magnitudes accumulate separately (log-sum-exp at
    their maximum) and are differenced once, at the larger scale, so
    pairwise cancellation costs a single log1p instead of n roundoffs.
    Terms with sign 0 are ignored.
    """
    pos = log_mags[signs > 0]
    neg = log_mags[signs < 0]
    return _log_diff(_logsumexp_np(pos), _logsumexp_np(neg))


def log1p_exp(log_s: float) -> float:
    """ln(1 + exp(log_s)), stable for any log_s (softplus)."""
    if log_s == -math.inf:
        return 0.0
    if log_s <= 0:
        return math.log1p(math.exp(log_s))
    return log_s + math.log1p(math.exp(-log_s))


def log_expm1(x: float) -> float:
    """ln(exp(x) - 1) for x > 0, stable for both tiny and huge x."""
    if not x > 0:
        raise ValueError(f"log_expm1 requires x > 0, got {x}")
    if x > 1.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


@lru_cache(maxsize=64)
def binom_log_pmf(k: int, p: float) -> np.ndarray:
    """log pmf of Bin(k, p) over m = 0..k (read-only, memoized per (k, p))."""
    m = np.arange(k + 1, dtype=np.float64)
    if p == 0.0:
        out = np.full(k + 1, -np.inf)
        out[0] = 0.0
    elif p == 1.0:
        out = np.full(k + 1, -np.inf)
        out[k] = 0.0
    else:
        out = (
            log_binomial_row(k, m)
            + m * math.log(p)
            + (k - m) * math.log1p(-p)
        )
    out.setflags(write=False)
    return out


def binom_central_moment_signed(k: int, p: float, j: int) -> SignedLog:
    """E[(m - kp)^j] for m ~ Bin(k, p), as a SignedLog.

    Direct O(k) summation over the support; the log-pmf table is memoized
    per (k, p).  Mixed signs (odd j) go through the split accumulator.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if j < 0 or j != int(j):
        raise ValueError(f"j must be a nonnegative integer, got {j}")
    k, j = int(k), int(j)
    if j == 0:
        return SignedLog(1, 0.0)
    log_pmf = binom_log_pmf(k, float(p))
    dev = np.arange(k + 1, dtype=np.float64) - k * p
    nz = dev != 0.0
    if not np.any(nz):
        return ZERO
    log_terms = log_pmf[nz] + j * np.log(np.abs(dev[nz]))
    signs = np.where(dev[nz] > 0, 1, (-1) ** j)
    return signed_logsumexp_arrays(signs, log_terms)
