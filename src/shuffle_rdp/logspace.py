"""Log-domain arithmetic primitives.

Every bound in this package multiplies binomial coefficients as large as
C(4096, 2048) by Gamma factors and tiny sampling powers.  To keep those
products finite, the kernels build them as logs: log binomial rows, the
log of e^x - 1, and the normalised log pmf of a binomial.  ``SignedLog``
stores a real number as a sign and the log of its magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np
from scipy.special import gammaln, logsumexp


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as a sign (-1, 0 or +1) and the log of its
    magnitude, which is ``-inf`` exactly when the value is zero."""

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.log_mag == -math.inf):
            raise ValueError("sign == 0 iff log_mag == -inf")

    def to_real(self) -> float:
        return self.sign * math.exp(self.log_mag) if self.sign else 0.0


ZERO = SignedLog(0, -math.inf)


def log_binomial_row(n, ks) -> np.ndarray:
    """Vectorized ln C(n, ks) for integer-valued arrays that broadcast.

    -inf where ks > n: the last gammaln then sits at a pole.
    """
    return gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1)


def log_expm1(x: float) -> float:
    """ln(exp(x) - 1) for x > 0, stable for both tiny and huge x."""
    if not x > 0:
        raise ValueError(f"log_expm1 requires x > 0, got {x}")
    if x > 1.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


@lru_cache(maxsize=64)
def binom_log_pmf(k: int, p: float) -> np.ndarray:
    """log pmf of Bin(k, p) over m = 0..k (read-only, memoized per (k, p)).

    For 0 < p < 1 the entries are shifted so that their logsumexp is 0:
    the gammaln differences lose digits as k grows, and every sum over
    the pmf scales with its total mass.
    """
    m = np.arange(k + 1, dtype=np.float64)
    if p == 0.0:
        out = np.full(k + 1, -np.inf)
        out[0] = 0.0
    elif p == 1.0:
        out = np.full(k + 1, -np.inf)
        out[k] = 0.0
    else:
        out = log_binomial_row(k, m) + m * math.log(p) + (k - m) * math.log1p(-p)
        out -= logsumexp(out)
    out.setflags(write=False)
    return out
