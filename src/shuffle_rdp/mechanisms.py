"""A discrete eps0-LDP randomizer and l-infinity gradient clipping.

The randomizer is unbiased for inputs in an l-infinity ball.  It picks
one coordinate uniformly, stochastically quantizes it to {-C, +C},
randomizes that sign bit with binary randomized response, and rescales so
the output is unbiased.  Its output alphabet has 2d points, its
worst-case second moment matches C^2 d^2 ((e^{eps0}+1)/(e^{eps0}-1))^2,
and its kernel satisfies the eps0 likelihood-ratio bound with equality at
the ball surface.

The draw reads only the one coordinate it picks: vec_randomize_sparse
takes each client's l-infinity norm and a gather of the picked values,
and returns (coordinate, sign) pairs, so k clients cost O(k) after their
norms are known.  vec_randomize_batch is its scatter into a dense (k, d)
batch, one client per row, and clip_batch clips such a batch.

Randomness is always a caller-owned numpy Generator; mechanism objects
are immutable and shareable across threads (each caches its flip
probability and output scale on first use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bounds import check_eps0, check_int


def clip_batch(X: np.ndarray, C: float) -> np.ndarray:
    """Row-wise l-infinity clip of a (k, d) batch: x / max(1, ||x||_inf / C)."""
    if not C > 0:
        raise ValueError(f"clip radius must be positive, got {C}")
    X = np.asarray(X, dtype=np.float64)
    return X / np.maximum(1.0, np.max(np.abs(X), axis=1) / C)[:, None]


@dataclass(frozen=True)
class VecMech:
    """Unbiased coordinate-sampling randomizer on the l-infinity ball of radius C."""

    eps0: float
    d: int
    C: float

    def __post_init__(self):
        check_eps0(self.eps0)
        if self.eps0 == 0.0:
            raise ValueError("eps0 must be positive (the variance bound diverges at eps0 = 0)")
        check_int("d", self.d, 1)
        if not self.C > 0:
            raise ValueError(f"radius must be positive, got {self.C}")
        if not math.isfinite(self.scale * self.scale):  # a product overflows; scale**2 raises
            raise ValueError(
                "the output scale d C (e^eps0+1)/(e^eps0-1) or its square overflows "
                f"at d = {self.d}, clip radius C = {self.C}, eps0 = {self.eps0}"
            )

    # The draw reads these once per batch: each is computed once per mechanism.
    @cached_property
    def flip_prob(self) -> float:
        return 1.0 / (math.exp(self.eps0) + 1.0)

    @cached_property
    def scale(self) -> float:
        """Output magnitude d C (e^{eps0}+1)/(e^{eps0}-1) restoring unbiasedness."""
        return self.d * self.C * (math.exp(self.eps0) + 1.0) / math.expm1(self.eps0)

    @property
    def variance_bound(self) -> float:
        """Worst-case E||output - x||_2^2 over the ball: C^2 d^2 ((e+1)/(e-1))^2."""
        return self.scale**2


# Inputs may exceed the ball by a relative hair from upstream float clipping.
_BALL_SLACK = 1e-9


def _check_norms(norms: np.ndarray, mech: VecMech) -> None:
    """Raise unless every l-infinity norm lies in the ball (nan passes, as before)."""
    if np.max(norms) > mech.C * (1.0 + _BALL_SLACK):
        raise ValueError("input outside the l-infinity ball; clip first")


def _inputs(x: np.ndarray, mech: VecMech) -> tuple[np.ndarray, np.ndarray]:
    """x as float64 with mech.d coordinates on its last axis, and its l-infinity norms."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != mech.d:
        raise ValueError(f"expected dimension {mech.d}, got {x.shape[-1]}")
    return x, np.max(np.abs(x), axis=-1)


def vec_randomize_sparse(
    gather: Callable[[np.ndarray], np.ndarray],
    norms: np.ndarray,
    mech: VecMech,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent draws for k inputs with l-infinity norms ``norms``, as
    (coordinate j, sign b) arrays: client i reports scale * b[i] at j[i].

    ``gather(j)`` returns each input's value at its picked coordinate, so
    only k values are read.  E[report | x] = x.
    """
    _check_norms(norms, mech)
    k = len(norms)
    j = rng.integers(mech.d, size=k)
    q = 0.5 + gather(j) / (2.0 * mech.C)
    b = np.where(rng.random(k) < q, 1.0, -1.0)
    b = np.where(rng.random(k) < mech.flip_prob, -b, b)
    return j, b


def vec_randomize_batch(
    X: np.ndarray, mech: VecMech, rng: np.random.Generator
) -> np.ndarray:
    """Independent draws for a (k, d) batch of inputs, one per row: E[output | x] = x."""
    X, norms = _inputs(np.atleast_2d(X), mech)
    rows = np.arange(X.shape[0])
    j, b = vec_randomize_sparse(lambda j: X[rows, j], norms, mech, rng)
    out = np.zeros_like(X)
    out[rows, j] = mech.scale * b
    return out


def vec_kernel(x: np.ndarray, mech: VecMech) -> dict[tuple[int, int], float]:
    """Exact law of one row of vec_randomize_batch: (coordinate, sign) -> probability.

    The alphabet has 2d points; total mass 1.  Used for the exhaustive
    likelihood-ratio check of the eps0-LDP property.
    """
    x, norm = _inputs(x, mech)
    _check_norms(norm, mech)
    p = mech.flip_prob
    kernel: dict[tuple[int, int], float] = {}
    for j in range(mech.d):
        q = 0.5 + float(x[j]) / (2.0 * mech.C)
        plus = (q * (1.0 - p) + (1.0 - q) * p) / mech.d
        kernel[(j, +1)] = plus
        kernel[(j, -1)] = 1.0 / mech.d - plus
    return kernel
