"""Composition over rounds and conversion from RDP curves to (eps, delta)-DP.

T identical rounds compose additively order-by-order; the conversion then
minimizes, over the tabulated integer orders, the standard penalty

    eps(lambda) + (ln(1/delta) + (lambda-1) ln(1-1/lambda) - ln lambda) / (lambda-1).

The search over orders walks the integer grid upward and stops once the
objective has failed to improve for EARLY_EXIT_PATIENCE consecutive orders;
the objective is empirically unimodal in the order.  It asks the RDP
function for blocks of at most EARLY_EXIT_PATIENCE orders, each ending no
later than EARLY_EXIT_PATIENCE orders past the incumbent argmin, so it
computes exactly the orders 2..argmin + EARLY_EXIT_PATIENCE it reads.  The
penalties of a block come from per-order tables in one array expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .bounds import MAX_ORDER, CurveKind, RdpCurve, SubsampledShuffleParams, rdp_upper

#: Orders scanned past the incumbent before the search gives up improving.
EARLY_EXIT_PATIENCE = 32

DEFAULT_LAMBDA_MAX = 2048


class Provenance(Enum):
    OURS_RDP_UPPER = "ours-rdp-upper"
    OURS_RDP_LOWER = "ours-rdp-lower"
    BASELINE_CLONES_PIPELINE = "baseline-clones-pipeline"
    EXACT_ORACLE = "exact-oracle"


_KIND_TO_PROVENANCE = {
    CurveKind.UPPER_BOUND: Provenance.OURS_RDP_UPPER,
    CurveKind.LOWER_BOUND: Provenance.OURS_RDP_LOWER,
    CurveKind.EXACT: Provenance.EXACT_ORACLE,
}


@dataclass(frozen=True)
class DpGuarantee:
    """An (eps, delta) guarantee plus where it came from.

    ``eps_unclamped`` preserves the pre-clamp minimum when the penalty term
    pushed the objective below zero; ``degenerate`` marks baseline results
    whose shuffle-amplification step fell back to the raw local guarantee.
    """

    eps: float
    delta: float
    provenance: Provenance
    argmin_lambda: Optional[int] = None
    eps_unclamped: Optional[float] = None
    degenerate: bool = False

    def __post_init__(self):
        if not self.eps >= 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class AccountantConfig:
    """Rounds, target delta, and the ceiling of the order search."""

    T: int
    delta: float
    lambda_max: int = DEFAULT_LAMBDA_MAX

    def __post_init__(self):
        if self.T < 1 or self.T != int(self.T):
            raise ValueError(f"T must be a positive integer, got {self.T}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 2 <= self.lambda_max <= MAX_ORDER or self.lambda_max != int(self.lambda_max):
            raise ValueError(
                f"lambda_max must be an integer in [2, MAX_ORDER = {MAX_ORDER}], got {self.lambda_max}"
            )


def compose(curve: RdpCurve, T: int) -> RdpCurve:
    """Entry-wise T-fold composition: (lambda, eps) -> (lambda, T eps)."""
    if T < 1 or T != int(T):
        raise ValueError(f"T must be a positive integer, got {T}")
    entries = tuple((lam, T * eps) for lam, eps in curve.entries)
    return RdpCurve(entries=entries, kind=curve.kind, params=curve.params)


def dp_penalty(lam: int, delta: float) -> float:
    """Order-lambda conversion penalty added to eps(lambda)."""
    if lam < 2:
        raise ValueError(f"order must be >= 2, got {lam}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # -ln(delta), not ln(1/delta): 1/delta overflows below 1/DBL_MAX.
    return (
        -math.log(delta) + (lam - 1) * math.log1p(-1.0 / lam) - math.log(lam)
    ) / (lam - 1)


# dp_penalty's parts that depend on the order alone, indexed by lambda:
# (lambda - 1) ln(1 - 1/lambda), ln lambda and lambda - 1, each computed
# as dp_penalty computes it, so a block's penalties match it bit for bit.
_PENALTY_A = np.fromiter(
    (0.0 if lam < 2 else (lam - 1) * math.log1p(-1.0 / lam) for lam in range(MAX_ORDER + 1)),
    float,
)
_PENALTY_B = np.fromiter((0.0 if lam < 2 else math.log(lam) for lam in range(MAX_ORDER + 1)), float)
_ORDER_MINUS_ONE = np.arange(-1.0, MAX_ORDER)


def _scan(
    pairs: Iterable[tuple[int, float]], best: float = math.inf, best_lam: Optional[int] = None
) -> tuple[float, Optional[int]]:
    """(min, argmin) of the (lambda, objective) pairs and the incumbent
    (best, best_lam); the first of equal minima wins."""
    for lam, obj in pairs:
        if obj < best:
            best, best_lam = obj, lam
    return best, best_lam


def rdp_to_dp(curve: RdpCurve, delta: float) -> DpGuarantee:
    """Convert a tabulated RDP curve to an (eps, delta)-DP guarantee: the
    minimum over every entry, clamped at zero, with the raw minimum kept."""
    if not curve.entries:
        raise ValueError("curve must contain at least one entry")
    raw, lam = _scan((lam, eps + dp_penalty(lam, delta)) for lam, eps in curve.entries)
    return DpGuarantee(
        eps=max(raw, 0.0),
        delta=delta,
        provenance=_KIND_TO_PROVENANCE[curve.kind],
        argmin_lambda=lam,
        eps_unclamped=raw,
    )


def minimize_over_orders(
    eps_fn: Callable[[range], Sequence[float]],
    T: int,
    delta: float,
    lambda_max: int = DEFAULT_LAMBDA_MAX,
) -> tuple[float, Optional[int], float]:
    """(clamped eps, argmin lambda, unclamped eps) of the minimum over lambda
    in {2..lambda_max} of T eps_fn(lambda) + dp_penalty(lambda, delta).  With
    no finite objective there is no argmin: (inf, None, inf).

    ``eps_fn`` maps a range of orders to their eps values.  The scan stops
    EARLY_EXIT_PATIENCE orders past the incumbent argmin (lambda = 1 before
    the first improvement), so it reads the orders 2..argmin +
    EARLY_EXIT_PATIENCE.  Each block it asks for holds at most
    EARLY_EXIT_PATIENCE orders and ends at the last order the incumbent at
    its start lets it read, so no order is computed that the scan skips.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    neg_log_delta = -math.log(delta)
    best, best_lam = math.inf, 1
    lo = 2
    while lo <= min(best_lam + EARLY_EXIT_PATIENCE, lambda_max):
        stop = min(lo, best_lam + 1) + EARLY_EXIT_PATIENCE
        block = range(lo, min(stop, lambda_max + 1))
        at = slice(block.start, block.stop)
        penalty = ((neg_log_delta + _PENALTY_A[at]) - _PENALTY_B[at]) / _ORDER_MINUS_ONE[at]
        objective = float(T) * np.asarray(eps_fn(block)) + penalty
        best, best_lam = _scan(zip(block, objective.tolist()), best, best_lam)
        lo = block.stop
    return max(best, 0.0), (best_lam if best_lam > 1 else None), best


def total_privacy(
    params: SubsampledShuffleParams, cfg: AccountantConfig
) -> DpGuarantee:
    """(eps, delta)-DP of T composed subsampled-shuffle rounds, via the
    upper RDP bound minimized over integer orders."""
    eps, lam, raw = minimize_over_orders(
        lambda lam: rdp_upper(lam, params), cfg.T, cfg.delta, cfg.lambda_max
    )
    return DpGuarantee(
        eps=eps,
        delta=cfg.delta,
        provenance=Provenance.OURS_RDP_UPPER,
        argmin_lambda=lam,
        eps_unclamped=raw,
    )
