"""Composition over rounds and conversion from RDP curves to (eps, delta)-DP.

T identical rounds compose additively order-by-order; the conversion then
minimizes, over the tabulated integer orders, the standard penalty

    eps(lambda) + (ln(1/delta) + (lambda-1) ln(1-1/lambda) - ln lambda) / (lambda-1).

The search over orders walks the integer grid upward, asking the RDP
function for EARLY_EXIT_PATIENCE orders at a time, and stops once the
objective has failed to improve for that many consecutive orders; the
objective is empirically unimodal in the order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .bounds import CurveKind, RdpCurve, SubsampledShuffleParams, rdp_upper

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
        if self.lambda_max < 2 or self.lambda_max != int(self.lambda_max):
            raise ValueError(f"lambda_max must be an integer >= 2, got {self.lambda_max}")


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
    return (
        math.log(1.0 / delta) + (lam - 1) * math.log1p(-1.0 / lam) - math.log(lam)
    ) / (lam - 1)


def rdp_to_dp(curve: RdpCurve, delta: float) -> DpGuarantee:
    """Convert a tabulated RDP curve to an (eps, delta)-DP guarantee.

    eps = min over tabulated lambda of eps(lambda) + penalty(lambda); the
    final eps is clamped at zero with the raw minimum kept for diagnostics.
    """
    if not curve.entries:
        raise ValueError("curve must contain at least one entry")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    best = math.inf
    best_lam = None
    for lam, eps in curve.entries:
        obj = eps + dp_penalty(lam, delta)
        if obj < best:
            best, best_lam = obj, lam
    return DpGuarantee(
        eps=max(best, 0.0),
        delta=delta,
        provenance=_KIND_TO_PROVENANCE[curve.kind],
        argmin_lambda=best_lam,
        eps_unclamped=best,
    )


def minimize_over_orders(
    eps_fn: Callable[[range], Sequence[float]],
    T: int,
    delta: float,
    lambda_max: int = DEFAULT_LAMBDA_MAX,
) -> tuple[float, int, float]:
    """min over lambda in {2..lambda_max} of T eps_fn(lambda) + penalty(lambda).

    ``eps_fn`` maps a range of orders to their eps values; it is asked for
    EARLY_EXIT_PATIENCE orders at a time.  Returns (clamped eps, argmin
    lambda, unclamped eps).  Stops after EARLY_EXIT_PATIENCE consecutive
    orders without improvement on the incumbent.
    """
    best = math.inf
    best_lam = 2
    stale = 0
    for lo in range(2, lambda_max + 1, EARLY_EXIT_PATIENCE):
        block = range(lo, min(lo + EARLY_EXIT_PATIENCE, lambda_max + 1))
        for lam, eps in zip(block, eps_fn(block)):
            obj = T * float(eps) + dp_penalty(lam, delta)
            if obj < best:
                best, best_lam = obj, lam
                stale = 0
            else:
                stale += 1
                if stale >= EARLY_EXIT_PATIENCE:
                    return max(best, 0.0), best_lam, best
    return max(best, 0.0), best_lam, best


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
