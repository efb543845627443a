"""The comparison pipeline: approximate-DP shuffle amplification, then
subsampling amplification, then strong composition.

The shuffle step uses the closed-form amplification bound for generic
local randomizers ("clones" analysis); it is only valid when the local
parameter clears a cohort-size condition, and falls back to the raw
(eps0, 0) guarantee otherwise.  Both validity conditions quoted in the
comparison discussion are exposed as predicates.

The delta budget is split half to the per-round shuffle steps (that half
further divided by T) and half to the composition slack; this split is a
fixed policy choice of this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .accountant import DpGuarantee, Provenance
from .bounds import SubsampledShuffleParams, check_delta, check_eps0, check_int


@dataclass(frozen=True)
class ApproxDp:
    """A bare (eps, delta) pair flowing through the pipeline.

    ``degenerate`` marks the fallback where shuffle amplification was not
    applicable and eps is the raw local parameter with delta = 0.
    """

    eps: float
    delta: float
    degenerate: bool = False

    def __post_init__(self):
        if not self.eps >= 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


def clones_condition_ok(eps0: float, n_eff: int, delta: float) -> bool:
    """eps0 <= ln(n_eff / (16 ln(2/delta))) -- validity of the clones bound."""
    check_int("n_eff", n_eff, 1)
    check_delta(delta)
    return eps0 <= math.log(n_eff / (16.0 * (math.log(2.0) - math.log(delta))))


def blanket_condition_ok(eps0: float, n_eff: int, delta: float) -> bool:
    """eps0 <= (1/2) ln(n_eff / ln(1/delta)) -- validity of the blanket bound."""
    check_int("n_eff", n_eff, 1)
    check_delta(delta)
    return eps0 <= 0.5 * math.log(n_eff / -math.log(delta))


def clones_closed_form(eps0: float, n: int, delta: float) -> float:
    """Closed-form shuffle-amplified eps for n reports from an eps0-LDP
    randomizer:

        ln(1 + (e^{eps0}-1) (4 sqrt(2 ln(4/delta) / ((e^{eps0}+1) n)) + 4/n))

    Callers must gate this by clones_condition_ok; see shuffle_amplify.
    """
    check_int("n", n, 1)
    check_delta(delta)
    bracket = 4.0 * math.sqrt(
        2.0 * (math.log(4.0) - math.log(delta)) / ((math.exp(eps0) + 1.0) * n)
    ) + 4.0 / n
    return math.log1p(math.expm1(eps0) * bracket)


def shuffle_amplify(eps0: float, k: int, delta: float) -> ApproxDp:
    """Per-round guarantee of shuffling k eps0-LDP reports.

    Returns the closed-form amplified (eps, delta) when the validity
    condition holds (clamped at eps0, since amplification cannot hurt) and
    the degenerate (eps0, 0) otherwise.
    """
    check_int("k", k, 2)
    check_eps0(eps0)
    check_delta(delta)
    if eps0 == 0.0:
        return ApproxDp(eps=0.0, delta=delta)
    if clones_condition_ok(eps0, k, delta):
        return ApproxDp(eps=min(clones_closed_form(eps0, k, delta), eps0), delta=delta)
    return ApproxDp(eps=eps0, delta=0.0, degenerate=True)


def amplify_by_subsampling(g: ApproxDp, gamma: float) -> ApproxDp:
    """(eps, delta) -> (ln(1 + gamma (e^eps - 1)), gamma delta)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return ApproxDp(
        eps=math.log1p(gamma * math.expm1(g.eps)),
        delta=gamma * g.delta,
        degenerate=g.degenerate,
    )


def strong_compose(g: ApproxDp, T: int, delta_slack: float) -> ApproxDp:
    """T-fold homogeneous strong composition of an (eps, delta) mechanism.

    eps_total = min(T eps, eps sqrt(2 T ln(1/delta_slack))
                           + T eps (e^eps - 1)/(e^eps + 1)),
    delta_total = T delta + delta_slack.  T = 1 returns the dominating
    basic bound (the sqrt form is not a valid single-round bound).
    """
    check_int("T", T, 1)
    check_delta(delta_slack, "delta_slack")
    eps = g.eps
    delta_total = T * g.delta + delta_slack
    if T == 1:
        return ApproxDp(eps=eps, delta=delta_total, degenerate=g.degenerate)
    advanced = eps * math.sqrt(2.0 * T * -math.log(delta_slack)) + (
        T * eps * math.expm1(eps) / (math.exp(eps) + 1.0)
    )
    return ApproxDp(
        eps=min(T * eps, advanced), delta=delta_total, degenerate=g.degenerate
    )


def baseline_total(params: SubsampledShuffleParams, T: int, delta: float) -> DpGuarantee:
    """Full baseline pipeline over T rounds at overall budget delta.

    Chains shuffle_amplify (per-round delta = (delta / 2) / T) through
    amplify_by_subsampling and strong_compose (slack delta / 2).  The
    degenerate fallback still flows through the two downstream steps; the
    flag on the result records that the shuffle step was not amplified.
    """
    check_int("T", T, 1)
    check_delta(delta)
    share = delta / 2.0 / T
    if share == 0.0:
        raise ValueError(
            f"delta {delta!r} split over T={T} rounds gives each shuffle round a share "
            f"(delta/2)/T that underflows to 0; use a larger delta or fewer rounds"
        )
    g = shuffle_amplify(params.eps0, params.k, share)
    g = amplify_by_subsampling(g, params.gamma)
    g = strong_compose(g, T, delta / 2.0)
    return DpGuarantee(
        eps=g.eps,
        delta=g.delta,
        provenance=Provenance.BASELINE_CLONES_PIPELINE,
        degenerate=g.degenerate,
    )
