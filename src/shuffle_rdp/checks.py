"""Named invariant suites shared by the test suite and the CLI.

Each check enumerates a fixed, seeded family of instances and reports the
worst slack it saw: slack is (lhs - rhs) for dominations that require
lhs <= rhs, so any positive slack beyond the suite's tolerance is a
violation.  All suites are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SubsampledShuffleParams, rdp_lower, rdp_upper, zeta_shuffle, zeta_special
from .oracle import (
    em_divergence,
    exact_rdp_2rr_subshuffle,
    exact_shuffle_dist,
    exact_ternary,
    random_ldp_family,
    random_ldp_triple,
    special_triple,
    ternary_divergence,
)

SANDWICH_EPS0 = (0.5, 1.0, 2.0, 3.0)
SANDWICH_K = (10, 100, 1000)
SANDWICH_LAMBDAS = tuple(range(2, 33))

EXACT2RR_EPS0 = (0.5, 1.0, 2.0)
EXACT2RR_K = (1, 2, 10, 50, 200)
EXACT2RR_LAMBDAS = (2, 3, 4, 8, 16)
EXACT2RR_TOL = 1e-9

TERNARY_ALPHAS = (2, 3, 4)
TERNARY_SEED = 20240817
TERNARY_TRIPLES = 200

EM_TOL = 1e-12
CONVEXITY_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_slack: float
    cases: int

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: cases={self.cases} worst_slack={self.worst_slack:.3e}"


def check_sandwich() -> CheckResult:
    """rdp_lower(lambda) <= rdp_upper(lambda) across the standard grid."""
    worst = -math.inf
    cases = 0
    for eps0 in SANDWICH_EPS0:
        for k in SANDWICH_K:
            params = SubsampledShuffleParams(n=10 * k, k=k, eps0=eps0)
            gap = rdp_lower(SANDWICH_LAMBDAS, params) - rdp_upper(SANDWICH_LAMBDAS, params)
            worst = max(worst, float(gap.max()))
            cases += gap.size
    return CheckResult("sandwich", worst <= 0.0, worst, cases)


def check_exact2rr() -> CheckResult:
    """The lower bound reproduces the exact 2RR oracle to 1e-9 relative."""
    worst = -math.inf
    cases = 0
    for eps0 in EXACT2RR_EPS0:
        for k in EXACT2RR_K:
            params = SubsampledShuffleParams(n=10 * k, k=k, eps0=eps0)
            ex = np.array([exact_rdp_2rr_subshuffle(lam, params) for lam in EXACT2RR_LAMBDAS])
            rel = np.abs(rdp_lower(EXACT2RR_LAMBDAS, params) - ex) / np.maximum(np.abs(ex), 1e-300)
            worst = max(worst, float(rel.max()) - EXACT2RR_TOL)
            cases += rel.size
    return CheckResult("exact2rr", worst <= 0.0, worst, cases)


def _ternary_instances(rng: np.random.Generator):
    """Seeded stream of (eps0, k, B, family) enumeration instances."""
    for _ in range(TERNARY_TRIPLES):
        eps0 = float(rng.uniform(0.3, 2.5))
        k = int(rng.integers(2, 11))
        B = int(rng.integers(2, 4))
        yield eps0, k, B, random_ldp_family(B, eps0, 5, rng)


def check_ternary() -> CheckResult:
    """Exhaustive small-instance domination of the ternary bounds.

    For arbitrary adjacent triples the shuffle-mechanism divergence must
    stay below zeta_shuffle's value; for all-identical ("special")
    datasets it must stay below zeta_special at the same size.
    """
    rng = np.random.default_rng(TERNARY_SEED)
    worst = -math.inf
    cases = 0
    for eps0, k, B, family in _ternary_instances(rng):
        p, p1, p2, q1, q2 = family
        # Arbitrary adjacent triple: k-1 shared clients, one differing.
        shared = [(q1, q2)[i % 2] for i in range(k - 1)]
        P = exact_shuffle_dist(shared + [p], B)
        Q = exact_shuffle_dist(shared + [p1], B)
        R = exact_shuffle_dist(shared + [p2], B)
        for alpha in TERNARY_ALPHAS:
            div = exact_ternary(P, Q, R, alpha)
            bound = zeta_shuffle(alpha, k, eps0).value
            worst = max(worst, div - bound)
            cases += 1
        # Special datasets, reference = the all-identical law.
        m = k
        alt1, alt2, ref = special_triple(p, p1, p2, m)
        for alpha in TERNARY_ALPHAS:
            div = exact_ternary(alt1, alt2, ref, alpha)
            bound = zeta_special(alpha, m, eps0)
            worst = max(worst, div - bound)
            cases += 1
    return CheckResult("ternary", worst <= 0.0, worst, cases)


def check_monotone(m_max: int = 8, triples: int = 12) -> CheckResult:
    """E_m is nonincreasing in m on special padded triples (slack 1e-12)."""
    rng = np.random.default_rng(TERNARY_SEED + 1)
    worst = -math.inf
    cases = 0
    for _ in range(triples):
        eps0 = float(rng.uniform(0.3, 2.0))
        B = int(rng.integers(2, 4))
        p, p1, p2 = random_ldp_triple(B, eps0, rng)
        for alpha in TERNARY_ALPHAS:
            prev = em_divergence(p, p1, p2, 1, alpha)
            for m in range(2, m_max + 1):
                cur = em_divergence(p, p1, p2, m, alpha)
                worst = max(worst, cur - prev - EM_TOL)
                prev = cur
                cases += 1
    return CheckResult("monotone", worst <= 0.0, worst, cases)


def check_convexity(n_pairs: int = 60, atoms: int = 20) -> CheckResult:
    """Joint convexity of the ternary divergence in (P, Q, R) (slack 1e-10)."""
    rng = np.random.default_rng(TERNARY_SEED + 2)
    worst = -math.inf
    cases = 0
    for _ in range(n_pairs):
        size = int(rng.integers(2, atoms + 1))
        p0, q0, r0 = (rng.dirichlet(np.ones(size)) for _ in range(3))
        p1, q1, r1 = (rng.dirichlet(np.ones(size)) for _ in range(3))
        for alpha in (1.0, 2.0, 3.0):
            d0 = ternary_divergence(p0, q0, r0, alpha)
            d1 = ternary_divergence(p1, q1, r1, alpha)
            for a in (0.25, 0.5, 0.75):
                mix = ternary_divergence(
                    a * p0 + (1 - a) * p1,
                    a * q0 + (1 - a) * q1,
                    a * r0 + (1 - a) * r1,
                    alpha,
                )
                worst = max(worst, mix - (a * d0 + (1 - a) * d1) - CONVEXITY_TOL)
                cases += 1
    return CheckResult("convexity", worst <= 0.0, worst, cases)


ALL_CHECKS = {
    "sandwich": check_sandwich,
    "exact2rr": check_exact2rr,
    "ternary": check_ternary,
    "convexity": check_convexity,
    "monotone": check_monotone,
}
