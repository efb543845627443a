"""Exact desk-scale computations the closed-form bounds are tested against.

Three oracles live here:

* the exact output law of the subsampled shuffle mechanism under binary
  randomized response (a pair of explicit distributions over the count of
  ones), and the exact Renyi divergence between them;
* the exact histogram law of a shuffler fed by arbitrary per-client
  discrete distributions, built by dynamic programming over clients;
* exact Renyi and ternary chi^alpha divergences between finite
  distributions.

Everything is brute force and capped at sizes where full enumeration is
instant; the caps are constants below.  Divergences report +inf on
support violations instead of raising, so domination properties can be
asserted uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .bounds import CurveKind, RdpCurve, SubsampledShuffleParams, check_eps0
from .bounds import _LOG_SUM_SWITCH, _rr2_ratio_minus_one
from .logspace import binom_log_pmf

#: Enumeration caps: the full invariant suite must run in well under a minute.
HIST_MAX_K = 12
HIST_MAX_B = 4
EXACT_2RR_MAX_K = 10_000

_PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FiniteDist:
    """A probability vector over an indexed finite support."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class HistogramDist:
    """A distribution over B-bin histograms that sum to k."""

    k: int
    B: int
    probs: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        total = 0.0
        for h, p in self.probs.items():
            if len(h) != self.B or sum(h) != self.k or any(c < 0 for c in h):
                raise ValueError(f"{h} is not a {self.B}-bin histogram of size {self.k}")
            if p < 0:
                raise ValueError("probabilities must be nonnegative")
            total += p
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")


def rr2_dists(k: int, eps0: float) -> tuple[FiniteDist, FiniteDist]:
    """Exact laws of the ones-count under binary randomized response.

    mu0 is the law when all k inputs are 0; mu1 when the last input is 1.
    With p = 1/(e^{eps0}+1):
      mu0(m) = C(k,m) p^m (1-p)^{k-m}
      mu1(m) = (1-p) C(k-1,m-1) p^{m-1} (1-p)^{k-m} + p C(k-1,m) p^m (1-p)^{k-m-1}
    """
    if k < 1 or k != int(k):
        raise ValueError(f"k must be a positive integer, got {k}")
    check_eps0(eps0)
    k = int(k)
    p = 1.0 / (math.exp(eps0) + 1.0)
    mu0 = np.exp(binom_log_pmf(k, p))
    # mu1 = Bin(k-1, p) + Bern(1-p): one honest-report client shifted in.
    tail = np.exp(binom_log_pmf(k - 1, p)) if k > 1 else np.array([1.0])
    mu1 = np.zeros(k + 1)
    mu1[1:] += (1.0 - p) * tail
    mu1[:-1] += p * tail
    return FiniteDist(mu0 / mu0.sum()), FiniteDist(mu1 / mu1.sum())


def exact_rdp_2rr_subshuffle(lam: int, params: SubsampledShuffleParams) -> float:
    """Exact order-lambda Renyi divergence of the subsampled shuffle under 2RR.

    D_lambda(M(D') || M(D)) with M(D) = mu0 and M(D') = gamma mu1 +
    (1-gamma) mu0 (the differing client joins the cohort with probability
    gamma), by direct summation over the ones-count m.  While every
    lambda ln(1 + x_m) stays below _LOG_SUM_SWITCH the sum runs in linear
    space, past that in log space, where the terms cannot overflow.
    """
    if lam != int(lam) or lam < 2:
        raise ValueError(f"order lambda must be an integer >= 2, got {lam}")
    if params.k > EXACT_2RR_MAX_K:
        raise ValueError(
            f"exact 2RR oracle is O(k) per order; k={params.k} exceeds {EXACT_2RR_MAX_K}"
        )
    lam = int(lam)
    eps0 = params.eps0
    if eps0 == 0.0:
        return 0.0
    k, gamma = params.k, params.gamma
    p = 1.0 / (math.exp(eps0) + 1.0)
    log_mu0 = binom_log_pmf(k, p)
    x = gamma * _rr2_ratio_minus_one(k, eps0)  # M(D')/M(D) - 1 >= -1
    log_ratio_pow = lam * np.log1p(x)
    if float(np.max(log_ratio_pow)) < _LOG_SUM_SWITCH:
        s = math.fsum(np.exp(log_mu0) * np.expm1(log_ratio_pow))
        return math.log1p(s) / (lam - 1)
    return float(logsumexp(log_mu0 + log_ratio_pow)) / (lam - 1)


def exact_rdp_2rr_curve(
    params: SubsampledShuffleParams, lambdas: Sequence[int]
) -> RdpCurve:
    """Tabulate the exact 2RR oracle over the given orders."""
    entries = tuple(
        (int(lam), exact_rdp_2rr_subshuffle(lam, params)) for lam in lambdas
    )
    return RdpCurve(entries=entries, kind=CurveKind.EXACT, params=params)


def exact_shuffle_dist(
    client_dists: Sequence[FiniteDist | np.ndarray | Sequence[float]], B: int
) -> HistogramDist:
    """Exact histogram law of a shuffler fed by independent client reports.

    Client i samples bin j with probability p_ij; the output is the bin
    histogram.  Computed by convolving one client at a time in histogram
    space, which reproduces the permutation-summed product form exactly.
    """
    dists = []
    for d in client_dists:
        vec = d.probs if isinstance(d, FiniteDist) else np.asarray(d, dtype=np.float64)
        if vec.shape != (B,):
            raise ValueError(f"every client distribution must have {B} bins")
        dists.append(FiniteDist(vec))
    k = len(dists)
    if k < 1:
        raise ValueError("need at least one client")
    if k > HIST_MAX_K or B > HIST_MAX_B:
        raise ValueError(
            f"enumeration capped at k <= {HIST_MAX_K}, B <= {HIST_MAX_B}; "
            f"got k={k}, B={B}"
        )
    table: dict[tuple[int, ...], float] = {tuple([0] * B): 1.0}
    for dist in dists:
        nxt: dict[tuple[int, ...], float] = {}
        for h, mass in table.items():
            for j in range(B):
                pj = float(dist.probs[j])
                if pj == 0.0:
                    continue
                hj = list(h)
                hj[j] += 1
                key = tuple(hj)
                nxt[key] = nxt.get(key, 0.0) + mass * pj
        table = nxt
    return HistogramDist(k=k, B=B, probs=table)


def _aligned(P: HistogramDist, Q: HistogramDist, *rest: HistogramDist):
    dists = (P, Q, *rest)
    if any(d.k != P.k or d.B != P.B for d in dists):
        raise ValueError("histogram distributions must share (k, B)")
    keys = sorted(set().union(*(d.probs.keys() for d in dists)))
    return [np.array([d.probs.get(h, 0.0) for h in keys]) for d in dists]


def renyi_divergence(p: np.ndarray, q: np.ndarray, lam: float) -> float:
    """(1/(lambda-1)) ln sum_h q (p/q)^lambda over aligned vectors.

    Summed in log space, so large orders cannot overflow the power terms.
    Returns +inf where p puts mass outside q's support.
    """
    if not lam > 1:
        raise ValueError(f"order must exceed 1, got {lam}")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if np.any((p > 0) & (q == 0)):
        return math.inf
    mask = p > 0
    log_terms = lam * np.log(p[mask]) + (1.0 - lam) * np.log(q[mask])
    peak = float(np.max(log_terms))
    total = peak + math.log(math.fsum(np.exp(log_terms - peak)))
    return total / (lam - 1.0)


def ternary_divergence(
    p: np.ndarray, q: np.ndarray, r: np.ndarray, alpha: float
) -> float:
    """sum_h r |(p - q)/r|^alpha over aligned vectors.

    At alpha = 1 this collapses to sum |p - q| regardless of r; for
    alpha > 1 it is +inf where p and q disagree outside r's support.
    """
    if not alpha >= 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    diff = np.abs(p - q)
    if alpha == 1.0:
        return math.fsum(diff)
    if np.any((diff > 0) & (r == 0)):
        return math.inf
    mask = diff > 0
    return math.fsum(diff[mask] ** alpha * r[mask] ** (1.0 - alpha))


def exact_renyi(P: HistogramDist, Q: HistogramDist, lam: float) -> float:
    """Exact Renyi divergence D_lambda(P || Q) between histogram laws."""
    pv, qv = _aligned(P, Q)
    return renyi_divergence(pv, qv, lam)


def exact_ternary(
    P: HistogramDist, Q: HistogramDist, R: HistogramDist, alpha: float
) -> float:
    """Exact ternary chi^alpha divergence E_R[|(P - Q)/R|^alpha]."""
    pv, qv, rv = _aligned(P, Q, R)
    return ternary_divergence(pv, qv, rv, alpha)


def max_log_ratio(dists: Sequence[np.ndarray]) -> float:
    """Largest |ln p_j / p'_j| over all pairs of distributions and bins."""
    logs = [np.log(np.asarray(d, dtype=np.float64)) for d in dists]
    worst = 0.0
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            worst = max(worst, float(np.max(np.abs(logs[i] - logs[j]))))
    return worst


def random_ldp_family(
    B: int, eps0: float, size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Output distributions of a random eps0-LDP randomizer on `size` inputs.

    Draws a base distribution and `size` raw distributions uniformly from
    the simplex, then mixes the raws toward the base until every pairwise
    bin ratio sits within e^{+-eps0}.  The mixing weight walks a fixed
    grid, so results are reproducible from the generator state.
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be positive to admit distinct outputs")
    base = rng.dirichlet(np.ones(B))
    raw = [rng.dirichlet(np.ones(B)) for _ in range(size)]
    for t in np.linspace(0.0, 1.0, 201):
        mixed = [(1.0 - t) * r + t * base for r in raw]
        if max_log_ratio(mixed) <= eps0:
            return mixed
    return [base.copy() for _ in range(size)]


def random_ldp_triple(
    B: int, eps0: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three output distributions of a random eps0-LDP randomizer."""
    p, p1, p2 = random_ldp_family(B, eps0, 3, rng)
    return p, p1, p2


def special_triple(
    p: np.ndarray, p1: np.ndarray, p2: np.ndarray, m: int
) -> tuple[HistogramDist, HistogramDist, HistogramDist]:
    """Shuffle laws for an all-identical dataset and its two one-off variants.

    Returns (F(D'_m), F(D''_m), F(D_m)) where D_m repeats the input with
    law p m times and D'_m / D''_m replace the last client's law by p1 / p2.
    """
    B = len(p)
    ref = exact_shuffle_dist([p] * m, B)
    alt1 = exact_shuffle_dist([p] * (m - 1) + [p1], B) if m > 1 else exact_shuffle_dist([p1], B)
    alt2 = exact_shuffle_dist([p] * (m - 1) + [p2], B) if m > 1 else exact_shuffle_dist([p2], B)
    return alt1, alt2, ref


def em_divergence(
    p: np.ndarray, p1: np.ndarray, p2: np.ndarray, m: int, alpha: float
) -> float:
    """Ternary divergence of the m-padded triple used in the tail analysis.

    E_m = E_R[|(P - Q)/R|^alpha] with P, Q, R the shuffle laws of m copies
    of the reference law p2 joined by one client with law p, p1, and p2
    respectively (so R has m+1 identical clients).  In the tail analysis
    the pad count m is binomially distributed with success probability
    e^{-eps0} (every eps0-LDP output law contains that share of the
    reference law), and the bound needs E_m to shrink as the pad grows;
    that monotonicity is what the check suite asserts on this function.
    """
    B = len(p)
    P = exact_shuffle_dist([p2] * m + [p], B)
    Q = exact_shuffle_dist([p2] * m + [p1], B)
    R = exact_shuffle_dist([p2] * (m + 1), B)
    return exact_ternary(P, Q, R, alpha)
