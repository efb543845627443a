"""Composition over rounds and conversion from RDP curves to (eps, delta)-DP.

T identical rounds compose additively order-by-order; the conversion then
minimizes, over the tabulated integer orders, the standard penalty

    eps(lambda) + (ln(1/delta) + (lambda-1) ln(1-1/lambda) - ln lambda) / (lambda-1).

:func:`minimize_over_orders` finds that minimum over the orders
2..lambda_max of an RDP bound without computing every order, and returns
what a scan of every order would return, by proof.  Every bound here has
g(lambda) = (lambda - 1) eps(lambda) nondecreasing in lambda, so a read
order bounds g from below at every later order; the bounds' own shapes
give tighter floors (:func:`convex_floor` for the lower bound,
:func:`binomial_floor` for the upper).  A floor is a line below g over a
stretch of unread orders, which gives a floor on the objective there, and
a stretch whose floor lies above the best objective read so far cannot
hold the minimum.

:class:`AccountantConfig`, :func:`compose` and :func:`minimize_over_orders`
check their arguments with the package's shared checks and raise
ValueError with one wording: every round count T a positive integer,
0 < delta < 1, and lambda_max an integer in [2, MAX_ORDER].
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .bounds import (
    G_TOL,
    MAX_ORDER,
    CurveKind,
    RdpCurve,
    SubsampledShuffleParams,
    check_delta,
    check_int,
    rdp_upper,
    rdp_upper_term_lines,
)

# The search reads the orders 2.._FIRST_STOP - 1 first, then what
# _next_round picks from the gaps of unread orders, which it checks in
# pieces [c, _PIECE_RATIO c - 1].
_FIRST_STOP = 34
_SPAN_POINTS = 4
_BLOCK = 32
_PIECE_RATIO = 4

# Every floor on g is lowered by G_TOL (bounds) relative to the read g it
# is drawn from; a floor on the objective by _SLACK relative to its terms.
_SLACK = 1e-12

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
        check_delta(self.delta)


@dataclass(frozen=True)
class AccountantConfig:
    """Rounds, target delta, and the ceiling of the order search."""

    T: int
    delta: float
    lambda_max: int = DEFAULT_LAMBDA_MAX

    def __post_init__(self):
        check_int("T", self.T, 1)
        check_delta(self.delta)
        check_int("lambda_max", self.lambda_max, 2, MAX_ORDER)


def compose(curve: RdpCurve, T: int) -> RdpCurve:
    """Entry-wise T-fold composition: (lambda, eps) -> (lambda, T eps)."""
    check_int("T", T, 1)
    entries = tuple((lam, T * eps) for lam, eps in curve.entries)
    return RdpCurve(entries=entries, kind=curve.kind)


def dp_penalty(lam: int, delta: float) -> float:
    """Order-lambda conversion penalty added to eps(lambda)."""
    check_int("lam", lam, 2)
    check_delta(delta)
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


def rdp_to_dp(curve: RdpCurve, delta: float) -> DpGuarantee:
    """Convert a tabulated RDP curve to an (eps, delta)-DP guarantee: the
    minimum over every entry, clamped at zero, with the raw minimum kept."""
    if not curve.entries:
        raise ValueError("curve must contain at least one entry")
    # Entries ascend in order: the first of equal minima wins.
    raw, lam = min((eps + dp_penalty(lam, delta), lam) for lam, eps in curve.entries)
    return DpGuarantee(
        eps=max(raw, 0.0),
        delta=delta,
        provenance=_KIND_TO_PROVENANCE[curve.kind],
        argmin_lambda=lam,
        eps_unclamped=raw,
    )


def _line_floor(lo: int, hi: int, q: float, slope: float, T: float, neg_log_delta: float) -> float:
    """A floor on the least T f(lambda) / (lambda - 1) + dp_penalty(lambda)
    over the orders lo..hi, for the line f(lambda) = q + slope lambda.

    That objective is T slope + ln(1 - 1/lambda) + (c - ln lambda) /
    (lambda - 1) with c = T (q + slope) - ln delta.  Its derivative in
    lambda is (ln lambda - c) / (lambda - 1)^2: negative up to e^c and
    positive past it, so over real lambda in [lo, hi] it is least at e^c
    clipped to [lo, hi], a floor for the integers there.  It is lowered by
    _SLACK times the sum of its terms' sizes, for the rounding of this sum
    and of dp_penalty.  An overflow gives -inf, which closes nothing.
    """
    tq, ts = T * (q + slope), T * slope
    c = tq + neg_log_delta
    if not (-math.inf < c < math.inf and abs(ts) < math.inf):
        return -math.inf
    log_at = min(max(c, math.log(lo)), math.log(hi))
    at = math.exp(log_at)
    log_ratio = math.log1p(-1.0 / at)
    value = ts + (c - log_at) / (at - 1.0) + log_ratio
    return value - _SLACK * (abs(ts) + (abs(tq) + neg_log_delta + log_at) / (at - 1.0) - log_ratio)


def _settles(lo: int, hi: int, lines, incumbents, neg_log_delta: float) -> bool:
    """Whether one of ``lines``, (q, slope) pairs with q + slope lambda below
    g over the orders lo..hi, puts the floor on the objective there above
    the best objective read for every round count, (T, best) in
    ``incumbents``.  ``lines`` is consumed only up to the first that does."""
    for q, slope in lines:
        for T, best in incumbents:
            if not _line_floor(lo, hi, q, slope, T, neg_log_delta) > best:
                break
        else:
            return True
    return False


def _pieces(start: int, stop: int):
    """The orders start..stop, cut into pieces [c, _PIECE_RATIO c - 1]."""
    while start <= stop:
        end = min(_PIECE_RATIO * start - 1, stop)
        yield start, end
        start = end + 1


def _monotone_floor(lams, g, i, lo, hi):
    """g(lambda) >= g(a) past a = lams[i], as g is nondecreasing."""
    yield g[lams[i]] * (1.0 - G_TOL), 0.0


def convex_floor(lams, g, i, lo, hi):
    """Lines below a convex g over the gap right of a = lams[i], as
    :func:`bounds.rdp_lower`'s g is: it is the cumulant generating function
    lambda -> ln E_{mu0}[(1 + u)^lambda] of ln(1 + u) under mu0, so convex,
    and it is (lambda - 1) times a Renyi divergence, which is nondecreasing
    in its order (van Erven & Harremoes, "Renyi Divergence and
    Kullback-Leibler Divergence", IEEE Trans. Inf. Theory 2014).

    The secant through a and the read order a0 before it, extended past a,
    lies below g over the whole gap, as does the secant through the gap's
    right neighbour b and the read order b1 after it, extended before b.
    Each line is lowered by G_TOL (1 + t) times the larger g it is drawn
    through, t being the distance from its nearer point over the distance
    between its points: that covers the rounding of both points' g and of
    g where the line is applied.
    """
    a0, a = lams[i - 1], lams[i]
    ga = g[a]
    slope = (max(ga - g[a0], 0.0) - G_TOL * ga) / (a - a0)
    yield ga * (1.0 - G_TOL) - slope * a, slope
    if i + 2 < len(lams):
        b, b1 = lams[i + 1], lams[i + 2]
        gb, gb1 = g[b], g[b1]
        slope_b = (gb1 - gb + G_TOL * gb1) / (b1 - b)
        if slope_b < math.inf:
            yield gb - G_TOL * gb1 - slope_b * b, slope_b


def binomial_floor(params: SubsampledShuffleParams, lams, g, i, lo, hi):
    """Lines below :func:`bounds.rdp_upper`'s g over the orders lo..hi of
    the gap right of a = lams[i].

    That g is ln(1 + S), and S sums C(lambda, j) c_j over j >= 2 with
    c_j >= 0 (the sampling rate's j-th power times the ternary bound at
    alpha = j).  For lambda > a and
    2 <= j <= a, C(lambda, j) / C(a, j) is at least C(lambda, 2) / C(a, 2),
    and S(a) has no terms past j = a, so S(lambda) >= S(a) C(lambda, 2) /
    C(a, 2), which at a = 2 is C(lambda, 2) c_2 and only rises
    with a.  So g is at least ln(1 + x), x = K lambda (lambda - 1),
    K = S(a) / (a (a - 1)), S(a) = e^{g(a)} - 1.  On lo..hi, ln(1 + x) lies
    above its chord in x from x(lo) to x(hi), and x above its tangent in
    lambda at lo, which gives the first line.  Where x(lo) > 1, g grows
    with S's high-j terms, and :func:`bounds.rdp_upper_term_lines` gives
    two more, computed only if the first does not settle the orders.
    """
    a = lams[i]
    ga = g[a] * (1.0 - G_TOL)
    log_k = ga + math.log(-math.expm1(-ga) / (a * (a - 1.0))) if ga > 0 else -math.inf
    x_lo, x_hi = lo * (lo - 1.0), hi * (hi - 1.0)
    log_x = math.log(x_lo) + log_k
    q = _log1p_exp(log_x)
    rise = max(_log1p_exp(math.log(x_hi) + log_k) - q, 0.0)
    slope = rise / (x_hi - x_lo) * (2.0 * lo - 1.0) if hi > lo else 0.0
    yield q - slope * lo, slope
    if log_x > 0.0:
        yield from rdp_upper_term_lines(params, lo, hi)


def _log1p_exp(x: float) -> float:
    """ln(1 + e^x), or a hair less."""
    return x if x > 36.0 else math.log1p(math.exp(x))  # x <= ln(1 + e^x)


def _next_round(gaps, lams, g, incumbents, neg_log_delta: float, floor):
    """(orders to read, gaps to search next) after a round.

    ``gaps`` are the stretches of unread orders (start, stop) not yet
    settled, ascending; ``lams`` the orders read, ascending, and ``g``
    maps each to its (lambda - 1) eps; ``incumbents`` pairs each round
    count with the best objective read for it.  The orders to read are a
    range where they are one block (an empty range where there are none),
    else an ascending integer array.

    Each gap is checked in pieces (_pieces) against the lines ``floor``
    puts below g there.  A piece that one line settles (_settles) stays
    settled: floors only rise and the best only falls.  The open pieces
    are read:

    * With :func:`convex_floor`, lines come from both sides of a gap, so
      every piece is checked, and the stretch from the first open piece to
      the last is read whole if it has _SPAN_POINTS orders or fewer, else
      at _SPAN_POINTS evenly spaced orders; the unread orders between
      those form the next gaps.
    * Otherwise lines come from the left neighbour alone, and an order read
      tightens them only past it.  So the gap is read from the first open
      piece's start lo, max(_BLOCK, lo // 4) orders at a time, and the rest
      of it is the next gap.
    """
    convex = floor is convex_floor
    reads, after = [], []
    for start, stop in gaps:
        i = bisect.bisect_left(lams, start) - 1
        if not g[lams[i]] < math.inf:  # after an infinite g every g is infinite
            continue
        opened = []
        for lo, hi in _pieces(start, stop):
            if not _settles(lo, hi, floor(lams, g, i, lo, hi), incumbents, neg_log_delta):
                opened.append((lo, hi))
                if not convex:
                    break
        if not opened:
            continue
        lo, hi = opened[0][0], opened[-1][1]
        if not convex:
            hi = min(lo + max(_BLOCK, lo // 4) - 1, stop)
            after += [(hi + 1, stop)] if hi < stop else []
        if not convex or hi - lo < _SPAN_POINTS:
            reads.extend(range(lo, hi + 1))
            continue
        picked = sorted({lo + (hi - lo) * j // (_SPAN_POINTS + 1) for j in range(1, _SPAN_POINTS + 1)})
        reads.extend(picked)
        edges = [lo - 1, *picked, hi + 1]
        after.extend((x + 1, y - 1) for x, y in zip(edges, edges[1:]) if y - x > 1)
    if not reads:
        return range(0), after
    if reads[-1] - reads[0] == len(reads) - 1:  # a block: a range is cheaper to check
        return range(reads[0], reads[-1] + 1), after
    return np.array(reads, dtype=np.intp), after


def minimize_over_orders(
    eps_fn: Callable[[Sequence[int]], Sequence[float]],
    T,
    delta: float,
    lambda_max: int = DEFAULT_LAMBDA_MAX,
    floor: Optional[Callable[..., Iterable[tuple[float, float]]]] = None,
):
    """(clamped eps, argmin lambda, unclamped eps) of the minimum over lambda
    in {2..lambda_max} of T eps_fn(lambda) + dp_penalty(lambda, delta).  With
    no finite objective there is no argmin: (inf, None, inf).  The first of
    equal minima wins, and an order whose eps is NaN is no candidate (the
    rule of np.fmin).  ``T`` is one round count, or a sequence of them that
    share one search; the result is a tuple or a list of tuples to match.

    ``eps_fn`` maps orders (a range, or an ascending integer array) to their
    eps; the search asks for each order at most once.  The result is that
    of a scan of every order, by proof, given the contract: g(lambda) =
    (lambda - 1) eps(lambda) is nondecreasing in lambda, and ``floor``
    holds for g.  The search reads orders 2..33, then rounds of orders that
    _next_round picks, one call to ``eps_fn`` per round, until every unread
    order is settled: its floor on the objective lies above the best
    objective read for every round count, which only falls.

    ``floor(lams, g, i, lo, hi)`` yields lines (q, slope), q + slope lambda,
    below g over the orders lo..hi of the gap right of the read order
    a = lams[i], given the read orders ``lams`` (ascending) and their g by
    order.  With no floor the one line is g(a), as g is nondecreasing; the
    bounds' floors are :func:`convex_floor` (for :func:`bounds.rdp_lower`)
    and :func:`binomial_floor` (for :func:`rdp_upper`, with its params
    bound by ``functools.partial``).  With :func:`convex_floor` the search
    reads each gap from both sides, as its lines come from both.

    A line below g lies below the objective's eps term T g / (lambda - 1),
    and its least objective over a stretch of orders is found in closed
    form (_line_floor).  Computed g carry rounding errors of about 1e-13
    relative (the bounds' tests pin them to 1e-11 against 60-digit sums), so
    every line is lowered by G_TOL = 1e-9 times the g it is drawn from,
    times 1 + t for a secant extended t times the distance between its
    points, and every floor on the objective by _SLACK = 1e-12 times its
    terms.

    Raises ValueError, worded as :class:`AccountantConfig` words it, unless
    0 < delta < 1, ``lambda_max`` is an integer in [2, MAX_ORDER] and every
    round count is a positive integer.
    """
    check_delta(delta)
    check_int("lambda_max", lambda_max, 2, MAX_ORDER)
    many = not isinstance(T, (int, float)) and np.ndim(T) > 0  # np.ndim is slow on a number
    for t in T if many else (T,):
        check_int("T", t, 1)
    T_list = [float(t) for t in T] if many else [float(T)]
    Ts = np.array(T_list)
    neg_log_delta = -math.log(delta)
    floor = floor or _monotone_floor
    # The incumbent of each round count: the least objective read, and the
    # least order that reads it.
    best, argmin = [math.inf] * len(T_list), [None] * len(T_list)
    reads = range(2, min(_FIRST_STOP, lambda_max + 1))
    gaps = [(reads.stop, lambda_max)] if reads.stop <= lambda_max else []
    lams, g = [], {}
    while len(reads):
        block = isinstance(reads, range)
        at = slice(reads.start, reads.stop) if block else reads
        eps = np.asarray(eps_fn(reads), dtype=float)
        order_minus_one = _ORDER_MINUS_ONE[at]
        objective = np.multiply.outer(Ts, eps)
        # dp_penalty, bit for bit (see the tables)
        objective += ((neg_log_delta + _PENALTY_A[at]) - _PENALTY_B[at]) / order_minus_one
        orders = list(reads) if block else reads.tolist()
        # Orders ascend within a round: a row's first least entry has the
        # least order, and an earlier round's incumbent keeps a tie only
        # with a lesser order.
        for t, j in enumerate(objective.argmin(axis=1).tolist()):
            row = objective[t]
            if row[j] != row[j]:  # argmin stops at a NaN, which np.fmin would pass over
                j = int(np.argmin(np.where(row == row, row, math.inf)))
            value = float(row[j])
            if value < best[t] or value == best[t] < math.inf and orders[j] < argmin[t]:
                best[t], argmin[t] = value, orders[j]
        g.update(zip(orders, (eps * order_minus_one).tolist()))
        lams = lams + orders if not lams or orders[0] > lams[-1] else sorted(lams + orders)
        reads, gaps = _next_round(gaps, lams, g, list(zip(T_list, best)), neg_log_delta, floor)
    results = [
        (max(b, 0.0), lam, b) if b < math.inf else (math.inf, None, math.inf)
        for b, lam in zip(best, argmin)
    ]
    return results if many else results[0]


def total_privacy(
    params: SubsampledShuffleParams, cfg: AccountantConfig
) -> DpGuarantee:
    """(eps, delta)-DP of T composed subsampled-shuffle rounds, via the
    upper RDP bound minimized over integer orders."""
    eps, lam, raw = minimize_over_orders(
        lambda lam: rdp_upper(lam, params),
        cfg.T,
        cfg.delta,
        cfg.lambda_max,
        functools.partial(binomial_floor, params),
    )
    return DpGuarantee(
        eps=eps,
        delta=cfg.delta,
        provenance=Provenance.OURS_RDP_UPPER,
        argmin_lambda=lam,
        eps_unclamped=raw,
    )
