"""Composition over rounds and conversion from RDP curves to (eps, delta)-DP.

T identical rounds compose additively order-by-order; the conversion then
minimizes, over the tabulated integer orders, the standard penalty

    eps(lambda) + (ln(1/delta) + (lambda-1) ln(1-1/lambda) - ln lambda) / (lambda-1).

:func:`minimize_over_orders` finds that minimum over the orders
2..lambda_max of an RDP bound without computing every order, and returns
what a scan of every order would return, by proof.  Every bound here has
g(lambda) = (lambda - 1) eps(lambda) nondecreasing in lambda, so a read
order bounds g from below at every later order; the bounds' own shapes
(``bounds.GrowthFloor``) give tighter floors.  A floor on g over a
stretch of unread orders gives a floor on the objective there, and a
stretch whose floor lies above the best objective read so far cannot
hold the minimum.
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
    MAX_ORDER,
    RDP_UPPER_FLOOR,
    CurveKind,
    GrowthFloor,
    RdpCurve,
    SubsampledShuffleParams,
    rdp_upper,
    rdp_upper_term_lines,
)

# The search reads the orders 2.._FIRST_STOP - 1 first; then, per gap of
# unread orders, what _next_round picks: with a convex g, the stretch that
# may hold a minimum, whole if it has _SPAN_POINTS orders or fewer, else at
# _SPAN_POINTS evenly spaced orders; otherwise a block from the first order
# that may hold one, of _BLOCK orders or a quarter of that order if more.
_FIRST_STOP = 34
_SPAN_POINTS = 4
_BLOCK = 32

# Every floor on g is lowered by _G_TOL relative to the read g it is drawn
# from, which covers the rounding of a computed g (about 1e-13 relative);
# a floor on the objective is lowered by _SLACK relative to its terms.
_G_TOL = 1e-9
_SLACK = 1e-12

# A binomial floor cuts a gap into parts _PART_RATIO times longer each, and
# the rest of the gap past a part into pieces _REST_RATIO times longer each.
_PART_RATIO = 1.35
_REST_RATIO = 4

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


def _opens(lo: int, hi: int, q: float, slope: float, incumbents, neg_log_delta: float) -> bool:
    """Whether the floor on the objective over lo..hi that the line
    q + slope lambda below g gives is at or below the best objective read
    for some round count, (T, best) in ``incumbents``."""
    for T, best in incumbents:
        if _line_floor(lo, hi, q, slope, T, neg_log_delta) <= best:
            return True
    return False


def _closes(piece, incumbents, neg_log_delta: float) -> bool:
    """Whether one of the piece's lines below g, (q, slope) pairs or
    functions that give an iterable of them, settles the orders lo..hi of
    piece = (lo, hi, lines)."""
    lo, hi, lines = piece
    if lo > hi:
        return True
    for line in lines:
        for q, slope in line() if callable(line) else [line]:
            if not _opens(lo, hi, q, slope, incumbents, neg_log_delta):
                return True
    return False


def _monotone_parts(lams, g, i, start, stop, term_lines):
    """g >= g(a) over the whole gap, a = lams[i] its left neighbour."""
    return [((start, stop, [(g[lams[i]] * (1.0 - _G_TOL), 0.0)]), None)]


def _convex_parts(lams, g, i, start, stop, term_lines):
    """For a convex g, the secant through the gap's left neighbour a and the
    read order a0 before it, extended past a, lies below g, as does the
    secant through the right neighbour b and the read order b1 after it,
    extended before b.  The gap splits where they cross, and each part
    takes the higher one; without b1 the first covers the whole gap.  Each
    line is lowered by _G_TOL (1 + t) times the larger g it is drawn
    through, t being the distance from its nearer point over the distance
    between its points: that covers the rounding of both points' g and of
    g where the line is applied."""
    a0, a = lams[i - 1], lams[i]
    ga = g[a]
    slope = (max(ga - g[a0], 0.0) - _G_TOL * ga) / (a - a0)
    q = ga * (1.0 - _G_TOL) - slope * a
    if i + 2 < len(lams):
        b, b1 = lams[i + 1], lams[i + 2]
        gb, gb1 = g[b], g[b1]
        slope_b = (gb1 - gb + _G_TOL * gb1) / (b1 - b)
        if slope < slope_b < math.inf:
            q_b = gb - _G_TOL * gb1 - slope_b * b
            split = min(max(math.floor((q_b - q) / (slope_b - slope)), start - 1), stop)
            parts = [(start, split, [(q, slope)]), (split + 1, stop, [(q_b, slope_b)])]
            return [(part, None) for part in parts if part[0] <= part[1]]
    return [((start, stop, [(q, slope)]), None)]


def _binomial_parts(lams, g, i, start, stop, term_lines):
    """The gap's parts, each with the rest of the gap past it, cut into
    pieces _REST_RATIO times longer each: once every piece of the rest is
    settled, the gap's later parts are too.  The first part is empty, so
    its rest is the whole gap; the others grow _PART_RATIO times longer
    each.  a = lams[i] is the gap's left neighbour.

    For lambda >= a, a binomial g is at least Q(lambda) = ln(1 + x),
    x = K lambda (lambda - 1), K = S(a) / (a (a - 1)), S(a) = e^{g(a)} - 1
    (see GrowthFloor).  On the orders c..h, ln(1 + x) lies above its chord
    in x from x(c) to x(h), and x above its tangent in lambda at c, which
    gives a line.  Where x(c) > 1, ``term_lines(c, h)`` (if given) offers
    more lines, which grow with g's largest terms.
    """
    a = lams[i]
    ga = g[a] * (1.0 - _G_TOL)
    log_k = ga + math.log(-math.expm1(-ga) / (a * (a - 1.0))) if ga > 0 else -math.inf

    def lines(c, h):
        cc, hh = c * (c - 1.0), h * (h - 1.0)
        x_c = math.log(cc) + log_k
        q_c = _log1p_exp(x_c)
        rise = max(_log1p_exp(math.log(hh) + log_k) - q_c, 0.0)
        slope = rise / (hh - cc) * (2.0 * c - 1.0) if h > c else 0.0
        out = [(q_c - slope * c, slope)]
        if term_lines is not None and x_c > 0.0:
            out.append(lambda: term_lines(c, h))
        return out

    def rest(c):
        pieces = []
        while c <= stop:
            h = min(_REST_RATIO * c - 1, stop)
            pieces.append((c, h, lines(c, h)))
            c = h + 1
        return pieces

    yield (start, start - 1, []), lambda: rest(start)  # the whole gap first
    c = start
    while c <= stop:
        h = min(max(math.floor((c - 1) * _PART_RATIO), c), stop)
        yield (c, h, lines(c, h)), (lambda h=h: rest(h + 1)) if h < stop else None
        c = h + 1


def _log1p_exp(x: float) -> float:
    """ln(1 + e^x), or a hair less."""
    return x if x > 36.0 else math.log1p(math.exp(x))  # x <= ln(1 + e^x)


def _next_round(gaps, lams, g, incumbents, neg_log_delta: float, floor: GrowthFloor, term_lines, falling):
    """(orders to read, gaps to search next) after a round.

    ``gaps`` are the stretches of unread orders (start, stop) not yet
    settled, ascending; ``lams`` the orders read, ascending, and ``g``
    their (lambda - 1) eps by order; ``incumbents`` pairs each round count
    with the best objective read for it.  ``falling``: the last order read
    holds the best objective for every round count, so the order after it
    is read next with no floor worked out.

    Each gap splits into parts with lines below g over each (see the
    *_parts functions), so floors on the objective over each part.  A part
    where some floor lies above the best for every round count is settled:
    floors only rise and the best only falls.  The open parts are read:

    * With a convex g, floors come from both sides of a gap, so the stretch
      from the first to the last open part is read whole if it has
      _SPAN_POINTS orders or fewer, else at _SPAN_POINTS evenly spaced
      orders, and the unread orders between those form the next gaps.
    * Otherwise floors come from the left neighbour alone, and an order read
      tightens them only past it.  So the gap is read from its first open
      order lo on, max(_BLOCK, lo // 4) orders at a time, and the rest of
      it is the next gap.  A binomial part also bounds the rest of the
      gap: once that is settled, so are the gap's later parts.
    """
    convex = floor is GrowthFloor.CONVEX
    parts = {
        GrowthFloor.MONOTONE: _monotone_parts,
        GrowthFloor.CONVEX: _convex_parts,
        GrowthFloor.BINOMIAL: _binomial_parts,
    }[floor]
    reads, after = [], []
    for start, stop in gaps:
        i = bisect.bisect_left(lams, start) - 1
        if not g[lams[i]] < math.inf:  # after an infinite g every g is infinite
            continue
        opened = [(start, start)] if falling and not convex and start == lams[-1] + 1 else []
        for part, rest in [] if opened else parts(lams, g, i, start, stop, term_lines):
            if not _closes(part, incumbents, neg_log_delta):
                opened.append(part[:2])
                if not convex:
                    break
            elif rest is not None and all(_closes(piece, incumbents, neg_log_delta) for piece in rest()):
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
    if reads and reads[-1] - reads[0] == len(reads) - 1:  # a block: a range is cheaper to check
        return range(reads[0], reads[-1] + 1), after
    return np.array(reads, dtype=np.intp), after


def minimize_over_orders(
    eps_fn: Callable[[Sequence[int]], Sequence[float]],
    T,
    delta: float,
    lambda_max: int = DEFAULT_LAMBDA_MAX,
    floor: GrowthFloor = GrowthFloor.MONOTONE,
    term_lines: Optional[Callable[[int, int], Iterable[tuple[float, float]]]] = None,
):
    """(clamped eps, argmin lambda, unclamped eps) of the minimum over lambda
    in {2..lambda_max} of T eps_fn(lambda) + dp_penalty(lambda, delta).  With
    no finite objective there is no argmin: (inf, None, inf).  The first of
    equal minima wins.  ``T`` is one round count, or a sequence of them that
    share one search; the result is a tuple or a list of tuples to match.

    ``eps_fn`` maps orders (a range, or an ascending integer array) to their
    eps; the search asks for each order at most once.  The result is that
    of a scan of every order, by proof, given the contract: g(lambda) =
    (lambda - 1) eps(lambda) is nondecreasing in lambda, and ``floor``
    holds for g.  The search reads orders 2..33, then rounds of orders that
    _next_round picks, one call to ``eps_fn`` per round, until every unread
    order is settled: its floor on the objective lies above the best
    objective read for every round count, which only falls.

    The floors on g at an unread order lambda, from the read orders:

    * g(a) for a read order a < lambda, as g is nondecreasing;
    * for a convex g (``GrowthFloor.CONVEX``), the secant through two read
      orders on the same side of lambda, extended to it;
    * for a binomial g (``GrowthFloor.BINOMIAL``), ln(1 + S(a) C(lambda, 2) /
      C(a, 2)) with S(a) = e^{g(a)} - 1, for a read order a < lambda;
    * ``term_lines(lo, hi)``, if given, lines below g over the orders
      lo..hi (for :func:`rdp_upper`, :func:`bounds.rdp_upper_term_lines`).

    A floor on g lies below the objective's eps term T g / (lambda - 1),
    and its least objective over a stretch of orders is found in closed
    form (_line_floor).  Computed g carry rounding errors of about 1e-13
    relative (the bounds' tests pin them to 1e-11 against 60-digit sums), so
    every floor on g is lowered by _G_TOL = 1e-9 times the g it is drawn
    from, times 1 + t for a secant extended t times the distance between
    its points, and every floor on the objective by _SLACK = 1e-12 times
    its terms.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    neg_log_delta = -math.log(delta)
    Ts = np.atleast_1d(np.asarray(T, dtype=float))
    T_list, best = Ts.tolist(), np.full(Ts.size, math.inf)
    reads = range(2, min(_FIRST_STOP, lambda_max + 1))
    gaps = [(reads.stop, lambda_max)] if reads.stop <= lambda_max else []
    lams, g, chunks = [], [0.0] * (lambda_max + 1), []
    while len(reads):
        block = isinstance(reads, range)
        at, orders = (slice(reads.start, reads.stop), np.arange(reads.start, reads.stop)) if block else (reads, reads)
        eps = np.asarray(eps_fn(reads), dtype=float)
        order_minus_one = _ORDER_MINUS_ONE[at]
        objective = np.multiply.outer(Ts, eps)
        # dp_penalty, bit for bit (see the tables)
        objective += ((neg_log_delta + _PENALTY_A[at]) - _PENALTY_B[at]) / order_minus_one
        chunks.append((orders, objective))
        best = np.fmin(best, np.fmin.reduce(objective, axis=1))
        best_list, values = best.tolist(), (eps * order_minus_one).tolist()
        if block:
            g[reads.start:reads.stop] = values
            orders = list(reads)
        else:
            orders = orders.tolist()
            for lam, value in zip(orders, values):
                g[lam] = value
        ascending = not lams or orders[0] > lams[-1]
        # The objective still falls at the last order read, for every round count.
        falling = ascending and objective[:, -1].tolist() == best_list
        lams = lams + orders if ascending else sorted(lams + orders)
        incumbents = list(zip(T_list, best_list))
        reads, gaps = _next_round(gaps, lams, g, incumbents, neg_log_delta, floor, term_lines, falling)
    # The first of equal minima wins: each minimum's least order.
    results = []
    for t, b in enumerate(best_list):
        if not b < math.inf:
            results.append((math.inf, None, math.inf))
            continue
        hits = [objective[t] == b for _, objective in chunks]
        lam = min(int(order[np.argmax(hit)]) for (order, _), hit in zip(chunks, hits) if hit.any())
        results.append((max(b, 0.0), lam, b))
    return results if np.ndim(T) else results[0]


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
        RDP_UPPER_FLOOR,
        functools.partial(rdp_upper_term_lines, params),
    )
    return DpGuarantee(
        eps=eps,
        delta=cfg.delta,
        provenance=Provenance.OURS_RDP_UPPER,
        argmin_lambda=lam,
        eps_unclamped=raw,
    )
