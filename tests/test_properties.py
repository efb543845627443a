"""Property tests of the RDP bounds over random mechanisms and order lists."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shuffle_rdp import accountant
from shuffle_rdp.accountant import binomial_floor, convex_floor, dp_penalty, minimize_over_orders
from shuffle_rdp.bounds import (
    EPS0_MAX,
    SubsampledShuffleParams,
    rdp_lower,
    rdp_upper,
    rdp_upper_term_lines,
)
from shuffle_rdp.oracle import exact_rdp_2rr_subshuffle

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def mechanisms(
    draw, k_min=1, k_max=3000, eps0_min=0.0, eps0_max=EPS0_MAX, n_over_k=(1, 2, 10, 1000, 10**6)
):
    k = draw(st.integers(k_min, k_max))
    n = k * draw(st.sampled_from(n_over_k))
    eps0 = draw(
        st.one_of(st.floats(eps0_min, 10.0), st.floats(eps0_min, eps0_max), st.just(eps0_max))
    )
    return SubsampledShuffleParams(n=n, k=k, eps0=eps0)


orders = st.lists(st.integers(2, 300), min_size=1, max_size=6)


@SETTINGS
@given(p=mechanisms(k_min=2), lams=orders, extra=st.integers(2, 2048))
def test_block_values_equal_one_order_values(p, lams, extra):
    # Another order in the same call changes the block's width and
    # chunking, never a value.
    for bound in (rdp_upper, rdp_lower):
        singles = [bound(lam, p) for lam in lams]
        assert bound(lams, p).tolist() == singles
        assert bound(lams + [extra], p).tolist()[:-1] == singles


@SETTINGS
@given(p=mechanisms(k_min=2), lams=orders)
def test_lower_is_nonnegative_and_below_upper(p, lams):
    lower, upper = rdp_lower(lams, p), rdp_upper(lams, p)
    assert np.all(0.0 <= lower) and np.all(lower <= upper)


@SETTINGS
@given(p=mechanisms(k_max=1000), lams=orders)
def test_lower_equals_exact_2rr_oracle(p, lams):
    got = rdp_lower(lams, p)
    want = [exact_rdp_2rr_subshuffle(lam, p) for lam in lams]
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.filterwarnings("error")
@SETTINGS
@given(p=mechanisms(k_max=50), lams=orders)
def test_no_warning_up_to_eps0_max_and_at_k1(p, lams):
    lower = rdp_lower(lams, p)
    assert np.all(np.isfinite(lower))
    if p.k >= 2:
        assert np.all(np.isfinite(rdp_upper(lams, p)))
    else:
        with pytest.raises(ValueError):
            rdp_upper(lams, p)
    assert math.isfinite(rdp_lower(lams[0], SubsampledShuffleParams(n=p.n, k=1, eps0=p.eps0)))


@SETTINGS
@given(
    p=mechanisms(k_min=2),
    Ts=st.lists(st.integers(1, 10**6), min_size=2, max_size=4, unique=True).map(sorted),
    delta=st.sampled_from([1e-12, 1e-8, 1e-5]),
    lambda_max=st.integers(2, 512),
)
def test_converted_eps_is_nondecreasing_in_T(p, Ts, delta, lambda_max):
    for bound in (rdp_upper, rdp_lower):
        eps = [
            minimize_over_orders(lambda lam: bound(lam, p), T, delta, lambda_max)[0]
            for T in Ts
        ]
        assert eps == sorted(eps)


@SETTINGS
@given(
    p=mechanisms(k_min=2),
    n_over_k=st.lists(st.sampled_from([1, 2, 10, 1000, 10**6]), min_size=2, max_size=4, unique=True),
    T=st.integers(1, 10**6),
    delta=st.sampled_from([1e-12, 1e-8, 1e-5]),
    lambda_max=st.integers(2, 512),
)
def test_converted_eps_is_nondecreasing_in_gamma(p, n_over_k, T, delta, lambda_max):
    # At fixed k and eps0, gamma = k/n grows as n falls.
    mechs = [replace(p, n=p.k * r) for r in sorted(n_over_k, reverse=True)]
    for bound in (rdp_upper, rdp_lower):
        eps = [
            minimize_over_orders(lambda lam: bound(lam, q), T, delta, lambda_max)[0]
            for q in mechs
        ]
        assert eps == sorted(eps)


@SETTINGS
@given(p=mechanisms(k_min=2).map(lambda p: replace(p, eps0=0.0)), lams=orders)
def test_both_bounds_are_zero_at_eps0_zero(p, lams):
    for bound in (rdp_upper, rdp_lower):
        assert bound(lams, p).tolist() == [0.0] * len(lams)
        assert bound(lams[0], p) == 0.0


def full_scan(curve, T, delta):
    """(eps, argmin, unclamped eps) of the objective at every order of curve
    (orders 2, 3, ...): what minimize_over_orders must return."""
    objective = [float(T) * eps + dp_penalty(lam, delta) for lam, eps in enumerate(curve, 2)]
    best = float(np.fmin.reduce(objective))
    if not best < math.inf:
        return math.inf, None, math.inf
    return max(best, 0.0), objective.index(best) + 2, best


# Each bound with its floor for a mechanism; None is the search's default.
BOUNDS = {
    "upper": (rdp_upper, lambda p: functools.partial(binomial_floor, p)),
    "lower": (rdp_lower, lambda p: convex_floor),
    "inf": (lambda lam, p: np.full(len(lam), math.inf), lambda p: None),
}
SGD_BOX = SubsampledShuffleParams(n=1000, k=100, eps0=2.0)  # the sgd workload: eps near 14 at T = 25


@SETTINGS
@given(
    p=mechanisms(k_max=1000),
    Ts=st.lists(st.integers(1, 10**7) | st.sampled_from([1, 10**3, 10**5]), min_size=1, max_size=3, unique=True),
    delta=st.sampled_from([1e-12, 1e-8, 1e-5, 0.5]),
    lambda_max=st.sampled_from([2, 33, 34, 100, 512]),
)
@example(SubsampledShuffleParams(n=2, k=2, eps0=8.0), [10, 1000], 1e-8, 64)  # dips at orders <= 32
@example(SubsampledShuffleParams(n=10**4, k=1000, eps0=0.05), [1], 1e-8, 2048)  # argmin at the ceiling
@example(SubsampledShuffleParams(n=10**4, k=100, eps0=2.0), [1000], 1e-8, 2048)  # Upsilon dominates
@example(SubsampledShuffleParams(n=10**4, k=100, eps0=1.0), [10**5], 1e-8, 4096)
@example(SubsampledShuffleParams(n=5, k=1, eps0=2.0), [10, 10**4], 1e-8, 512)
@example(SubsampledShuffleParams(n=300, k=300, eps0=3.0), [10**4], 1e-8, 512)
@example(SubsampledShuffleParams(n=10**4, k=100, eps0=0.0), [10**4], 1e-8, 512)
@example(SGD_BOX, [25, 100], 1e-8, 2048)  # eps near 14: the rest of g grows with high-j terms
def test_search_equals_full_scan(p, Ts, delta, lambda_max):
    # For each bound, alone and for several round counts at once.
    for name, (bound, floor_of) in BOUNDS.items():
        if name == "upper" and p.k < 2:
            continue
        curve = bound(range(2, lambda_max + 1), p).tolist()
        want = [full_scan(curve, T, delta) for T in Ts]
        eps_fn = lambda lam: bound(lam, p)
        floor = floor_of(p)
        assert minimize_over_orders(eps_fn, Ts, delta, lambda_max, floor) == want
        assert minimize_over_orders(eps_fn, Ts[0], delta, lambda_max, floor) == want[0]
        assert minimize_over_orders(eps_fn, Ts[0], delta, lambda_max) == want[0]


@SETTINGS
@given(
    p=mechanisms(k_min=2, k_max=1000),
    extra=st.lists(st.integers(34, 512), max_size=8, unique=True),
    T=st.integers(1, 10**7),
    delta=st.sampled_from([1e-12, 1e-8, 0.5]),
)
def test_floors_lie_below_computed_g(p, extra, T, delta):
    # With orders 2..33 and ``extra`` read, every line that a floor yields
    # for a piece of a gap, cut as the search cuts it, lies below the
    # computed g at each order of the piece, and its floor on the objective
    # below the objective computed there.  The search checks the gaps right
    # of a read order a: up to the next read order, and for the floors
    # drawn from the left alone, up to the ceiling L.
    L = 512
    neg_log_delta = -math.log(delta)

    def pieces(start, stop):  # [c, _PIECE_RATIO c - 1], as the search cuts a gap
        while start <= stop:
            end = min(accountant._PIECE_RATIO * start - 1, stop)
            yield start, end
            start = end + 1

    for bound, floor, left_only in (
        (rdp_upper, functools.partial(binomial_floor, p), True),
        (rdp_lower, convex_floor, False),
        (rdp_upper, accountant._monotone_floor, True),
        (rdp_lower, accountant._monotone_floor, True),
    ):
        eps = bound(range(2, L + 1), p)
        g_all = eps * np.arange(1.0, L)
        objective = float(T) * eps + np.array([dp_penalty(lam, delta) for lam in range(2, L + 1)])
        lams = sorted(set(range(2, 34)) | set(extra))
        g = [math.nan] * (L + 1)
        for lam in lams:
            g[lam] = float(g_all[lam - 2])
        ends = [*lams, L + 1]
        for i, (a, b) in enumerate(zip(ends, ends[1:])):
            first, further = floor(g, lams, i)
            for stop in {b - 1, L} if left_only else {b - 1}:
                for lo, hi in pieces(a + 1, stop):
                    at = np.arange(lo, hi + 1)
                    for q, slope in [first(lo, hi), *further(lo, hi)]:
                        assert np.all(q + slope * at <= g_all[at - 2])
                        floor_obj = accountant._line_floor(lo, hi, q, slope, float(T), neg_log_delta)
                        assert floor_obj <= objective[at - 2].min()
    if p.eps0 > 0:  # the upper bound's term lines, past the log-space switch too
        g_all = rdp_upper(range(2, L + 1), p) * np.arange(1.0, L)
        for lo, hi in ((2, 2), (2, 40), (34, 512), (300, 400)):
            at = np.arange(lo, hi + 1)
            for q, slope in rdp_upper_term_lines(p, lo, hi):
                assert np.all(q + slope * at <= g_all[at - 2])
