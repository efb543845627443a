"""Property tests of the RDP bounds over random mechanisms and order lists."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shuffle_rdp.accountant import minimize_over_orders
from shuffle_rdp.bounds import EPS0_MAX, SubsampledShuffleParams, rdp_lower, rdp_upper
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


# The oracle sums mu0 (e^{lam ln(1+x)} - 1), which cancels to about
# 1e-16 / (lam sd(x)) relative, so the comparison keeps sd(x) >= 1e-4.
@SETTINGS
@given(p=mechanisms(k_max=1000, eps0_min=0.05, eps0_max=20.0, n_over_k=(1, 2, 10)), lams=orders)
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
