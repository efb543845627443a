"""Property tests of the RDP bounds over random mechanisms and order lists."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
