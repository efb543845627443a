"""Tests for the approximate-DP baseline pipeline."""

import math

import pytest

from shuffle_rdp.accountant import Provenance
from shuffle_rdp.baselines import (
    ApproxDp,
    amplify_by_subsampling,
    baseline_total,
    blanket_condition_ok,
    clones_closed_form,
    clones_condition_ok,
    shuffle_amplify,
    strong_compose,
)
from shuffle_rdp.bounds import SubsampledShuffleParams

# Implemented-from-reference closed form, regression-pinned after a
# high-precision scalar verification at (eps0=2, n=1000, delta=1e-8).
CLONES_CLOSED_FORM_2_1000_1E8 = 1.0230682849716626
# Subsampling amplification at eps=1, gamma=0.01: ln(1 + 0.01 (e - 1)).
SUBSAMPLE_1_001 = 0.01703686323617655
# Strong composition at T=1e4, eps=0.02, slack=1e-9: the sqrt branch wins.
STRONG_1E4_002_1E9 = 14.875729493735976


def params(n, k, eps0):
    return SubsampledShuffleParams(n=n, k=k, eps0=eps0)


class TestConditions:
    def test_clones_scalar_cases(self):
        # ln(1e6 / (16 ln(2e8))) ~ 8.09 and ln(1e3 / (16 ln(2e8))) ~ 1.18.
        assert clones_condition_ok(3.0, 10**6, 1e-8) is True
        assert clones_condition_ok(3.0, 10**3, 1e-8) is False

    def test_blanket_scalar_cases(self):
        # (1/2) ln(1e6 / ln(1e8)) ~ 5.45 and (1/2) ln(1e2 / ln(1e8)) ~ 0.85.
        assert blanket_condition_ok(2.0, 10**6, 1e-8) is True
        assert blanket_condition_ok(3.0, 10**2, 1e-8) is False

    def test_blanket_zero_eps0(self):
        # eps0 = 0 passes whenever the right-hand side is nonnegative.
        assert blanket_condition_ok(0.0, 100, 1e-8) is True

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            clones_condition_ok(1.0, 0, 1e-8)
        with pytest.raises(ValueError):
            clones_condition_ok(1.0, 100, 1.0)
        with pytest.raises(ValueError):
            blanket_condition_ok(1.0, 100, 0.0)


class TestClonesClosedForm:
    def test_regression_pin(self):
        assert clones_closed_form(2.0, 1000, 1e-8) == pytest.approx(
            CLONES_CLOSED_FORM_2_1000_1E8, rel=1e-12
        )

    def test_zero_leakage(self):
        assert clones_closed_form(0.0, 1000, 1e-8) == 0.0


class TestShuffleAmplify:
    def test_zero_eps0(self):
        g = shuffle_amplify(0.0, 100, 1e-8)
        assert g == ApproxDp(eps=0.0, delta=1e-8)

    def test_degenerate_fallback(self):
        g = shuffle_amplify(3.0, 1000, 1e-8)
        assert g.degenerate is True
        assert g.eps == 3.0 and g.delta == 0.0

    def test_valid_branch_amplifies(self):
        g = shuffle_amplify(1.0, 10**5, 1e-8)
        assert not g.degenerate
        assert g.delta == 1e-8
        assert 0 < g.eps < 1.0

    def test_never_exceeds_eps0(self):
        for eps0 in (0.1, 0.5, 1.0, 2.0, 4.0):
            for k in (2, 50, 10**3, 10**5):
                for delta in (1e-10, 1e-6, 1e-2):
                    assert shuffle_amplify(eps0, k, delta).eps <= eps0

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            shuffle_amplify(1.0, 1, 1e-8)


class TestAmplifyBySubsampling:
    def test_gamma_one_identity(self):
        g = ApproxDp(eps=0.7, delta=1e-9)
        out = amplify_by_subsampling(g, 1.0)
        assert out.eps == pytest.approx(0.7, rel=1e-15)
        assert out.delta == 1e-9

    def test_zero_eps(self):
        assert amplify_by_subsampling(ApproxDp(0.0, 1e-9), 0.3).eps == 0.0

    def test_scalar_value(self):
        out = amplify_by_subsampling(ApproxDp(1.0, 0.0), 0.01)
        assert out.eps == pytest.approx(SUBSAMPLE_1_001, rel=1e-12)

    def test_never_hurts(self):
        for eps in (0.1, 1.0, 5.0):
            for gamma in (0.001, 0.3, 1.0):
                assert amplify_by_subsampling(ApproxDp(eps, 1e-9), gamma).eps <= eps

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            amplify_by_subsampling(ApproxDp(1.0, 0.0), 0.0)


class TestStrongCompose:
    def test_t1_basic(self):
        g = strong_compose(ApproxDp(0.3, 1e-9), 1, 1e-9)
        assert g.eps == 0.3
        assert g.delta == pytest.approx(2e-9, rel=1e-12)

    def test_zero_eps(self):
        assert strong_compose(ApproxDp(0.0, 1e-9), 10**4, 1e-9).eps == 0.0

    def test_both_branches_scalar(self):
        g = strong_compose(ApproxDp(0.02, 0.0), 10**4, 1e-9)
        assert g.eps == pytest.approx(STRONG_1E4_002_1E9, rel=1e-12)
        # Basic branch wins when the round count is tiny.
        g2 = strong_compose(ApproxDp(0.02, 0.0), 2, 1e-9)
        assert g2.eps == pytest.approx(0.04, rel=1e-12)

    def test_delta_accumulates(self):
        g = strong_compose(ApproxDp(0.1, 1e-10), 100, 1e-9)
        assert g.delta == pytest.approx(100 * 1e-10 + 1e-9, rel=1e-12)


class TestBaselineTotal:
    def test_zero_eps0(self):
        g = baseline_total(params(10**4, 100, 0.0), 10**3, 1e-8)
        assert g.eps == 0.0
        assert g.provenance is Provenance.BASELINE_CLONES_PIPELINE

    def test_t1_is_two_amplification_steps(self):
        p = params(10**6, 10**4, 0.5)
        delta = 1e-8
        g = baseline_total(p, 1, delta)
        step = shuffle_amplify(p.eps0, p.k, delta / 2.0)
        step = amplify_by_subsampling(step, p.gamma)
        assert g.eps == pytest.approx(step.eps, rel=1e-12)

    def test_nondecreasing_in_T_and_eps0(self):
        p = params(10**6, 1000, 2.0)
        eps_t = [baseline_total(p, T, 1e-8).eps for T in (1, 10, 10**3, 10**5)]
        assert all(a <= b + 1e-12 for a, b in zip(eps_t, eps_t[1:]))
        eps_e = [
            baseline_total(params(10**6, 1000, e0), 10**4, 1e-8).eps
            for e0 in (0.25, 0.5, 1.0, 2.0, 3.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(eps_e, eps_e[1:]))

    def test_degenerate_flag_propagates(self):
        g = baseline_total(params(10**6, 1000, 3.0), 10**5, 1e-8)
        assert g.degenerate is True

    def test_underflowing_round_share_names_the_inputs(self):
        # (delta / 2) / T underflows to 0: the error names the delta and T
        # that were passed, not the 0.0 share.
        with pytest.raises(ValueError, match=r"delta 1e-310 split over T=100000000000000"):
            baseline_total(params(10**6, 1000, 2.0), 10**14, 1e-310)

    def test_finite_where_reciprocal_of_delta_overflows(self):
        # ln(c/delta) is computed as ln c - ln delta: c/delta overflows here.
        for delta in (1e-310, 5e-320):
            assert clones_condition_ok(1.0, 10**6, delta) in (True, False)
            assert blanket_condition_ok(1.0, 10**6, delta) in (True, False)
            assert math.isfinite(clones_closed_form(1.0, 10**6, delta))
            assert math.isfinite(strong_compose(ApproxDp(0.01, 0.0), 100, delta).eps)
            assert math.isfinite(baseline_total(params(10**7, 10**4, 2.0), 100, delta).eps)
