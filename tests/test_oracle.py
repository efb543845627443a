"""Tests for the exact brute-force oracles."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from shuffle_rdp.bounds import SubsampledShuffleParams, rdp_lower, zeta_special
from shuffle_rdp.logspace import binom_log_pmf
from shuffle_rdp.oracle import (
    EXACT_2RR_MAX_K,
    FiniteDist,
    HIST_MAX_B,
    HIST_MAX_K,
    HistogramDist,
    em_divergence,
    exact_rdp_2rr_curve,
    exact_rdp_2rr_subshuffle,
    exact_renyi,
    exact_shuffle_dist,
    exact_ternary,
    max_log_ratio,
    random_ldp_family,
    random_ldp_triple,
    renyi_divergence,
    rr2_dists,
    special_triple,
    ternary_divergence,
    _rr2_ratio_minus_one,
)

# Closed-form two-point Renyi divergence at gamma=1, k=1, lambda=3, eps0=1:
# (1/(lambda-1)) ln(p^lam (1-p)^{1-lam} + (1-p)^lam p^{1-lam}), p = 1/(e+1).
TWO_POINT_RENYI_LAM3_EPS1 = 0.8467268304854476


def params(n, k, eps0):
    return SubsampledShuffleParams(n=n, k=k, eps0=eps0)


class TestFiniteDist:
    def test_validation(self):
        FiniteDist(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            FiniteDist(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            FiniteDist(np.array([-0.1, 1.1]))


class TestHistogramDist:
    def test_validation(self):
        HistogramDist(k=2, B=2, probs={(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})
        with pytest.raises(ValueError):
            HistogramDist(k=2, B=2, probs={(1, 0): 1.0})  # does not sum to k
        with pytest.raises(ValueError):
            HistogramDist(k=2, B=2, probs={(2, 0): 0.7})  # mass not 1


class TestRr2Dists:
    def test_eps0_zero_indistinguishable(self):
        mu0, mu1 = rr2_dists(6, 0.0)
        ref = np.exp(binom_log_pmf(6, 0.5))
        np.testing.assert_allclose(mu0.probs, ref, rtol=1e-12)
        np.testing.assert_allclose(mu1.probs, ref, rtol=1e-12)

    def test_single_client(self):
        eps0 = 1.3
        p = 1.0 / (math.exp(eps0) + 1.0)
        mu0, mu1 = rr2_dists(1, eps0)
        np.testing.assert_allclose(mu0.probs, [1 - p, p], rtol=1e-12)
        np.testing.assert_allclose(mu1.probs, [p, 1 - p], rtol=1e-12)

    def test_normalization(self):
        for k in (1, 7, 300):
            for eps0 in (0.0, 0.5, 3.0):
                mu0, mu1 = rr2_dists(k, eps0)
                assert math.fsum(mu0.probs) == pytest.approx(1.0, abs=1e-12)
                assert math.fsum(mu1.probs) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_identity_against_pmf_vectors(self):
        # The algebraic ratio (m/k) e^{eps0} + ((k-m)/k) e^{-eps0} must match
        # mu1/mu0 built from the independently-assembled pmf vectors.
        for k in (3, 40, 150):
            for eps0 in (0.5, 1.0, 2.0):
                mu0, mu1 = rr2_dists(k, eps0)
                ratio = 1.0 + _rr2_ratio_minus_one(k, eps0)
                np.testing.assert_allclose(
                    mu1.probs / mu0.probs, ratio, rtol=1e-11
                )


class TestExact2rr:
    def test_zero_at_eps0_zero(self):
        assert exact_rdp_2rr_subshuffle(4, params(100, 10, 0.0)) == 0.0

    def test_two_point_closed_form(self):
        # gamma = 1, k = 1 collapses to the randomized-response divergence.
        val = exact_rdp_2rr_subshuffle(3, params(1, 1, 1.0))
        assert val == pytest.approx(TWO_POINT_RENYI_LAM3_EPS1, rel=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            exact_rdp_2rr_subshuffle(2, params(10**6, EXACT_2RR_MAX_K + 1, 1.0))

    def test_curve_kind(self):
        c = exact_rdp_2rr_curve(params(100, 10, 1.0), [2, 3, 4])
        assert c.kind.value == "exact"
        assert [lam for lam, _ in c.entries] == [2, 3, 4]

    @pytest.mark.parametrize("eps0, lam", [(10.0, 128), (20.0, 64), (100.0, 8)])
    def test_finite_where_linear_sum_overflows(self, eps0, lam):
        # lambda ln(1 + x) passes 700 here, so the sum runs in log space;
        # the lower bound is exact for this instance.
        p = params(100, 10, eps0)
        val = exact_rdp_2rr_subshuffle(lam, p)
        assert math.isfinite(val)
        assert val == pytest.approx(rdp_lower(lam, p), rel=1e-9)

    @pytest.mark.parametrize("lam, n, k, eps0", [(2, 10**6, 1000, 2.0), (2, 1, 1, 3.3e-18)])
    def test_tiny_ratio_against_60_digit_sum(self, lam, n, k, eps0):
        # sd(x) is tiny at both points, where a sum of mu0 ((1+x)^lam - 1)
        # cancels: at the first it was 1.2e-9 off, at the second 0.0.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        e0, gamma = mpmath.mpf(eps0), mpmath.mpf(k) / n
        p = 1 / (mpmath.e**e0 + 1)
        s = mpmath.mpf(0)
        for m in range(k + 1):
            mu0 = mpmath.binomial(k, m) * p**m * (1 - p) ** (k - m)
            x = gamma * (mpmath.mpf(m) / k * mpmath.expm1(e0) + mpmath.mpf(k - m) / k * mpmath.expm1(-e0))
            s += mu0 * ((1 + x) ** lam - 1 - lam * x)
        want = float(mpmath.log1p(s) / (lam - 1))
        assert exact_rdp_2rr_subshuffle(lam, params(n, k, eps0)) == pytest.approx(want, rel=1e-13)

    def test_order_monotone(self):
        p = params(500, 50, 1.0)
        vals = [exact_rdp_2rr_subshuffle(lam, p) for lam in range(2, 17)]
        assert np.all(np.diff(vals) >= -1e-15)


class TestExactShuffleDist:
    def test_single_client(self):
        d = exact_shuffle_dist([np.array([0.2, 0.8])], B=2)
        assert d.probs[(1, 0)] == pytest.approx(0.2)
        assert d.probs[(0, 1)] == pytest.approx(0.8)

    def test_identical_clients_multinomial(self):
        # All clients identical => multinomial law with the shared vector.
        p = np.array([0.5, 0.3, 0.2])
        k = 5
        d = exact_shuffle_dist([p] * k, B=3)
        for h, prob in d.probs.items():
            log_mn = (
                gammaln(k + 1)
                - sum(gammaln(c + 1) for c in h)
                + sum(c * math.log(pj) for c, pj in zip(h, p))
            )
            assert prob == pytest.approx(math.exp(log_mn), rel=1e-10)

    def test_poisson_binomial_cross_check(self):
        # B = 2 reduces to a Poisson-binomial count; check against a direct
        # one-dimensional convolution oracle.
        rng = np.random.default_rng(5)
        ps = rng.uniform(0.1, 0.9, size=8)
        dists = [np.array([1 - p, p]) for p in ps]
        d = exact_shuffle_dist(dists, B=2)
        pb = np.array([1.0])
        for p in ps:
            pb = np.convolve(pb, np.array([1 - p, p]))
        for m, prob in enumerate(pb):
            assert d.probs.get((8 - m, m), 0.0) == pytest.approx(prob, rel=1e-10)

    def test_caps_enforced(self):
        p = np.full(2, 0.5)
        with pytest.raises(ValueError):
            exact_shuffle_dist([p] * (HIST_MAX_K + 1), B=2)
        q = np.full(HIST_MAX_B + 1, 1.0 / (HIST_MAX_B + 1))
        with pytest.raises(ValueError):
            exact_shuffle_dist([q], B=HIST_MAX_B + 1)

    def test_mass_sums_to_one(self):
        rng = np.random.default_rng(11)
        dists = [rng.dirichlet(np.ones(3)) for _ in range(6)]
        d = exact_shuffle_dist(dists, B=3)
        assert math.fsum(d.probs.values()) == pytest.approx(1.0, abs=1e-12)


class TestExactRenyi:
    def test_identical_is_zero(self):
        p = np.array([0.4, 0.6])
        d = exact_shuffle_dist([p, p], B=2)
        assert exact_renyi(d, d, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_order_monotone(self):
        rng = np.random.default_rng(3)
        a = exact_shuffle_dist([rng.dirichlet(np.ones(2)) for _ in range(4)], B=2)
        b = exact_shuffle_dist([rng.dirichlet(np.ones(2)) for _ in range(4)], B=2)
        vals = [exact_renyi(a, b, lam) for lam in (1.5, 2.0, 3.0, 4.0, 8.0)]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_support_violation_is_inf(self):
        p = exact_shuffle_dist([np.array([1.0, 0.0])], B=2)
        q = exact_shuffle_dist([np.array([0.0, 1.0])], B=2)
        assert exact_renyi(p, q, 2.0) == math.inf

    def test_cross_oracle_2rr_consistency(self):
        # Build M(D) and M(D') as explicit histogram laws over {0..k} ones
        # and compare the generic divergence with the dedicated 2RR oracle.
        # The differing client enters the cohort with probability gamma, so
        # M(D') = gamma mu1 + (1 - gamma) mu0.
        k, eps0, lam = 12, 1.0, 4
        prm = params(60, k, eps0)
        mu0, mu1 = rr2_dists(k, eps0)
        gamma = prm.gamma
        mix = gamma * mu1.probs + (1 - gamma) * mu0.probs
        as_hist = lambda v: HistogramDist(
            k=k, B=2, probs={(k - m, m): float(v[m]) for m in range(k + 1)}
        )
        generic = exact_renyi(as_hist(mix), as_hist(mu0.probs), lam)
        dedicated = exact_rdp_2rr_subshuffle(lam, prm)
        assert generic == pytest.approx(dedicated, rel=1e-10)


class TestExactTernary:
    def test_identical_is_zero(self):
        p = np.array([0.4, 0.6])
        d = exact_shuffle_dist([p, p], B=2)
        assert exact_ternary(d, d, d, 3.0) == 0.0

    def test_alpha1_total_variation_form(self):
        rng = np.random.default_rng(9)
        a, b, c = (rng.dirichlet(np.ones(4)) for _ in range(3))
        assert ternary_divergence(a, b, c, 1.0) == pytest.approx(
            float(np.abs(a - b).sum()), rel=1e-12
        )

    def test_support_violation_is_inf(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        r = np.array([1.0, 0.0])
        assert ternary_divergence(p, q, r, 2.0) == math.inf

    def test_special_instance_below_bound(self):
        # 2RR laws for inputs (0, 1, 1) on B = 2, m = 8 clients.
        eps0, m = 0.7, 8
        keep = math.exp(eps0) / (math.exp(eps0) + 1.0)
        p0 = np.array([keep, 1 - keep])  # randomizer output law on input 0
        p1 = np.array([1 - keep, keep])  # on input 1
        alt1, alt2, ref = special_triple(p0, p1, p1, m)
        for alpha in (2, 3, 4):
            assert exact_ternary(alt1, alt2, ref, alpha) <= zeta_special(alpha, m, eps0)


class TestRandomLdpFamily:
    def test_respects_ratio_bound(self):
        rng = np.random.default_rng(77)
        for eps0 in (0.4, 1.0, 2.5):
            fam = random_ldp_family(3, eps0, 5, rng)
            assert len(fam) == 5
            assert max_log_ratio(fam) <= eps0 + 1e-12

    def test_seeded_reproducibility(self):
        a = random_ldp_triple(3, 1.0, np.random.default_rng(123))
        b = random_ldp_triple(3, 1.0, np.random.default_rng(123))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestEmDivergence:
    def test_decreasing_in_m_spot(self):
        rng = np.random.default_rng(42)
        p, p1, p2 = random_ldp_triple(2, 1.5, rng)
        vals = [em_divergence(p, p1, p2, m, 2) for m in range(1, 9)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_renyi_divergence_vector_helper(self):
        # D_lambda(P || P) = 0 on plain vectors too.
        p = np.array([0.3, 0.7])
        assert renyi_divergence(p, p, 2.0) == pytest.approx(0.0, abs=1e-12)
