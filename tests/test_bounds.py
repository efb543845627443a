"""Tests for the closed-form RDP bounds and ternary divergence bounds."""

import math

import numpy as np
import pytest

from shuffle_rdp.accountant import AccountantConfig, total_privacy
from shuffle_rdp.bounds import (
    EPS0_MAX,
    CurveKind,
    RdpCurve,
    SubsampledShuffleParams,
    kbar,
    rdp_lower,
    rdp_lower_curve,
    rdp_upper,
    rdp_upper_curve,
    zeta_shuffle,
    zeta_special,
)

# Independent high-precision scalar evaluations, frozen as constants.
ZETA_SPECIAL_2_100_1 = 0.043446450785219505  # 4 (e-1)^2 / (100 e)
ZETA_SHUFFLE_2_1000_2 = 0.32496660634823055  # kbar = 68 branch + damped tail
RDP_UPPER_LAM2_EPS1_K100_N1E4 = 2.8689255594790832e-05


def params(n, k, eps0):
    return SubsampledShuffleParams(n=n, k=k, eps0=eps0)


class TestParams:
    def test_gamma(self):
        assert params(1000, 10, 1.0).gamma == pytest.approx(0.01)
        assert params(5, 5, 0.0).gamma == 1.0

    @pytest.mark.parametrize(
        "n,k,eps0",
        [(10, 11, 1.0), (10, 0, 1.0), (10, 5, -0.1), (10, 5, math.inf), (10, 5, math.nan)],
    )
    def test_invalid(self, n, k, eps0):
        with pytest.raises(ValueError):
            params(n, k, eps0)

    def test_eps0_range_ends_where_exp_overflows(self):
        # e^EPS0_MAX is the largest finite double; every bound stays finite there.
        assert math.isfinite(math.exp(EPS0_MAX))
        p = params(10**6, 1000, EPS0_MAX)
        for lam in (2, 64):
            assert 0 <= rdp_lower(lam, p) <= rdp_upper(lam, p) < math.inf
        g = total_privacy(p, AccountantConfig(T=100, delta=1e-8, lambda_max=64))
        assert math.isfinite(g.eps)
        for eps0 in (EPS0_MAX * (1 + 1e-15), 710.0, 800.0):
            with pytest.raises(ValueError):
                params(10**6, 1000, eps0)


class TestRdpCurveType:
    def test_valid(self):
        c = RdpCurve(entries=((2, 0.1), (3, 0.2)), kind=CurveKind.UPPER_BOUND)
        assert c.lambdas() == [2, 3]
        assert c.eps_values() == [0.1, 0.2]

    @pytest.mark.parametrize(
        "entries",
        [((1, 0.1),), ((3, 0.1), (2, 0.2)), ((2, 0.1), (2, 0.2)), ((2, -0.1),), ((2, math.inf),)],
    )
    def test_invalid(self, entries):
        with pytest.raises(ValueError):
            RdpCurve(entries=entries, kind=CurveKind.UPPER_BOUND)


class TestKbar:
    def test_frozen_values(self):
        assert kbar(1000, 2.0) == 68  # floor(999 / (2 e^2)) + 1
        assert kbar(100, 1.0) == 19  # floor(99 / (2 e)) + 1
        assert kbar(2, 5.0) == 1


class TestZetaSpecial:
    def test_zero_at_eps0_zero(self):
        for alpha in (2, 3, 7):
            assert zeta_special(alpha, 50, 0.0) == 0.0

    def test_frozen_alpha2(self):
        assert zeta_special(2, 100, 1.0) == pytest.approx(ZETA_SPECIAL_2_100_1, rel=1e-12)

    def test_direct_formula_alpha_gt2(self):
        # Independent non-log evaluation of the printed closed form.
        for alpha in (3, 4, 6):
            for m in (1, 13, 400):
                for eps0 in (0.25, 1.0, 2.0):
                    direct = (
                        alpha
                        * math.gamma(alpha / 2)
                        * (2 * (math.exp(2 * eps0) - 1) ** 2 / (m * math.exp(2 * eps0)))
                        ** (alpha / 2)
                    )
                    assert zeta_special(alpha, m, eps0) == pytest.approx(direct, rel=1e-12)

    def test_dominates_exact_divergence_b2_m50(self):
        # Exact-oracle check beyond the histogram enumeration caps: with two
        # output symbols the all-identical-plus-one laws are convolutions of
        # Bernoulli vectors, so an independent 1-D convolution oracle covers
        # m = 50.  The special-case bound must dominate the exact ternary
        # divergence for any eps0-respecting randomizer triple.
        from shuffle_rdp.oracle import random_ldp_triple, ternary_divergence

        m, eps0 = 50, 0.5
        rng = np.random.default_rng(19)
        p, p1, p2 = random_ldp_triple(2, eps0, rng)

        def law(dists):
            out = np.array([1.0])
            for d in dists:
                out = np.convolve(out, np.array([d[0], d[1]]))
            return out

        ref = law([p] * m)
        alt1 = law([p] * (m - 1) + [p1])
        alt2 = law([p] * (m - 1) + [p2])
        for alpha in (2, 3, 4):
            exact = ternary_divergence(alt1, alt2, ref, alpha)
            assert exact <= zeta_special(alpha, m, eps0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zeta_special(1, 10, 1.0)
        with pytest.raises(ValueError):
            zeta_special(2, 0, 1.0)
        with pytest.raises(ValueError):
            zeta_special(2.5, 10, 1.0)

    @pytest.mark.parametrize("alpha", [300, 1000])
    def test_infinite_past_float_range(self, alpha):
        # The bound leaves float range; +inf is still a valid upper bound.
        assert zeta_special(alpha, 1, 2.0) == math.inf


class TestZetaShuffle:
    def test_zero_at_eps0_zero(self):
        for alpha in (2, 3, 8):
            for k in (2, 100, 99999):
                assert zeta_shuffle(alpha, k, 0.0).value == 0.0

    def test_frozen_alpha2(self):
        zb = zeta_shuffle(2, 1000, 2.0)
        assert zb.alpha == 2
        assert zb.value == pytest.approx(ZETA_SHUFFLE_2_1000_2, rel=1e-12)

    def test_dominates_special_at_kbar(self):
        # The tail summand is nonnegative, so the shuffle bound sits above
        # the special-case bound evaluated at the effective cohort size.
        for alpha in (2, 3, 5):
            for k in (2, 10, 1000):
                for eps0 in (0.5, 1.0, 3.0):
                    assert (
                        zeta_shuffle(alpha, k, eps0).value
                        >= zeta_special(alpha, kbar(k, eps0), eps0)
                    )

    def test_monotone_nonincreasing_in_k(self):
        for eps0 in (0.5, 1.0, 2.0, 3.0):
            for alpha in (2, 3, 5):
                vals = [zeta_shuffle(alpha, k, eps0).value for k in range(2, 10_001)]
                assert np.all(np.diff(vals) <= 1e-18)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zeta_shuffle(2, 1, 1.0)
        with pytest.raises(ValueError):
            zeta_shuffle(1, 10, 1.0)

    @pytest.mark.parametrize("alpha", [300, 1000])
    def test_infinite_past_float_range(self, alpha):
        assert zeta_shuffle(alpha, 2, 2.0).value == math.inf


class TestRdpUpper:
    def test_zero_at_eps0_zero(self):
        for lam in (2, 5, 64):
            for k, n in ((2, 10), (100, 10**4)):
                assert rdp_upper(lam, params(n, k, 0.0)) == 0.0

    def test_frozen_lambda2(self):
        val = rdp_upper(2, params(10**4, 100, 1.0))
        assert val == pytest.approx(RDP_UPPER_LAM2_EPS1_K100_N1E4, rel=1e-11)

    def test_direct_formula_small_lambda(self):
        # Independent non-log evaluation at lambda = 4.
        lam, eps0, k, n = 4, 0.8, 50, 5000
        gamma = k / n
        kb = kbar(k, eps0)
        s = 4 * math.comb(lam, 2) * gamma**2 * (math.exp(eps0) - 1) ** 2 / (
            kb * math.exp(eps0)
        )
        for j in range(3, lam + 1):
            s += (
                math.comb(lam, j)
                * gamma**j
                * j
                * math.gamma(j / 2)
                * (2 * (math.exp(2 * eps0) - 1) ** 2 / (kb * math.exp(2 * eps0)))
                ** (j / 2)
            )
        a = gamma * (math.exp(2 * eps0) - 1) / math.exp(eps0)
        s += ((1 + a) ** lam - 1 - lam * a) * math.exp(-(k - 1) / (8 * math.exp(eps0)))
        direct = math.log1p(s) / (lam - 1)
        assert rdp_upper(lam, params(n, k, eps0)) == pytest.approx(direct, rel=1e-10)

    def test_tiny_eps0(self):
        # Below eps0 ~ 1e-16, e^{-2 eps0} rounds to 1; ln(e^eps0 - e^-eps0) must not fail.
        p = params(10**4, 100, 1e-20)
        assert 0 < rdp_lower(2, p) <= rdp_upper(2, p) < 1e-40
        assert 0 < zeta_shuffle(3, 1000, 1e-20).value < 1e-40

    def test_no_overflow_at_large_order(self):
        # lambda = 4096 with a hot randomizer: the Upsilon factor
        # (1 + A)^lambda overflows float range but the bound must not.
        val = rdp_upper(4096, params(10**6, 1000, 3.0))
        assert math.isfinite(val) and val > 0

    def test_domain_errors(self):
        p = params(100, 10, 1.0)
        for bad in (1, 0, 2.5):
            with pytest.raises(ValueError):
                rdp_upper(bad, p)
        with pytest.raises(ValueError):
            rdp_upper(2, params(100, 1, 1.0))  # premise needs k >= 2

    def test_nondecreasing_in_eps0(self):
        grid = np.linspace(0.0, 4.0, 33)
        for lam in (2, 8, 32):
            vals = [rdp_upper(lam, params(10**4, 100, e)) for e in grid]
            assert np.all(np.diff(vals) >= -1e-15)


class TestRdpLower:
    def test_zero_at_eps0_zero(self):
        for lam in (2, 5, 64):
            assert rdp_lower(lam, params(10**4, 100, 0.0)) == 0.0

    def test_lambda2_closed_form(self):
        # At lambda = 2 the j >= 3 sum is empty:
        # eps = ln(1 + gamma^2 (e^{eps0}-1)^2 / (k e^{eps0})).
        for eps0 in (0.5, 1.0, 2.0):
            for k, n in ((10, 100), (100, 10**4)):
                gamma = k / n
                direct = math.log1p(
                    gamma**2 * (math.exp(eps0) - 1) ** 2 / (k * math.exp(eps0))
                )
                assert rdp_lower(2, params(n, k, eps0)) == pytest.approx(direct, rel=1e-12)

    def test_k1_accepted(self):
        # The closed form is well defined at k = 1 even though the upper
        # bound's premise is not.
        assert rdp_lower(2, params(10, 1, 1.0)) > 0

    def test_nondecreasing_in_eps0(self):
        grid = np.linspace(0.0, 4.0, 33)
        for lam in (2, 8, 32):
            vals = [rdp_lower(lam, params(10**4, 100, e)) for e in grid]
            assert np.all(np.diff(vals) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rdp_lower(1, params(100, 10, 1.0))
        with pytest.raises(ValueError):
            rdp_lower(2.5, params(100, 10, 1.0))


class TestSandwich:
    def test_lower_below_upper_spot_grid(self):
        for eps0 in (0.5, 2.0):
            for k in (10, 1000):
                p = params(10 * k, k, eps0)
                for lam in (2, 3, 8, 17, 32):
                    assert rdp_lower(lam, p) <= rdp_upper(lam, p)

    def test_large_orders_finite_and_ordered(self):
        # Orders in the thousands must stay finite on both sides.
        p = params(10**6, 1000, 2.0)
        for lam in (1024, 2048):
            lo = rdp_lower(lam, p)
            up = rdp_upper(lam, p)
            assert math.isfinite(lo) and math.isfinite(up)
            assert 0 <= lo <= up


class TestConcurrentTabulation:
    def test_parallel_curve_matches_serial(self):
        # Curve tabulation is pure: callers may fan out over orders with
        # no coordination and must get identical values.
        from concurrent.futures import ThreadPoolExecutor

        p = params(10**4, 500, 1.5)
        lams = list(range(2, 65))
        serial = [rdp_lower(lam, p) for lam in lams]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda lam: rdp_lower(lam, p), lams))
        assert serial == parallel
        serial_up = [rdp_upper(lam, p) for lam in lams]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel_up = list(pool.map(lambda lam: rdp_upper(lam, p), lams))
        assert serial_up == parallel_up


class TestCurves:
    def test_tabulation(self):
        p = params(10**4, 100, 1.0)
        lams = [2, 3, 5, 8]
        up = rdp_upper_curve(p, lams)
        lo = rdp_lower_curve(p, lams)
        assert up.kind is CurveKind.UPPER_BOUND
        assert lo.kind is CurveKind.LOWER_BOUND
        assert up.lambdas() == lams
        assert up.eps_values() == [rdp_upper(l, p) for l in lams]
        assert lo.eps_values() == [rdp_lower(l, p) for l in lams]


class TestHighPrecision:
    """Both bounds against 60-digit mpmath evaluations of their formulas,
    written here independently of the float kernels."""

    @staticmethod
    def upper_mp(lam, n, k, eps0):
        # The closed form of rdp_upper's docstring, summed term by term.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            e = mpmath.exp(mpmath.mpf(eps0))
            g = mpmath.mpf(k) / n
            kb = kbar(k, eps0)
            s = 4 * math.comb(lam, 2) * g**2 * (e - 1) ** 2 / (kb * e)
            x = g * mpmath.sqrt(2 * (e * e - 1) ** 2 / (kb * e * e))
            coef = math.comb(lam, 3) * x**3  # C(lam, j) gamma^j B^{j/2}
            gam, gam_next = mpmath.sqrt(mpmath.pi) / 2, mpmath.mpf(1)  # Gamma(j/2), Gamma((j+1)/2)
            for j in range(3, lam + 1):
                s += coef * j * gam
                coef = coef * (lam - j) / (j + 1) * x
                gam, gam_next = gam_next, gam * mpmath.mpf(j) / 2
            a = g * (e * e - 1) / e
            s += ((1 + a) ** lam - 1 - lam * a) * mpmath.exp(-mpmath.mpf(k - 1) / (8 * e))
            return float(mpmath.log1p(s) / (lam - 1))

    @staticmethod
    def lower_mp(lams, n, k, eps0):
        # The exact 2RR divergence as a direct sum over the ones-count m:
        # ln E_mu0[(1 + x_m)^lam] / (lam - 1), E_mu0[x_m] = 0.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            e = mpmath.exp(mpmath.mpf(eps0))
            p = 1 / (e + 1)
            g = mpmath.mpf(k) / n
            w = (1 - p) ** k  # Bin(k, p) pmf at m, by the ratio recurrence
            sums = [mpmath.mpf(0)] * len(lams)
            for m in range(k + 1):
                x = g * (mpmath.mpf(m) / k * (e - 1) - mpmath.mpf(k - m) / k * (1 - 1 / e))
                for i, lam in enumerate(lams):
                    sums[i] += w * ((1 + x) ** lam - 1 - lam * x)
                w = w * (k - m) / (m + 1) * p / (1 - p)
            return [float(mpmath.log1p(s) / (lam - 1)) for s, lam in zip(sums, lams)]

    @pytest.mark.parametrize(
        "n,k,eps0", [(10**6, 1000, 2.0), (10**4, 100, 0.5), (10**6, 1000, 3.0)]
    )
    @pytest.mark.parametrize("lam", [1024, 2048, 4096])
    def test_upper_at_large_orders(self, n, k, eps0, lam):
        ref = self.upper_mp(lam, n, k, eps0)
        assert rdp_upper(lam, params(n, k, eps0)) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("eps0", [0.1, 2.0, 5.0])
    @pytest.mark.parametrize("k", [2, 100, 1000])
    def test_lower_direct_sum(self, eps0, k):
        lams = [2, 3, 8, 32, 256]
        for n in (k, 1000 * k, 10**6 * k):
            got = rdp_lower(lams, params(n, k, eps0))
            assert got == pytest.approx(self.lower_mp(lams, n, k, eps0), rel=1e-11)

    def test_lower_direct_sum_k1e4(self):
        lams = [2, 32, 256]
        got = rdp_lower(lams, params(10**7, 10**4, 2.0))
        assert got == pytest.approx(self.lower_mp(lams, 10**7, 10**4, 2.0), rel=1e-11)
