"""Tests for the closed-form RDP bounds and ternary divergence bounds."""

import math

import numpy as np
import pytest

from shuffle_rdp import bounds
from shuffle_rdp.accountant import AccountantConfig, total_privacy
from shuffle_rdp.bounds import (
    EPS0_MAX,
    MAX_ORDER,
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
from shuffle_rdp.logspace import binom_log_pmf

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
        assert c.entries == ((2, 0.1), (3, 0.2))

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

    @pytest.mark.parametrize(
        "n, k, eps0, finite",
        [(10**6, 1000, 2.0, 63), (10**4, 10, 0.5, 63), (2, 2, 60.0, 10)],
    )
    def test_coefficients_are_the_ternary_bound(self, n, k, eps0, finite):
        # ln c_j = j ln gamma + ln zeta_j, the paper's sum term by term;
        # (1e4, 10, 0.5) is dominated by the concentration tail.
        p = params(n, k, eps0)
        log_c = bounds._upper_log_coefficients(p, 63)
        checked = 0
        for j in range(2, 65):
            zeta = zeta_shuffle(j, k, eps0).value
            if math.isfinite(zeta):
                want = j * math.log(p.gamma) + math.log(zeta)
                assert log_c[j - 2] == pytest.approx(want, rel=0.0, abs=1e-12)
                checked += 1
        assert checked == finite

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

    @pytest.mark.parametrize("bound", [rdp_upper, rdp_lower])
    def test_orders_above_ceiling_rejected(self, bound):
        p = params(100, 10, 1.0)
        assert math.isfinite(bound(MAX_ORDER, p))
        for bad in (MAX_ORDER + 1, [2, MAX_ORDER + 1], range(1, 5), range(30, MAX_ORDER + 2)):
            with pytest.raises(ValueError, match="MAX_ORDER"):
                bound(bad, p)

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


class TestLowerWindow:
    """rdp_lower sums each order's window of m; these hold it to the sum of
    all k + 1 terms."""

    @staticmethod
    def full_sum(lam, p):
        # Every term, summed in sequence.  The brackets come from the kernel's
        # own _bracket (TestHighPrecision pins those); what this pins is which
        # m are summed.
        eps0, k = p.eps0, p.k
        log_mu0 = binom_log_pmf(k, 1.0 / (math.exp(eps0) + 1.0))
        u = p.gamma * bounds._rr2_ratio_minus_one(k, eps0)
        with np.errstate(divide="ignore"):
            log1p_u = np.log1p(u)
        if lam * log1p_u[-1] >= 700:
            t = log_mu0 + lam * log1p_u
            return (t.max() + math.log(np.cumsum(np.exp(t - t.max()))[-1])) / (lam - 1)
        log1p_minus_u = bounds._series_below(u, log1p_u - u, bounds._LOG1P_SERIES)
        terms = bounds._bracket(np.array([[lam]], float), u, log1p_u, log1p_minus_u)
        return math.log1p(np.cumsum(terms[0] * np.exp(log_mu0))[-1]) / (lam - 1)

    # gamma = 1 sums orders >= 350 in log space (eps0 = 2).
    LAMS = [2, 3, 33, 349, 350, 2048, MAX_ORDER]

    @pytest.mark.parametrize("gamma_inv", [1000, 1])
    @pytest.mark.parametrize("k", [10**3, 10**5, 10**6])
    def test_equals_full_sum(self, k, gamma_inv):
        p = params(k * gamma_inv, k, 2.0)
        got = rdp_lower(self.LAMS, p)
        want = [self.full_sum(lam, p) for lam in self.LAMS]
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma_inv", [1000, 1])
    def test_value_does_not_depend_on_block(self, gamma_inv):
        p = params(10**5 * gamma_inv, 10**5, 2.0)
        assert rdp_lower(self.LAMS, p).tolist() == [rdp_lower(lam, p) for lam in self.LAMS]

    def test_block_evaluates_a_narrow_window(self, monkeypatch):
        widths = []

        def spy(lam_col, u, *rest):
            widths.append(u.size)
            return bracket(lam_col, u, *rest)

        bracket = bounds._bracket
        monkeypatch.setattr(bounds, "_bracket", spy)
        k = 10**4
        rdp_lower(range(2, 34), params(1000 * k, k, 2.0))
        assert widths and max(widths) < k / 5


class TestOneOrderEqualsBlock:
    """One order alone is a lone column, summed by a cumsum; inside a block
    of at least _WIDE_CHUNK orders it is one column of a reduce.  Both add
    the same cells in the same order, so the values agree bit for bit.  The
    upper bound's orders up to 65 are rows of one fixed product, whatever
    else a call asks for."""

    @pytest.mark.parametrize(
        "block",
        [
            [2046, 2047, 2048],
            [2048, 30, 2],
            [MAX_ORDER, MAX_ORDER - 1, 2],
            list(range(350, 385)),  # chunks of 32 and 3 orders
            [64, 65, 66, 67],  # the product's last orders and the grid's first
            list(range(60, 70)),
            [2, 65, 2048],
        ],
    )
    def test_upper_at_tall_columns(self, block):
        p = params(10**6, 1000, 2.0)
        assert rdp_upper(block, p).tolist() == [rdp_upper(lam, p) for lam in block]

    @staticmethod
    def bits(values):
        return [float(x).hex() for x in np.atleast_1d(values)]

    @pytest.mark.parametrize(
        "block", [range(40, 41), range(2, 17), range(30, 46), range(2, 34), range(2, 2049)]
    )
    def test_range_equals_array_and_single_orders(self, block):
        p = params(10**6, 1000, 2.0)
        singles = self.bits([rdp_upper(lam, p) for lam in block])
        array = self.bits(rdp_upper(np.arange(block.start, block.stop), p))
        assert self.bits(rdp_upper(block, p)) == array == singles

    def test_lower_on_both_sides_of_the_log_space_switch(self):
        # gamma = 1 and eps0 = 2 sum orders >= 350 in log space.
        p = params(1000, 1000, 2.0)
        block = [2, 3, *range(320, 380), 2048, MAX_ORDER]
        assert rdp_lower(block, p).tolist() == [rdp_lower(lam, p) for lam in block]

    @pytest.mark.parametrize("bound", [rdp_upper, rdp_lower])
    def test_range_equals_its_list(self, bound):
        p = params(10**6, 1000, 2.0)
        for block in (range(2, 34), range(34, 61), range(2, 40, 3), range(9, 9), range(60, 70)):
            got = bound(block, p)
            assert isinstance(got, np.ndarray)
            assert got.tolist() == bound(list(block), p).tolist()


class TestBinomialTable:
    def test_table_is_math_comb_correctly_rounded(self):
        # _BINOM[lambda - 2, j - 2] = C(lambda, j), rounded once to a double
        # (float of an int rounds to nearest), zero where j > lambda; every
        # entry is exact up to lambda = 56.
        table = bounds._BINOM
        assert table.shape == (64, 64) and not table.flags.writeable
        for lam in range(2, 66):
            for j in range(2, 66):
                want = math.comb(lam, j)
                assert table[lam - 2, j - 2] == float(want)
                if lam <= 56:
                    assert int(table[lam - 2, j - 2]) == want


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
        assert up.entries == tuple((l, rdp_upper(l, p)) for l in lams)
        assert lo.entries == tuple((l, rdp_lower(l, p)) for l in lams)


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

    @pytest.mark.parametrize(
        "n,k,eps0,product",
        [
            (10**6, 1000, 2.0, True),  # the headline: the largest c_j is c_2
            (10**9, 10**6, 1e-3, True),
            (1000, 100, 2.0, True),  # the sgd workload's box: top = 22.4
            (10**4, 100, 10.0, True),  # c_j grow to j = 65, e^446 over c_2
            (2, 2, 8.51, True),  # top = 659.7, just inside the guard
            (2, 2, 8.53, False),  # top = 661.0: the grid takes every order
            (300, 300, 40.0, False),  # c_65 = e^2707 would overflow
        ],
    )
    def test_upper_through_the_product(self, n, k, eps0, product):
        # Orders up to 65 come from the exact-binomial product unless the
        # guard sends the mechanism to the grid; both meet 60 digits.
        p = params(n, k, eps0)
        assert (bounds._table_upper(p) is not None) == product
        lams = [2, 3, 33, 56, 57, 65]
        for lam, got in zip(lams, rdp_upper(lams, p)):
            assert got == pytest.approx(self.upper_mp(lam, n, k, eps0), rel=5e-14)

    @pytest.mark.parametrize("n, product", [(10**145, True), (2 * 10**145, False)])
    def test_upper_at_the_smallest_coefficients(self, n, product):
        # ln c_2 = -664.1 takes the product and -665.5 the grid.  The
        # 60-digit sum cannot resolve a sampling rate of 1e-145 (its Upsilon
        # cancels), so the grid is the reference: both carry the rounding of
        # ln c_j near -660, about 1e-13.
        p = params(n, 2, 1.0)
        assert (bounds._table_upper(p) is not None) == product
        lams = np.array([2.0, 3.0, 33.0, 56.0, 57.0, 65.0])
        assert rdp_upper(lams, p) == pytest.approx(bounds._grid_upper(lams, p), rel=2e-13)

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
