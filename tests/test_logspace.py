"""Tests for the log-domain arithmetic kernels."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from shuffle_rdp import logspace
from shuffle_rdp.logspace import binom_log_pmf


class TestBinomLogPmf:
    @pytest.mark.parametrize("k", [10**3, 10**4, 10**5, 10**6])
    def test_total_mass_is_one(self, k):
        p = 1.0 / (math.exp(2.0) + 1.0)
        assert abs(logsumexp(binom_log_pmf(k, p))) <= 1e-15

    def test_degenerate_p(self):
        assert np.array_equal(np.exp(binom_log_pmf(3, 0.0)), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(np.exp(binom_log_pmf(3, 1.0)), [0.0, 0.0, 0.0, 1.0])


class TestLoaderPmf:
    """binom_log_pmf against 50-digit mpmath.  The k cover every breakpoint
    of Stirling's error (15, 35, 80, 500) on both sides, and at k = 1e3 and
    1e6 the m cover both sides of the deviance's series switch."""

    @staticmethod
    def reference(k, p, ms):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            p = mpmath.mpf(p)  # the double binom_log_pmf is given
            top, lp, lq = mpmath.loggamma(k + 1), mpmath.log(p), mpmath.log1p(-p)
            return [
                float(top - mpmath.loggamma(m + 1) - mpmath.loggamma(k - m + 1) + m * lp + (k - m) * lq)
                for m in ms
            ]

    @staticmethod
    def points(k, p):
        """Every m for k <= 1e3; otherwise the ends, the breakpoints, both
        sides of each deviance switch and a spread over the peak."""
        if k <= 1000:
            return list(range(k + 1))
        near = [0, 1, 2, 15, 16, 35, 36, 80, 81, 500, 501]
        for c in (k * p, k * (1.0 - p)):
            near += [int(b) + d for b in (9 * c / 11, c, 11 * c / 9) for d in (-1, 0, 1, 2)]
        near += range(int(k * p) - 3000, int(k * p) + 3000, 250)
        return sorted({m for x in near for m in (x, k - x) if 0 <= m <= k})

    @pytest.mark.parametrize("eps0", [0.1, 2.0, 5.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 15, 16, 35, 36, 80, 81, 500, 501, 10**3, 10**6])
    def test_against_mpmath(self, k, eps0):
        p = 1.0 / (math.exp(eps0) + 1.0)
        ms = self.points(k, p)
        got = binom_log_pmf(k, p)[ms]
        ref = np.array(self.reference(k, p, ms))
        assert np.all(np.abs(got - ref) <= 2e-14 * np.maximum(1.0, np.abs(ref)))


class TestLogSumExp:
    def test_values(self):
        a = np.array([-1000.0, -np.inf, -1001.0, -1003.0])
        ref = -1000.0 + math.log(1.0 + math.exp(-1.0) + math.exp(-3.0))
        assert logspace.logsumexp(a) == pytest.approx(ref, rel=1e-15)
        assert logspace.logsumexp(np.array([800.0, 800.0])) == pytest.approx(800.0 + math.log(2.0))

    def test_empty_and_all_minus_inf(self):
        assert logspace.logsumexp(np.array([])) == -math.inf
        assert logspace.logsumexp(np.full(3, -np.inf)) == -math.inf
