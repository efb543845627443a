"""Tests for the log-domain arithmetic kernels."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from shuffle_rdp.logspace import ZERO, SignedLog, binom_log_pmf, log_binomial_row

# Big-integer factorial oracle, run once: math.log(math.comb(1000, 500)).
LOG_C_1000_500 = 689.4672615678512


def log_binomial(n, k):
    return float(log_binomial_row(n, np.float64(k)))


class TestSignedLog:
    def test_zero_representation(self):
        assert ZERO.sign == 0 and ZERO.log_mag == -math.inf
        assert ZERO.to_real() == 0.0

    @pytest.mark.parametrize("exponent", range(-300, 301, 25))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_round_trip(self, exponent, sign):
        x = sign * 10.0**exponent
        back = SignedLog(sign, math.log(abs(x))).to_real()
        assert (back > 0) == (x > 0)
        assert math.log(abs(back)) == pytest.approx(math.log(abs(x)), rel=1e-15)

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedLog(2, 0.0)
        with pytest.raises(ValueError):
            SignedLog(0, 0.0)
        with pytest.raises(ValueError):
            SignedLog(1, -math.inf)


class TestLogBinomial:
    def test_hand_values(self):
        assert log_binomial(5, 2) == pytest.approx(math.log(10), rel=1e-15)
        for n in (0, 1, 7, 123):
            assert log_binomial(n, 0) == 0.0
            assert log_binomial(n, n) == 0.0

    def test_big_integer_oracle(self):
        assert log_binomial(1000, 500) == pytest.approx(LOG_C_1000_500, rel=1e-12)

    def test_pascals_rule_in_log_space(self):
        for n in range(2, 61):
            for k in range(1, n):
                lhs = log_binomial(n, k)
                rhs = np.logaddexp(log_binomial(n - 1, k - 1), log_binomial(n - 1, k))
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grid_is_minus_inf_past_each_row(self):
        # The upper bound's (order x j) grid relies on C(n, j) = 0 for j > n.
        n = np.array([[2.0], [5.0]])
        ks = np.arange(0.0, 7.0)
        grid = log_binomial_row(n, ks)
        assert np.all(np.isneginf(grid[0, 3:])) and np.all(np.isneginf(grid[1, 6:]))
        assert np.array_equal(grid[1, :6], log_binomial_row(5.0, ks[:6]))


class TestBinomLogPmf:
    @pytest.mark.parametrize("k", [10**3, 10**4, 10**5, 10**6])
    def test_total_mass_is_one(self, k):
        p = 1.0 / (math.exp(2.0) + 1.0)
        assert abs(logsumexp(binom_log_pmf(k, p))) <= 1e-15

    def test_degenerate_p(self):
        assert np.array_equal(np.exp(binom_log_pmf(3, 0.0)), [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(np.exp(binom_log_pmf(3, 1.0)), [0.0, 0.0, 0.0, 1.0])
