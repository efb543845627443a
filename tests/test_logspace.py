"""Tests for the log-domain arithmetic kernels."""

import math

import numpy as np
import pytest

from shuffle_rdp.logspace import (
    REL_TOL,
    SUM_TOL_PER_TERM,
    SignedLog,
    ZERO,
    binom_central_moment_signed,
    log_binomial,
    signed_logsumexp_arrays,
)

# Big-integer factorial oracle, run once: math.log(math.comb(1000, 500)).
LOG_C_1000_500 = 689.4672615678512


def binom_central_moment(k, p, j):
    return binom_central_moment_signed(k, p, j).to_real()


def signed_sum(signs, log_mags):
    return signed_logsumexp_arrays(np.array(signs, dtype=np.int64), np.array(log_mags, dtype=np.float64))


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
        assert log_binomial(1000, 500) == pytest.approx(LOG_C_1000_500, rel=REL_TOL)

    def test_exact_for_small_n(self):
        # Small coefficients go through exact integer arithmetic: the result
        # is bitwise the correctly rounded log.
        for n in range(21):
            for k in range(n + 1):
                assert log_binomial(n, k) == math.log(math.comb(n, k))

    def test_pascals_rule_in_log_space(self):
        for n in range(2, 61):
            for k in range(1, n):
                lhs = log_binomial(n, k)
                rhs = np.logaddexp(log_binomial(n - 1, k - 1), log_binomial(n - 1, k))
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(-1, 0)
        with pytest.raises(ValueError):
            log_binomial(3, -1)


class TestSignedLogSum:
    def test_exact_cancellation(self):
        assert signed_sum([1, -1], [1.0, 1.0]) == ZERO

    def test_two_positives(self):
        out = signed_sum([1, 1], [0.0, 0.0])
        assert out.sign == 1
        assert out.log_mag == pytest.approx(math.log(2), rel=1e-15)

    def test_empty_is_zero(self):
        assert signed_sum([], []) == ZERO

    def test_matches_high_precision_oracle(self):
        # 1e4 random signed terms against an exact-arithmetic reference sum;
        # the contract is n_terms * SUM_TOL_PER_TERM = 1e-10 relative.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        n_terms = 10_000
        rng = np.random.default_rng(1234)
        log_mags = rng.uniform(-10.0, 10.0, size=n_terms)
        signs = np.where(rng.random(n_terms) < 0.55, 1, -1)
        ours = signed_logsumexp_arrays(signs, log_mags).to_real()
        ref = float(
            mpmath.fsum(int(s) * mpmath.exp(mpmath.mpf(float(m))) for s, m in zip(signs, log_mags))
        )
        assert abs(ref) > 1.0  # the seeded instance is not a pathological near-zero
        assert ours == pytest.approx(ref, rel=n_terms * SUM_TOL_PER_TERM)


class TestBinomCentralMoment:
    def test_trivial_orders(self):
        assert binom_central_moment(10, 0.3, 0) == 1.0
        assert binom_central_moment(10, 0.3, 1) == pytest.approx(0.0, abs=1e-12)

    def test_variance_identity(self):
        # E[(m - kp)^2] = k p (1 - p)
        for k in (1, 10, 100, 1000):
            for p in (0.05, 0.3, 0.5, 0.9):
                assert binom_central_moment(k, p, 2) == pytest.approx(
                    k * p * (1 - p), rel=1e-12
                )

    def test_third_moment_identity(self):
        # E[(m - kp)^3] = k p (1 - p) (1 - 2p), checked against the summation path.
        for k in (2, 10, 250):
            for p in (0.1, 0.3, 0.45):
                assert binom_central_moment(k, p, 3) == pytest.approx(
                    k * p * (1 - p) * (1 - 2 * p), rel=1e-11
                )

    def test_paper_example(self):
        assert binom_central_moment(10, 0.3, 2) == pytest.approx(2.1, rel=1e-12)

    def test_nonnegative_for_small_p(self):
        # Every central moment of Bin(k, p) is nonnegative when p <= 1/2.
        for k in (3, 10, 57):
            for p in (0.05, 0.2, 0.5):
                scale = max(1.0, (k * p * (1 - p)) ** 3)
                for j in range(0, 8):
                    assert binom_central_moment(k, p, j) >= -1e-12 * scale

    def test_degenerate_p(self):
        assert binom_central_moment(5, 0.0, 3) == 0.0
        assert binom_central_moment(5, 1.0, 4) == 0.0
        assert binom_central_moment(5, 0.0, 0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_central_moment(0, 0.5, 2)
        with pytest.raises(ValueError):
            binom_central_moment(5, 1.5, 2)
        with pytest.raises(ValueError):
            binom_central_moment(5, 0.5, -1)

    def test_signed_variant_agrees(self):
        # The log-space path against a plain float sum over the support.
        k, p, j = 30, 0.25, 5
        direct = math.fsum(
            math.comb(k, m) * p**m * (1 - p) ** (k - m) * (m - k * p) ** j
            for m in range(k + 1)
        )
        assert binom_central_moment_signed(k, p, j).to_real() == pytest.approx(direct, rel=1e-12)
