"""Tests for composition and RDP-to-DP conversion."""

import functools
import math

import numpy as np
import pytest

from shuffle_rdp.accountant import (
    AccountantConfig,
    Provenance,
    binomial_floor,
    compose,
    convex_floor,
    dp_penalty,
    minimize_over_orders,
    rdp_to_dp,
    total_privacy,
)
from shuffle_rdp.bounds import (
    MAX_ORDER,
    CurveKind,
    RdpCurve,
    SubsampledShuffleParams,
    rdp_lower,
    rdp_lower_curve,
    rdp_upper,
    rdp_upper_curve,
)
from shuffle_rdp.oracle import exact_rdp_2rr_curve

# ln(1/1e-6) - ln 4: single-entry conversion at lambda = 2 with eps(2) = 0.
SINGLE_ENTRY_LAM2_DELTA1E6 = 12.429216196844383

# Self-regression constant: first verified run of total_privacy at
# eps0=2, gamma=0.001, n=1e6, T=1e5, delta=1e-8 (argmin lambda = 28).
HEADLINE_OURS_EPS = 1.0402185055358606


def upper_curve(eps_by_lambda):
    return RdpCurve(entries=tuple(eps_by_lambda), kind=CurveKind.UPPER_BOUND)


class TestCompose:
    def test_identity_at_t1(self):
        c = upper_curve([(2, 0.001), (3, 0.002)])
        assert compose(c, 1).entries == c.entries

    def test_linearity(self):
        c = upper_curve([(2, 0.001)])
        assert compose(c, 10).entries[0] == (2, pytest.approx(0.01, rel=1e-15))

    def test_associativity_of_scaling(self):
        c = upper_curve([(2, 0.02), (5, 0.3), (9, 1.7)])
        left = compose(compose(c, 2), 3)
        right = compose(c, 6)
        for (l1, e1), (l2, e2) in zip(left.entries, right.entries):
            assert l1 == l2 and e1 == pytest.approx(e2, rel=1e-15)

    def test_kind_preserved(self):
        c = RdpCurve(entries=((2, 0.1),), kind=CurveKind.LOWER_BOUND)
        assert compose(c, 3).kind is CurveKind.LOWER_BOUND

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            compose(upper_curve([(2, 0.1)]), 0)


class TestDpPenalty:
    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-5])
    def test_strictly_decreasing_in_lambda(self, delta):
        vals = [dp_penalty(lam, delta) for lam in range(2, 1025)]
        assert np.all(np.diff(vals) < 0)

    def test_lambda2_closed_form(self):
        delta = 1e-6
        expect = math.log(1 / delta) + math.log(0.5) - math.log(2)
        assert dp_penalty(2, delta) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("delta", [1e-310, 5e-324])
    def test_finite_where_reciprocal_overflows(self, delta):
        expect = -math.log(delta) + math.log(0.5) - math.log(2)
        assert dp_penalty(2, delta) == pytest.approx(expect, rel=1e-15)


class TestRdpToDp:
    def test_single_entry_closed_form(self):
        c = upper_curve([(2, 0.0)])
        g = rdp_to_dp(c, 1e-6)
        assert g.eps == pytest.approx(SINGLE_ENTRY_LAM2_DELTA1E6, rel=1e-12)
        assert g.argmin_lambda == 2
        assert g.provenance is Provenance.OURS_RDP_UPPER

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            rdp_to_dp(RdpCurve(entries=(), kind=CurveKind.UPPER_BOUND), 1e-6)

    def test_monotone_in_curve_values(self):
        base = [(2, 0.5), (4, 0.4), (8, 0.35)]
        g0 = rdp_to_dp(upper_curve(base), 1e-8)
        lowered = [(lam, eps * 0.5) for lam, eps in base]
        g1 = rdp_to_dp(upper_curve(lowered), 1e-8)
        assert g1.eps <= g0.eps

    def test_clamped_at_zero_with_diagnostic(self):
        # Large delta can push the objective negative; the reported eps
        # clamps at zero and keeps the raw minimum.
        c = RdpCurve(
            entries=tuple((lam, 0.0) for lam in range(2, 513)),
            kind=CurveKind.UPPER_BOUND,
        )
        g = rdp_to_dp(c, 0.9)
        assert g.eps == 0.0
        assert g.eps_unclamped < 0.0

    def test_kind_ordering_through_conversion(self):
        # Upper-bound curve converts above the exact oracle, which converts
        # above (here: equal to) the lower bound.
        p = SubsampledShuffleParams(n=500, k=50, eps0=1.0)
        lams = list(range(2, 17))
        delta = 1e-8
        up = rdp_to_dp(compose(rdp_upper_curve(p, lams), 50), delta)
        ex = rdp_to_dp(compose(exact_rdp_2rr_curve(p, lams), 50), delta)
        lo = rdp_to_dp(compose(rdp_lower_curve(p, lams), 50), delta)
        assert up.eps >= ex.eps - 1e-9
        assert ex.eps >= lo.eps - 1e-9
        assert ex.provenance is Provenance.EXACT_ORACLE
        assert lo.provenance is Provenance.OURS_RDP_LOWER


class TestMinimizeOverOrders:
    def test_larger_ceiling_never_raises_eps(self):
        p = SubsampledShuffleParams(n=10**5, k=100, eps0=1.0)
        fn = lambda lam: rdp_upper(lam, p)
        prev = math.inf
        for lam_max in (2, 8, 32, 128, 512):
            eps, _, _ = minimize_over_orders(fn, 1000, 1e-8, lam_max)
            assert eps <= prev + 1e-15
            prev = eps

    def test_early_exit_matches_full_scan(self):
        for eps0, T in ((2.0, 10**5), (1.0, 100), (0.5, 10**4)):
            p = SubsampledShuffleParams(n=10**5, k=100, eps0=eps0)
            fn = lambda lam: rdp_upper(lam, p)
            best, best_lam = min(
                (T * fn(lam) + dp_penalty(lam, 1e-8), lam) for lam in range(2, 513)
            )
            assert minimize_over_orders(fn, T, 1e-8, 512) == (max(best, 0.0), best_lam, best)

    def test_headline_tail_is_closed_after_the_first_block(self):
        # The closed-form floor on the upper bound's g past order 33 already
        # lies above the best objective among orders 2..33.
        p = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)
        blocks = []
        _, lam, _ = minimize_over_orders(
            lambda block: blocks.append(block) or rdp_upper(block, p), 10**5, 1e-8,
            floor=functools.partial(binomial_floor, p),
        )
        assert lam == 28
        assert blocks == [range(2, 34)]

    @pytest.mark.parametrize("lambda_max", [2, 5, 33])
    def test_ceiling_inside_the_first_block(self, lambda_max):
        blocks = []
        p = SubsampledShuffleParams(n=10**4, k=100, eps0=1.0)
        minimize_over_orders(
            lambda block: blocks.append(block) or rdp_upper(block, p), 100, 1e-8, lambda_max,
            functools.partial(binomial_floor, p),
        )
        assert blocks == [range(2, lambda_max + 1)]

    def test_round_counts_share_one_search(self):
        # The T points of a sweep share one search: the same results as one
        # search each, from fewer calls, with no order read twice.
        p = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)
        Ts = [10**4, 10**5, 10**6]
        calls = []
        joint = minimize_over_orders(
            lambda lam: calls.append(np.asarray(lam).tolist()) or rdp_lower(lam, p), Ts, 1e-8,
            floor=convex_floor,
        )
        single_calls = []
        single = [
            minimize_over_orders(
                lambda lam: single_calls.append(lam) or rdp_lower(lam, p), T, 1e-8,
                floor=convex_floor,
            )
            for T in Ts
        ]
        assert joint == single
        assert [lam for _, lam, _ in joint] == [657, 218, 73]
        reads = [order for call in calls for order in call]
        assert len(reads) == len(set(reads)) <= 150
        assert len(calls) < len(single_calls)

    def test_no_finite_objective_has_no_argmin(self):
        # Neither an infinite nor a NaN eps (np.fmin's rule) is a finite
        # candidate.
        for value in (math.inf, math.nan):
            blocks = []
            result = minimize_over_orders(
                lambda block: blocks.append(block) or [value] * len(block), 10, 1e-8, 512
            )
            assert result == (math.inf, None, math.inf)
            assert blocks == [range(2, 34)]
            curve = lambda block: [value] * len(block)
            joint = minimize_over_orders(curve, [10, 100], 1e-8, 512)
            assert joint == [(math.inf, None, math.inf)] * 2

    def test_nan_orders_are_passed_over(self):
        # np.fmin's rule: a NaN eps is no candidate, and the others still
        # decide the minimum and its order.
        p = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)

        def eps_fn(lam):
            eps = rdp_upper(lam, p)
            return np.where(np.asarray(lam) % 3 == 0, math.nan, eps)

        want = minimize_over_orders(lambda lam: rdp_upper(lam, p), 10**5, 1e-8)
        assert want[1] == 28
        assert minimize_over_orders(eps_fn, 10**5, 1e-8) == want
        assert minimize_over_orders(eps_fn, [10**5], 1e-8) == [want]

    def test_first_of_equal_minima_wins_across_rounds(self):
        # T = 1 and eps = X - dp_penalty + ((lambda - 59.5)^2 - 1/4) /
        # (lambda - 1): the objective is X at orders 59 and 60 alone, and g
        # is convex, so the convex floor holds.  Its search reads 60 in an
        # earlier call than 59, and 59 wins all the same.
        X, delta = 1000.0, 1e-8

        def eps_fn(lam):
            lam = np.asarray(lam, dtype=float)
            penalty = np.array([dp_penalty(int(x), delta) for x in lam])
            return (X - penalty) + ((lam - 59.5) ** 2 - 0.25) / (lam - 1.0)

        assert [float(eps_fn([x])[0]) + dp_penalty(x, delta) for x in (59, 60)] == [X, X]
        calls = []
        result = minimize_over_orders(
            lambda lam: calls.append(list(lam)) or eps_fn(lam), 1, delta, 100, convex_floor
        )
        assert result == (X, 59, X)
        first_read = {order: n for n, call in enumerate(calls) for order in call}
        assert first_read[60] < first_read[59]

    def test_result_shape_follows_T(self):
        fn = lambda lam: rdp_upper(lam, SubsampledShuffleParams(n=10**4, k=100, eps0=1.0))
        single = minimize_over_orders(fn, np.int64(1000), 1e-8, 64)
        assert isinstance(single, tuple) and single == minimize_over_orders(fn, 1000, 1e-8, 64)
        assert minimize_over_orders(fn, [1000], 1e-8, 64) == [single]

    @pytest.mark.parametrize("lambda_max", [0, 1, MAX_ORDER + 1, 5000, 2.5])
    def test_lambda_max_outside_the_orders_rejected(self, lambda_max):
        with pytest.raises(ValueError, match=r"lambda_max must be an integer in \[2, MAX_ORDER"):
            minimize_over_orders(lambda lam: np.zeros(len(lam)), 10, 1e-8, lambda_max)

    @pytest.mark.parametrize("T", [-5, 0, 2.5, math.inf, math.nan, [10, 0], [-1]])
    def test_round_counts_must_be_positive_integers(self, T):
        with pytest.raises(ValueError, match="T must be a positive integer"):
            minimize_over_orders(lambda lam: np.zeros(len(lam)), T, 1e-8, 64)


class TestTotalPrivacy:
    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            AccountantConfig(T=0, delta=1e-8)

    def test_lambda_max_above_ceiling_rejected(self):
        assert AccountantConfig(T=1, delta=1e-8, lambda_max=MAX_ORDER).lambda_max == MAX_ORDER
        with pytest.raises(ValueError, match="lambda_max"):
            AccountantConfig(T=1, delta=1e-8, lambda_max=MAX_ORDER + 1)

    def test_eps0_zero_is_pure_penalty(self):
        p = SubsampledShuffleParams(n=1000, k=100, eps0=0.0)
        cfg = AccountantConfig(T=50, delta=1e-8, lambda_max=512)
        g = total_privacy(p, cfg)
        penalty_min = min(dp_penalty(lam, cfg.delta) for lam in range(2, 513))
        assert g.eps == pytest.approx(penalty_min, rel=1e-15)

    def test_headline_regression_point(self):
        p = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)
        g = total_privacy(p, AccountantConfig(T=10**5, delta=1e-8))
        assert g.eps == pytest.approx(HEADLINE_OURS_EPS, rel=1e-9)
        assert g.argmin_lambda == 28

    def test_finite_where_reciprocal_of_delta_overflows(self):
        p = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)
        g = total_privacy(p, AccountantConfig(T=10**5, delta=1e-310))
        assert math.isfinite(g.eps) and g.eps > HEADLINE_OURS_EPS
        assert g.argmin_lambda is not None

    def test_grows_with_rounds(self):
        # More composition rounds can only cost privacy; qualitative shape
        # of the accumulated budget as a function of T.
        p = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)
        eps_by_t = [
            total_privacy(p, AccountantConfig(T=t, delta=1e-8)).eps
            for t in (10**3, 10**4, 10**5)
        ]
        assert eps_by_t[0] < eps_by_t[1] < eps_by_t[2]
        # Sublinear growth: 100x the rounds costs far less than 100x the eps.
        assert eps_by_t[2] < 100 * eps_by_t[0]

    def test_provenance(self):
        p = SubsampledShuffleParams(n=1000, k=100, eps0=1.0)
        g = total_privacy(p, AccountantConfig(T=10, delta=1e-8, lambda_max=64))
        assert g.provenance is Provenance.OURS_RDP_UPPER
        assert g.delta == 1e-8

    def test_equals_tabulate_compose_convert_pipeline(self):
        # The one-call accountant is exactly tabulation + composition +
        # conversion over the same order grid.
        p = SubsampledShuffleParams(n=10**4, k=100, eps0=1.5)
        T, delta, lam_max = 500, 1e-8, 64
        direct = total_privacy(p, AccountantConfig(T=T, delta=delta, lambda_max=lam_max))
        curve = rdp_upper_curve(p, range(2, lam_max + 1))
        staged = rdp_to_dp(compose(curve, T), delta)
        assert direct.eps == staged.eps
        assert direct.argmin_lambda == staged.argmin_lambda
