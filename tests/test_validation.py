"""The shared argument checks: every integer and delta argument of the
public API is refused, with a ValueError naming it, when it is infinite,
NaN, fractional or out of range."""

import functools
import math

import numpy as np
import pytest

from shuffle_rdp import (
    AccountantConfig,
    ApproxDp,
    CurveKind,
    DpGuarantee,
    Provenance,
    RdpCurve,
    SgdConfig,
    SubsampledShuffleParams,
    VecMech,
    ZetaBound,
    baseline_total,
    blanket_condition_ok,
    clones_closed_form,
    clones_condition_ok,
    compose,
    dp_penalty,
    exact_rdp_2rr_subshuffle,
    grad_second_moment_check,
    kbar,
    least_squares_problem,
    logistic_problem,
    minimize_over_orders,
    rr2_dists,
    shuffle_amplify,
    strong_compose,
    zeta_shuffle,
    zeta_special,
)
from shuffle_rdp.bounds import MAX_ORDER, check_delta, check_int, log_zeta_special

HEADLINE = SubsampledShuffleParams(n=10**6, k=1000, eps0=2.0)


@functools.cache
def _problem():
    return least_squares_problem(n=50, d=3, seed=1)


def _sgd_config(**kw):
    return SgdConfig(**{"T": 10, "k": 5, "eps0": 1.0, "clip_radius": 1.0, **kw})


def _call(f, *args, **defaults):
    """f with one keyword argument set, the rest fixed at valid values."""
    return lambda name, value: f(*args, **{**defaults, name: value})


def _search(**kw):
    return minimize_over_orders(lambda lam: np.zeros(len(lam)), **{"T": 10, "delta": 1e-8, **kw})


# Entry point -> (call, {integer argument: a value below its range},
# [delta arguments]).
ENTRY_POINTS = {
    "SubsampledShuffleParams": (
        _call(SubsampledShuffleParams, n=1000, k=10, eps0=1.0), {"n": 9, "k": 0}, []),
    "ZetaBound": (_call(ZetaBound, alpha=2, value=1.0), {"alpha": 1}, []),
    "log_zeta_special": (_call(log_zeta_special, alpha=2, m=10, eps0=1.0), {"alpha": 1, "m": 0}, []),
    "zeta_special": (_call(zeta_special, alpha=2, m=10, eps0=1.0), {"alpha": 1, "m": 0}, []),
    "zeta_shuffle": (_call(zeta_shuffle, alpha=2, k=10, eps0=1.0), {"alpha": 1, "k": 1}, []),
    "DpGuarantee": (
        _call(DpGuarantee, eps=1.0, delta=1e-8, provenance=Provenance.OURS_RDP_UPPER), {}, ["delta"]),
    "AccountantConfig": (
        _call(AccountantConfig, T=10, delta=1e-8, lambda_max=64),
        {"T": 0, "lambda_max": 1}, ["delta"]),
    "compose": (
        _call(compose, RdpCurve(((2, 0.1),), CurveKind.UPPER_BOUND), T=10), {"T": 0}, []),
    "dp_penalty": (_call(dp_penalty, lam=2, delta=1e-8), {"lam": 1}, ["delta"]),
    "minimize_over_orders": (_call(_search, lambda_max=64), {"T": 0, "lambda_max": 1}, ["delta"]),
    "clones_condition_ok": (
        _call(clones_condition_ok, eps0=1.0, n_eff=100, delta=1e-8), {"n_eff": 0}, ["delta"]),
    "blanket_condition_ok": (
        _call(blanket_condition_ok, eps0=1.0, n_eff=100, delta=1e-8), {"n_eff": 0}, ["delta"]),
    "clones_closed_form": (
        _call(clones_closed_form, eps0=1.0, n=100, delta=1e-8), {"n": 0}, ["delta"]),
    "shuffle_amplify": (_call(shuffle_amplify, eps0=1.0, k=100, delta=1e-8), {"k": 1}, ["delta"]),
    "strong_compose": (
        _call(strong_compose, ApproxDp(eps=0.5, delta=1e-9), T=10, delta_slack=1e-8),
        {"T": 0}, ["delta_slack"]),
    "baseline_total": (_call(baseline_total, HEADLINE, T=10, delta=1e-8), {"T": 0}, ["delta"]),
    "VecMech": (_call(VecMech, eps0=1.0, d=3, C=1.0), {"d": 0}, []),
    "rr2_dists": (_call(rr2_dists, k=10, eps0=1.0), {"k": 0}, []),
    "exact_rdp_2rr_subshuffle": (
        _call(exact_rdp_2rr_subshuffle, lam=2, params=SubsampledShuffleParams(100, 10, 1.0)),
        {"lam": 1}, []),
    "least_squares_problem": (_call(least_squares_problem, n=20, d=3, seed=1), {"n": 0, "d": 0}, []),
    "logistic_problem": (_call(logistic_problem, n=20, d=3, seed=1), {"n": 0, "d": 0}, []),
    "SgdConfig": (
        _call(_sgd_config),
        {"T": 0, "k": 0, "seed": -1, "record_every": 0}, ["delta"]),
    "grad_second_moment_check": (
        lambda name, value: grad_second_moment_check(_problem(), _sgd_config(), **{name: value}),
        {"samples": 999}, []),
}

CASES = [
    pytest.param(entry, name, value, id=f"{entry}-{name}-{label}")
    for entry, (_, below, deltas) in ENTRY_POINTS.items()
    for name, value, label in [
        *(
            (name, value, label)
            for name, low in below.items()
            for value, label in [(math.inf, "inf"), (math.nan, "nan"), (2.5, "fraction"), (low, "below")]
        ),
        *(
            (name, value, label)
            for name in deltas
            for value, label in [(math.inf, "inf"), (math.nan, "nan"), (0.0, "zero"), (1.0, "one")]
        ),
    ]
]


@pytest.mark.parametrize("entry, name, value", CASES)
def test_rejected_with_the_argument_named(entry, name, value):
    call = ENTRY_POINTS[entry][0]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(name, value)


def test_kbar_rejects_eps0_outside_its_range():
    with pytest.raises(ValueError, match="eps0"):
        kbar(10, -1e6)


@pytest.mark.parametrize("order", [math.inf, math.nan, 2.5, 1])
def test_curve_orders(order):
    with pytest.raises(ValueError, match="order"):
        RdpCurve(((order, 0.1),), CurveKind.UPPER_BOUND)


class TestSharedChecks:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), 10**400])
    def test_integral_values_pass_unchanged(self, value):
        assert check_int("x", value, 1) is value

    @pytest.mark.parametrize("lo, hi, says", [
        (1, math.inf, "x must be a positive integer, got 0.5"),
        (2, math.inf, "x must be an integer >= 2, got 0.5"),
        (0, 10, "x must be an integer in [0, 10], got 0.5"),
        (2, MAX_ORDER, f"x must be an integer in [2, MAX_ORDER = {MAX_ORDER}], got 0.5"),
    ])
    def test_integer_message(self, lo, hi, says):
        with pytest.raises(ValueError) as info:
            check_int("x", 0.5, lo, hi)
        assert str(info.value) == says

    def test_delta_message(self):
        assert check_delta(0.5) == 0.5
        with pytest.raises(ValueError, match=r"^delta_slack must lie in \(0, 1\), got nan$"):
            check_delta(math.nan, "delta_slack")
