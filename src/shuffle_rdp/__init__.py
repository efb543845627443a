"""Renyi-DP accounting for the subsampled shuffle mechanism.

The package tabulates upper and lower bounds on the Renyi divergence of
shuffled, subsampled local randomizers, composes them over rounds,
converts to (eps, delta)-DP, compares against the approximate-DP
amplification pipeline, validates everything against exact brute-force
oracles, and runs a desk-scale private-SGD simulator.
"""

from .accountant import (
    AccountantConfig,
    DpGuarantee,
    Provenance,
    compose,
    dp_penalty,
    minimize_over_orders,
    rdp_to_dp,
    total_privacy,
)
from .baselines import (
    ApproxDp,
    amplify_by_subsampling,
    baseline_total,
    blanket_condition_ok,
    clones_closed_form,
    clones_condition_ok,
    shuffle_amplify,
    strong_compose,
)
from .bounds import (
    CurveKind,
    RdpCurve,
    SubsampledShuffleParams,
    ZetaBound,
    kbar,
    rdp_lower,
    rdp_lower_curve,
    rdp_upper,
    rdp_upper_curve,
    zeta_shuffle,
    zeta_special,
)
from .mechanisms import VecMech, clip_batch, vec_kernel, vec_randomize_batch
from .oracle import (
    FiniteDist,
    HistogramDist,
    exact_rdp_2rr_curve,
    exact_rdp_2rr_subshuffle,
    exact_renyi,
    exact_shuffle_dist,
    exact_ternary,
    rr2_dists,
)
from .sgd import (
    ConvexProblem,
    SgdConfig,
    SgdRunReport,
    grad_second_moment_check,
    least_squares_problem,
    logistic_problem,
    project,
    run,
)

__version__ = "0.1.0"
