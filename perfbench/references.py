"""Independent references for the benchmark's output checks.

Everything here is coded from the paper's formulas and imports nothing from
``shuffle_rdp``, so a check compares two separately written computations:

* the closed-form RDP upper bound of the subsampled shuffle mechanism,
  evaluated in mpmath at 40 digits (pair term, j >= 3 ternary terms and the
  Upsilon remainder, the latter in its closed form ((1+A)^lam - 1 - lam A));
* the exact order-lambda Renyi divergence of the subsampled shuffle under
  binary randomized response, by a direct sum over the count of ones;
* the clones -> subsampling -> strong-composition baseline;
* the logistic loss and the CLDP-SGD convergence ceiling.

The ``check_*`` functions take one operation's inputs and outputs as plain
values and return a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

#: Working precision of the mpmath upper bound, in decimal digits.
MP_DPS = 40
#: Relative tolerance between a library value and its reference.
REL_TOL = 1e-9
#: Relative slack of comparisons between 12-significant-digit CSV cells.
CSV_REL = 1e-11


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# Conversion penalty and the upper bound
# ----------------------------------------------------------------------


def penalty(lam, delta: float):
    """(ln(1/delta) + (lam-1) ln(1-1/lam) - ln lam) / (lam-1), elementwise."""
    lam = np.asarray(lam, dtype=np.float64)
    return (math.log(1.0 / delta) + (lam - 1) * np.log1p(-1.0 / lam) - np.log(lam)) / (lam - 1)


def upper_rdp(lams, n: int, k: int, eps0: float) -> list:
    """The closed-form RDP upper bound at each order in ``lams``, as mpmath numbers.

    eps(lam) = ln(1 + S)/(lam - 1) with, for gamma = k/n and
    kbar = floor((k-1)/(2 e^eps0)) + 1,
      S = 4 C(lam,2) gamma^2 (e^eps0-1)^2 / (kbar e^eps0)
        + sum_{j=3}^{lam} C(lam,j) gamma^j j Gamma(j/2) B^{j/2},
          B = 2 (e^{2 eps0}-1)^2 / (kbar e^{2 eps0})
        + ((1+A)^lam - 1 - lam A) e^{-(k-1)/(8 e^eps0)},
          A = gamma (e^{2 eps0}-1)/e^eps0.
    The ternary sum stops once its remaining tail is provably below 1e-45 of
    the partial sum: the term ratio x (lam-j)/j Gamma((j+1)/2)/Gamma(j/2)
    falls in j, so past a ratio r < 1 the tail is at most term r/(1-r).
    """
    with mpmath.workdps(MP_DPS):
        e = mpmath.exp(mpmath.mpf(eps0))
        g = mpmath.mpf(k) / n
        kb = int(mpmath.floor((k - 1) / (2 * e))) + 1
        pair = 4 * g**2 * (e - 1) ** 2 / (kb * e)
        x = g * mpmath.sqrt(2 * (e * e - 1) ** 2 / (kb * e * e))
        a = g * (e * e - 1) / e
        damp = mpmath.exp(-(k - 1) / (8 * e))
        tol = mpmath.mpf(10) ** -45
        out = []
        for lam in lams:
            coef = math.comb(lam, 3) * x**3  # C(lam, j) x^j at j = 3
            gam_j, gam_next = mpmath.sqrt(mpmath.pi) / 2, mpmath.mpf(1)  # Gamma(j/2), Gamma((j+1)/2)
            tern = mpmath.mpf(0)
            for j in range(3, lam + 1):
                term = coef * j * gam_j
                tern += term
                if j == lam:
                    break
                ratio = x * (lam - j) / j * gam_next / gam_j
                if ratio < 1 and term * ratio / (1 - ratio) < tol * tern:
                    break
                coef = coef * (lam - j) / (j + 1) * x
                gam_j, gam_next = gam_next, gam_j * j / 2
            ups = ((1 + a) ** lam - 1 - lam * a) * damp
            out.append(mpmath.log1p(math.comb(lam, 2) * pair + tern + ups) / (lam - 1))
        return out


def upper_objective(lams, T: int, delta: float, n: int, k: int, eps0: float) -> list[float]:
    """T eps_upper(lam) + penalty(lam) at each order: what the accountant minimises."""
    return [
        float(T * eps) + float(penalty(lam, delta))
        for lam, eps in zip(lams, upper_rdp(lams, n, k, eps0))
    ]


# ----------------------------------------------------------------------
# Exact Renyi divergence of the subsampled shuffle under binary RR
# ----------------------------------------------------------------------


def exact_2rr_rdp(lams, n: int, k: int, eps0: float) -> np.ndarray:
    """Exact D_lam(M(D') || M(D)) for each order in ``lams``.

    Under binary randomized response with flip probability p = 1/(e^eps0+1),
    the shuffler reveals only the number m of ones.  With every client holding
    0, m ~ Bin(k, p) =: mu0.  If the differing client (holding 1) is in the
    cohort, which happens with probability gamma = k/n, the law is mu1 with
    mu1(m)/mu0(m) = (m/k) e^eps0 + ((k-m)/k) e^-eps0.  So M(D')/M(D) = 1 + x_m
    with x_m = gamma (mu1(m)/mu0(m) - 1), and
        D_lam = ln(E_mu0[(1 + x_m)^lam]) / (lam - 1).
    """
    lams = np.asarray(lams, dtype=np.float64)
    m = np.arange(k + 1, dtype=np.float64)
    p = 1.0 / (math.exp(eps0) + 1.0)
    log_mu0 = gammaln(k + 1) - gammaln(m + 1) - gammaln(k - m + 1) + xlogy(m, p) + xlog1py(k - m, -p)
    x = (k / n) * ((m / k) * math.expm1(eps0) + ((k - m) / k) * math.expm1(-eps0))
    # Blocks of orders keep the (orders x k) arrays small at a 2048 ceiling.
    step = 128
    return np.concatenate(
        [_exact_2rr_block(lams[i : i + step], log_mu0, np.log1p(x)) for i in range(0, lams.size, step)]
    )


def _exact_2rr_block(lams: np.ndarray, log_mu0: np.ndarray, log1p_x: np.ndarray) -> np.ndarray:
    lams = lams[:, None]
    expo = lams * log1p_x
    top = expo + log_mu0
    peak = top.max(axis=1)
    # Where no term is huge, sum mu0 (e^{lam ln(1+x)} - 1) and take log1p:
    # this keeps the digits of a divergence far below 1.
    small = (peak < 600.0) & (expo.max(axis=1) < 700.0)
    with np.errstate(over="ignore"):
        log_mgf = np.log1p(np.sum(np.exp(log_mu0) * np.expm1(np.where(small[:, None], expo, 0.0)), axis=1))
    big = peak + np.log(np.sum(np.exp(top - peak[:, None]), axis=1))
    return np.where(small, log_mgf, big) / (lams[:, 0] - 1)


def exact_2rr_min_objective(T: int, delta: float, lambda_max: int, curve: np.ndarray) -> float:
    """min over lam = 2..lambda_max of T D_lam + penalty(lam), clamped at 0.

    ``curve[i]`` holds the exact divergence at order i + 2.
    """
    lams = np.arange(2, lambda_max + 1)
    return max(float(np.min(T * curve[: lams.size] + penalty(lams, delta))), 0.0)


# ----------------------------------------------------------------------
# Clones -> subsampling -> strong-composition baseline
# ----------------------------------------------------------------------


def clones_condition(eps0: float, k: int, delta_round: float) -> bool:
    """eps0 <= ln(k / (16 ln(2/delta_round))): the clones bound applies."""
    return eps0 <= math.log(k / (16.0 * math.log(2.0 / delta_round)))


def baseline(n: int, k: int, eps0: float, T: int, delta: float) -> tuple[float, float, bool]:
    """(eps, delta, degenerate) of the baseline with an even delta split.

    Half of delta goes to the T shuffle steps (delta/(2T) each), half to the
    strong-composition slack.  Per round: clones amplification of k reports
    (capped at eps0), or the raw (eps0, 0) when its condition fails; then
    subsampling at gamma = k/n; then T-fold strong composition.
    """
    d_round, d_slack = delta / 2.0 / T, delta / 2.0
    degenerate = not clones_condition(eps0, k, d_round)
    if degenerate:
        e, d = eps0, 0.0
    else:
        amp = math.log1p(
            math.expm1(eps0)
            * (4.0 * math.sqrt(2.0 * math.log(4.0 / d_round) / ((math.exp(eps0) + 1.0) * k)) + 4.0 / k)
        )
        e, d = min(amp, eps0), d_round
    gamma = k / n
    e, d = math.log1p(gamma * math.expm1(e)), gamma * d
    total_delta = T * d + d_slack
    if T == 1:
        return e, total_delta, degenerate
    advanced = e * math.sqrt(2.0 * T * math.log(1.0 / d_slack)) + T * e * math.expm1(e) / (math.exp(e) + 1.0)
    return min(T * e, advanced), total_delta, degenerate


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_query(point: dict, ours: dict, base: dict) -> list[str]:
    """Check one total_privacy + baseline_total result.

    ``point`` has n, k, eps0, T, delta; ``ours`` has eps, delta and
    argmin_lambda; ``base`` has eps, delta and degenerate.
    """
    fails = []
    n, k, eps0, T, delta = point["n"], point["k"], point["eps0"], point["T"], point["delta"]
    lam = ours["argmin_lambda"]
    if not (isinstance(lam, int) and 2 <= lam <= point["lambda_max"]):
        return [f"argmin lambda {lam!r} outside 2..{point['lambda_max']}"]
    if ours["delta"] != delta:
        fails.append(f"delta {ours['delta']!r} != requested {delta!r}")
    orders = [o for o in (lam, lam - 1, lam + 1) if 2 <= o <= point["lambda_max"]]
    obj, *neighbours = upper_objective(orders, T, delta, n, k, eps0)
    ref_eps = max(obj, 0.0)
    if not _rel_close(ours["eps"], ref_eps, REL_TOL):
        fails.append(f"eps {ours['eps']!r} != mpmath reference {ref_eps!r} at lambda {lam}")
    for nb, nb_obj in zip(orders[1:], neighbours):
        if nb_obj < obj - REL_TOL * abs(obj):
            fails.append(f"order {nb} gives {nb_obj!r} < {obj!r} at argmin {lam}")
    # The per-round bound the result implies at its own argmin must dominate
    # the exact 2RR divergence there.
    implied = (ours["eps"] - float(penalty(lam, delta))) / T
    exact = float(exact_2rr_rdp([lam], n, k, eps0)[0])
    if exact > implied * (1.0 + REL_TOL):
        fails.append(f"exact 2RR {exact!r} above the implied upper bound {implied!r} at lambda {lam}")
    b_eps, b_delta, b_deg = baseline(n, k, eps0, T, delta)
    if base["degenerate"] != b_deg:
        fails.append(f"baseline degenerate={base['degenerate']} but the clones condition says {b_deg}")
    if not _rel_close(base["eps"], b_eps, 1e-12):
        fails.append(f"baseline eps {base['eps']!r} != re-derived {b_eps!r}")
    if not _rel_close(base["delta"], b_delta, 1e-12):
        fails.append(f"baseline delta {base['delta']!r} != re-derived {b_delta!r}")
    return fails


COMPARE_HEADER = "axis_value,eps_ours,eps_baseline,eps_lower_ref"


def check_sweep(point: dict, csv_text: str, meta: dict, exact_curve: np.ndarray) -> list[str]:
    """Check one `compare --axis T` result.

    ``point`` has n, k, eps0, delta, lambda_max and values (the requested T);
    ``exact_curve`` is exact_2rr_rdp over orders 2..lambda_max.
    """
    n, k, eps0, delta, lmax = point["n"], point["k"], point["eps0"], point["delta"], point["lambda_max"]
    lines = csv_text.splitlines()
    if not lines or lines[0] != COMPARE_HEADER:
        return [f"bad header {lines[:1]!r}"]
    rows = [ln.split(",") for ln in lines[1:]]
    if [r[0] for r in rows] != [str(T) for T in point["values"]]:
        return [f"axis column {[r[0] for r in rows]} != requested T {point['values']}"]
    fails = []
    prev = -math.inf
    for T, (_, ours_s, base_s, lower_s) in zip(point["values"], rows):
        ours, lower = float(ours_s), float(lower_s)
        if lower > ours * (1.0 + CSV_REL):
            fails.append(f"T={T}: eps_lower_ref {lower!r} > eps_ours {ours!r}")
        if ours < prev * (1.0 - CSV_REL):
            fails.append(f"T={T}: eps_ours {ours!r} fell below {prev!r}")
        prev = ours
        floor = exact_2rr_min_objective(T, delta, lmax, exact_curve)
        if lower < floor * (1.0 - REL_TOL):
            fails.append(f"T={T}: eps_lower_ref {lower!r} below the exact 2RR minimum {floor!r}")
        b_eps, _, b_deg = baseline(n, k, eps0, T, delta)
        if (base_s == "degenerate") != b_deg:
            fails.append(f"T={T}: baseline cell {base_s!r} but the clones condition says degenerate={b_deg}")
        elif not b_deg and not _rel_close(float(base_s), b_eps, CSV_REL):
            fails.append(f"T={T}: baseline {base_s!r} != re-derived {b_eps!r}")
    expect = {
        "command": "compare", "axis": "T", "values": point["values"], "eps0": eps0,
        "k": k, "n": n, "delta": delta, "lambda_max": lmax,
    }
    for key, want in expect.items():
        if meta.get(key) != want:
            fails.append(f"meta {key}={meta.get(key)!r} != argument {want!r}")
    return fails


def logistic_loss(features: np.ndarray, targets: np.ndarray, theta: np.ndarray) -> float:
    """mean_i ln(1 + exp(-b_i a_i . theta)), as softplus split by sign."""
    z = -targets * (features @ theta)
    soft = np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))), np.log1p(np.exp(-np.abs(z))))
    return float(np.mean(soft))


def sgd_ceiling(d: int, lipschitz: float, radius: float, T: int, k: int, eps0: float, clip: float) -> float:
    """2 D G (2 + ln T)/sqrt(T), D = 2 radius, G^2 = d L^2 + (d C (e^eps0+1)/(e^eps0-1))^2 / k."""
    scale = d * clip * (math.exp(eps0) + 1.0) / math.expm1(eps0)
    G = math.sqrt(d * lipschitz**2 + scale**2 / k)
    return 2.0 * (2.0 * radius) * G * (2.0 + math.log(T)) / math.sqrt(T)


#: Slack on the ceiling, as in the repository's SGD acceptance criterion.
SGD_CEILING_FACTOR = 4.0


def check_sgd(problem: dict, point: dict, report: dict, rerun: dict) -> list[str]:
    """Check one CLDP-SGD run.

    ``problem`` has features, targets, radius, lipschitz, f_star, theta_star;
    ``point`` has T, k, eps0, clip_radius; ``report`` and ``rerun`` have
    theta_final, objectives and final_suboptimality.
    """
    fails = []
    theta = np.asarray(report["theta_final"])
    radius = problem["radius"]
    if float(np.linalg.norm(theta)) > radius * (1.0 + 1e-12):
        fails.append(f"iterate norm {float(np.linalg.norm(theta))!r} outside the ball of radius {radius}")
    obj = np.asarray(report["objectives"], dtype=np.float64)
    if obj.size != point["T"] + 1 or not np.all(np.isfinite(obj)) or not np.all(np.isfinite(theta)):
        fails.append(f"trajectory of {obj.size} points is not {point['T'] + 1} finite values")
    a, b = problem["features"], problem["targets"]
    f_opt = logistic_loss(a, b, problem["theta_star"])
    if not _rel_close(problem["f_star"], f_opt, REL_TOL):
        fails.append(f"f_star {problem['f_star']!r} != loss at theta_star {f_opt!r}")
    subopt = logistic_loss(a, b, theta) - f_opt
    if abs(report["final_suboptimality"] - subopt) > 1e-9:
        fails.append(f"final suboptimality {report['final_suboptimality']!r} != recomputed {subopt!r}")
    ceiling = SGD_CEILING_FACTOR * sgd_ceiling(
        a.shape[1], problem["lipschitz"], radius, point["T"], point["k"], point["eps0"], point["clip_radius"]
    )
    if not subopt <= ceiling:
        fails.append(f"suboptimality {subopt!r} above the ceiling {ceiling!r}")
    if np.asarray(rerun["theta_final"]).tobytes() != theta.tobytes():
        fails.append("the same seed gave a different theta_final")
    return fails
