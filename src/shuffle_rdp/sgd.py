"""Desk-scale private distributed SGD on synthetic convex problems.

Each round samples k of n clients without replacement; every sampled
client computes its per-sample gradient, clips it in l-infinity norm,
and randomizes it with the vector mechanism; the server averages the k
reports and takes a projected step on an l2 ball.  The attached privacy
report is exactly the accountant's output for the same (n, k, eps0, T,
delta).

The server uses only the mean report, which the shuffler's permutation
cannot change: every report is +-scale on one coordinate, so the shuffled
batch is a histogram over 2d points, and the mean is each coordinate's
net sign count times scale / k.  The counts are exact integers, so no
permutation is drawn, and runs are reproducible bit-for-bit from the seed.

A round never forms the (k, d) gradient batch.  Sample i's gradient is
w_i a_i, so its l-infinity norm is |w_i| max_j |a_ij|, read from a per-row
maximum computed once per problem; the randomizer then reads the one
coordinate it picks.  After the k dot products a . theta, a round costs
O(k + d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .accountant import AccountantConfig, DpGuarantee, total_privacy
from .bounds import SubsampledShuffleParams, check_delta, check_int
from .mechanisms import VecMech, clip_batch, vec_randomize_sparse

LOSS_LEAST_SQUARES = "least_squares"
LOSS_LOGISTIC = "logistic"

SCHEDULE_PAPER = "paper"  # eta_t = D / (G sqrt(t))
SCHEDULE_CONSTANT = "constant"

# Bound on each loss's second derivative in the prediction z = a . theta.
_CURVATURE = {LOSS_LEAST_SQUARES: 1.0, LOSS_LOGISTIC: 0.25}


def _loss_value(loss: str, z: np.ndarray, b: np.ndarray) -> float:
    """Mean loss over samples with predictions z = a . theta and targets b."""
    if loss == LOSS_LEAST_SQUARES:
        return 0.5 * float(np.mean((z - b) ** 2))
    return float(np.mean(np.logaddexp(0.0, -b * z)))


def _grad_weights(loss: str, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample d loss / d z: sample i's gradient is weights[i] * a_i."""
    if loss == LOSS_LEAST_SQUARES:
        return z - b
    margins = -b * z
    with np.errstate(over="ignore"):  # 1 / (1 + inf) = 0 is the right limit
        return -b * (1.0 / (1.0 + np.exp(-margins)))


@dataclass(frozen=True)
class ConvexProblem:
    """Synthetic ERM instance on an l2 ball.

    ``lipschitz`` bounds every per-sample gradient's l-infinity norm over
    the domain (the Lipschitz constant w.r.t. the l1 norm, dual of
    l-infinity); ``f_star`` is the optimum value of the averaged loss on
    the ball, computed offline by a deterministic full-gradient solver.
    """

    features: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,)
    loss: str
    radius: float  # l2 domain radius; diameter D = 2 * radius
    lipschitz: float
    f_star: float
    theta_star: np.ndarray

    def __post_init__(self):
        if self.loss not in _CURVATURE:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.features.ndim != 2 or self.targets.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with matching targets")
        if not (self.radius > 0 and math.isfinite(self.diameter)):
            raise ValueError(f"radius must be positive with a finite diameter, got {self.radius}")
        # d L^2 enters the step size; a float product overflows to inf, not an error.
        second_moment = self.d * self.lipschitz * self.lipschitz
        if not (math.isfinite(self.f_star) and math.isfinite(second_moment)):
            raise ValueError(
                f"the problem overflows at radius {self.radius}: "
                f"lipschitz {self.lipschitz}, f_star {self.f_star}"
            )

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @cached_property
    def row_max_abs(self) -> np.ndarray:
        """max_j |a_ij| of every sample's features."""
        return np.max(np.abs(self.features), axis=1)

    def objective(self, theta: np.ndarray) -> float:
        return _loss_value(self.loss, self.features @ theta, self.targets)

    def sample_grads(self, theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Per-sample gradients, one row per index."""
        a = self.features[idx]
        return _grad_weights(self.loss, a @ theta, self.targets[idx])[:, None] * a


def project(theta: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l2 ball of the given radius."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(theta))
    if nrm == math.inf:  # the squared norm overflowed; rescale before squaring
        top = float(np.max(np.abs(theta)))
        nrm = top * float(np.linalg.norm(np.asarray(theta) / top))
    if nrm <= radius:
        return np.asarray(theta, dtype=np.float64)
    return np.asarray(theta, dtype=np.float64) * (radius / nrm)


def solve_optimum(
    features: np.ndarray,
    targets: np.ndarray,
    loss: str,
    radius: float,
    iters: int = 20_000,
    tol: float = 1e-14,
) -> tuple[np.ndarray, float]:
    """Deterministic projected full-gradient descent to the ball optimum.

    Stops once a step moves theta by at most ``tol`` in l2 norm or leaves
    it nan, or after ``iters`` steps.
    """
    n, d = features.shape
    smooth = float(np.linalg.eigvalsh(features.T @ features / n).max()) * _CURVATURE[loss]
    step = 1.0 / max(smooth, 1e-12)
    theta = np.zeros(d)
    for _ in range(iters):
        grad = features.T @ _grad_weights(loss, features @ theta, targets) / n
        nxt = project(theta - step * grad, radius)
        moved = float(np.linalg.norm(nxt - theta))
        theta = nxt
        if not moved > tol:  # true for nan too
            break
    return theta, _loss_value(loss, features @ theta, targets)


# An extreme radius shows up as a non-finite diameter, lipschitz or f_star,
# which ConvexProblem rejects; numpy's overflow warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def _random_problem(loss: str, n: int, d: int, seed: int, radius: float) -> ConvexProblem:
    """A random instance: Gaussian design, planted theta at 0.7 radius, noisy targets."""
    check_int("n", n, 1)
    check_int("d", d, 1)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d)) / math.sqrt(d)
    theta_true = rng.normal(size=d)
    theta_true *= 0.7 * radius / float(np.linalg.norm(theta_true))
    if loss == LOSS_LEAST_SQUARES:
        b = a @ theta_true + 0.05 * rng.normal(size=n)
        # ||grad_i||_inf <= |a_i . theta - b_i| ||a_i||_inf <= (||a_i||_2 R + |b_i|) ||a_i||_inf
        row_l2 = np.linalg.norm(a, axis=1)
        row_linf = np.max(np.abs(a), axis=1)
        lipschitz = float(np.max(row_linf * (row_l2 * radius + np.abs(b))))
    else:
        b = np.where(a @ theta_true + 0.1 * rng.normal(size=n) >= 0, 1.0, -1.0)
        # ||grad_i||_inf <= ||a_i||_inf (the sigmoid weight is below 1).
        lipschitz = float(np.max(np.abs(a)))
    theta_star, f_star = solve_optimum(a, b, loss, radius)
    return ConvexProblem(
        features=a,
        targets=b,
        loss=loss,
        radius=radius,
        lipschitz=lipschitz,
        f_star=f_star,
        theta_star=theta_star,
    )


def least_squares_problem(n: int, d: int, seed: int, radius: float = 1.0) -> ConvexProblem:
    """A random well-conditioned least-squares instance on the l2 ball."""
    return _random_problem(LOSS_LEAST_SQUARES, n, d, seed, radius)


def logistic_problem(n: int, d: int, seed: int, radius: float = 1.0) -> ConvexProblem:
    """A random logistic-regression instance on the l2 ball."""
    return _random_problem(LOSS_LOGISTIC, n, d, seed, radius)


@dataclass(frozen=True)
class SgdConfig:
    """Run configuration: rounds, cohort, privacy, clipping, learning rate."""

    T: int
    k: int
    eps0: float
    clip_radius: float
    delta: float = 1e-8
    seed: int = 0
    schedule: str = SCHEDULE_PAPER
    eta: Optional[float] = None  # required by the constant schedule
    bypass_randomizer: bool = False  # eps0 -> infinity proxy; disables privacy
    record_every: Optional[int] = None  # default max(1, T // 500)

    def __post_init__(self):
        check_int("T", self.T, 1)
        check_int("k", self.k, 1)
        check_int("seed", self.seed, 0)
        if not self.clip_radius > 0:
            raise ValueError("clip radius must be positive")
        if self.schedule not in (SCHEDULE_PAPER, SCHEDULE_CONSTANT):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == SCHEDULE_CONSTANT and not (
            self.eta is not None and self.eta > 0
        ):
            raise ValueError("constant schedule requires a positive eta")
        if self.eta is not None and not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
        if not (self.bypass_randomizer or self.eps0 > 0):
            raise ValueError("eps0 must be positive unless the randomizer is bypassed")
        check_delta(self.delta)
        if self.record_every is not None:
            check_int("record_every", self.record_every, 1)


@dataclass
class SgdRunReport:
    """Trajectory, suboptimality, and the attached privacy budget."""

    rounds: list[int]
    objectives: list[float]
    final_suboptimality: float
    privacy: Optional[DpGuarantee]
    grad_second_moment: float
    theta_final: np.ndarray = field(repr=False, default=None)


def _mechanism(problem: ConvexProblem, cfg: SgdConfig) -> Optional[VecMech]:
    """The clients' randomizer, or None when the run bypasses it."""
    if cfg.bypass_randomizer:
        return None
    return VecMech(eps0=cfg.eps0, d=problem.d, C=cfg.clip_radius)


def second_moment_bound(problem: ConvexProblem, cfg: SgdConfig) -> float:
    """Closed-form ceiling on E||mean randomized gradient||_2^2.

    max(d^{1-2/p}, 1) L^2 + G_p^2(C)/k with p = infinity, so d L^2 plus the
    mechanism variance over the cohort size.
    """
    base = max(problem.d, 1) * problem.lipschitz**2
    mech = _mechanism(problem, cfg)
    return base if mech is None else base + mech.variance_bound / cfg.k


def paper_schedule_constants(problem: ConvexProblem, cfg: SgdConfig) -> tuple[float, float]:
    """(D, G) for eta_t = D/(G sqrt(t)): domain diameter and gradient scale."""
    return problem.diameter, math.sqrt(second_moment_bound(problem, cfg))


def convergence_ceiling(problem: ConvexProblem, cfg: SgdConfig) -> float:
    """2 D G (2 + ln T)/sqrt(T) -- the schedule's suboptimality guarantee."""
    D, G = paper_schedule_constants(problem, cfg)
    return 2.0 * D * G * (2.0 + math.log(cfg.T)) / math.sqrt(cfg.T)


def _round_rng(seed: int, t: int, purpose: int) -> np.random.Generator:
    """Independent substream keyed by (seed, round, purpose)."""
    return np.random.default_rng(np.random.SeedSequence((seed, t, purpose)))


def aggregate_round(
    problem: ConvexProblem,
    theta: np.ndarray,
    idx: np.ndarray,
    mech: Optional[VecMech],
    cfg: SgdConfig,
    t: int,
) -> np.ndarray:
    """One round's mean report: gradients, clipping, randomization.

    Equal, bit for bit, to clipping the (k, d) gradient batch with
    clip_batch, randomizing it with vec_randomize_batch on the round's
    generator and counting signs, without forming the batch: rounding is
    monotone, so fl(|w_i| max_j |a_ij|) is exactly max_j |fl(w_i a_ij)|.
    """
    if mech is None:
        return clip_batch(problem.sample_grads(theta, idx), cfg.clip_radius).mean(axis=0)
    if mech.d != problem.d:
        raise ValueError(f"the randomizer has dimension {mech.d}, the problem {problem.d}")
    w = _grad_weights(problem.loss, problem.features[idx] @ theta, problem.targets[idx])
    norms = np.abs(w) * problem.row_max_abs[idx]
    factor = np.maximum(1.0, norms / cfg.clip_radius)
    j, b = vec_randomize_sparse(
        lambda j: w * problem.features[idx, j] / factor,
        norms / factor,
        mech,
        _round_rng(cfg.seed, t, 1),
    )
    # The shuffled reports are a histogram: net sign count times scale is
    # each coordinate's exact sum, rounded once.
    return np.bincount(j, weights=b, minlength=mech.d) * mech.scale / len(idx)


def run(problem: ConvexProblem, cfg: SgdConfig) -> SgdRunReport:
    """Execute the private SGD loop and attach the accountant's guarantee."""
    if cfg.k > problem.n:
        raise ValueError(f"cohort k={cfg.k} exceeds n={problem.n}")
    mech = _mechanism(problem, cfg)
    if cfg.schedule == SCHEDULE_PAPER:
        D, G = paper_schedule_constants(problem, cfg)
        eta = lambda t: D / (G * math.sqrt(t))
    else:
        eta = lambda t: cfg.eta

    record_every = cfg.record_every or max(1, cfg.T // 500)
    theta = np.zeros(problem.d)
    rounds: list[int] = [0]
    objectives: list[float] = [problem.objective(theta)]
    # Each round's ||g_bar||^2 is finite, but T of them may overflow: sum
    # them scaled by 2^-c with 2^c > T.  Scaling by a power of two commutes
    # with rounding, so the mean is the plain sum's, bit for bit, unless a
    # scaled term falls below the smallest normal double.
    c = int(cfg.T).bit_length()
    sq_norm_sum = 0.0

    for t in range(1, cfg.T + 1):
        idx = _round_rng(cfg.seed, t, 0).choice(problem.n, size=cfg.k, replace=False)
        g_bar = aggregate_round(problem, theta, idx, mech, cfg, t)
        sq_norm_sum += math.ldexp(float(g_bar @ g_bar), -c)
        theta = project(theta - eta(t) * g_bar, problem.radius)
        if t % record_every == 0 or t == cfg.T:
            rounds.append(t)
            objectives.append(problem.objective(theta))

    privacy = None
    if mech is not None:
        params = SubsampledShuffleParams(n=problem.n, k=cfg.k, eps0=cfg.eps0)
        privacy = total_privacy(params, AccountantConfig(T=cfg.T, delta=cfg.delta))
    return SgdRunReport(
        rounds=rounds,
        objectives=objectives,
        final_suboptimality=objectives[-1] - problem.f_star,
        privacy=privacy,
        grad_second_moment=math.ldexp(sq_norm_sum / cfg.T, c),
        theta_final=theta,
    )


def grad_second_moment_check(
    problem: ConvexProblem, cfg: SgdConfig, samples: int = 1000
) -> float:
    """Monte-Carlo estimate of E||mean randomized gradient||_2^2 at a random
    interior point; callers compare it against second_moment_bound."""
    check_int("samples", samples, 1000)  # fewer give no stable estimate
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xE57)))
    theta = rng.normal(size=problem.d)
    theta = project(theta, 0.5 * problem.radius)
    mech = _mechanism(problem, cfg)
    total = 0.0
    for s in range(1, samples + 1):
        idx = rng.choice(problem.n, size=cfg.k, replace=False)
        g_bar = aggregate_round(problem, theta, idx, mech, cfg, s)
        total += float(g_bar @ g_bar)
    return total / samples
