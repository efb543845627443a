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

Every round draws from two independent streams keyed by (seed, round,
purpose): purpose 0 samples the cohort, purpose 1 drives the randomizer.
Each is the stream of ``default_rng(SeedSequence((seed, t, purpose)))``,
bit for bit, but a run builds no SeedSequence per round: it derives the
PCG64 states of a block of rounds at once, SeedSequence's hash mixing
vectorised over t followed by PCG64's seeding, and sets them on two
reused generators.  That covers every key of at most four 32-bit words,
a seed below 2^64 and a round below 2^32; any other key builds its
SeedSequence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

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

#: Most entries of a random problem's (n, d) design and of its (d, d) Gram
#: matrix, 1 GiB of doubles each; larger n or d is refused before either
#: is allocated.
MAX_DESIGN_ENTRIES = 2**27
#: Most rounds of a run.  Every round then has a one-word index in its
#: stream key, and a run this long already takes days.
MAX_ROUNDS = 2**32 - 1


def _loss_value(loss: str, z: np.ndarray, b: np.ndarray) -> float:
    """Mean loss over samples with predictions z = a . theta and targets b."""
    # np.add.reduce(v) / n is np.mean(v), bit for bit, without its dispatch.
    if loss == LOSS_LEAST_SQUARES:
        return 0.5 * float(np.add.reduce((z - b) ** 2) / len(z))
    return float(np.add.reduce(np.logaddexp(0.0, -b * z)) / len(z))


def _unguarded_grad_weights(loss: str, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_grad_weights without its overflow guard: a logistic weight whose exp
    overflows is still 0, but numpy warns unless the caller ignores overflow."""
    if loss == LOSS_LEAST_SQUARES:
        return z - b
    return -b * (1.0 / (1.0 + np.exp(b * z)))  # b z is -(-b z), exactly


def _grad_weights(loss: str, z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-sample d loss / d z: sample i's gradient is weights[i] * a_i."""
    with np.errstate(over="ignore"):  # 1 / (1 + inf) = 0 is the right limit
        return _unguarded_grad_weights(loss, z, b)


def _check_radius(radius: float) -> None:
    if not (radius > 0 and math.isfinite(2.0 * radius)):
        raise ValueError(f"radius must be positive with a finite diameter, got {radius}")


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
        _check_radius(self.radius)
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
    """Euclidean projection onto the l2 ball of the given radius; a
    non-finite theta raises ValueError."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _onto_ball(theta, math.sqrt(theta @ theta), radius)


def _onto_ball(theta: np.ndarray, nrm: float, radius: float) -> np.ndarray:
    """project for a float64 theta whose l2 norm, sqrt(theta @ theta) as
    np.linalg.norm computes it, is ``nrm``: inf where the squared norm
    overflowed, or where theta is not finite."""
    if nrm <= radius:
        return theta
    if not math.isfinite(nrm):  # rescale before squaring
        top = float(np.max(np.abs(theta)))
        if not math.isfinite(top):
            raise ValueError(f"cannot project the non-finite iterate {theta}")
        scaled = theta / top
        nrm = top * math.sqrt(scaled @ scaled)
        if nrm <= radius:
            return theta
    return theta * (radius / nrm)


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
    if max(n, d) * d > MAX_DESIGN_ENTRIES:
        raise ValueError(
            f"n = {n} and d = {d} need an (n, d) design and a (d, d) Gram matrix, "
            f"each of at most MAX_DESIGN_ENTRIES = {MAX_DESIGN_ENTRIES} entries"
        )
    check_int("seed", seed, 0)
    _check_radius(radius)
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
        check_int("T", self.T, 1, MAX_ROUNDS)
        check_int("k", self.k, 1)
        check_int("seed", self.seed, 0)
        if not self.clip_radius > 0:
            raise ValueError("clip radius must be positive")
        if self.schedule not in (SCHEDULE_PAPER, SCHEDULE_CONSTANT):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.eta is not None and not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.schedule == SCHEDULE_CONSTANT and self.eta is None:
            raise ValueError("constant schedule requires a positive eta")
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


# SeedSequence's hash constants and PCG64's multiplier, as numpy defines them
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL_WORDS = 4  # SeedSequence's entropy pool, in 32-bit words
_STREAM_BLOCK = 1024  # rounds derived in one pass; bounds a long run's memory


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """init mult^i mod 2^32 for i = 0..calls: hashmix call i xors the i-th
    and multiplies by the next, whatever the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None, None]


_HASH_POOL = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)  # fill, then 12 mixes
_HASH_OUT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)  # generate_state's 8 words


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value broadcast against len(consts) - 1 calls."""
    value = value ^ consts[:-1]
    value *= consts[1:]
    value ^= value >> 16
    return value


def _pcg64_states(entropy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's (state, inc), as object arrays of ints, that default_rng
    starts from for SeedSequences whose assembled entropy is ``entropy``:
    a uint32 array of _POOL_WORDS rows, one per word, zero-padded, with a
    key in each column.

    SeedSequence's pool mixing and generate_state(4, uint64), then PCG64's
    setseq seeding: state = ((inc + s) M + inc) mod 2^128 with
    inc = 2 seq + 1, where s and seq are the four uint64 words in pairs."""
    pool = _hashmix(entropy, _HASH_POOL[:_POOL_WORDS + 1])
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        call = _POOL_WORDS + len(dst) * src
        hashed = _hashmix(pool[src], _HASH_POOL[call:call + len(dst) + 1])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    words = _hashmix(np.concatenate([pool, pool]), _HASH_OUT).astype(np.uint64)
    w = (words[0::2] | words[1::2] << 32).astype(object)  # little-endian pairs
    s = w[0] << 64 | w[1]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    return ((inc + s) * _PCG64_MULT + inc) & _MASK128, inc


def _round_streams(
    seed: int, start: int, stop: int
) -> Iterator[tuple[np.random.Generator, np.random.Generator]]:
    """The (cohort, randomizer) generators of rounds start..stop-1: the
    streams of _round_rng(seed, t, 0) and _round_rng(seed, t, 1), bit for
    bit.  The same two generators come back every round, their states reset.

    The states of up to _STREAM_BLOCK rounds are derived in one pass.  The
    pass lays out each key's entropy as the seed's words, t and the
    purpose, which holds for a seed below 2^64 and t below 2^32; other
    rounds build their SeedSequence."""
    gens = (np.random.Generator(np.random.PCG64(0)), np.random.Generator(np.random.PCG64(0)))
    bits = [gen.bit_generator for gen in gens]
    seed = operator.index(seed)  # a numpy integer too, as SeedSequence takes one
    seed_words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    fast_stop = min(stop, 2**32) if len(seed_words) <= _POOL_WORDS - 2 else start
    for lo in range(start, fast_stop, _STREAM_BLOCK):
        hi = min(lo + _STREAM_BLOCK, fast_stop)
        entropy = np.zeros((_POOL_WORDS, 2, hi - lo), dtype=np.uint32)
        entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None, None]
        entropy[len(seed_words)] = np.arange(lo, hi)  # t
        entropy[len(seed_words) + 1] = [[0], [1]]  # purpose
        states, incs = _pcg64_states(entropy)  # (purpose, round) each
        for round_states, round_incs in zip(zip(*states.tolist()), zip(*incs.tolist())):
            for bit, state, inc in zip(bits, round_states, round_incs):
                bit.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
            yield gens
    for t in range(max(start, fast_stop), stop):
        yield _round_rng(seed, t, 0), _round_rng(seed, t, 1)


def aggregate_round(
    problem: ConvexProblem,
    theta: np.ndarray,
    idx: np.ndarray,
    mech: Optional[VecMech],
    cfg: SgdConfig,
    t: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One round's mean report: gradients, clipping, randomization.

    The randomizer draws from ``rng``, by default the round's stream
    _round_rng(cfg.seed, t, 1).  Equal, bit for bit, to clipping the (k, d)
    gradient batch with clip_batch, randomizing it with vec_randomize_batch
    on that generator and counting signs, without forming the batch:
    rounding is monotone, so fl(|w_i| max_j |a_ij|) is exactly
    max_j |fl(w_i a_ij)|.  A logistic weight whose exp overflows is 0, its
    limit; numpy warns of the overflow unless the caller ignores it, as run
    does once for all its rounds.
    """
    if mech is None:
        return clip_batch(problem.sample_grads(theta, idx), cfg.clip_radius).mean(axis=0)
    if mech.d != problem.d:
        raise ValueError(f"the randomizer has dimension {mech.d}, the problem {problem.d}")
    w = _unguarded_grad_weights(problem.loss, problem.features[idx] @ theta, problem.targets[idx])
    norms = np.abs(w) * problem.row_max_abs[idx]
    factor = np.maximum(1.0, norms / cfg.clip_radius)
    j, b = vec_randomize_sparse(
        lambda j: w * problem.features[idx, j] / factor,
        norms / factor,
        mech,
        _round_rng(cfg.seed, t, 1) if rng is None else rng,
    )
    # The shuffled reports are a histogram: net sign count times scale is
    # each coordinate's exact sum, rounded once.
    return np.bincount(j, weights=b, minlength=mech.d) * mech.scale / len(idx)


def _check_steps(problem: ConvexProblem, cfg: SgdConfig, eta_max: float, report_max: float):
    """Raise ValueError unless no round can overflow: a gradient's norm over
    the clip radius (at most lipschitz / clip_radius) and an iterate moved
    by the largest step (eta_max, the first round's) times the largest
    mean-report coordinate (report_max) stay finite."""
    if not math.isfinite(problem.lipschitz / cfg.clip_radius):
        raise ValueError(
            f"clip_radius {cfg.clip_radius} is too small: lipschitz / clip_radius overflows"
        )
    if not math.isfinite(problem.radius + eta_max * report_max):
        raise ValueError(
            f"eta {eta_max} is too large: a step of eta times the largest report "
            f"{report_max} overflows"
        )


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
    _check_steps(problem, cfg, eta(1), cfg.clip_radius if mech is None else mech.scale)

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

    streams = _round_streams(cfg.seed, 1, cfg.T + 1)
    # Overflow is ignored once for all rounds: a logistic weight's exp (see
    # aggregate_round), and a squared norm that _onto_ball rescales.
    with np.errstate(over="ignore"):
        for t, (cohort, randomizer) in enumerate(streams, start=1):
            idx = cohort.choice(problem.n, size=cfg.k, replace=False)
            g_bar = aggregate_round(problem, theta, idx, mech, cfg, t, randomizer)
            sq_norm_sum += math.ldexp(float(g_bar @ g_bar), -c)
            theta = theta - eta(t) * g_bar
            theta = _onto_ball(theta, math.sqrt(theta @ theta), problem.radius)
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
    with np.errstate(over="ignore"):  # see aggregate_round
        for s, (_, randomizer) in enumerate(_round_streams(cfg.seed, 1, samples + 1), start=1):
            idx = rng.choice(problem.n, size=cfg.k, replace=False)
            g_bar = aggregate_round(problem, theta, idx, mech, cfg, s, randomizer)
            total += float(g_bar @ g_bar)
    return total / samples
