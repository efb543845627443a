"""Tests for the private SGD simulator."""

import functools
import math
import warnings

import numpy as np
import pytest

from shuffle_rdp.accountant import AccountantConfig, total_privacy
from shuffle_rdp.bounds import SubsampledShuffleParams
from shuffle_rdp import sgd
from shuffle_rdp.mechanisms import VecMech, clip_batch, vec_randomize_batch, vec_randomize_sparse
from shuffle_rdp.sgd import (
    SgdConfig,
    aggregate_round,
    convergence_ceiling,
    grad_second_moment_check,
    least_squares_problem,
    logistic_problem,
    paper_schedule_constants,
    project,
    run,
    second_moment_bound,
    solve_optimum,
)


@pytest.fixture(scope="module")
def problem():
    return least_squares_problem(n=400, d=6, seed=7)


@functools.cache
def problem_of_dim(d, loss="least_squares"):
    build = least_squares_problem if loss == "least_squares" else logistic_problem
    return build(n=500, d=d, seed=7)


def dense_round(problem, theta, idx, mech, cfg, t, rng=None):
    """The round on the dense (k, d) batch: clip, randomize, count signs.
    It ignores ``rng`` and draws from the round's reference stream, built
    from its own SeedSequence, so a run through it also checks the run's
    derived streams."""
    clipped = clip_batch(problem.sample_grads(theta, idx), cfg.clip_radius)
    reports = vec_randomize_batch(clipped, mech, sgd._round_rng(cfg.seed, t, 1))
    return np.sign(reports).sum(axis=0) * mech.scale / len(idx)


def full_gradient(problem, theta):
    """The averaged loss's gradient: the mean over every sample's gradient."""
    return problem.sample_grads(theta, np.arange(problem.n)).mean(axis=0)


class TestProject:
    def test_interior_unchanged(self):
        x = np.array([0.1, 0.2])
        np.testing.assert_array_equal(project(x, 1.0), x)

    def test_scaling_preserves_direction(self):
        r = 0.8
        x = np.array([2 * r, 0.0])
        np.testing.assert_allclose(project(x, r), [r, 0.0], rtol=1e-15)

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y = rng.normal(size=(2, 5)) * 3
            assert np.linalg.norm(project(x, 1.0) - project(y, 1.0)) <= (
                np.linalg.norm(x - y) + 1e-12
            )

    def test_squared_norm_overflow(self):
        got = project(np.array([3e200, 4e200]), 1e200)
        np.testing.assert_allclose(got, [6e199, 8e199], rtol=1e-15)
        x = np.array([1e200, 1e200])
        np.testing.assert_array_equal(project(x, 1e300), x)

    @pytest.mark.parametrize("x", [[math.inf, 0.0], [math.nan, 1.0]])
    def test_non_finite_iterate_rejected(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite iterate"):
                project(np.array(x), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=4) * 10
        once = project(x, 1.0)
        np.testing.assert_allclose(project(once, 1.0), once, rtol=1e-15)


class TestRoundStreams:
    # Each (round, purpose) stream is derived per run without a SeedSequence
    # per round; it must stay the stream of its own SeedSequence, so that a
    # change to numpy's SeedSequence mixing or PCG64 seeding fails here.
    @staticmethod
    def assert_streams_match(seed, start, stop):
        draws = (
            lambda g: g.choice(1000, size=5, replace=False),
            lambda g: g.integers(50, size=3),  # leaves a buffered 32-bit word
            lambda g: g.random(2),
        )
        rounds = 0
        for t, gens in enumerate(sgd._round_streams(seed, start, stop), start=start):
            for purpose, gen in enumerate(gens):
                ref = np.random.default_rng(np.random.SeedSequence((seed, t, purpose)))
                assert gen.bit_generator.state == ref.bit_generator.state, (seed, t, purpose)
                for draw in draws:
                    assert draw(gen).tobytes() == draw(ref).tobytes(), (seed, t, purpose)
            rounds += 1
        assert rounds == stop - start

    # 2**32 - 1 and 2**32 span the one- and two-word seeds; 2**64 needs
    # three words and takes the SeedSequence fallback.
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63, 2**64])
    def test_streams_equal_their_seed_sequences(self, seed):
        self.assert_streams_match(seed, 1, 3001)

    @pytest.mark.parametrize("seed", [0, 2**63])
    def test_rounds_past_32_bits_fall_back(self, seed):
        self.assert_streams_match(seed, 2**32 - 3, 2**32 + 3)

    def test_numpy_integer_seed(self):
        self.assert_streams_match(np.uint64(2**40 + 3), 1, 20)

    def test_derivation_spans_blocks(self):
        block = sgd._STREAM_BLOCK
        self.assert_streams_match(7, block - 2, block + 3)


class TestProblems:
    def test_gradient_linf_within_lipschitz(self, problem):
        rng = np.random.default_rng(6)
        for _ in range(50):
            theta = project(rng.normal(size=problem.d), problem.radius)
            grads = problem.sample_grads(theta, np.arange(problem.n))
            assert np.max(np.abs(grads)) <= problem.lipschitz + 1e-12

    def test_optimum_is_no_worse_than_random_points(self, problem):
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = project(rng.normal(size=problem.d), problem.radius)
            assert problem.f_star <= problem.objective(theta) + 1e-12

    def test_solver_deterministic(self, problem):
        theta, f = solve_optimum(
            problem.features, problem.targets, problem.loss, problem.radius
        )
        np.testing.assert_array_equal(theta, problem.theta_star)
        assert f == problem.f_star

    @pytest.mark.parametrize("loss", ["least_squares", "logistic"])
    def test_converged_stop_matches_unstopped_solve(self, loss):
        # tol = 0 runs until a step leaves theta unchanged or the iteration
        # cap is reached; the default stop must give the same optimum.
        build = least_squares_problem if loss == "least_squares" else logistic_problem
        prob = build(n=300, d=6, seed=5)
        _, f_full = solve_optimum(prob.features, prob.targets, prob.loss, prob.radius, tol=0.0)
        assert prob.f_star == pytest.approx(f_full, rel=1e-15, abs=0.0)

    def test_empty_problem_rejected(self):
        for n, d in ((100, 0), (0, 5)):
            with pytest.raises(ValueError):
                least_squares_problem(n=n, d=d, seed=1)
            with pytest.raises(ValueError):
                logistic_problem(n=n, d=d, seed=1)

    @pytest.mark.parametrize("radius", [math.inf, 1e308, 0.0, math.nan])
    @pytest.mark.parametrize("build", [least_squares_problem, logistic_problem])
    def test_bad_radius_rejected(self, build, radius):
        with pytest.raises(ValueError, match="radius"):
            build(n=100, d=10, seed=7, radius=radius)

    def test_design_past_its_cap_rejected(self, monkeypatch):
        # Refused before the (n, d) design or its (d, d) Gram matrix is
        # allocated.  A small cap keeps the test from allocating much if the
        # check were missing.
        monkeypatch.setattr(sgd, "MAX_DESIGN_ENTRIES", 100)
        least_squares_problem(n=10, d=10, seed=1)
        for n, d in ((11, 10), (1, 11)):
            with pytest.raises(ValueError, match="MAX_DESIGN_ENTRIES"):
                least_squares_problem(n=n, d=d, seed=1)

    def test_overflowing_problem_rejected(self):
        # The diameter is finite, but d L^2 is not.
        with pytest.raises(ValueError, match="overflows"):
            least_squares_problem(n=100, d=10, seed=7, radius=1e154)

    def test_logistic_variant(self):
        prob = logistic_problem(n=200, d=4, seed=3)
        rng = np.random.default_rng(9)
        theta = project(rng.normal(size=4), prob.radius)
        grads = prob.sample_grads(theta, np.arange(prob.n))
        assert np.max(np.abs(grads)) <= prob.lipschitz + 1e-12
        assert prob.f_star <= prob.objective(theta) + 1e-12


class TestRunMechanics:
    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            SgdConfig(T=0, k=10, eps0=1.0, clip_radius=1.0)

    def test_cohort_larger_than_n_rejected(self, problem):
        cfg = SgdConfig(T=5, k=problem.n + 1, eps0=1.0, clip_radius=1.0)
        with pytest.raises(ValueError):
            run(problem, cfg)

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta"):
            SgdConfig(T=5, k=10, eps0=1.0, clip_radius=1.0, schedule="constant", eta=eta)

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    @pytest.mark.parametrize("schedule", ["paper", "constant"])
    def test_non_positive_eta_rejected(self, schedule, eta):
        with pytest.raises(ValueError, match="eta"):
            SgdConfig(T=5, k=10, eps0=1.0, clip_radius=1.0, schedule=schedule, eta=eta)

    def test_rounds_past_the_cap_rejected(self):
        SgdConfig(T=sgd.MAX_ROUNDS, k=10, eps0=1.0, clip_radius=1.0)
        with pytest.raises(ValueError, match=r"\bT\b"):
            SgdConfig(T=sgd.MAX_ROUNDS + 1, k=10, eps0=1.0, clip_radius=1.0)

    def test_eps0_required_without_bypass(self):
        with pytest.raises(ValueError):
            SgdConfig(T=5, k=10, eps0=0.0, clip_radius=1.0)

    def test_eps0_with_infinite_exp_rejected(self, problem):
        for bad in (800.0, math.inf):
            with pytest.raises(ValueError):
                run(problem, SgdConfig(T=5, k=10, eps0=bad, clip_radius=1.0))

    def test_bypass_full_cohort_matches_reference_gd(self, problem):
        # Randomization disabled and k = n: the loop is projected batch
        # gradient descent on clipped gradients; with the clip radius above
        # the gradient range, it must track a reference implementation.
        T = 25
        cfg = SgdConfig(
            T=T,
            k=problem.n,
            eps0=1.0,
            clip_radius=2 * problem.lipschitz,
            seed=3,
            schedule="constant",
            eta=0.05,
            bypass_randomizer=True,
            record_every=1,
        )
        report = run(problem, cfg)
        theta = np.zeros(problem.d)
        objs = [problem.objective(theta)]
        for _ in range(T):
            theta = project(theta - 0.05 * full_gradient(problem, theta), problem.radius)
            objs.append(problem.objective(theta))
        np.testing.assert_allclose(report.objectives, objs, atol=1e-10)
        assert report.privacy is None  # bypass means no finite eps0 claim

    @pytest.mark.parametrize("eps0", [0.1, 2.0, 10.0])
    @pytest.mark.parametrize("k", [1, 2, 100, 500])
    @pytest.mark.parametrize("d", [1, 6, 1000])
    def test_shuffle_invariance_exact(self, monkeypatch, d, k, eps0):
        # The mean report equals, bit for bit, correctly rounded
        # per-coordinate sums over k, and the shuffler's permutation of the
        # reports cannot change it.
        prob = problem_of_dim(d)
        cfg = SgdConfig(T=1, k=k, eps0=eps0, clip_radius=prob.lipschitz, seed=12)
        mech = VecMech(eps0=eps0, d=d, C=prob.lipschitz)
        rng = np.random.default_rng(12)
        theta = project(rng.normal(size=d), prob.radius)
        idx = rng.choice(prob.n, size=k, replace=False)
        drawn = []

        def draw(gather, norms, m, g):
            drawn.append(vec_randomize_sparse(gather, norms, m, g))
            return drawn[-1]

        monkeypatch.setattr(sgd, "vec_randomize_sparse", draw)
        mean = aggregate_round(prob, theta, idx, mech, cfg, t=1)
        ((j, b),) = drawn
        reports = np.zeros((k, d))
        reports[np.arange(k), j] = mech.scale * b
        fsum_mean = np.array([math.fsum(reports[:, c]) for c in range(d)]) / k
        assert mean.tobytes() == fsum_mean.tobytes()

        perm = np.random.default_rng(13).permutation(k)
        monkeypatch.setattr(sgd, "vec_randomize_sparse", lambda *args: (j[perm], b[perm]))
        assert aggregate_round(prob, theta, idx, mech, cfg, t=1).tobytes() == mean.tobytes()

    @pytest.mark.parametrize("clip_share", [1.0, 0.5, 0.125])
    @pytest.mark.parametrize("d", [1, 6, 50, 1000])
    @pytest.mark.parametrize("loss", ["least_squares", "logistic"])
    def test_round_equals_dense_reference(self, loss, d, clip_share):
        # The round never forms the (k, d) batch; it must still equal the
        # dense path bit for bit.  At clip_share 1/8 some rows are clipped,
        # so a clip factor taken from the picked coordinate, not the row
        # max, fails here.
        prob = problem_of_dim(d, loss)
        C = clip_share * prob.lipschitz
        rng = np.random.default_rng(31)
        theta = project(rng.normal(size=d), prob.radius)
        for k in (1, 100):
            idx = rng.choice(prob.n, size=k, replace=False)
            for eps0 in (0.1, 2.0, 10.0):
                cfg = SgdConfig(T=1, k=k, eps0=eps0, clip_radius=C, seed=17)
                mech = VecMech(eps0=eps0, d=d, C=C)
                got = aggregate_round(prob, theta, idx, mech, cfg, t=3)
                want = dense_round(prob, theta, idx, mech, cfg, t=3)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("loss", ["least_squares", "logistic"])
    def test_run_equals_dense_reference(self, monkeypatch, loss):
        prob = problem_of_dim(50, loss)
        cfg = SgdConfig(T=40, k=100, eps0=2.0, clip_radius=prob.lipschitz / 8, seed=9)
        got = run(prob, cfg)
        monkeypatch.setattr(sgd, "aggregate_round", dense_round)
        want = run(prob, cfg)
        assert got.objectives == want.objectives
        assert got.theta_final.tobytes() == want.theta_final.tobytes()
        assert got.grad_second_moment == want.grad_second_moment

    def test_unbiased_aggregate(self, problem):
        # Fixed model point, clipping inactive: the mean report is an
        # unbiased estimate of the full gradient (4 sigma band).
        mech = VecMech(eps0=2.0, d=problem.d, C=2 * problem.lipschitz)
        rng = np.random.default_rng(21)
        theta = project(rng.normal(size=problem.d), problem.radius)
        target = full_gradient(problem, theta)
        reps = 4000
        acc = np.zeros(problem.d)
        for t in range(1, reps + 1):
            idx = rng.choice(problem.n, size=80, replace=False)
            cfg_t = SgdConfig(
                T=1, k=80, eps0=2.0, clip_radius=2 * problem.lipschitz, seed=t
            )
            acc += aggregate_round(problem, theta, idx, mech, cfg_t, t=1)
        mean = acc / reps
        se = math.sqrt(mech.variance_bound / 80 / reps)
        assert np.max(np.abs(mean - target)) <= 4 * se

    def test_determinism(self, problem):
        cfg = SgdConfig(T=30, k=40, eps0=2.0, clip_radius=problem.lipschitz, seed=5)
        a = run(problem, cfg)
        b = run(problem, cfg)
        assert a.objectives == b.objectives
        np.testing.assert_array_equal(a.theta_final, b.theta_final)
        assert a.final_suboptimality == b.final_suboptimality

    def test_privacy_report_is_accountant_output(self, problem):
        cfg = SgdConfig(T=20, k=40, eps0=2.0, clip_radius=problem.lipschitz, seed=5)
        report = run(problem, cfg)
        params = SubsampledShuffleParams(n=problem.n, k=40, eps0=2.0)
        expect = total_privacy(params, AccountantConfig(T=20, delta=cfg.delta))
        assert report.privacy == expect


class TestSecondMoment:
    def test_estimate_below_bound(self, problem):
        cfg = SgdConfig(T=1, k=50, eps0=2.0, clip_radius=problem.lipschitz, seed=1)
        est = grad_second_moment_check(problem, cfg, samples=1500)
        assert est <= 1.1 * second_moment_bound(problem, cfg)

    def test_bypass_below_clean_bound(self, problem):
        cfg = SgdConfig(
            T=1,
            k=50,
            eps0=2.0,
            clip_radius=problem.lipschitz,
            seed=1,
            bypass_randomizer=True,
        )
        est = grad_second_moment_check(problem, cfg, samples=1500)
        assert est <= max(problem.d, 1) * problem.lipschitz**2

    def test_full_cohort_estimate_below_bound(self, problem):
        # k = n: the bound becomes d L^2 + G_inf^2(C) / n.
        cfg = SgdConfig(T=1, k=problem.n, eps0=2.0, clip_radius=problem.lipschitz, seed=2)
        est = grad_second_moment_check(problem, cfg, samples=1000)
        assert est <= 1.1 * second_moment_bound(problem, cfg)

    def test_noise_halves_when_cohort_doubles(self, problem):
        def noise(k):
            cfg = SgdConfig(T=1, k=k, eps0=2.0, clip_radius=problem.lipschitz, seed=1)
            cfg_b = SgdConfig(
                T=1,
                k=k,
                eps0=2.0,
                clip_radius=problem.lipschitz,
                seed=1,
                bypass_randomizer=True,
            )
            return grad_second_moment_check(problem, cfg, samples=4000) - (
                grad_second_moment_check(problem, cfg_b, samples=4000)
            )

        ratio = noise(50) / noise(100)
        assert 1.6 <= ratio <= 2.5

    def test_sample_floor(self, problem):
        cfg = SgdConfig(T=1, k=10, eps0=1.0, clip_radius=1.0, seed=0)
        with pytest.raises(ValueError):
            grad_second_moment_check(problem, cfg, samples=10)


class TestSchedule:
    def test_paper_constants(self, problem):
        cfg = SgdConfig(T=100, k=50, eps0=2.0, clip_radius=problem.lipschitz, seed=0)
        D, G = paper_schedule_constants(problem, cfg)
        assert D == problem.diameter
        assert G == pytest.approx(math.sqrt(second_moment_bound(problem, cfg)), rel=1e-15)

    def test_ceiling_shrinks_with_rounds(self, problem):
        cfgs = [
            SgdConfig(T=t, k=50, eps0=2.0, clip_radius=problem.lipschitz, seed=0)
            for t in (100, 1000, 10000)
        ]
        vals = [convergence_ceiling(problem, c) for c in cfgs]
        assert vals[0] > vals[1] > vals[2]
