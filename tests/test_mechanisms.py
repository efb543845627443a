"""Tests for the local randomizers and clipping."""

import math

import numpy as np
import pytest

from shuffle_rdp.bounds import EPS0_MAX
from shuffle_rdp.mechanisms import VecMech, clip_batch, vec_kernel, vec_randomize_batch


class TestRr2:
    """The binary randomized response that VecMech applies to its sign bit.

    At x = +C the quantized sign is always +1, so the sign of the output is
    exactly one randomized-response draw.
    """

    @staticmethod
    def positive_share(eps0, n, seed):
        mech = VecMech(eps0=eps0, d=1, C=1.0)
        draws = vec_randomize_batch(np.ones((n, 1)), mech, np.random.default_rng(seed))
        return float((draws[:, 0] > 0).mean())

    def test_flip_prob_range(self):
        assert VecMech(eps0=1e-12, d=1, C=1.0).flip_prob == pytest.approx(0.5, rel=1e-11)
        assert 0 < VecMech(eps0=5.0, d=1, C=1.0).flip_prob < 0.5

    def test_uniform_at_eps0_zero(self):
        n = 100_000
        sigma = math.sqrt(0.25 / n)
        assert abs(self.positive_share(1e-9, n, 0) - 0.5) <= 3 * sigma

    def test_keep_rate_matches_closed_form(self):
        n = 100_000
        keep = math.exp(2.0) / (math.exp(2.0) + 1.0)
        sigma = math.sqrt(keep * (1 - keep) / n)
        assert abs(self.positive_share(2.0, n, 1) - keep) <= 3 * sigma

    def test_two_point_kernel_ratio_exact(self):
        # P[out=b | in=b] / P[out=b | in=1-b] = e^{eps0}.
        for eps0 in (0.5, 1.0, 3.0):
            flip = VecMech(eps0=eps0, d=1, C=1.0).flip_prob
            assert (1 - flip) / flip == pytest.approx(math.exp(eps0), rel=1e-12)


class TestClip:
    def test_inside_unchanged(self):
        x = np.array([[0.1, -0.2, 0.05]])
        np.testing.assert_array_equal(clip_batch(x, 1.0), x)

    def test_random_vectors_inside_after(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = rng.normal(size=(1, 8)) * 10
            assert np.max(np.abs(clip_batch(x, 0.5))) <= 0.5 + 1e-12

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 6)) * 3
        rows = np.stack([x / max(1.0, float(np.max(np.abs(x))) / 1.2) for x in X])
        np.testing.assert_allclose(clip_batch(X, 1.2), rows, rtol=1e-15)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            clip_batch(np.ones((1, 2)), 0.0)


class TestVecMech:
    def test_eps0_zero_rejected(self):
        with pytest.raises(ValueError):
            VecMech(eps0=0.0, d=4, C=1.0)

    def test_eps0_with_infinite_exp_rejected(self):
        assert VecMech(eps0=700.0, d=4, C=1.0).scale == pytest.approx(4.0, rel=1e-15)
        # At EPS0_MAX e^eps0 is finite but d C (e^eps0 + 1) is not.
        for bad in (EPS0_MAX, 800.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                VecMech(eps0=bad, d=4, C=1.0)

    def test_squared_scale_overflow_rejected(self):
        # The scale is finite, but the variance bound scale^2 is not.
        with pytest.raises(ValueError, match="square overflows"):
            VecMech(eps0=2.0, d=10, C=1e160)

    def test_wrong_dimension_rejected(self):
        mech = VecMech(eps0=1.0, d=3, C=1.0)
        with pytest.raises(ValueError):
            vec_randomize_batch(np.zeros((1, 2)), mech, np.random.default_rng(0))

    def test_variance_bound_formula(self):
        mech = VecMech(eps0=2.0, d=8, C=0.5)
        expect = 0.5**2 * 8**2 * ((math.exp(2) + 1) / (math.exp(2) - 1)) ** 2
        assert mech.variance_bound == pytest.approx(expect, rel=1e-12)

    def test_out_of_ball_rejected(self):
        mech = VecMech(eps0=1.0, d=3, C=1.0)
        with pytest.raises(ValueError):
            vec_randomize_batch(np.array([[1.5, 0.0, 0.0]]), mech, np.random.default_rng(0))

    def test_output_alphabet(self):
        mech = VecMech(eps0=1.0, d=4, C=1.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = vec_randomize_batch(rng.uniform(-1, 1, size=(1, 4)), mech, rng)[0]
            nz = np.nonzero(y)[0]
            assert len(nz) == 1
            assert abs(y[nz[0]]) == pytest.approx(mech.scale, rel=1e-15)

    def test_zero_input_symmetric(self):
        mech = VecMech(eps0=2.0, d=8, C=1.0)
        rng = np.random.default_rng(8)
        n = 100_000
        draws = vec_randomize_batch(np.zeros((n, 8)), mech, rng)
        mean = draws.mean(axis=0)
        se = mech.scale / math.sqrt(n)  # per-coordinate std is below the scale
        assert np.max(np.abs(mean)) <= 4 * se

    @pytest.mark.parametrize("d", [1, 8, 64])
    @pytest.mark.parametrize("eps0", [1.0, 2.0])
    def test_unbiased_on_grid(self, d, eps0):
        mech = VecMech(eps0=eps0, d=d, C=1.0)
        rng = np.random.default_rng(100 + d)
        x = rng.uniform(-1, 1, size=d)
        n = 60_000
        draws = vec_randomize_batch(np.tile(x, (n, 1)), mech, rng)
        err = draws.mean(axis=0) - x
        se = mech.scale / math.sqrt(n)
        assert np.max(np.abs(err)) <= 4 * se

    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("eps0", [1.0, 2.0])
    def test_variance_contract(self, d, eps0):
        mech = VecMech(eps0=eps0, d=d, C=1.0)
        rng = np.random.default_rng(200 + d)
        x = rng.uniform(-1, 1, size=d)
        n = 60_000
        draws = vec_randomize_batch(np.tile(x, (n, 1)), mech, rng)
        second_moment = float(((draws - x) ** 2).sum(axis=1).mean())
        assert second_moment <= mech.variance_bound * 1.1

    def test_d1_scalar_example(self):
        # d=1, C=1, eps0=2, x=0.5: mean recovers 0.5; spread stays within
        # the closed-form ceiling (the exact second moment is
        # scale^2 - x^2 = 1.474; the ceiling is scale^2 = 1.724).
        mech = VecMech(eps0=2.0, d=1, C=1.0)
        rng = np.random.default_rng(11)
        n = 100_000
        draws = vec_randomize_batch(np.full((n, 1), 0.5), mech, rng)[:, 0]
        se = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - 0.5) <= 3 * se
        assert ((draws - 0.5) ** 2).mean() <= mech.variance_bound

    def test_kernel_mass_and_ldp_ratio_exhaustive(self):
        # Exhaustive likelihood-ratio check over the 2d-point alphabet,
        # no sampling: the kernel satisfies eps0-LDP with equality attained
        # at opposite corners of the ball.
        for eps0 in (0.5, 1.5, 3.0):
            mech = VecMech(eps0=eps0, d=6, C=2.0)
            rng = np.random.default_rng(13)
            xs = [
                np.full(6, 2.0),
                np.full(6, -2.0),
                rng.uniform(-2, 2, size=6),
                np.zeros(6),
            ]
            kernels = [vec_kernel(x, mech) for x in xs]
            for k in kernels:
                assert math.fsum(k.values()) == pytest.approx(1.0, abs=1e-12)
            worst = 0.0
            for ka in kernels:
                for kb in kernels:
                    for key in ka:
                        worst = max(worst, ka[key] / kb[key])
            assert worst <= math.exp(eps0) * (1 + 1e-12)
            # Corners achieve the bound exactly.
            corner = max(
                kernels[0][key] / kernels[1][key] for key in kernels[0]
            )
            assert corner == pytest.approx(math.exp(eps0), rel=1e-12)

    def test_determinism(self):
        mech = VecMech(eps0=1.0, d=5, C=1.0)
        x = np.linspace(-1, 1, 5)
        a = vec_randomize_batch(x[None, :], mech, np.random.default_rng(42))
        b = vec_randomize_batch(x[None, :], mech, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        A = vec_randomize_batch(np.tile(x, (10, 1)), mech, np.random.default_rng(9))
        B = vec_randomize_batch(np.tile(x, (10, 1)), mech, np.random.default_rng(9))
        np.testing.assert_array_equal(A, B)
