"""Closed-form limits, variances, correction constants, and distributions."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats as sps

from perinull import (
    InvalidInputError,
    LogBfDistribution,
    Regime,
    asymptotic_variance,
    bias_term,
    c_constants,
    limit_gradient_hessian,
    limit_log_bf,
    sampling_distribution,
    summarize,
)
from perinull.asymptotics import _bracket

FIGURE_POINTS = [
    # (mu, kappa0), all with sigma = 1 and kappa1 = 1
    (0.167, 0.05),
    (0.314, 0.10),
    (0.182, 0.05),
    (0.348, 0.10),
]


class TestLimit:
    @pytest.mark.parametrize("mu, kappa0, expected, tol", [
        (0.0, 0.05, -3.22, 0.01),
        (0.0, 0.10, -2.53, 0.01),
        (0.167, 0.05, math.log(10), 0.04),
        (0.314, 0.10, math.log(10), 0.02),
        (0.182, 0.05, math.log(30), 0.04),
        (0.348, 0.10, math.log(30), 0.04),
    ])
    def test_reference_values(self, mu, kappa0, expected, tol):
        assert abs(limit_log_bf(mu, 1.0, kappa0, 1.0) - expected) <= tol

    def test_equals_log_prior_ordinate_ratio(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            mu = float(rng.normal(0, 0.5))
            sigma = float(rng.uniform(0.3, 2.5))
            kappa0 = float(rng.uniform(0.01, 0.3))
            kappa1 = float(rng.uniform(0.3, 1.5))
            delta = mu / sigma
            expected = (sps.cauchy.logpdf(delta, 0, kappa1)
                        - sps.norm.logpdf(delta, 0, kappa0))
            np.testing.assert_allclose(limit_log_bf(mu, sigma, kappa0, kappa1),
                                       expected, rtol=1e-12, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            mu, sigma = float(rng.normal()), float(rng.uniform(0.2, 3.0))
            c = float(rng.uniform(0.1, 10.0))
            np.testing.assert_allclose(
                limit_log_bf(c * mu, c * sigma, 0.05, 1.0),
                limit_log_bf(mu, sigma, 0.05, 1.0), rtol=1e-12)


class TestGradientHessian:
    def test_zero_gradient_only_at_mu_zero(self):
        grad, hess = limit_gradient_hessian(0.0, 1.3, 0.05, 1.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)
        expected = (1.0 - 2 * 0.05 ** 2) / (0.05 ** 2 * 1.0 * 1.3 ** 2)
        np.testing.assert_allclose(hess[0, 0], expected, rtol=1e-12)
        np.testing.assert_allclose(hess[0, 1], 0.0, atol=1e-15)
        np.testing.assert_allclose(hess[1, 1], 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        h = 1e-6
        for _ in range(25):
            mu = float(rng.uniform(-1.0, 1.0))
            sigma = float(rng.uniform(0.5, 2.0))
            k0 = float(rng.uniform(0.02, 0.3))
            k1 = float(rng.uniform(0.4, 1.4))
            grad, hess = limit_gradient_hessian(mu, sigma, k0, k1)
            fd_mu = (limit_log_bf(mu + h, sigma, k0, k1)
                     - limit_log_bf(mu - h, sigma, k0, k1)) / (2 * h)
            fd_sigma = (limit_log_bf(mu, sigma + h, k0, k1)
                        - limit_log_bf(mu, sigma - h, k0, k1)) / (2 * h)
            np.testing.assert_allclose(grad, [fd_mu, fd_sigma], rtol=1e-6,
                                       atol=1e-6)
            fd_hmm = (limit_log_bf(mu + h, sigma, k0, k1) - 2 * limit_log_bf(mu, sigma, k0, k1)
                      + limit_log_bf(mu - h, sigma, k0, k1)) / h ** 2
            np.testing.assert_allclose(hess[0, 0], fd_hmm, rtol=5e-3, atol=5e-3)

    def test_euler_relation_for_scale_free_limit(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            mu = float(rng.uniform(-1.0, 1.0))
            sigma = float(rng.uniform(0.5, 2.0))
            grad, _ = limit_gradient_hessian(mu, sigma, 0.07, 0.9)
            np.testing.assert_allclose(mu * grad[0] + sigma * grad[1], 0.0,
                                       atol=1e-10)


class TestVariance:
    def test_zero_at_mu_zero(self):
        for sigma, k0, k1, n in [(1.0, 0.05, 1.0, 100), (2.0, 0.1, 0.7, 17)]:
            assert asymptotic_variance(0.0, sigma, k0, k1, n) == 0.0

    def test_sandwich_identity_on_random_grid(self):
        """The printed variance equals grad^T I^{-1} grad / n with
        I = diag(1/sigma^2, 2/sigma^2), to 1e-10 relative, on 100 points."""
        rng = np.random.default_rng(35)
        for _ in range(100):
            mu = float(rng.uniform(-2.0, 2.0))
            sigma = float(rng.uniform(0.3, 3.0))
            k0 = float(rng.uniform(0.01, 0.4))
            k1 = float(rng.uniform(0.3, 2.0))
            n = int(rng.integers(2, 5000))
            grad, _ = limit_gradient_hessian(mu, sigma, k0, k1)
            inv_info = np.diag([sigma ** 2, sigma ** 2 / 2.0])
            expected = float(grad @ inv_info @ grad) / n
            got = asymptotic_variance(mu, sigma, k0, k1, n)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-300)

    def test_explicit_inverse_n_scaling(self):
        v1 = asymptotic_variance(0.167, 1.0, 0.05, 1.0, 1000)
        v2 = asymptotic_variance(0.167, 1.0, 0.05, 1.0, 2000)
        assert v1 > 0
        np.testing.assert_allclose(v2, v1 / 2.0, rtol=1e-14)


class TestCConstants:
    def test_peri_first_order_reference_value(self):
        c = c_constants(0.0, 1.0, 0.05, 1.0)
        assert abs(c.c1_peri - (-199.83)) <= 0.01

    def test_alt_first_order_at_origin(self):
        # (kappa1^2 - 6) / (6 kappa1^2) at mu = 0
        for k1 in (0.5, 1.0, 1.4):
            c = c_constants(0.0, 1.0, 0.05, k1)
            np.testing.assert_allclose(c.c1_alt, (k1 ** 2 - 6) / (6 * k1 ** 2),
                                       rtol=1e-12)
        np.testing.assert_allclose(c_constants(0.0, 1.0, 0.05, 1.0).c1_alt,
                                   -5.0 / 6.0, rtol=1e-12)

    def test_peri_second_order_at_origin(self):
        # 2 (713 - 5091 k0^2) / (192 k0^2) at mu = 0, sigma = 1
        k0 = 0.05
        expected = 2 * (713 - 5091 * k0 ** 2) / (192 * k0 ** 2)
        c = c_constants(0.0, 1.0, k0, 1.0)
        np.testing.assert_allclose(c.c2_peri, expected, rtol=1e-12)
        assert abs(expected - 2917.8) < 0.01

    def test_scale_invariance(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            mu, sigma = float(rng.normal()), float(rng.uniform(0.2, 3.0))
            scale = float(rng.uniform(0.1, 10.0))
            base = c_constants(mu, sigma, 0.08, 0.9)
            scaled = c_constants(scale * mu, scale * sigma, 0.08, 0.9)
            np.testing.assert_allclose(scaled, base, rtol=1e-10)

    def test_pointwise_ordering_at_figure_points(self):
        for mu, kappa0 in FIGURE_POINTS:
            c = c_constants(mu, 1.0, kappa0, 1.0)
            assert c.c1_alt <= c.c1_peri
            assert c.c2_alt <= c.c2_peri


class TestBiasTerm:
    def test_equal_brackets_cancel_exactly(self):
        for c1, c2, n in [(-3.0, 7.0, 50), (0.4, -0.1, 9)]:
            assert math.log(_bracket(c1, c2, n) / _bracket(c1, c2, n)) == 0.0

    def test_validity_threshold_at_mu_zero(self):
        """With the printed constants the peri bracket turns positive at
        n = 184 (the reference text reports 185; both recorded)."""
        assert not bias_term(0.0, 1.0, 0.05, 1.0, 183).valid
        assert bias_term(0.0, 1.0, 0.05, 1.0, 184).valid
        assert bias_term(0.0, 1.0, 0.05, 1.0, 183).min_valid_n == 184
        assert bias_term(0.0, 1.0, 0.05, 1.0, 183).failed_bracket == "peri_null"

    def test_min_valid_n_search_ends_beyond_float_integers(self):
        """The peri bracket turns positive near n = 1.5e56, where float(n + 1)
        equals float(n): the search must step by the float spacing to end."""
        mu, sigma, kappa0 = 1e-18, 1e18, 1e-18 / 1e18
        b = bias_term(mu, sigma, kappa0, 1.0, 1000)
        c = c_constants(mu, sigma, kappa0, 1.0)
        assert not b.valid
        assert 1e56 < b.min_valid_n < 2e56
        assert _bracket(c.c1_peri, c.c2_peri, b.min_valid_n) > 0.0

    def test_negative_bias_under_the_alternative(self):
        b = bias_term(0.167, 1.0, 0.05, 1.0, 1000)
        assert b.valid
        assert b.value < 0.0

    def test_bias_vanishes_asymptotically(self):
        for mu, kappa0 in FIGURE_POINTS + [(0.0, 0.05)]:
            values = [abs(bias_term(mu, 1.0, kappa0, 1.0, n).value)
                      for n in (10 ** 4, 10 ** 6, 10 ** 8)]
            assert values[2] < values[1] < values[0]
            assert values[2] < 5e-5


class TestSamplingDistribution:
    def test_chi_square_scale_coefficient(self):
        # (kappa1^2 - 2 kappa0^2) / (2 kappa0^2 kappa1^2) = 199 for the
        # reference configuration
        dist = sampling_distribution(0.0, 1.0, 0.05, 1.0, 1000)
        assert dist.regime is Regime.SECOND_ORDER_CHI_SQUARE
        np.testing.assert_allclose(dist.chi2_scale * 1000, 199.0, rtol=1e-12)

    def test_regime_classification_matches_gradient(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            mu = float(rng.choice([0.0, rng.uniform(0.01, 1.0)]))
            dist = sampling_distribution(mu, 1.0, 0.05, 1.0, 500)
            grad, _ = limit_gradient_hessian(mu, 1.0, 0.05, 1.0)
            if np.linalg.norm(grad) < 1e-12:
                assert dist.regime is Regime.SECOND_ORDER_CHI_SQUARE
                assert mu == 0.0
            else:
                assert dist.regime is Regime.FIRST_ORDER_NORMAL

    def test_normal_regime_quantile_width_scales_as_root_n(self):
        widths = []
        for n in (1000, 4000, 16000):
            dist = sampling_distribution(0.167, 1.0, 0.05, 1.0, n)
            widths.append(dist.quantile(0.975) - dist.quantile(0.025))
        np.testing.assert_allclose(widths[0] / widths[1], 2.0, rtol=1e-9)
        np.testing.assert_allclose(widths[1] / widths[2], 2.0, rtol=1e-9)

    def test_mean_approaches_limit_sd_vanishes(self):
        limit = limit_log_bf(0.167, 1.0, 0.05, 1.0)
        dist = sampling_distribution(0.167, 1.0, 0.05, 1.0, 10 ** 8)
        assert abs(dist.mean() - limit) < 1e-3
        assert abs(limit - math.log(10)) < 0.04
        assert dist.sd < 1e-2

    def test_chi_square_quantiles_match_affine_map(self):
        dist = sampling_distribution(0.0, 1.0, 0.05, 1.0, 500)
        for q in (0.025, 0.5, 0.975):
            expected = dist.center + dist.chi2_scale * sps.chi2.ppf(q, df=1)
            np.testing.assert_allclose(dist.quantile(q), expected, rtol=1e-12)

    def test_quantiles_match_mpmath(self):
        """Both regimes' standard quantiles, from the stdlib, against
        40-digit mpmath: the normal one is sqrt(2) erfinv(2q - 1), the
        chi-square(1) one 2 erfinv(level)^2."""
        tails = np.geomspace(1e-12, 0.49, 60)
        levels = np.concatenate((tails, 1.0 - tails))

        def dist(regime, chi2_scale):
            return LogBfDistribution(regime=regime, n=1, center=0.0, sd=1.0,
                                     chi2_scale=chi2_scale, usable=True, min_valid_n=1)

        normal = dist(Regime.FIRST_ORDER_NORMAL, 0.0)
        chi2 = dist(Regime.SECOND_ORDER_CHI_SQUARE, 1.0)
        with mp.workdps(40):
            for q in map(float, levels):
                z = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(q) - 1)
                x = 2 * mp.erfinv(mp.mpf(q)) ** 2
                assert abs(normal.quantile(q) - z) <= 2e-15 * abs(z)
                assert abs(chi2.quantile(q) - x) <= 2e-15 * x

    def test_unusable_below_threshold(self):
        dist = sampling_distribution(0.0, 1.0, 0.05, 1.0, 100)
        assert not dist.usable
        assert math.isnan(dist.mean())
        assert math.isnan(dist.quantile(0.5))
        assert dist.min_valid_n == 184

    def test_quantile_level_validation(self):
        dist = sampling_distribution(0.167, 1.0, 0.05, 1.0, 100)
        with pytest.raises(InvalidInputError):
            dist.quantile(0.0)


class TestSummarize:
    def test_fields_are_consistent(self):
        s = summarize(0.167, 1.0, 0.05, 1.0, 1000)
        assert s.regime is Regime.FIRST_ORDER_NORMAL
        np.testing.assert_allclose(s.limit_log_bf, limit_log_bf(0.167, 1, 0.05, 1))
        np.testing.assert_allclose(
            s.n_times_variance, asymptotic_variance(0.167, 1, 0.05, 1, 1000) * 1000)
        assert s.bias.valid
        assert s.theta.delta == 0.167

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            limit_log_bf(0.0, -1.0, 0.05, 1.0)
        with pytest.raises(InvalidInputError):
            asymptotic_variance(0.0, 1.0, 0.05, 1.0, 0)
