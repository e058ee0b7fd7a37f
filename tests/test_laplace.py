"""Laplace expansion engine against exact marginals and extrapolation oracles."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

import perinull as pn
from perinull import (
    InvalidInputError,
    TensorCoeffs,
    UnsupportedOrderError,
    finite_difference_derivatives,
    laplace_c1,
    laplace_c2,
    laplace_marginal,
)
from perinull import models

from conftest import fit_expansion_coefficients


def _symmetrize(arr):
    order = arr.ndim
    total = np.zeros_like(arr)
    for perm in itertools.permutations(range(order)):
        total += np.transpose(arr, perm)
    return total / math.factorial(order)


def _random_coeffs(rng, dim):
    h = {2: None}
    a = rng.normal(size=(dim, dim))
    h[2] = a @ a.T + dim * np.eye(dim)
    for order in range(3, 7):
        h[order] = _symmetrize(rng.normal(size=(dim,) * order))
    p = {order: _symmetrize(rng.normal(size=(dim,) * order)) for order in range(1, 5)}
    return TensorCoeffs(dim=dim, mle=np.zeros(dim), h_derivs=h,
                        prior_value=float(rng.uniform(0.5, 2.0)), prior_derivs=p)


class TestExactness:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_likelihood_flat_prior_has_zero_corrections(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        info = a @ a.T + dim * np.eye(dim)
        h = {2: info}
        for order in range(3, 7):
            h[order] = np.zeros((dim,) * order)
        p = {order: np.zeros((dim,) * order) for order in range(1, 5)}
        coeffs = TensorCoeffs(dim=dim, mle=np.zeros(dim), h_derivs=h,
                              prior_value=1.0, prior_derivs=p)
        assert laplace_c1(coeffs) == 0.0
        assert laplace_c2(coeffs) == 0.0


class TestCoordinateInvariance:
    def test_relabeling_leaves_c1_c2_unchanged(self):
        rng = np.random.default_rng(21)
        coeffs = _random_coeffs(rng, 2)
        swap = (1, 0)

        def permute(arr):
            order = arr.ndim
            out = arr
            for axis in range(order):
                out = np.take(out, swap, axis=axis)
            return out

        swapped = TensorCoeffs(
            dim=2, mle=coeffs.mle[list(swap)],
            h_derivs={k: permute(v) for k, v in coeffs.h_derivs.items()},
            prior_value=coeffs.prior_value,
            prior_derivs={k: permute(v) for k, v in coeffs.prior_derivs.items()})
        np.testing.assert_allclose(laplace_c1(swapped), laplace_c1(coeffs), rtol=1e-11)
        np.testing.assert_allclose(laplace_c2(swapped), laplace_c2(coeffs), rtol=1e-11)

    def test_symmetry_validation_rejects_junk(self):
        rng = np.random.default_rng(22)
        h = {2: np.eye(2), 3: rng.normal(size=(2, 2, 2))}
        with pytest.raises(InvalidInputError):
            TensorCoeffs(dim=2, mle=np.zeros(2), h_derivs=h, prior_value=1.0,
                         prior_derivs={})
        # at the tolerance boundary: one entry of a symmetric order-4 array
        # off by 1e-12 of the largest entry is rounding, by 1e-6 is junk
        raw = rng.normal(size=(2, 2, 2, 2))
        h4 = sum(np.transpose(raw, perm) for perm in itertools.permutations(range(4))) / 24.0
        h = {2: np.eye(2), 4: h4}
        h4[0, 0, 1, 1] += 1e-12 * np.max(np.abs(h4))
        TensorCoeffs(dim=2, mle=np.zeros(2), h_derivs=h, prior_value=1.0, prior_derivs={})
        h4[0, 0, 1, 1] += 1e-6 * np.max(np.abs(h4))
        with pytest.raises(InvalidInputError):
            TensorCoeffs(dim=2, mle=np.zeros(2), h_derivs=h, prior_value=1.0,
                         prior_derivs={})


class TestGammaShapeModel:
    """1-D model with a gamma-shaped integrand and closed-form marginal."""

    def test_c1_c2_against_richardson_extrapolation(self):
        spec = models.GammaShape(n=10, shape=2.7, rate=1.3)

        def log_leading(n):
            m = models.GammaShape(n=int(n), shape=2.7, rate=1.3)
            expansion = laplace_marginal(m.loglik_oracle(), m.prior_oracle(),
                                         m.mle, int(n))
            return expansion.log_leading

        def log_exact(n):
            return models.GammaShape(n=int(n), shape=2.7, rate=1.3).exact_log_marginal()

        coeffs = fit_expansion_coefficients(log_exact, log_leading,
                                            (300, 600, 1200, 2400), n_terms=4)
        expansion = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(),
                                     spec.mle, 10)
        assert abs(expansion.c1 - coeffs[0]) <= 0.01 * abs(coeffs[0])
        assert abs(expansion.c2 - coeffs[1]) <= 0.05 * abs(coeffs[1])

    def test_truncations_approach_exact(self):
        for n in (20, 50, 200):
            spec = models.GammaShape(n=n, shape=2.7, rate=1.3)
            e = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(),
                                 spec.mle, n)
            exact = spec.exact_log_marginal()
            assert abs(e.log_with_c2 - exact) < abs(e.log_with_c1 - exact)
            assert abs(e.log_with_c1 - exact) < abs(e.log_leading - exact)


class TestConjugateGaussianModel:
    def _spec(self, n):
        return models.ConjugateGaussian(n=n, ybar=1.0, ss=0.9 * n, sigma0=1.0,
                                        prior_mean=0.0, prior_sd=20.0)

    @pytest.mark.parametrize("n", [10, 20, 50, 200])
    def test_with_c2_matches_exact_to_1e_minus_10(self, n):
        spec = self._spec(n)
        e = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle, n)
        assert abs(e.log_with_c2 - spec.exact_log_marginal()) < 1e-10

    @pytest.mark.parametrize("n", [10, 15, 20, 40, 100])
    def test_truncation_error_ordering(self, n):
        spec = self._spec(n)
        e = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle, n)
        exact = spec.exact_log_marginal()
        assert abs(e.log_with_c2 - exact) <= abs(e.log_with_c1 - exact)
        assert abs(e.log_with_c1 - exact) <= abs(e.log_leading - exact)


@pytest.mark.parametrize("oracle", [
    lambda: models.ttest_prior_oracle("peri", 1e-100)([0.0, 1.0]),
    lambda: models.ConjugateGaussian(n=10, ybar=0.0, ss=9.0,
                                     prior_sd=1e-100).prior_oracle()(np.array([0.0])),
    lambda: models.ConjugateGaussian(n=10, ybar=0.0, ss=9.0,
                                     prior_sd=1e-70).prior_oracle()(np.array([0.0])),
], ids=["ttest-peri-1e-100", "conjugate-1e-100", "conjugate-1e-70"])
def test_gaussian_prior_oracles_refuse_non_finite_derivatives(oracle):
    """kappa^k underflows to 0 (1e-100) or g^(4) overflows (1e-70): both
    oracles that reach the normal-density derivatives raise the package's
    error, not ZeroDivisionError or an inf."""
    with pytest.raises(InvalidInputError):
        oracle()


class TestBetaBernoulliModel:
    def test_truncations_strictly_improve_at_n50(self):
        spec = models.BetaBernoulli(n=50, successes=20, alpha=2.0, beta=2.0)
        e = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle, 50)
        exact = spec.exact_log_marginal()
        errors = [abs(e.log_leading - exact), abs(e.log_with_c1 - exact),
                  abs(e.log_with_c2 - exact)]
        assert errors[2] < errors[1] < errors[0]


@pytest.mark.parametrize("n", [10, 200, 2000, 10 ** 6])
def test_exact_log_marginals_match_mpmath(n):
    """The models' closed forms, built from math.lgamma, against 40-digit
    mpmath loggamma and beta."""
    successes = round(0.4 * n)
    beta_bernoulli = models.BetaBernoulli(n=n, successes=successes, alpha=2.0, beta=2.5)
    gamma_shape = models.GammaShape(n=n, shape=2.5, rate=1.5)
    gaussian = models.ConjugateGaussian(n=n, ybar=0.5, ss=0.9 * n, sigma0=1.5,
                                        prior_mean=0.2, prior_sd=10.0)
    with mp.workdps(40):
        a, b, shape, rate = mp.mpf(2), mp.mpf(2.5), mp.mpf(2.5), mp.mpf(1.5)
        s2, t2 = mp.mpf(1.5) ** 2, mp.mpf(10) ** 2
        references = {
            beta_bernoulli: mp.log(mp.beta(a + successes, b + n - successes) / mp.beta(a, b)),
            gamma_shape: (shape * mp.log(rate) - mp.loggamma(shape) + mp.loggamma(n + shape)
                          - (n + shape) * mp.log(n + rate)),
            gaussian: (-n * mp.log(2 * mp.pi * s2) / 2 - mp.mpf(0.9 * n) / (2 * s2)
                       + mp.log(s2 / (s2 + n * t2)) / 2
                       - n * (mp.mpf(0.5) - mp.mpf(0.2)) ** 2 / (2 * (s2 + n * t2))),
        }
        for spec, reference in references.items():
            assert abs(spec.exact_log_marginal() - reference) <= 4e-15 * abs(reference)


def _ttest_prior(kind, kappa):
    def density(mu, sigma):
        x = mu / sigma
        if kind == "peri":
            g = mp.npdf(x, 0, kappa)
        else:
            g = kappa / (mp.pi * (x * x + kappa * kappa))
        return g / sigma ** 2
    return density


@pytest.mark.parametrize("oracle, density, point", [
    (models.ttest_prior_oracle("peri", 0.05), _ttest_prior("peri", 0.05), (0.03, 1.2)),
    (models.ttest_prior_oracle("peri", 0.7), _ttest_prior("peri", 0.7), (-0.4, 0.8)),
    (models.ttest_prior_oracle("alt", 0.7), _ttest_prior("alt", 0.7), (0.3, 1.5)),
    (models.ttest_prior_oracle("alt", 1.0), _ttest_prior("alt", 1.0), (-2.0, 0.5)),
    (models.BetaBernoulli(n=50, successes=20, alpha=2.0, beta=2.5).prior_oracle(),
     lambda th: th * (1 - th) ** 1.5 / mp.beta(2, 2.5), (0.4,)),
    (models.BetaBernoulli(n=50, successes=20, alpha=0.5, beta=3.0).prior_oracle(),
     lambda th: th ** -0.5 * (1 - th) ** 2 / mp.beta(0.5, 3), (0.7,)),
    (models.GammaShape(n=10, shape=2.5, rate=1.5).prior_oracle(),
     lambda th: mp.mpf(1.5) ** 2.5 / mp.gamma(2.5) * th ** 1.5 * mp.exp(-1.5 * th), (1.0,)),
    (models.ConjugateGaussian(n=10, ybar=0.5, ss=9.0, prior_mean=0.2,
                              prior_sd=1.5).prior_oracle(),
     lambda th: mp.npdf(th, 0.2, 1.5), (0.5,)),
], ids=["ttest-peri-0.05", "ttest-peri-0.7", "ttest-alt-0.7", "ttest-alt-1",
        "beta-2-2.5-mode", "beta-0.5-3", "gamma-2.5-1.5", "conjugate-gaussian"])
def test_prior_oracles_match_mpmath_derivatives(oracle, density, point):
    """The value and every entry of the order 1-4 prior derivative arrays
    against 40-digit mpmath.diff, relative to the largest reference of that
    or a lower order: Beta(2, 2.5) at its mode and Gamma(2.5, 1.5) at 1 have
    a zero first derivative. The worst case, 3.4e-14, is the Cauchy prior at
    mu / sigma = -4, where the terms of the mixed partials cancel; the others
    are within 7.2e-16."""
    value, derivs = oracle(np.array(point))
    dim = len(point)
    with mp.workdps(40):
        x = [mp.mpf(v) for v in point]
        scale = abs(density(*x))
        assert abs(value - density(*x)) <= 1e-15 * scale
        for order in range(1, 5):
            indices = list(itertools.product(range(dim), repeat=order))
            reference = [mp.diff(density, x, [idx.count(axis) for axis in range(dim)])
                         for idx in indices]
            scale = max(scale, *(abs(r) for r in reference))
            error = max(abs(derivs[order][idx] - r) for idx, r in zip(indices, reference))
            assert error <= 1e-13 * scale, (order, float(error / scale))


class TestTTestModel:
    """The engine against the published first-order constant and against the
    exact closed-form marginal of the peri-null model."""

    def test_engine_c1_matches_reference_constant(self):
        e = laplace_marginal(models.normal_model_oracle(1000, 1.0),
                             models.ttest_prior_oracle("peri", 0.05),
                             np.array([0.0, 1.0]), 1000)
        assert abs(e.c1 - (-199.83)) < 0.5

    def test_engine_c1_matches_closed_forms_everywhere(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mu, sigma = float(rng.normal(0, 0.5)), float(rng.uniform(0.5, 2.0))
            kappa0 = float(rng.uniform(0.02, 0.3))
            kappa1 = float(rng.uniform(0.4, 1.5))
            c = pn.c_constants(mu, sigma, kappa0, kappa1)
            e_peri = laplace_marginal(models.normal_model_oracle(100, sigma),
                                      models.ttest_prior_oracle("peri", kappa0),
                                      np.array([mu, sigma]), 100)
            e_alt = laplace_marginal(models.normal_model_oracle(100, sigma),
                                     models.ttest_prior_oracle("alt", kappa1),
                                     np.array([mu, sigma]), 100)
            np.testing.assert_allclose(e_peri.c1, c.c1_peri, rtol=1e-9)
            np.testing.assert_allclose(e_alt.c1, c.c1_alt, rtol=1e-9)

    def test_engine_c2_against_exact_marginal_oracle(self):
        """The closed-form peri marginal pins the true second-order term.

        The recovered coefficient differs from the published second-order
        closed form (which is inconsistent with the expansion it summarizes);
        the engine must follow the oracle.
        """
        kappa0 = 0.05

        def log_exact(n):
            return models.exact_ttest_peri_log_marginal(int(n), kappa0)

        def log_leading(n):
            e = laplace_marginal(models.normal_model_oracle(int(n), 1.0),
                                 models.ttest_prior_oracle("peri", kappa0),
                                 np.array([0.0, 1.0]), int(n))
            return e.log_leading

        coeffs = fit_expansion_coefficients(log_exact, log_leading,
                                            (8000, 16000, 32000, 64000), n_terms=4)
        e = laplace_marginal(models.normal_model_oracle(1000, 1.0),
                             models.ttest_prior_oracle("peri", kappa0),
                             np.array([0.0, 1.0]), 1000)
        np.testing.assert_allclose(e.c1, coeffs[0], rtol=1e-6)
        np.testing.assert_allclose(e.c2, coeffs[1], rtol=1e-3)

    def test_truncations_converge_to_exact_peri_marginal(self):
        for n in (2000, 20000):
            e = laplace_marginal(models.normal_model_oracle(n, 1.0),
                                 models.ttest_prior_oracle("peri", 0.05),
                                 np.array([0.0, 1.0]), n)
            exact = models.exact_ttest_peri_log_marginal(n, 0.05)
            assert abs(e.log_with_c2 - exact) < abs(e.log_leading - exact)
        assert abs(e.log_with_c2 - exact) < 2e-5

    def test_cross_module_against_quadrature_bayes_factor(self):
        """Expansion difference (alt minus peri) equals the quadrature log BF."""
        rng = np.random.default_rng(24)
        checks = [(0.30, 5000, 0.05, 1e-3), (0.30, 500, 0.30, 1e-3)]
        for kappa0, n, kappa1, tol in checks:
            y = rng.normal(0.0, 1.0, n)
            mu_hat = float(y.mean())
            sigma_hat = float(y.std())
            stats = models.ttest_stats_from_mle(mu_hat, sigma_hat, n)
            mle = np.array([mu_hat, sigma_hat])
            e_alt = laplace_marginal(models.normal_model_oracle(n, sigma_hat),
                                     models.ttest_prior_oracle("alt", kappa1),
                                     mle, n)
            e_peri = laplace_marginal(models.normal_model_oracle(n, sigma_hat),
                                      models.ttest_prior_oracle("peri", kappa0),
                                      mle, n)
            quad = pn.peri_null_bf(stats, kappa0, kappa1)
            assert abs((e_alt.log_with_c2 - e_peri.log_with_c2) - quad.log_bf) < tol


class TestBracketFlagging:
    def test_nonpositive_first_order_bracket_is_flagged_not_clamped(self):
        spec = models.ConjugateGaussian(n=10, ybar=0.0, ss=9.0, sigma0=1.0,
                                        prior_mean=0.0, prior_sd=0.1)
        e = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle, 10)
        assert e.bracket_c1 <= 0.0
        assert not e.valid_c1
        assert math.isnan(e.log_with_c1)
        assert math.isfinite(e.c1) and math.isfinite(e.c2)

    def test_nonpositive_second_order_bracket(self):
        spec = models.ConjugateGaussian(n=10, ybar=0.1, ss=9.0, sigma0=1.0,
                                        prior_mean=0.0, prior_sd=0.1)
        e = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle, 10)
        assert e.valid_c1
        assert not e.valid_c2
        assert math.isnan(e.log_with_c2)


class TestFiniteDifferences:
    def test_quartic_polynomial(self):
        result = finite_difference_derivatives(lambda v: float(v[0]) ** 4,
                                               np.array([1.0]), max_order=6)
        expected = {1: 4.0, 2: 12.0, 3: 24.0, 4: 24.0, 5: 0.0, 6: 0.0}
        for order, value in expected.items():
            got = float(result.derivs[order].ravel()[0])
            err = float(result.errors[order].ravel()[0])
            assert abs(got - value) <= max(err, 1e-9), (order, got, err)

    def test_exp_sin_mixed_partials_to_order_four(self):
        point = np.array([0.0, math.pi / 4])

        def fn(v):
            return math.exp(v[0]) * math.sin(v[1])

        result = finite_difference_derivatives(fn, point, max_order=4)
        s, c = math.sin(point[1]), math.cos(point[1])
        for idx_orders, expected in [((1, 0), s), ((0, 1), c), ((2, 0), s),
                                     ((1, 1), c), ((0, 2), -s), ((2, 2), -s),
                                     ((3, 1), c), ((4, 0), s), ((0, 4), s)]:
            order = sum(idx_orders)
            idx = tuple([0] * idx_orders[0] + [1] * idx_orders[1])
            got = float(result.derivs[order][idx])
            err = float(result.errors[order][idx])
            assert abs(got - expected) <= max(err, 1e-7), (idx_orders, got, expected)

    def test_log_cauchy_fourth_order_at_mode(self):
        kappa = 0.7

        def fn(v):
            x = float(v[0])
            return -math.log(math.pi * kappa) - math.log(1.0 + (x / kappa) ** 2)

        result = finite_difference_derivatives(fn, np.array([0.0]), max_order=4)
        # d2 = -2/k^2, d4 = 12/k^4 at the mode
        np.testing.assert_allclose(float(result.derivs[2].ravel()[0]),
                                   -2.0 / kappa ** 2, rtol=1e-5)
        np.testing.assert_allclose(float(result.derivs[4].ravel()[0]),
                                   12.0 / kappa ** 4, rtol=1e-5)

    def test_fd_feeds_laplace_engine_for_the_peri_prior(self):
        """Finite-difference prior derivatives reproduce the first-order
        constant within the loose fallback tolerance."""
        kappa0 = 0.05
        analytic = models.ttest_prior_oracle("peri", kappa0)

        def gauss_prior(v):
            mu, sigma = float(v[0]), float(v[1])
            z = mu / sigma / kappa0
            return math.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * kappa0) / sigma ** 2

        def fd_oracle(mle):
            value = gauss_prior(mle)
            result = finite_difference_derivatives(gauss_prior, mle, max_order=4)
            return value, result.derivs

        e_fd = laplace_marginal(models.normal_model_oracle(500, 1.0), fd_oracle,
                                np.array([0.0, 1.0]), 500)
        e_exact = laplace_marginal(models.normal_model_oracle(500, 1.0), analytic,
                                   np.array([0.0, 1.0]), 500)
        assert abs(e_fd.c1 - e_exact.c1) < 5.0
        assert abs(e_fd.c1 - (-199.83)) < 5.0

    def test_dimension_limit(self):
        with pytest.raises(UnsupportedOrderError):
            finite_difference_derivatives(lambda v: float(np.sum(v ** 2)),
                                          np.zeros(3), max_order=2)

    def test_nonfinite_function_rejected(self):
        with pytest.raises(InvalidInputError):
            finite_difference_derivatives(lambda v: math.inf, np.zeros(1), max_order=1)


class TestLaplaceMarginalValidation:
    def test_requires_all_orders_for_c2(self):
        h = {2: np.eye(1), 3: np.zeros((1, 1, 1)), 4: np.zeros((1, 1, 1, 1))}
        p = {1: np.zeros(1), 2: np.zeros((1, 1))}
        coeffs = TensorCoeffs(dim=1, mle=np.zeros(1), h_derivs=h,
                              prior_value=1.0, prior_derivs=p)
        assert laplace_c1(coeffs) == 0.0
        with pytest.raises(InvalidInputError):
            laplace_c2(coeffs)

    def test_non_spd_information_rejected(self):
        with pytest.raises(InvalidInputError):
            TensorCoeffs(dim=1, mle=np.zeros(1), h_derivs={2: -np.eye(1)},
                         prior_value=1.0, prior_derivs={})
