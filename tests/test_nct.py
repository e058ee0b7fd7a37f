"""Noncentral t log density against closed forms and independent quadrature."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats as sps

from perinull import (
    InvalidInputError,
    QuadratureConvergenceError,
    central_t_logpdf,
    nct,
    noncentral_t_logpdf,
)

from conftest import nct_logpdf_oracle


class TestCentralReduction:
    def test_closed_form_at_zero(self):
        """f(0; 10, 0) = Gamma(5.5) / (sqrt(10 pi) Gamma(5))."""
        expected = (special.gammaln(5.5) - special.gammaln(5.0)
                    - 0.5 * math.log(10.0 * math.pi))
        np.testing.assert_allclose(noncentral_t_logpdf(0.0, 10.0, 0.0),
                                   expected, rtol=1e-14)

    def test_zero_ncp_equals_student_t_on_grid(self):
        xs = np.linspace(-8.0, 8.0, 33)
        for nu in (0.5, 1.0, 2.0, 7.5, 42.0, 500.0, 1e5):
            mine = noncentral_t_logpdf(xs, nu, np.zeros_like(xs))
            np.testing.assert_allclose(mine, sps.t.logpdf(xs, nu),
                                       rtol=1e-11, atol=1e-11)
            np.testing.assert_allclose(central_t_logpdf(xs, nu),
                                       sps.t.logpdf(xs, nu), rtol=1e-11, atol=1e-11)


class TestNoncentralValues:
    def test_against_defining_integral(self):
        cases = [(2.5, 30.0, 1.7), (-3.0, 5.0, 2.0), (0.7, 12.0, -4.0),
                 (4.0, 88.0, 4.74), (-2.0, 88.0, 4.74), (6.0, 200.0, -4.0),
                 (1.5, 3.0, 25.0), (9.0, 60.0, 8.0)]
        for x, nu, ncp in cases:
            np.testing.assert_allclose(noncentral_t_logpdf(x, nu, ncp),
                                       nct_logpdf_oracle(x, nu, ncp),
                                       rtol=0, atol=5e-10)

    def test_against_scipy_moderate_ncp(self):
        """scipy.stats.nct agrees within its own tail accuracy; points where
        scipy underflows to -inf (it does for nu = 150 deep tails) are
        checked for finiteness on our side instead."""
        rng = np.random.default_rng(3)
        xs = rng.uniform(-10, 10, size=60)
        ncps = rng.uniform(-25, 25, size=60)
        for nu in (3.0, 29.5, 150.0):
            mine = noncentral_t_logpdf(xs, nu, ncps)
            ref = sps.nct.logpdf(xs, nu, ncps)
            assert np.all(np.isfinite(mine))
            ok = np.isfinite(ref)
            np.testing.assert_allclose(mine[ok], ref[ok], rtol=2e-9, atol=2e-8)

    def test_reference_point(self):
        # frozen from a 50-digit evaluation of the series representation
        np.testing.assert_allclose(noncentral_t_logpdf(2.5, 30.0, 1.7),
                                   -1.2806723102125853, rtol=0, atol=1e-9)

    def test_finite_across_documented_domain(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-300, 300, size=200)
        ncps = rng.uniform(-300, 300, size=200)
        for nu in (1.0, 88.0, 1e5):
            vals = noncentral_t_logpdf(xs, nu, ncps)
            assert np.all(np.isfinite(vals))

    def test_extreme_corner_against_frozen_high_precision(self):
        # values computed with a 50-digit windowed series / integral oracle
        cases = {
            (10.0, 3.0, 300.0): -1301.459898993237,
            (250.0, 1e5, 300.0): -949.850482113925,
            (1.0, 2.0, -280.0): -39216.437242533910,
            (0.3, 17.0, 299.0): -44428.715905394231,
        }
        for (x, nu, ncp), expected in cases.items():
            mine = noncentral_t_logpdf(x, nu, ncp)
            assert abs(mine - expected) / abs(expected) < 1e-9

    def test_sign_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = rng.uniform(-6, 6)
            nu = rng.uniform(1, 300)
            ncp = rng.uniform(-20, 20)
            assert noncentral_t_logpdf(x, nu, ncp) == noncentral_t_logpdf(-x, nu, -ncp)

    def test_vectorized_matches_scalar(self, monkeypatch):
        rng = np.random.default_rng(6)
        xs = rng.uniform(-50, 50, size=100)
        ncps = rng.uniform(-80, 80, size=100)
        xs = np.concatenate([xs, rng.uniform(0.1, 50, size=5000)])
        ncps = np.concatenate([ncps, rng.uniform(0.01, 20, size=5000)])
        # the vector call must run more than one block of the rule, each
        # with its own node count
        blocks = []
        trapezoid = nct._log_trapezoid
        monkeypatch.setattr(nct, "_log_trapezoid",
                            lambda log_f, h: blocks.append(log_f.shape) or trapezoid(log_f, h))
        vec = noncentral_t_logpdf(xs, 33.0, ncps)
        assert len(blocks) > 1
        monkeypatch.undo()
        scal = np.array([noncentral_t_logpdf(float(x), 33.0, float(d))
                         for x, d in zip(xs, ncps)])
        np.testing.assert_allclose(vec, scal, rtol=1e-14, atol=1e-14)

    def test_normalization_integrates_to_one(self):
        from scipy import integrate

        for nu, ncp in ((7.0, 2.5), (40.0, -6.0)):
            val, _ = integrate.quad(
                lambda x: math.exp(noncentral_t_logpdf(x, nu, ncp)),
                -np.inf, np.inf, limit=400)
            np.testing.assert_allclose(val, 1.0, rtol=1e-8)

    def test_invalid_nu(self):
        with pytest.raises(InvalidInputError):
            noncentral_t_logpdf(1.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            noncentral_t_logpdf(1.0, -3.0, 1.0)

    @pytest.mark.parametrize("x, ncp", [(math.inf, 1.0), (1.0, math.nan), (1e200, 1.0)])
    def test_no_finite_window_raises(self, x, ncp):
        """A point whose rule has no finite window reports an infinite bound
        instead of returning nan."""
        with np.errstate(all="ignore"), pytest.raises(QuadratureConvergenceError) as info:
            noncentral_t_logpdf([0.5, x], 10.0, [1.0, ncp])
        assert info.value.error_bound == math.inf


def _mpmath_logpdf(x, nu, ncp):
    """40-digit quadrature of f(x) = int u phi(x u - ncp) p_U(u) du over
    y = log u, u = sqrt(V / nu), V ~ chi2(nu): breakpoints every sd for 12 sd
    about the mode, and a left segment reaching 200 / (nu + 1) past them."""
    with mp.workdps(40):
        x, nu, ncp = mp.mpf(x), mp.mpf(nu), mp.mpf(ncp)
        log_norm = mp.log(2) + nu / 2 * mp.log(nu / 2) - mp.loggamma(nu / 2)

        def log_f(y):
            u = mp.exp(y)
            return (log_norm + (nu + 1) * y - nu * u * u / 2
                    - (x * u - ncp) ** 2 / 2 - mp.log(2 * mp.pi) / 2)

        a2, p = nu + x * x, x * ncp
        w = (p + mp.sqrt(p * p + 4 * a2 * (nu + 1))) / (2 * a2)
        mode, sd = mp.log(w), 1 / mp.sqrt(a2 * w * w + nu + 1)
        peak = log_f(mode)
        points = [mode - 12 * sd - 200 / (nu + 1)] + [mode + k * sd for k in range(-12, 13)]
        return float(peak + mp.log(mp.quad(lambda y: mp.exp(log_f(y) - peak), points)))


@pytest.mark.parametrize("x, nu, ncp", [
    (0.3, 1e3, -0.1), (0.3, 1e4, -0.1), (0.3, 1e5, -0.1),
    (1.0, 1.0, -300.0), (300.0, 1.0, -300.0), (-120.0, 1e5, 250.0),
])
def test_matches_mpmath(x, nu, ncp):
    """Within 1e-13 relative of 40-digit mpmath, also at nu = 1e5, where the
    terms of the log integrand reach sqrt(nu) and the mode is sharp."""
    ref = _mpmath_logpdf(x, nu, ncp)
    assert abs(noncentral_t_logpdf(x, nu, ncp) - ref) <= 1e-13 * abs(ref)
