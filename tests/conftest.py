"""Shared fixtures and independent oracles used across the test modules."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy import integrate, special, stats as sps

from perinull import Design, SummaryStats

# property tests draw the same examples on every run, so Tier-1 stays
# deterministic; each example costs tens of milliseconds
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=40,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def worked_example_stats():
    """The two-sample design of the worked example: reported t = 2.00 with
    group sizes 47 and 43 (nu = 88, n_eff = 2021/90)."""
    return SummaryStats(t=2.0, nu=88.0, n_eff=47 * 43 / 90,
                        design=Design.TWO_SAMPLE, n_total=90)


def nct_logpdf_oracle(x, nu, ncp):
    """Brute-force quadrature of the defining scale-mixture representation.

    T = (Z + ncp) / sqrt(V/nu) gives f(x) = int_0^inf u phi(x u - ncp) g(u) du
    with g the density of sqrt(V/nu). Integrated on a peak-centered window in
    scaled form; independent of the package implementation.
    """
    log_norm = (math.log(2.0) + 0.5 * nu * math.log(nu) - 0.5 * nu * math.log(2.0)
                - special.gammaln(0.5 * nu))

    def log_integrand(u):
        return (log_norm + nu * math.log(u) - 0.5 * nu * u * u
                + sps.norm.logpdf(x * u - ncp))

    # the integrand peaks near the solution of nu/u - nu u - x(xu - ncp) = 0
    b = x * ncp
    ustar = (b + math.sqrt(b * b + 4.0 * nu * (nu + x * x))) / (2.0 * (nu + x * x))
    peak = log_integrand(ustar)
    width = 1.0 / math.sqrt(nu + (nu + x * x) * ustar ** 2) * ustar + 1e-12
    lo = max(0.0, ustar - 45.0 * width)
    hi = ustar + 45.0 * width
    val, _ = integrate.quad(lambda u: math.exp(log_integrand(u) - peak),
                            lo, hi, epsabs=1e-300, epsrel=1e-12, limit=400)
    return peak + math.log(val)


def fit_expansion_coefficients(log_exact_fn, log_leading_fn, ns, n_terms):
    """Recover C1, C2, ... from exact/leading ratios by polynomial fit in 1/n.

    The independent oracle behind the Laplace-engine tests: given closed-form
    log marginals, solve for the expansion coefficients from evaluations at
    several sample sizes.
    """
    ns = np.asarray(ns, dtype=np.float64)
    resid = np.array([math.expm1(log_exact_fn(n) - log_leading_fn(n)) for n in ns])
    design = np.vander(1.0 / ns, N=n_terms + 1, increasing=True)[:, 1:]
    coeffs, *_ = np.linalg.lstsq(design, resid, rcond=None)
    return coeffs
