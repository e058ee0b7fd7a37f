"""The benchmark's oracles against mpmath at high precision.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
The mpmath side integrates the noncentral t density, written with Kummer's
function 1F1, against each prior directly over delta, so it shares no
formula with the scale-mixture oracles it checks.
"""

import itertools
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402

mp.mp.dps = 30

CASES = ((2.0, 30), (-1.2, 80), (4.5, 150))


def mp_nct_pdf(x, nu, ncp):
    x, nu, ncp = mp.mpf(x), mp.mpf(nu), mp.mpf(ncp)
    r2 = nu + x * x
    z = ncp * ncp * x * x / (2 * r2)
    front = (nu ** (nu / 2) * mp.gamma(nu + 1) * mp.exp(-ncp * ncp / 2)
             / (2 ** nu * r2 ** (nu / 2) * mp.gamma(nu / 2)))
    odd = (mp.sqrt(2) * ncp * x / r2 * mp.hyp1f1(nu / 2 + 1, mp.mpf(3) / 2, z)
           / mp.gamma((nu + 1) / 2))
    even = mp.hyp1f1((nu + 1) / 2, mp.mpf(1) / 2, z) / (mp.sqrt(r2) * mp.gamma(nu / 2 + 1))
    return front * (odd + even)


def mp_marginal(t, n, prior_pdf, lo, hi, extra=()):
    """log int_lo^hi f_nct(t; n-1, sqrt(n) delta) prior(delta) d delta."""
    root = mp.sqrt(n)
    centre = mp.mpf(t) / root
    width = 1 / root
    points = {lo, hi, *extra}
    points |= {centre + k * width for k in (-8, -3, 0, 3, 8)}
    points = sorted(p for p in points if lo <= p <= hi)
    value = mp.quad(lambda d: mp_nct_pdf(t, n - 1, root * d) * prior_pdf(d), points)
    return float(mp.log(value))


def cauchy_pdf(k):
    return lambda d: k / (mp.pi * (d * d + k * k))


@pytest.mark.parametrize("x,nu", [(0.3, 3), (2.5, 19), (-7.0, 150), (40.0, 1e4), (300.0, 1e6)])
def test_central_t(x, nu):
    exact = (mp.loggamma((mp.mpf(nu) + 1) / 2) - mp.loggamma(mp.mpf(nu) / 2)
             - mp.log(mp.pi * nu) / 2 - (mp.mpf(nu) + 1) / 2 * mp.log1p(mp.mpf(x) ** 2 / nu))
    assert oracles.central_t_logpdf(x, nu) == pytest.approx(float(exact), rel=1e-13, abs=1e-12)


@pytest.mark.parametrize("z", [0.3, 4.0, 10.0, 29.99, 30.0, 57.5, 5e5])
def test_half_ratio_and_stirling_gap(z):
    ratio = mp.loggamma(mp.mpf(z) + 0.5) - mp.loggamma(z)
    gap = mp.mpf(z) * (mp.log(z) - 1) - mp.loggamma(z)
    assert oracles.log_gamma_half_ratio(z) == pytest.approx(float(ratio), rel=1e-14, abs=1e-14)
    assert float(oracles._stirling_gap(z)) == pytest.approx(float(gap), rel=1e-14, abs=1e-13)


@pytest.mark.parametrize("t,n", CASES)
def test_peri_null(t, n):
    k0 = 0.3
    ref = mp_marginal(t, n, lambda d: mp.npdf(d, 0, k0), -40 * k0, 40 * k0, (0,))
    assert oracles.peri_logml(t, n - 1.0, float(n), k0)[0] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("t,n", CASES)
def test_point_null(t, n):
    ref = float(mp.log(mp_nct_pdf(t, n - 1, 0)))
    assert oracles.point_logml(t, n - 1.0, float(n))[0] == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("t,n", CASES)
def test_cauchy_jzs(t, n):
    k = 0.7071
    ref = mp_marginal(t, n, cauchy_pdf(k), -mp.inf, mp.inf, (-k, 0, k))
    value, err = oracles.cauchy_logml(t, n - 1.0, float(n), k)
    assert err < 1e-12
    assert value == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("case,a,inside", itertools.product(CASES[:2], (0.1, 0.5), (True, False)))
def test_truncated_cauchy_grid(case, a, inside):
    (t, n), k = case, 1.0
    mass = 2 / mp.pi * (mp.atan(a / k) if inside else mp.atan(k / a))
    pdf = cauchy_pdf(k)
    if inside:
        ref = mp_marginal(t, n, lambda d: pdf(d) / mass, -a, a, (0,))
    else:
        right = mp_marginal(t, n, lambda d: pdf(d) / mass, a, mp.inf)
        left = mp_marginal(t, n, lambda d: pdf(d) / mass, -mp.inf, -a)
        ref = float(mp.log(mp.exp(right) + mp.exp(left)))
    value, err = oracles.truncated_cauchy_logml(t, n - 1.0, float(n), k, a, inside)
    assert err < 1e-10
    assert value == pytest.approx(ref, abs=1e-9)


def test_moment_tensors_match_pair_partitions():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2))
    cov = a @ a.T + np.eye(2)

    def pairings(items):
        if not items:
            yield []
            return
        for i in range(1, len(items)):
            rest = items[1:i] + items[i + 1:]
            for sub in pairings(rest):
                yield [(items[0], items[i])] + sub

    tensors = oracles.gaussian_moment_tensors(cov, max_order=8)
    for w in (2, 4, 6, 8):
        for idx in itertools.product(range(2), repeat=w):
            ref = sum(math.prod(cov[i, j] for i, j in p) for p in pairings(list(idx)))
            assert tensors[w][idx] == pytest.approx(ref, rel=1e-12)


def test_laplace_c1_gamma_shape():
    """C1 of exp(-n (theta - log theta)) with a Gamma(2, 1) prior, from the
    exact marginal at large n in mpmath: n (exact / leading - 1) -> C1."""
    shape, rate = mp.mpf(2), mp.mpf(1)
    h = {2: 1.0, 3: -2.0, 4: 6.0, 5: -24.0, 6: 120.0}
    # derivatives of theta^(shape-1) exp(-rate theta) * rate^shape / Gamma(shape) at 1
    prior = [mp.diff(lambda x: rate ** shape / mp.gamma(shape) * x ** (shape - 1)
                     * mp.exp(-rate * x), 1, k) for k in range(5)]
    hs = {k: np.full((1,) * k, v) for k, v in h.items()}
    ps = {k: np.full((1,) * k, float(prior[k])) for k in range(1, 5)}
    c1, c2 = oracles.laplace_coefficients(hs, ps, float(prior[0]), np.array([[1.0]]))
    n = mp.mpf(10) ** 8
    exact = (shape * mp.log(rate) - mp.loggamma(shape) + mp.loggamma(n + shape)
             - (n + shape) * mp.log(n + rate))
    leading = mp.log(2 * mp.pi / n) / 2 - n + mp.log(prior[0])
    estimate = n * (mp.exp(exact - leading) - 1) - c2 / n
    assert c1 == pytest.approx(float(estimate), rel=1e-7)


def test_ttest_c1_matches_published_limit():
    """At mu = 0 the published peri-null C1 reduces to (2 k0^2 - 6) / (12 k0^2)."""
    k0 = 0.05
    assert oracles.ttest_c1("peri", 0.0, 1.0, k0, 0.7071) == pytest.approx(
        (2 * k0 ** 2 - 6) / (12 * k0 ** 2), rel=1e-14)
