"""Marginal likelihoods and Bayes factors: worked-example values, the
product decomposition, Monte Carlo prior-predictive oracles, and the
consistency-fix variants."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

import perinull as pn
from perinull import (
    AltCauchy,
    DegeneratePriorError,
    PeriNullError,
    PeriNullNormal,
    PointAtZero,
    QuadratureConfig,
    QuadratureConvergenceError,
    TruncatedCauchy,
    ingest_one_sample,
    marginal_loglik,
)

K1_DEFAULT = 1.0 / math.sqrt(2.0)


def _with_t(stats, t):
    import dataclasses

    return dataclasses.replace(stats, t=t)


def _mp_scaled_t_logml(t, n, g):
    """log p(t) under delta ~ N(0, g), one-sample: t / s is central t with
    s = sqrt(1 + n g); g = 0 is the point null."""
    nu = n - 1
    s2 = 1 + n * g
    return (mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2) - mp.log(nu * mp.pi) / 2
            - mp.log(s2) / 2 - (nu + 1) / 2 * mp.log1p(t * t / (s2 * nu)))


def _mp_cauchy_logml(t, n, kappa):
    """log p(t) under Cauchy(0, kappa), as N(0, g) with g ~ InvGamma(1/2,
    kappa^2/2), integrated over x = log g with breakpoints around the prior
    and likelihood scales."""
    def integrand(x):
        g = mp.exp(x)
        return mp.exp(mp.log(kappa) - mp.log(2 * mp.pi) / 2 - x / 2 - kappa ** 2 / (2 * g)
                      + _mp_scaled_t_logml(t, n, g))

    prior_x, lik_x = 2 * mp.log(kappa), mp.log((t * t + 1) / n)
    top = max(prior_x, lik_x)
    points = sorted({prior_x - 12, prior_x - 3, prior_x, lik_x,
                     top + 3, top + 10, top + 30, top + 80})
    return mp.log(mp.quad(integrand, points))


@pytest.mark.parametrize("kind, t, n, params, expected", [
    ("cauchy", 20.0, 100_000, {"kappa1": 20.0}, -9.896937417),
    ("cauchy", 8.0, 1_000_000, {"kappa1": 10.0}, -10.355071158),
    ("cauchy", -5.524885480029566, 120_769, {"kappa1": 5.0}, -8.604997764),
    ("peri", 40.0, 1_000_000, {"kappa0": 1e-6}, None),
    ("shrinking", 40.0, 20_000, {"c": 1.0, "kappa1": 1.0}, 387.3184049),
    ("shrinking", 60.0, 30_000, {"c": 1.0, "kappa1": 1.0}, 868.9148821),
    ("peri", 3.0, 1000, {"kappa0": 3e148}, None),
    ("peri", 1.0, 50, {"kappa0": 1e200}, None),
])
def test_mixture_marginals_match_mpmath(kind, t, n, params, expected):
    """Cells where adaptive quadrature over delta was wrong while reporting a
    tiny (or NaN) bound, and peri-null widths on both sides of the point
    where n_eff kappa0^2 would overflow; references come from mpmath at 30
    digits."""
    stats = ingest_one_sample(t, n)
    with mp.workdps(30):
        mt, mn = mp.mpf(t), mp.mpf(n)
        if kind == "cauchy":
            value, bound = marginal_loglik(stats, AltCauchy(params["kappa1"]))
            reference = _mp_cauchy_logml(mt, mn, mp.mpf(params["kappa1"]))
        elif kind == "peri":
            value, bound = marginal_loglik(stats, PeriNullNormal(params["kappa0"]))
            reference = _mp_scaled_t_logml(mt, mn, mp.mpf(params["kappa0"]) ** 2)
        else:
            result = pn.shrinking_peri_null_bf(stats, params["c"], params["kappa1"])
            value, bound = result.log_bf, result.quad_error_bound
            reference = (_mp_cauchy_logml(mt, mn, mp.mpf(params["kappa1"]))
                         - _mp_scaled_t_logml(mt, mn, mp.mpf(params["c"]) ** 2 / mn))
        reference = float(reference)
    assert math.isfinite(bound) and bound >= 0.0
    assert abs(value - reference) <= 1e-9 + bound
    if expected is not None:
        assert abs(reference - expected) <= 1e-9 * max(1.0, abs(expected))


def _mp_nct_pdf(x, nu, ncp):
    """Noncentral t density in Kummer's-function form, independent of the
    package's series and of the normal scale-mixture route."""
    r2 = nu + x * x
    z = ncp * ncp * x * x / (2 * r2)
    front = mp.exp(nu / 2 * mp.log(nu) + mp.loggamma(nu + 1) - ncp * ncp / 2
                   - nu * mp.log(2) - nu / 2 * mp.log(r2) - mp.loggamma(nu / 2))
    odd = (mp.sqrt(2) * ncp * x / r2 * mp.hyp1f1(nu / 2 + 1, mp.mpf(3) / 2, z)
           / mp.gamma((nu + 1) / 2))
    even = mp.hyp1f1((nu + 1) / 2, mp.mpf(1) / 2, z) / (mp.sqrt(r2) * mp.gamma(nu / 2 + 1))
    return front * (odd + even)


def _mp_slice_logml(n, t, kappa, a, inside):
    """log marginal of a one-sample t under Cauchy(0, kappa) restricted to
    |delta| <= a or |delta| > a, by mpmath quadrature over delta.

    Breakpoints: 0, +-a, the likelihood centre t / sqrt(n) and multiples of
    its width 1 / sqrt(n) around it, and geometric steps away from +-a in
    units of the likelihood's decay length there. Beyond 80 widths past
    max(a, |centre|) the likelihood has fallen by more than e^-3000.
    """
    t, n, kappa, a = mp.mpf(t), mp.mpf(n), mp.mpf(kappa), mp.mpf(a)
    c = mp.sqrt(n)

    def integrand(d):
        return _mp_nct_pdf(t, n - 1, c * d) * kappa / (mp.pi * (d * d + kappa * kappa))

    centre, width = t / c, 1 / c
    decay = width / max(1, abs(c * a - abs(t)))
    far = max(a, abs(centre)) + 80 * width
    points = {0, centre} | {centre + k * width for k in
                            (-40, -20, -10, -5, -3, -2, -1, -0.5, 0.5, 1, 2, 3, 5, 10, 20, 40)}
    points |= {e + s * decay * 2 ** k for e in (-a, a) for s in (-1, 1) for k in range(-3, 16)}
    if inside:
        pieces = [(-a, a)]
        mass = 2 / mp.pi * mp.atan(a / kappa)
    else:
        pieces = [(a, far), (-far, -a)]
        mass = 2 / mp.pi * mp.atan(kappa / a)
    total = sum(mp.quad(integrand, sorted({p for p in points | {lo, hi} if lo <= p <= hi}))
                for lo, hi in pieces)
    return mp.log(total) - mp.log(mass)


# (n, t, kappa, a) -> log marginals of the inside and outside slices, from
# _mp_slice_logml at 30 digits (0.5 to 70 s per cell, so pinned; the first
# cell is recomputed): the eight interval cells of ROADMAP item 3 (wrong
# values, crashes, a false refusal, a wrong value with a tiny bound) and two
# uncapped draws of perfbench/defects.py
INTERVAL_REFERENCES = [
    ((50_000, 1.0, 0.7071, 0.1), -3.7939265064072097, -238.25382774623092),
    ((100_000, 1.0, 0.7071, 0.1), -4.1404576048422488, -479.69730650229087),
    ((20_000, 0.5, 0.7071, 0.1), -3.3358336173127868, -102.26687900278941),
    ((200_000, 1.0, 0.7071, 0.1), -4.4870099469695687, -967.30080526483610),
    ((10_000, 0.0, 1.0, 0.5), -4.5298118654059595, -1259.7616477647969),
    ((10_000, 1.5, 1.0, 0.5), -4.5300367502017476, -1186.4150205374488),
    ((400_000, 1.0, 0.7071, 0.1), -4.8335729126155244, -1949.4761446036835),
    ((10_000, 16.7, 1.0, 0.1), -27.977337068624386, -5.7119680634513016),
    ((15_909, 13.909, 1.4142, 0.1), -5.5521951328758917, -6.3921984425228841),
    ((478_344, 14.623, 1.0, 0.5), -6.4640089462523972, -54845.105932909795),
]


@pytest.mark.parametrize("cell, inside_ref, outside_ref", INTERVAL_REFERENCES)
def test_interval_slices_match_mpmath(cell, inside_ref, outside_ref):
    n, t, kappa, a = cell
    stats = ingest_one_sample(t, n)
    for inside, reference in ((True, inside_ref), (False, outside_ref)):
        value, bound = marginal_loglik(stats, TruncatedCauchy(kappa, a, inside=inside))
        assert math.isfinite(bound) and bound >= 0.0
        assert abs(value - reference) <= 1e-9 + bound
        if cell == INTERVAL_REFERENCES[0][0]:
            with mp.workdps(30):
                recomputed = float(_mp_slice_logml(n, t, kappa, a, inside))
            assert abs(recomputed - reference) <= 1e-12


class TestMarginalLoglik:
    def test_point_prior_is_exact_central_density(self, worked_example_stats):
        value, bound = marginal_loglik(worked_example_stats, PointAtZero())
        np.testing.assert_allclose(
            value, pn.noncentral_t_logpdf(worked_example_stats.t,
                                          worked_example_stats.nu, 0.0), rtol=0, atol=0)
        assert bound == 0.0

    def test_tiny_peri_width_degenerates_to_point(self, worked_example_stats):
        lm_point, _ = marginal_loglik(worked_example_stats, PointAtZero())
        lm_tiny, _ = marginal_loglik(worked_example_stats, PeriNullNormal(1e-8))
        assert abs(lm_tiny - lm_point) < 1e-9

    def test_reported_error_bound_is_honest(self, worked_example_stats):
        loose = QuadratureConfig(rel_tol=1e-6)
        tight = QuadratureConfig(rel_tol=1e-11)
        for prior in (AltCauchy(K1_DEFAULT), PeriNullNormal(0.05),
                      TruncatedCauchy(K1_DEFAULT, 0.5, inside=True),
                      TruncatedCauchy(K1_DEFAULT, 0.5, inside=False)):
            v_loose, b_loose = marginal_loglik(worked_example_stats, prior, loose)
            v_tight, _ = marginal_loglik(worked_example_stats, prior, tight)
            assert abs(v_loose - v_tight) <= max(b_loose, 1e-12)

    def test_monte_carlo_prior_predictive_oracle(self):
        """Quadrature marginals agree with 1e5-draw Monte Carlo averages
        within 4 Monte Carlo standard errors, on randomized instances."""
        rng = np.random.default_rng(20220914)
        n_draws = 100_000
        for i in range(20):
            t = float(rng.uniform(-4, 4))
            n_total = int(rng.integers(4, 150))
            stats = ingest_one_sample(t, n_total)
            if i % 2 == 0:
                kappa0 = float(rng.uniform(0.01, 0.2))
                prior = PeriNullNormal(kappa0)
                draws = rng.normal(0.0, kappa0, size=n_draws)
            else:
                kappa1 = float(rng.uniform(0.3, 1.5))
                prior = AltCauchy(kappa1)
                draws = kappa1 * rng.standard_cauchy(size=n_draws)
            value, bound = marginal_loglik(stats, prior)
            log_dens = pn.noncentral_t_logpdf(
                t, stats.nu, math.sqrt(stats.n_eff) * draws)
            dens = np.exp(log_dens)
            mc_mean = dens.mean()
            mc_se = dens.std(ddof=1) / math.sqrt(n_draws)
            assert abs(math.exp(value) - mc_mean) <= 4.0 * mc_se + math.exp(value) * bound, (
                f"instance {i}: quad {math.exp(value)} vs MC {mc_mean} +- {mc_se}")

    def test_convergence_error_carries_estimate(self, worked_example_stats):
        """The estimate is the normalized marginal over both slices, not one
        unnormalized side."""
        starved = QuadratureConfig(rel_tol=1e-30)
        outside = TruncatedCauchy(0.7071, 0.5, inside=False)
        with pytest.raises(QuadratureConvergenceError) as info:
            marginal_loglik(worked_example_stats, outside, starved)
        good, _ = marginal_loglik(worked_example_stats, outside)
        assert math.isfinite(info.value.estimate)
        assert info.value.error_bound > 0
        assert abs(info.value.estimate - good) < 1e-2

    def test_g_rule_bound_above_tolerance_raises_with_estimate(self, worked_example_stats):
        prior = AltCauchy(K1_DEFAULT)
        with pytest.raises(QuadratureConvergenceError) as info:
            marginal_loglik(worked_example_stats, prior, QuadratureConfig(rel_tol=1e-30))
        good, bound = marginal_loglik(worked_example_stats, prior)
        assert info.value.estimate == good
        assert info.value.error_bound == bound > 1e-30

    def test_inside_slice_convergence_error_is_normalized(self, worked_example_stats):
        starved = QuadratureConfig(rel_tol=1e-30)
        inside = TruncatedCauchy(0.7071, 0.5, inside=True)
        with pytest.raises(QuadratureConvergenceError) as info:
            marginal_loglik(worked_example_stats, inside, starved)
        good, _ = marginal_loglik(worked_example_stats, inside)
        assert abs(info.value.estimate - good) < 1e-6


class TestWorkedExample:
    """Quantitative reproduction at the study's reported t values."""

    def test_point_null_bf_at_t2(self, worked_example_stats):
        result = pn.point_null_bf10(worked_example_stats, K1_DEFAULT)
        assert abs(result.bf - 1.259) <= 0.005

    def test_point_null_bf_at_t4(self, worked_example_stats):
        result = pn.point_null_bf10(_with_t(worked_example_stats, 4.0), K1_DEFAULT)
        assert abs(result.bf - 174.0) <= 1.0

    @pytest.mark.parametrize("t, kappa0, expected, tol", [
        (2.0, 0.01, 0.997, 0.002),
        (2.0, 0.05, 0.927, 0.003),
        (4.0, 0.01, 0.986, 0.003),
        (4.0, 0.05, 0.713, 0.005),
    ])
    def test_correction_factors(self, worked_example_stats, t, kappa0, expected, tol):
        result = pn.peri_null_correction_bf(_with_t(worked_example_stats, t), kappa0)
        assert abs(result.bf - expected) <= tol

    @pytest.mark.parametrize("t, kappa0, expected, tol", [
        (2.0, 0.05, 1.167, 0.01),
        (4.0, 0.05, 124.0, 2.0),
        (4.0, 0.01, 172.0, 2.0),
    ])
    def test_peri_null_bfs(self, worked_example_stats, t, kappa0, expected, tol):
        result = pn.peri_null_bf(_with_t(worked_example_stats, t), kappa0, K1_DEFAULT)
        assert abs(result.bf - expected) <= tol

    def test_posterior_probabilities(self, worked_example_stats):
        at4 = _with_t(worked_example_stats, 4.0)
        point = pn.point_null_bf10(at4, K1_DEFAULT)
        peri = pn.peri_null_bf(at4, 0.05, K1_DEFAULT)
        assert abs(point.posterior_prob_numerator - 0.994) <= 0.001
        assert abs(peri.posterior_prob_numerator - 0.992) <= 0.001

    def test_vanishing_alternative_scale_recovers_null(self):
        stats = ingest_one_sample(0.0, 90)
        result = pn.point_null_bf10(stats, 1e-6)
        assert abs(result.bf - 1.0) <= 1e-4


class TestDecompositionIdentity:
    def test_product_identity_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            stats = ingest_one_sample(float(rng.uniform(-5, 5)),
                                      int(rng.integers(3, 300)))
            kappa0 = float(rng.uniform(0.005, 0.3))
            kappa1 = float(rng.uniform(0.3, 1.5))
            r = pn.peri_null_bf(stats, kappa0, kappa1)
            gap = abs(r.log_bf - (r.point_null_log_bf + r.correction_log_bf))
            assert gap <= 3.0 * r.quad_error_bound + 1e-13

    def test_components_match_standalone_operations(self, worked_example_stats):
        r = pn.peri_null_bf(worked_example_stats, 0.05, K1_DEFAULT)
        point = pn.point_null_bf10(worked_example_stats, K1_DEFAULT)
        corr = pn.peri_null_correction_bf(worked_example_stats, 0.05)
        np.testing.assert_allclose(r.point_null_log_bf, point.log_bf, atol=1e-12)
        np.testing.assert_allclose(r.correction_log_bf, corr.log_bf, atol=1e-12)


class TestSymmetryAndMonotonicity:
    def test_sign_symmetry_of_all_variants(self):
        stats_pos = ingest_one_sample(1.7, 40)
        stats_neg = ingest_one_sample(-1.7, 40)
        pairs = [
            (pn.point_null_bf10(stats_pos, 0.8), pn.point_null_bf10(stats_neg, 0.8)),
            (pn.peri_null_bf(stats_pos, 0.05, 0.8), pn.peri_null_bf(stats_neg, 0.05, 0.8)),
            (pn.interval_null_bf(stats_pos, 0.8, 0.4), pn.interval_null_bf(stats_neg, 0.8, 0.4)),
            (pn.peri_point_bf(stats_pos, 0.5, 0.05, 0.8), pn.peri_point_bf(stats_neg, 0.5, 0.05, 0.8)),
        ]
        for pos, neg in pairs:
            np.testing.assert_allclose(pos.log_bf, neg.log_bf, rtol=0, atol=1e-9)

    def test_point_null_log_bf_nondecreasing_in_abs_t(self):
        values = []
        for t in np.arange(0.0, 6.5, 0.5):
            stats = ingest_one_sample(float(t), 90)
            values.append(pn.point_null_bf10(stats, K1_DEFAULT).log_bf)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-10)


class TestIntervalNull:
    def test_monte_carlo_oracle_at_null_data(self):
        """Truncated-prior marginals against sampling from the slices."""
        stats = ingest_one_sample(0.0, 100)
        kappa, a = K1_DEFAULT, 0.5
        result = pn.interval_null_bf(stats, kappa, a)
        rng = np.random.default_rng(8)
        n_draws = 200_000
        u = rng.uniform(size=n_draws)
        # inverse-cdf sampling of Cauchy restricted to [-a, a] and its complement
        lo, hi = 0.5 + math.atan(-a / kappa) / math.pi, 0.5 + math.atan(a / kappa) / math.pi
        inside = kappa * np.tan(np.pi * (lo + u * (hi - lo) - 0.5))
        mass_out = 1.0 - (hi - lo)
        u_out = np.where(u < 0.5, u * 2.0 * lo, hi + (u - 0.5) * 2.0 * (1.0 - hi))
        outside = kappa * np.tan(np.pi * (u_out - 0.5))

        def mc_log_marginal(draws):
            dens = np.exp(pn.noncentral_t_logpdf(
                stats.t, stats.nu, math.sqrt(stats.n_eff) * draws))
            return dens.mean(), dens.std(ddof=1) / math.sqrt(n_draws)

        m_in, se_in = mc_log_marginal(inside)
        m_out, se_out = mc_log_marginal(outside)
        mc_log_bf = math.log(m_out) - math.log(m_in)
        se_log = 3.0 * (se_in / m_in + se_out / m_out)
        assert abs(result.log_bf - mc_log_bf) <= se_log
        assert mass_out > 0

    def test_recombination_identity(self, worked_example_stats):
        kappa, a = K1_DEFAULT, 0.5
        lm_in, _ = marginal_loglik(worked_example_stats, TruncatedCauchy(kappa, a, inside=True))
        lm_out, _ = marginal_loglik(worked_example_stats, TruncatedCauchy(kappa, a, inside=False))
        lm_full, bound = marginal_loglik(worked_example_stats, AltCauchy(kappa))
        mass_in = 2.0 / math.pi * math.atan(a / kappa)
        recombined = np.logaddexp(math.log(mass_in) + lm_in,
                                  math.log1p(-mass_in) + lm_out)
        assert abs(recombined - lm_full) <= 10.0 * bound + 1e-10

    def test_outside_slice_beyond_exp_underflow_computes(self):
        """At n = 2e5 and a = 0.1 the outside slice's density is about
        e^-967, below what exp can represent; the log-space rule computes it."""
        stats = ingest_one_sample(1.0, 200_000)
        result = pn.interval_null_bf(stats, 0.7071, 0.1)
        assert abs(result.log_bf - (-962.8138)) < 1e-4
        assert 0.0 <= result.quad_error_bound <= 1e-8

    def test_degenerate_when_outside_slice_is_empty(self):
        stats = ingest_one_sample(0.0, 100)
        with pytest.raises(DegeneratePriorError):
            pn.interval_null_bf(stats, K1_DEFAULT, 1e9)


# the interval route's input domain for the property tests
INTERVAL_CELLS = dict(t=st.floats(-40.0, 40.0), n=st.integers(2, 10 ** 6),
                      kappa=st.floats(0.1, 5.0), a=st.floats(0.01, 2.0))


class TestIntervalProperties:
    @given(**INTERVAL_CELLS)
    def test_bound_is_finite_or_the_call_refuses(self, t, n, kappa, a):
        stats = ingest_one_sample(t, n)
        for inside in (True, False):
            try:
                value, bound = marginal_loglik(stats, TruncatedCauchy(kappa, a, inside=inside))
            except PeriNullError:
                continue
            assert math.isfinite(value)
            assert math.isfinite(bound) and 0.0 <= bound <= 1e-8

    @given(**INTERVAL_CELLS)
    def test_log_bf_is_even_in_t(self, t, n, kappa, a):
        try:
            pos = pn.interval_null_bf(ingest_one_sample(t, n), kappa, a)
        except PeriNullError:
            with pytest.raises(PeriNullError):
                pn.interval_null_bf(ingest_one_sample(-t, n), kappa, a)
            return
        neg = pn.interval_null_bf(ingest_one_sample(-t, n), kappa, a)
        assert neg.log_bf == pos.log_bf
        assert neg.quad_error_bound == pos.quad_error_bound

    @given(**INTERVAL_CELLS)
    def test_slices_recombine_to_the_cauchy_marginal(self, t, n, kappa, a):
        stats = ingest_one_sample(t, n)
        try:
            lm_in, b_in = marginal_loglik(stats, TruncatedCauchy(kappa, a, inside=True))
            lm_out, b_out = marginal_loglik(stats, TruncatedCauchy(kappa, a, inside=False))
        except PeriNullError:
            return
        lm_full, b_full = marginal_loglik(stats, AltCauchy(kappa))
        recombined = np.logaddexp(math.log(2.0 / math.pi * math.atan(a / kappa)) + lm_in,
                                  math.log(2.0 / math.pi * math.atan(kappa / a)) + lm_out)
        assert abs(recombined - lm_full) <= b_in + b_out + b_full


class TestPeriPointMixture:
    def test_boundary_limits(self, worked_example_stats):
        point = pn.point_null_bf10(worked_example_stats, K1_DEFAULT)
        peri = pn.peri_null_bf(worked_example_stats, 0.05, K1_DEFAULT)
        near_one = pn.peri_point_bf(worked_example_stats, 1.0 - 1e-8, 0.05, K1_DEFAULT)
        near_zero = pn.peri_point_bf(worked_example_stats, 1e-8, 0.05, K1_DEFAULT)
        assert abs(near_one.log_bf - point.log_bf) < 1e-6
        assert abs(near_zero.log_bf - peri.log_bf) < 1e-6

    def test_half_mixture_lies_between_components(self, worked_example_stats):
        point = pn.point_null_bf10(worked_example_stats, K1_DEFAULT)
        peri = pn.peri_null_bf(worked_example_stats, 0.05, K1_DEFAULT)
        mix = pn.peri_point_bf(worked_example_stats, 0.5, 0.05, K1_DEFAULT)
        lo, hi = sorted((point.bf, peri.bf))
        assert lo <= mix.bf <= hi

    def test_mixture_marginal_is_log_sum_exp_of_parts(self, worked_example_stats):
        xi = 0.3
        lm_point, _ = marginal_loglik(worked_example_stats, PointAtZero())
        lm_peri, _ = marginal_loglik(worked_example_stats, PeriNullNormal(0.05))
        lm_mix, _ = marginal_loglik(worked_example_stats,
                                    pn.PeriPointMixture(xi=xi, kappa0=0.05))
        expected = np.logaddexp(math.log(xi) + lm_point, math.log1p(-xi) + lm_peri)
        np.testing.assert_allclose(lm_mix, expected, rtol=0, atol=1e-12)


class TestShrinkingPeriNull:
    def test_resolution_equivalence(self):
        stats = ingest_one_sample(2.0, 100)
        shrunk = pn.shrinking_peri_null_bf(stats, 0.5, K1_DEFAULT)
        fixed = pn.peri_null_bf(stats, 0.05, K1_DEFAULT)
        np.testing.assert_allclose(shrunk.log_bf, fixed.log_bf, atol=1e-12)

    def test_paper_example_scale(self, worked_example_stats):
        # c = 0.474 at n_total = 90 resolves to kappa0 ~= 0.05
        shrunk = pn.shrinking_peri_null_bf(worked_example_stats, 0.474, K1_DEFAULT)
        fixed = pn.peri_null_bf(worked_example_stats, 0.474 / math.sqrt(90), K1_DEFAULT)
        np.testing.assert_allclose(shrunk.log_bf, fixed.log_bf, atol=1e-12)
        assert abs(0.474 / math.sqrt(90) - 0.05) < 5e-5

    def test_large_n_correction_approaches_fixed_ncp_limit(self):
        """With kappa0 = c/sqrt(n) the noncentrality-scale width stays c, so
        the correction converges to log[t_pdf(t) / N(t; 0, 1 + c^2)] rather
        than to 0; for small c that limit is itself nearly 0."""
        t, c = 2.0, 0.5
        stats = ingest_one_sample(t, 10 ** 6)
        result = pn.shrinking_peri_null_bf(stats, c, K1_DEFAULT)
        limit = (-0.5 * t * t - 0.5 * math.log(2.0 * math.pi)) - (
            -0.5 * t * t / (1.0 + c * c) - 0.5 * math.log(2.0 * math.pi * (1.0 + c * c)))
        assert abs(result.correction_log_bf - limit) < 5e-4

        small_c = pn.shrinking_peri_null_bf(stats, 0.05, K1_DEFAULT)
        assert abs(small_c.correction_log_bf) < 5e-3
