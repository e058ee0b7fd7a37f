"""Summary-statistic ingestion, the value objects built on it, and the input
contract of the public API."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import perinull as pn
from perinull import models
from perinull import (
    AltCauchy,
    BFResult,
    Design,
    InvalidInputError,
    ParamPoint,
    PeriNullNormal,
    PeriPointMixture,
    PointAtZero,
    ShrinkingPeriNull,
    SummaryStats,
    TruncatedCauchy,
    ingest_one_sample,
    ingest_two_sample,
)


class TestIngestTwoSample:
    def test_worked_example_summaries(self):
        """The worked example's group summaries: |t| rounds to 2.0."""
        stats = ingest_two_sample(25.1, 7.3, 47, 28.0, 6.2, 43)
        assert stats.nu == 88.0
        assert stats.n_total == 90
        np.testing.assert_allclose(stats.n_eff, 2021 / 90, rtol=1e-12)
        assert round(abs(stats.t), 1) == 2.0
        assert stats.t < 0  # sign follows mean1 - mean2

    def test_equal_means_give_zero_t(self):
        stats = ingest_two_sample(0.0, 1.0, 10, 0.0, 1.0, 10)
        assert stats.t == 0.0
        assert stats.nu == 18.0
        assert stats.n_eff == 5.0

    def test_matches_direct_pooled_formula(self):
        m1, sd1, n1, m2, sd2, n2 = 1.0, 1.0, 5, 0.0, 1.0, 5
        pooled = ((n1 - 1) * sd1 ** 2 + (n2 - 1) * sd2 ** 2) / (n1 + n2 - 2)
        expected = (m1 - m2) / math.sqrt(pooled * (1 / n1 + 1 / n2))
        stats = ingest_two_sample(m1, sd1, n1, m2, sd2, n2)
        np.testing.assert_allclose(stats.t, expected, rtol=1e-14)

    def test_group_swap_negates_t(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m1, m2 = rng.normal(size=2)
            sd1, sd2 = rng.uniform(0.2, 3.0, size=2)
            n1, n2 = rng.integers(2, 80, size=2)
            a = ingest_two_sample(m1, sd1, int(n1), m2, sd2, int(n2))
            b = ingest_two_sample(m2, sd2, int(n2), m1, sd1, int(n1))
            np.testing.assert_allclose(a.t, -b.t, rtol=1e-12, atol=1e-14)
            assert a.nu == b.nu
            np.testing.assert_allclose(a.n_eff, b.n_eff, rtol=1e-14)

    def test_n_eff_below_smaller_group(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n1, n2 = (int(v) for v in rng.integers(2, 200, size=2))
            stats = ingest_two_sample(0.0, 1.0, n1, 1.0, 1.0, n2)
            assert stats.n_eff <= min(n1, n2)

    @pytest.mark.parametrize("bad", [
        (0.0, -1.0, 5, 0.0, 1.0, 5),
        (0.0, 1.0, 1, 0.0, 1.0, 5),
        (0.0, 1.0, 5, 0.0, 0.0, 5),
        (0.0, 1.0, 5, 0.0, 1.0, 1),
        (0.0, math.nan, 5, 0.0, 1.0, 5),
        (0.0, 1.0, 5, 0.0, math.inf, 5),
        (0.0, 1.0, math.inf, 0.0, 1.0, 5),
        (0.0, 1.0, 5, 0.0, 1.0, math.nan),
        (0.0, 1e200, 5, 1.0, 1.0, 5),
        (0.0, 1e-200, 5, 1.0, 1e-200, 5),
    ])
    def test_invalid_inputs(self, bad):
        with pytest.raises(InvalidInputError):
            ingest_two_sample(*bad)


class TestIngestOneSample:
    @pytest.mark.parametrize("t, n, nu", [(2.0, 100, 99.0), (0.0, 2, 1.0), (-3.5, 50, 49.0)])
    def test_definition(self, t, n, nu):
        stats = ingest_one_sample(t, n)
        assert stats.t == t
        assert stats.nu == nu
        assert stats.n_eff == float(n)
        assert stats.design is Design.ONE_SAMPLE

    def test_minimum_n(self):
        for bad in (1, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                ingest_one_sample(0.0, bad)
        # so does the normal-model oracle of the Laplace expansion: n >= 1
        for bad in (0, -5):
            with pytest.raises(InvalidInputError):
                models.normal_model_oracle(bad, 1.0)


class TestValueObjects:
    def test_summary_stats_consistency_checks(self):
        with pytest.raises(InvalidInputError):
            SummaryStats(t=1.0, nu=98.0, n_eff=100.0, design=Design.ONE_SAMPLE,
                         n_total=100)
        with pytest.raises(InvalidInputError):
            SummaryStats(t=1.0, nu=-1.0, n_eff=3.0, design=Design.ONE_SAMPLE,
                         n_total=4)
        valid = dict(t=1.0, nu=98.0, n_eff=49.5, design=Design.TWO_SAMPLE, n_total=100)
        for name in ("t", "nu", "n_eff", "n_total"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidInputError):
                    SummaryStats(**{**valid, name: bad})

    def test_param_point_delta(self):
        theta = ParamPoint(mu=0.3, sigma=1.5)
        assert theta.delta == 0.3 / 1.5
        for mu, sigma in ((0.0, 0.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(InvalidInputError):
                ParamPoint(mu=mu, sigma=sigma)

    def test_prior_validation(self):
        with pytest.raises(InvalidInputError):
            PeriPointMixture(xi=1.0, kappa0=0.05)
        with pytest.raises(InvalidInputError):
            PeriPointMixture(xi=0.5, kappa0=-1.0)
        with pytest.raises(InvalidInputError):
            TruncatedCauchy(kappa_e=1.0, a=0.0, inside=True)
        for bad in (math.nan, math.inf):
            for make in (PeriNullNormal, AltCauchy, ShrinkingPeriNull,
                         lambda v: PeriPointMixture(xi=v, kappa0=0.05),
                         lambda v: PeriPointMixture(xi=0.5, kappa0=v),
                         lambda v: TruncatedCauchy(kappa_e=v, a=0.5, inside=True),
                         lambda v: TruncatedCauchy(kappa_e=1.0, a=v, inside=False)):
                with pytest.raises(InvalidInputError):
                    make(bad)

    def test_shrinking_resolution(self):
        prior = ShrinkingPeriNull(c=0.5)
        resolved = prior.resolve(100)
        np.testing.assert_allclose(resolved.kappa0, 0.05, rtol=1e-15)

    def test_point_prior_is_hashable_singleton_like(self):
        assert PointAtZero() == PointAtZero()


class TestBFResult:
    def test_exp_and_posterior_identities(self):
        rng = np.random.default_rng(7)
        for log_bf in rng.uniform(-30, 30, size=40):
            for odds in (0.25, 1.0, 4.0):
                r = BFResult(log_bf=float(log_bf), prior_odds=odds)
                np.testing.assert_allclose(r.bf, math.exp(log_bf), rtol=1e-15)
                expected = odds * r.bf / (1.0 + odds * r.bf)
                np.testing.assert_allclose(r.posterior_prob_numerator, expected,
                                           rtol=1e-12)

    def test_extreme_log_bf_is_safe(self):
        big = BFResult(log_bf=5000.0)
        assert big.bf == math.inf
        assert big.posterior_prob_numerator == 1.0
        small = BFResult(log_bf=-5000.0)
        assert small.bf == 0.0
        assert small.posterior_prob_numerator == 0.0

    def test_validation(self):
        for bad_odds in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                BFResult(log_bf=0.0, prior_odds=bad_odds)
        for bad_log_bf in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError):
                BFResult(log_bf=bad_log_bf)
        for bad_bound in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                BFResult(log_bf=0.0, quad_error_bound=bad_bound)


# the input contract: every public function, called with valid scalars and
# then with one of them replaced by a bad value, returns finite numbers (with
# a finite error bound) or raises a PeriNullError, never a bare exception
_STATS = ingest_one_sample(2.0, 90)
_ASY = dict(mu=0.167, sigma=1.0, kappa0=0.05, kappa1=1.0)
_SIM = dict(mu=0.167, sigma=1.0, kappa0=0.05, kappa1=1.0, replications=1, seed=7,
            interval_halfwidth=0.5, mixture_weight=0.5, shrink_constant=1.0)
_GAMMA = models.GammaShape(10)


def _simulation(workers=1, **params):
    cfg = pn.SimConfig(n_grid=(10,), variants=tuple(pn.Variant), **params)
    return pn.run_simulation(cfg, workers)


@functools.lru_cache(maxsize=None)
def _valid_simulation():
    return _simulation(**_SIM)


def _numbers(result):
    """The numbers a result reports; a bias term or distribution flagged as
    unusable reports none."""
    if result is None:
        return []
    if isinstance(result, BFResult):
        return [result.log_bf, result.posterior_prob_numerator, result.quad_error_bound]
    if isinstance(result, pn.BiasTerm):
        return [result.value] if result.valid else []
    if isinstance(result, pn.LogBfDistribution):
        return [result.mean(), result.quantile(0.025)] if result.usable else []
    if isinstance(result, pn.LaplaceExpansion):
        return [result.log_leading, result.c1, result.c2]
    if isinstance(result, pn.SimResult):
        return [v for c in result.cells for v in (c.mean_log_bf, c.q025, c.q975)]
    if isinstance(result, dict):
        return _numbers(list(result.values()))
    if isinstance(result, (tuple, list)):
        return [x for part in result for x in _numbers(part)]
    return np.ravel(result).tolist()


# (public call, its valid scalar arguments)
CONTRACT = [
    (lambda **kw: ingest_one_sample(**kw).t, dict(t=2.0, n=90)),
    (lambda **kw: ingest_two_sample(**kw).t,
     dict(mean1=25.1, sd1=7.3, n1=47, mean2=28.0, sd2=6.2, n2=43)),
    (lambda **kw: SummaryStats(design=Design.TWO_SAMPLE, **kw).t,
     dict(t=2.0, nu=88.0, n_eff=22.5, n_total=90)),
    (lambda **kw: ParamPoint(**kw).delta, dict(mu=0.3, sigma=1.5)),
    (BFResult, dict(log_bf=1.0, prior_odds=2.0, quad_error_bound=0.0)),
    (functools.partial(pn.point_null_bf10, _STATS), dict(kappa1=0.7, prior_odds=1.0)),
    (functools.partial(pn.peri_null_correction_bf, _STATS), dict(kappa0=0.05, prior_odds=1.0)),
    (functools.partial(pn.peri_null_bf, _STATS), dict(kappa0=0.05, kappa1=0.7, prior_odds=1.0)),
    (functools.partial(pn.interval_null_bf, _STATS), dict(kappa_e=0.7, a=0.1, prior_odds=1.0)),
    (functools.partial(pn.peri_point_bf, _STATS),
     dict(xi=0.5, kappa0=0.05, kappa1=0.7, prior_odds=1.0)),
    (functools.partial(pn.shrinking_peri_null_bf, _STATS),
     dict(c=1.0, kappa1=0.7, prior_odds=1.0)),
    (lambda rel_tol: pn.marginal_loglik(_STATS, AltCauchy(0.7), pn.QuadratureConfig(rel_tol)),
     dict(rel_tol=1e-8)),
    (pn.central_t_logpdf, dict(x=1.0, nu=10.0)),
    (pn.noncentral_t_logpdf, dict(x=1.0, nu=10.0, ncp=0.5)),
    (pn.limit_log_bf, _ASY),
    (pn.limit_gradient_hessian, _ASY),
    (pn.c_constants, _ASY),
    (pn.asymptotic_variance, dict(_ASY, n=1000)),
    (pn.bias_term, dict(_ASY, n=1000)),
    (pn.sampling_distribution, dict(_ASY, n=1000)),
    (lambda **kw: pn.summarize(**kw).limit_log_bf, dict(_ASY, n=1000)),
    (lambda q: pn.sampling_distribution(**_ASY, n=1000).quantile(q), dict(q=0.5)),
    (lambda mle, n: pn.laplace_marginal(_GAMMA.loglik_oracle(), _GAMMA.prior_oracle(), mle, n),
     dict(mle=1.0, n=10)),
    (lambda point, max_order: pn.finite_difference_derivatives(
        lambda p: float(np.sum(p ** 3)), point, max_order).derivs,
     dict(point=0.5, max_order=2)),
    (pn.pair_partition_count, dict(w=6)),
    (lambda n, sigma_hat, mu: models.normal_model_oracle(n, sigma_hat)([mu, sigma_hat]),
     dict(n=100, sigma_hat=1.2, mu=0.1)),
    (lambda kappa, mu, sigma: models.ttest_prior_oracle("peri", kappa)([mu, sigma]),
     dict(kappa=0.05, mu=0.01, sigma=1.0)),
    (lambda kappa, mu, sigma: models.ttest_prior_oracle("alt", kappa)([mu, sigma]),
     dict(kappa=0.7, mu=0.1, sigma=1.0)),
    (models.exact_ttest_peri_log_marginal, dict(n=100, kappa0=0.05, sigma_hat=1.0)),
    (lambda **kw: models.ttest_stats_from_mle(**kw).t, dict(mu_hat=0.1, sigma_hat=1.0, n=100)),
    (lambda **kw: models.ConjugateGaussian(**kw).exact_log_marginal(),
     dict(n=100, ybar=0.5, ss=90.0, sigma0=1.0, prior_mean=0.0, prior_sd=10.0)),
    (lambda **kw: models.BetaBernoulli(**kw).exact_log_marginal(),
     dict(n=50, successes=20, alpha=2.0, beta=2.0)),
    (lambda **kw: models.GammaShape(**kw).exact_log_marginal(),
     dict(n=10, shape=2.0, rate=1.0)),
    (_simulation, dict(_SIM, workers=1)),
    (lambda bound: pn.detect_crossing(_valid_simulation(), pn.Variant.POINT_NULL, bound),
     dict(bound=1.0)),
    (lambda **kw: [(p.mean, p.q025, p.q975) for p in pn.overlay_asymptotics(
        pn.SimConfig(n_grid=(100, 1000), **kw))], _SIM),
]


class TestInputContract:
    def test_valid_calls_return_finite_numbers(self):
        for call, valid in CONTRACT:
            assert all(map(math.isfinite, _numbers(call(**valid)))), (call, valid)

    @given(bad=st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0)))
    def test_one_bad_scalar_gives_finite_numbers_or_a_perinull_error(self, bad):
        """Each drawn value replaces, in turn, every scalar argument of every
        call in ``CONTRACT``."""
        offenders = []
        for call, valid in CONTRACT:
            for name in valid:
                try:
                    numbers = _numbers(call(**{**valid, name: bad}))
                except pn.PeriNullError:
                    continue
                except Exception as exc:  # noqa: BLE001 - a bare exception is the failure
                    offenders.append((call, name, repr(exc)))
                    continue
                if not all(map(math.isfinite, numbers)):
                    offenders.append((call, name, numbers))
        assert offenders == []
