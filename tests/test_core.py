"""Summary-statistic ingestion and the value objects built on it."""

import math

import numpy as np
import pytest

from perinull import (
    BFResult,
    Design,
    InvalidInputError,
    ParamPoint,
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
        with pytest.raises(InvalidInputError):
            ingest_one_sample(0.0, 1)


class TestValueObjects:
    def test_summary_stats_consistency_checks(self):
        with pytest.raises(InvalidInputError):
            SummaryStats(t=1.0, nu=98.0, n_eff=100.0, design=Design.ONE_SAMPLE,
                         n_total=100)
        with pytest.raises(InvalidInputError):
            SummaryStats(t=1.0, nu=-1.0, n_eff=3.0, design=Design.ONE_SAMPLE,
                         n_total=4)

    def test_param_point_delta(self):
        theta = ParamPoint(mu=0.3, sigma=1.5)
        assert theta.delta == 0.3 / 1.5
        with pytest.raises(InvalidInputError):
            ParamPoint(mu=0.0, sigma=0.0)

    def test_prior_validation(self):
        with pytest.raises(InvalidInputError):
            PeriPointMixture(xi=1.0, kappa0=0.05)
        with pytest.raises(InvalidInputError):
            PeriPointMixture(xi=0.5, kappa0=-1.0)
        with pytest.raises(InvalidInputError):
            TruncatedCauchy(kappa_e=1.0, a=0.0, inside=True)

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
        with pytest.raises(InvalidInputError):
            BFResult(log_bf=0.0, prior_odds=0.0)
        for bad_bound in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                BFResult(log_bf=0.0, quad_error_bound=bad_bound)
