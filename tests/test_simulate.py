"""Simulation harness: determinism, parallel equivalence, curve behavior,
crossing detection, and the asymptotic overlay."""

import math

import numpy as np
import pytest

from perinull import (
    CellSummary,
    InvalidInputError,
    SimConfig,
    SimResult,
    Variant,
    detect_crossing,
    limit_log_bf,
    asymptotic_variance,
    overlay_asymptotics,
    run_simulation,
)


def small_config(**overrides):
    base = dict(mu=0.0, sigma=1.0, kappa0=0.05, kappa1=1.0,
                n_grid=(50, 100, 200), replications=6, seed=99)
    base.update(overrides)
    return SimConfig(**base)


class TestConfigValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(InvalidInputError):
            small_config(n_grid=(100, 100, 200))
        with pytest.raises(InvalidInputError):
            small_config(n_grid=(200, 100))
        with pytest.raises(InvalidInputError):
            small_config(n_grid=(1, 5))

    def test_positive_parameters(self):
        with pytest.raises(InvalidInputError):
            small_config(kappa0=0.0)
        with pytest.raises(InvalidInputError):
            small_config(replications=0)
        with pytest.raises(InvalidInputError):
            small_config(mixture_weight=1.0)

    def test_variant_coercion(self):
        cfg = small_config(variants=frozenset({"point", "peri"}))
        assert cfg.variants == frozenset({Variant.POINT_NULL, Variant.PERI_NULL})


class TestDeterminism:
    def test_identical_seeds_reproduce_bitwise(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        assert a.cells == b.cells

    def test_worker_count_does_not_change_output(self):
        cfg = small_config(replications=5)
        serial = run_simulation(cfg, workers=1)
        parallel = run_simulation(cfg, workers=2)
        assert serial.cells == parallel.cells

    def test_different_seeds_differ(self):
        a = run_simulation(small_config(seed=1))
        b = run_simulation(small_config(seed=2))
        assert a.cells != b.cells

    def test_single_replication_twice(self):
        cfg = small_config(replications=1, seed=7)
        assert run_simulation(cfg).cells == run_simulation(cfg).cells

    def test_nested_and_independent_modes_both_run(self):
        nested = run_simulation(small_config(nested=True))
        independent = run_simulation(small_config(nested=False))
        assert nested.cells != independent.cells
        for result in (nested, independent):
            for cell in result.cells:
                assert math.isfinite(cell.mean_log_bf)


class TestCurveBehavior:
    def test_null_config_with_limit_bound(self):
        """Peri-null mean stays above the limit and below zero at n = 500."""
        cfg = SimConfig(mu=0.0, sigma=1.0, kappa0=0.05, kappa1=1.0,
                        n_grid=(500,), replications=400, seed=2718,
                        variants=frozenset({Variant.PERI_NULL}))
        result = run_simulation(cfg, workers=2)
        cell = result.cell(Variant.PERI_NULL, 500)
        limit = limit_log_bf(0.0, 1.0, 0.05, 1.0)
        assert limit <= cell.mean_log_bf < 0.0
        assert cell.q025 <= cell.mean_log_bf <= cell.q975

    def test_all_variants_produce_cells(self):
        cfg = small_config(
            variants=frozenset(Variant), replications=3,
            n_grid=(40, 80), interval_halfwidth=0.4, mixture_weight=0.5,
            shrink_constant=0.5)
        result = run_simulation(cfg)
        assert len(result.cells) == len(Variant) * 2
        for cell in result.cells:
            assert math.isfinite(cell.mean_log_bf)
            assert cell.n_failed == 0

    def test_interval_variant_at_paper_scale_sizes(self):
        """n = 1e4 is on the paper-scale grid; the interval cells compute."""
        cfg = SimConfig(mu=0.0, sigma=1.0, kappa0=0.05, kappa1=1.0,
                        n_grid=(5000, 10000), replications=1, seed=1,
                        variants=frozenset({Variant.INTERVAL_NULL}), interval_halfwidth=0.5)
        result = run_simulation(cfg)
        assert [cell.n_failed for cell in result.cells] == [0, 0]

    def test_keep_samples(self):
        cfg = small_config(keep_samples=True, replications=4)
        result = run_simulation(cfg)
        assert set(result.samples) == cfg.variants
        for arr in result.samples.values():
            assert arr.shape == (4, 3)


class TestDetectCrossing:
    def _synthetic(self, means, variant=Variant.POINT_NULL):
        cells = tuple(CellSummary(variant, n, m, m - 1, m + 1, 0)
                      for n, m in zip((100, 200, 300, 400), means))
        return SimResult(config=small_config(), cells=cells)

    def test_upward_crossing_interpolates(self):
        result = self._synthetic([0.0, 1.0, 3.0, 4.0])
        # crosses 2.0 midway between n=200 and n=300
        assert detect_crossing(result, Variant.POINT_NULL, 2.0) == 250.0

    def test_downward_crossing(self):
        result = self._synthetic([0.0, -2.0, -4.0, -6.0])
        assert detect_crossing(result, Variant.POINT_NULL, -3.0) == 250.0

    def test_no_crossing_returns_none(self):
        result = self._synthetic([0.0, 0.5, 0.8, 0.9])
        assert detect_crossing(result, Variant.POINT_NULL, 2.0) is None

    def test_exact_grid_hit(self):
        result = self._synthetic([0.0, 2.0, 3.0, 4.0])
        assert detect_crossing(result, Variant.POINT_NULL, 2.0) == 200.0

    def test_missing_variant_rejected(self):
        result = self._synthetic([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            detect_crossing(result, Variant.SHRINKING, 1.0)


class TestOverlay:
    def test_overlay_starts_at_bracket_threshold(self):
        cfg = SimConfig(mu=0.0, sigma=1.0, kappa0=0.05, kappa1=1.0,
                        n_grid=tuple(range(100, 401, 1)), replications=1, seed=1)
        points = overlay_asymptotics(cfg)
        assert points[0].n == 184
        assert all(p.n >= 184 for p in points)

    def test_overlay_mean_approaches_limit(self):
        cfg = SimConfig(mu=0.167, sigma=1.0, kappa0=0.05, kappa1=1.0,
                        n_grid=(1000, 10_000, 100_000, 1_000_000, 10_000_000),
                        replications=1, seed=1)
        points = overlay_asymptotics(cfg)
        limit = limit_log_bf(0.167, 1.0, 0.05, 1.0)
        gaps = [abs(p.mean - limit) for p in points]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_overlay_band_matches_normal_quantiles(self):
        cfg = SimConfig(mu=0.167, sigma=1.0, kappa0=0.05, kappa1=1.0,
                        n_grid=(10_000,), replications=1, seed=1)
        point = overlay_asymptotics(cfg)[0]
        sd = math.sqrt(asymptotic_variance(0.167, 1.0, 0.05, 1.0, 10_000))
        from scipy import stats as sps

        expected = 2.0 * sps.norm.ppf(0.975) * sd
        np.testing.assert_allclose(point.q975 - point.q025, expected, atol=1e-9)

    def test_band_coverage_once_asymptotics_hold(self):
        """Empirical and asymptotic 2.5-97.5% bands overlap over >= 80% of
        their union at large n under the alternative. (At n <= 2000 the
        finite-n distribution is still skewed and the overlap is ~0.72, so
        this is a property of the asymptotic regime, here n = 10,000.)"""
        from perinull import sampling_distribution

        cfg = SimConfig(mu=0.167, sigma=1.0, kappa0=0.05, kappa1=1.0,
                        n_grid=(10_000,), replications=150, seed=424242,
                        variants=frozenset({Variant.PERI_NULL}))
        result = run_simulation(cfg, workers=2)
        cell = result.cell(Variant.PERI_NULL, 10_000)
        dist = sampling_distribution(0.167, 1.0, 0.05, 1.0, 10_000)
        bands = ((cell.q025, cell.q975),
                 (dist.quantile(0.025), dist.quantile(0.975)))
        overlap = min(b[1] for b in bands) - max(b[0] for b in bands)
        union = max(b[1] for b in bands) - min(b[0] for b in bands)
        assert overlap / union >= 0.8
