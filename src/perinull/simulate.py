"""Seeded Monte Carlo engine behind the sampling-distribution curves.

Draws one-sample normal data over a grid of sample sizes, computes the
requested log Bayes factors per replication, and summarizes each
(variant, n) cell with its mean and 2.5% / 97.5% quantiles. Replications are
independent work units with their own counter-based random stream keyed by
(seed, replication), so results are bit-identical for any worker count; by
default the sample at each grid size extends the previous one within a
replication (smoother trajectories), with an independent-per-n mode
available since only marginal summaries are compared.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .asymptotics import sampling_distribution
from .core import ingest_one_sample
from .engine import DEFAULT_QUADRATURE, QuadratureConfig, marginal_loglik, variant_bf
from .errors import InvalidInputError, PeriNullError, SimulationError, check_range

__all__ = [
    "Variant",
    "SimConfig",
    "CellSummary",
    "OverlayPoint",
    "SimResult",
    "run_simulation",
    "overlay_asymptotics",
    "detect_crossing",
]


class Variant(enum.Enum):
    POINT_NULL = "point"
    PERI_NULL = "peri"
    INTERVAL_NULL = "interval"
    PERI_POINT = "peripoint"
    SHRINKING = "shrinking"


_VARIANT_ORDER = tuple(Variant)

MAX_FAILED_FRACTION = 0.01


@dataclass(frozen=True)
class SimConfig:
    """Design of one simulation run; hashable and picklable.

    ``interval_halfwidth``, ``mixture_weight`` and ``shrink_constant``
    parametrize the interval-null, peri-point and shrinking variants and are
    ignored unless the matching variant is requested.
    """

    mu: float
    sigma: float
    kappa0: float
    kappa1: float
    n_grid: tuple
    replications: int
    seed: int
    variants: frozenset = frozenset({Variant.POINT_NULL, Variant.PERI_NULL})
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE
    nested: bool = True
    interval_halfwidth: float = 0.5
    mixture_weight: float = 0.5
    shrink_constant: float = 1.0
    keep_samples: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "variants", frozenset(Variant(v) for v in self.variants))
        check_range("mu", self.mu, -math.inf)
        for name in ("sigma", "kappa0", "kappa1", "interval_halfwidth", "shrink_constant"):
            check_range(name, getattr(self, name))
        check_range("mixture_weight", self.mixture_weight, 0, 1)
        if not self.n_grid:
            raise InvalidInputError("n_grid must not be empty")
        check_range("n_grid[0]", self.n_grid[0], 2, closed=True)
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidInputError("n_grid must be strictly ascending")
        replications = check_range("replications", self.replications, 1, closed=True)
        if replications != int(replications):
            raise InvalidInputError(f"replications must be an integer, got {replications}")
        object.__setattr__(self, "replications", int(replications))  # 2.0 runs like 2
        seed = check_range("seed", self.seed, 0, 2 ** 64, closed=True)
        object.__setattr__(self, "seed", int(seed))  # as n_grid: 0.0 seeds like 0
        if not self.variants:
            raise InvalidInputError("at least one variant is required")

    @property
    def ordered_variants(self) -> tuple:
        return tuple(v for v in _VARIANT_ORDER if v in self.variants)


def _replication_rng(cfg: SimConfig, rep: int, n_index: Optional[int] = None):
    entropy = (cfg.seed, rep) if n_index is None else (cfg.seed, rep, n_index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _cell_log_bfs(cfg: SimConfig, stats) -> np.ndarray:
    """Log BFs of every requested variant at one (replication, n) cell.

    Marginals are computed once each and shared across variants; a
    quadrature failure marks only the variants that needed that marginal.
    """
    out = np.full(len(cfg.ordered_variants), np.nan)
    cache: dict = {}

    def lm(prior):
        if prior not in cache:
            cache[prior] = marginal_loglik(stats, prior, cfg.quadrature)
        return cache[prior]

    for i, variant in enumerate(cfg.ordered_variants):
        try:
            out[i] = variant_bf(variant.value, stats, marginal=lm,
                                kappa0=cfg.kappa0, kappa1=cfg.kappa1,
                                a=cfg.interval_halfwidth, xi=cfg.mixture_weight,
                                c=cfg.shrink_constant).log_bf
        except PeriNullError:
            out[i] = np.nan
    return out


def _simulate_replication(cfg: SimConfig, rep: int) -> np.ndarray:
    """(n_variants, n_grid) array of log BFs for one replication."""
    n_max = cfg.n_grid[-1]
    out = np.full((len(cfg.ordered_variants), len(cfg.n_grid)), np.nan)
    if cfg.nested:
        y_full = _replication_rng(cfg, rep).normal(cfg.mu, cfg.sigma, n_max)
    for j, n in enumerate(cfg.n_grid):
        y = y_full[:n] if cfg.nested else _replication_rng(cfg, rep, j).normal(
            cfg.mu, cfg.sigma, n)
        s = y.std(ddof=1)
        if s == 0.0:
            continue
        t = math.sqrt(n) * y.mean() / s
        out[:, j] = _cell_log_bfs(cfg, ingest_one_sample(t, n))
    return out


@dataclass(frozen=True)
class CellSummary:
    variant: Variant
    n: int
    mean_log_bf: float
    q025: float
    q975: float
    n_failed: int


@dataclass(frozen=True)
class OverlayPoint:
    n: int
    mean: float
    q025: float
    q975: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    cells: tuple
    samples: Optional[dict] = field(default=None, compare=False)

    def mean_curve(self, variant: Variant):
        """(sample sizes, mean log BFs) for one variant, in grid order."""
        variant = Variant(variant)
        pts = [(c.n, c.mean_log_bf) for c in self.cells if c.variant is variant]
        if not pts:
            raise InvalidInputError(f"variant {variant} not present in this result")
        ns, means = zip(*pts)
        return np.array(ns), np.array(means)

    def cell(self, variant: Variant, n: int) -> CellSummary:
        for c in self.cells:
            if c.variant is Variant(variant) and c.n == n:
                return c
        raise InvalidInputError(f"no cell for ({variant}, {n})")


def run_simulation(cfg: SimConfig, workers: int = 1) -> SimResult:
    """Run all replications and aggregate per-cell summaries.

    Identical (config, seed) pairs produce bit-identical results for any
    ``workers`` count: each replication owns a counter-based stream and the
    reduction happens in replication order.
    """
    reps = cfg.replications
    check_range("workers", workers, -math.inf)
    # a forked pool starts all its workers at once, so it gets no more than
    # the replications and the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, reps, cpus or 1)
    if workers <= 1:
        raw = [_simulate_replication(cfg, r) for r in range(reps)]
    else:
        # imported here: multiprocessing is otherwise never loaded
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, reps // (workers * 8))
            raw = list(pool.map(_simulate_replication, [cfg] * reps, range(reps),
                                chunksize=chunk))
    stacked = np.stack(raw, axis=0)  # (reps, variants, grid)

    n_cells = stacked.shape[1] * stacked.shape[2]
    failed = int(np.isnan(stacked).sum())
    if failed > MAX_FAILED_FRACTION * reps * n_cells:
        raise SimulationError(
            f"{failed} of {reps * n_cells} cells failed quadrature "
            f"(more than {MAX_FAILED_FRACTION:.0%})")

    cells = []
    for i, variant in enumerate(cfg.ordered_variants):
        for j, n in enumerate(cfg.n_grid):
            col = stacked[:, i, j]
            ok = col[~np.isnan(col)]
            if ok.size:
                q025, q975 = np.quantile(ok, (0.025, 0.975))
                cells.append(CellSummary(variant, n, float(ok.mean()),
                                         float(q025), float(q975),
                                         int(col.size - ok.size)))
            else:
                cells.append(CellSummary(variant, n, math.nan, math.nan,
                                         math.nan, int(col.size)))
    samples = None
    if cfg.keep_samples:
        samples = {v: stacked[:, i, :].copy()
                   for i, v in enumerate(cfg.ordered_variants)}
    return SimResult(config=cfg, cells=tuple(cells), samples=samples)


def overlay_asymptotics(cfg: SimConfig) -> tuple:
    """Theoretical peri-null mean and quantile curves on the same grid.

    Grid points whose bias bracket is invalid are omitted, so the overlay
    may start later than the simulated curves.
    """
    points = []
    for n in cfg.n_grid:
        dist = sampling_distribution(cfg.mu, cfg.sigma, cfg.kappa0, cfg.kappa1, n)
        if not dist.usable:
            continue
        points.append(OverlayPoint(n=n, mean=dist.mean(),
                                   q025=dist.quantile(0.025),
                                   q975=dist.quantile(0.975)))
    return tuple(points)


def detect_crossing(result: SimResult, variant: Variant, bound: float) -> Optional[float]:
    """Sample size at which a mean log-BF curve first crosses ``bound``.

    The crossing point is linearly interpolated between grid values; the
    crossing direction follows from the curve itself. Returns None when the
    curve never reaches the bound inside the grid.
    """
    check_range("bound", bound, -math.inf)
    ns, means = result.mean_curve(variant)
    valid = ~np.isnan(means)
    ns, means = ns[valid], means[valid]
    rel = means - bound
    for j in range(len(ns) - 1):
        a, b = rel[j], rel[j + 1]
        if a == 0.0:
            return float(ns[j])
        if a * b < 0.0:
            frac = a / (a - b)
            return float(ns[j] + frac * (ns[j + 1] - ns[j]))
    if len(rel) and rel[-1] == 0.0:
        return float(ns[-1])
    return None
