"""Marginal likelihoods and Bayes factors via the t-statistic reduction.

The prior predictive density of the observed t statistic under a hypothesis
with effect-size prior pi(delta) is

    p(t) = int f_nct(t; nu, sqrt(n_eff) * delta) pi(delta) d delta.

Every prior except the truncated Cauchy is a normal scale mixture, and under
delta ~ N(0, g) the ratio t / sqrt(1 + n_eff g) is central t. Hence:

* point null and peri-null N(0, kappa0^2): closed-form scaled central t
  (Goenen, Johnson, Lu & Westfall, Am. Stat. 2005), error bound 0;
* Cauchy(0, kappa1), i.e. g ~ InvGamma(1/2, kappa1^2/2) (the JZS form of
  Rouder et al., Psychon. Bull. Rev. 2009): a fixed-step trapezoid rule over
  log g, bounded by the h-vs-2h gap plus the tails cut off by the grid;
* peri-point mixture and shrinking peri-null: built from the above;
* truncated Cauchy (interval null): adaptive Gauss-Kronrod quadrature over
  delta, with a bound on the truncated prior tail mass.

All marginals are computed in log space. :data:`VARIANTS` is the one table
that maps each Bayes-factor variant to its priors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .core import (
    AltCauchy,
    BFResult,
    PeriNullNormal,
    PeriPointMixture,
    PointAtZero,
    PriorSpec,
    ShrinkingPeriNull,
    SummaryStats,
    TruncatedCauchy,
)
from .errors import DegeneratePriorError, InvalidInputError, QuadratureConvergenceError
from .nct import central_t_logpdf, noncentral_t_logpdf

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "marginal_loglik",
    "point_null_bf10",
    "peri_null_correction_bf",
    "peri_null_bf",
    "interval_null_bf",
    "peri_point_bf",
    "shrinking_peri_null_bf",
    "VARIANTS",
    "variant_bf",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation policy for the marginal-likelihood integrals."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    domain_halfwidth_sd: float = 20.0

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidInputError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise InvalidInputError("max_subdivisions must be >= 1")
        if self.domain_halfwidth_sd <= 0:
            raise InvalidInputError("domain_halfwidth_sd must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()

# step of the trapezoid rule over log g: the integrand is analytic and about
# one unit wide in log g, so the rule converges to rounding level
_G_STEP = 0.05
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _cauchy_log_prior(kappa):
    log_norm = math.log(kappa / math.pi)

    def log_prior(delta):
        return log_norm - np.log(delta * delta + kappa * kappa)

    return log_prior


def _likelihood_width(stats: SummaryStats) -> float:
    # approximate delta-scale width of the likelihood bump around t/sqrt(n_eff)
    return math.sqrt((1.0 + stats.t ** 2 / stats.nu)) / math.sqrt(stats.n_eff)


def _scan_grid(lo, hi, stats, scale):
    """Candidate maximizers of the log integrand: coarse grid plus clusters
    at the prior mode (multi-scale around 0) and at the likelihood center."""
    pieces = [np.linspace(lo, hi, 257)]
    decades = scale * np.array([1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0])
    pieces.append(np.concatenate((-decades, [0.0], decades)))
    center = stats.t / math.sqrt(stats.n_eff)
    w = _likelihood_width(stats)
    pieces.append(center + w * np.linspace(-10, 10, 41))
    grid = np.concatenate(pieces)
    return np.unique(grid[(grid >= lo) & (grid <= hi)])


def _integrate_interval(stats, log_prior, lo, hi, scale, cfg, breakpoints=()):
    """log of int_lo^hi f_nct(t; nu, sqrt(n_eff) delta) exp(log_prior(delta)) d delta
    plus the quadrature error expressed on the log scale, and the peak value
    used for rescaling (needed by callers that add tail-mass bounds)."""
    t, nu, rootn = stats.t, stats.nu, math.sqrt(stats.n_eff)
    grid = _scan_grid(lo, hi, stats, scale)
    log_vals = noncentral_t_logpdf(t, nu, rootn * grid) + log_prior(grid)
    m = float(np.max(log_vals))
    if not math.isfinite(m):
        raise DegeneratePriorError(
            "integrand underflows everywhere on the integration region")

    def integrand(delta):
        return math.exp(noncentral_t_logpdf(t, nu, rootn * delta)
                        + float(log_prior(delta)) - m)

    pts = sorted({p for p in breakpoints if lo < p < hi})
    if len(pts) + 2 > cfg.max_subdivisions:
        pts = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, abserr = integrate.quad(
                integrand, lo, hi,
                epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                limit=cfg.max_subdivisions, points=pts or None)
        except integrate.IntegrationWarning as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                val, abserr = integrate.quad(
                    integrand, lo, hi,
                    epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                    limit=cfg.max_subdivisions, points=pts or None)
            estimate = m + math.log(val) if val > 0 else -math.inf
            bound = abserr / val if val > 0 else math.inf
            raise QuadratureConvergenceError(
                f"quadrature did not converge within {cfg.max_subdivisions} "
                f"subdivisions: {exc}", estimate=estimate, error_bound=bound) from exc
    if val <= 0.0:
        raise DegeneratePriorError("integral underflows to zero")
    return m + math.log(val), abserr / val, m, val


def _marginal_truncated_cauchy(stats, prior: TruncatedCauchy, cfg):
    """Adaptive quadrature over delta on [-a, a], or on both sides beyond |a|.

    A quadrature failure on one side still integrates the other; the error
    then carries the normalized log-sum of both sides as its estimate.
    """
    kappa, a = prior.kappa_e, prior.a
    log_prior = _cauchy_log_prior(kappa)
    center = stats.t / math.sqrt(stats.n_eff)
    w = _likelihood_width(stats)
    near_peak = [center - 3.0 * w, center, center + 3.0 * w]
    if prior.inside:
        log_mass = math.log(2.0 / math.pi * math.atan(a / kappa))
        pts = [-5.0 * kappa, -kappa, 0.0, kappa, 5.0 * kappa] + near_peak
        pieces = [(-a, a, min(kappa, a), pts, None)]
    else:
        # 1 - (2/pi) atan(a/k) == (2/pi) atan(k/a), stable for large a
        mass = 2.0 / math.pi * math.atan(kappa / a)
        if mass <= 0.0:
            raise DegeneratePriorError("outside-interval prior mass underflows")
        log_mass = math.log(mass)
        outer = max(a + cfg.domain_halfwidth_sd * kappa,
                    abs(center) + cfg.domain_halfwidth_sd * max(w, kappa))
        pieces = [(a, outer, kappa, near_peak, outer),
                  (-outer, -a, kappa, near_peak, -outer)]
    values, errors, failure = [], [], None
    for lo, hi, scale, pts, cut in pieces:
        try:
            v, e, m, val = _integrate_interval(stats, log_prior, lo, hi, scale, cfg, pts)
            if cut is not None:
                # prior mass beyond the cut, times the density at the cut,
                # relative to this side's integral
                peak = math.exp(m)
                if peak == 0.0:  # recorded as this side's failure below
                    raise QuadratureConvergenceError(
                        "tail-mass bound underflows beyond |a|",
                        estimate=v, error_bound=math.inf)
                tail_density = math.exp(noncentral_t_logpdf(
                    stats.t, stats.nu, math.sqrt(stats.n_eff) * cut))
                e += math.atan(kappa / abs(cut)) / math.pi * tail_density / peak / val
        except DegeneratePriorError:
            continue
        except QuadratureConvergenceError as exc:
            v, e, failure = exc.estimate, exc.error_bound, exc
        values.append(v)
        errors.append(e)
    if not values:
        raise DegeneratePriorError(
            "truncated-Cauchy marginal underflows: no likelihood mass on the slice")
    total = float(special.logsumexp(values))
    weights = np.exp(np.array(values) - total)
    err = float(sum(wt * e for wt, e in zip(weights, errors) if wt > 0.0))
    if failure is not None:
        raise QuadratureConvergenceError(str(failure), estimate=total - log_mass,
                                         error_bound=err) from failure
    return total - log_mass, err


def _marginal_cauchy_g(stats, kappa1, cfg):
    """Cauchy(0, kappa1) as N(0, g) with g ~ InvGamma(1/2, kappa1^2/2).

    Given g, t / s is central t with s = sqrt(1 + n_eff g), so the marginal
    is one integral over x = log g, done by the trapezoid rule. The bound is
    the relative gap between the h and 2h sums plus the cut-off tails.
    """
    t, nu, n_eff = stats.t, stats.nu, stats.n_eff
    log_k2 = 2.0 * math.log(kappa1)
    # below lo the prior factor exp(-kappa1^2 / 2g) has died off; far past
    # both the prior scale and the likelihood scale g ~ t^2 / n_eff the
    # integrand decays like 1/g
    lo = log_k2 - 6.0
    hi = max(log_k2, 2.0 * math.log(math.hypot(t, 1.0)) - math.log(n_eff)) + 45.0
    x = lo + _G_STEP * np.arange(2 * math.ceil((hi - lo) / (2.0 * _G_STEP)) + 1)
    hi = float(x[-1])
    log_s = 0.5 * np.log1p(n_eff * np.exp(x))
    log_f = (math.log(kappa1) - _LOG_SQRT_2PI - 0.5 * x - 0.5 * kappa1 ** 2 * np.exp(-x)
             - log_s + central_t_logpdf(t * np.exp(-log_s), nu))
    m = float(log_f.max())
    scaled = np.exp(log_f - m)
    fine = float(scaled.sum()) * _G_STEP
    coarse = float(scaled[::2].sum()) * 2.0 * _G_STEP
    value = m + math.log(fine)
    # the likelihood factor central_t(t / s) / s is at most c0 / s, c0 the
    # central t mode; so the tail below lo is at most c0 P(g < e^lo), and
    # the tail past hi at most c0 int p(g) / sqrt(n_eff g) dg over g > e^hi,
    # which is below c0 kappa1 / (sqrt(2 pi n_eff) e^hi)
    log_tail = central_t_logpdf(0.0, nu) + float(np.logaddexp(
        math.log(2.0) + special.log_ndtr(-kappa1 * math.exp(-0.5 * lo)),
        math.log(kappa1) - 0.5 * math.log(2.0 * math.pi * n_eff) - hi))
    bound = abs(fine - coarse) / fine + math.exp(log_tail - value)
    if not bound <= cfg.rel_tol:
        raise QuadratureConvergenceError(
            f"g-rule bound {bound:.3g} exceeds rel_tol {cfg.rel_tol:.3g}",
            estimate=value, error_bound=bound)
    return value, bound


def marginal_loglik(stats: SummaryStats, prior: PriorSpec,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Log prior-predictive density of the observed t under ``prior``.

    Returns ``(log_marginal, error_bound)`` where the bound is the relative
    error of the marginal (quadrature plus truncated tail mass), i.e. its
    error on the log scale. Raises :class:`QuadratureConvergenceError`
    carrying the best estimate when the bound exceeds the tolerance or the
    adaptive rule cannot reach it.
    """
    if isinstance(prior, PointAtZero):
        return central_t_logpdf(stats.t, stats.nu), 0.0
    if isinstance(prior, PeriNullNormal):
        log_s = 0.5 * math.log1p(stats.n_eff * prior.kappa0 ** 2)
        return central_t_logpdf(stats.t * math.exp(-log_s), stats.nu) - log_s, 0.0
    if isinstance(prior, AltCauchy):
        return _marginal_cauchy_g(stats, prior.kappa1, cfg)
    if isinstance(prior, TruncatedCauchy):
        return _marginal_truncated_cauchy(stats, prior, cfg)
    if isinstance(prior, PeriPointMixture):
        lm_point, _ = marginal_loglik(stats, PointAtZero(), cfg)
        lm_peri, _ = marginal_loglik(stats, PeriNullNormal(prior.kappa0), cfg)
        return float(np.logaddexp(math.log(prior.xi) + lm_point,
                                  math.log1p(-prior.xi) + lm_peri)), 0.0
    if isinstance(prior, ShrinkingPeriNull):
        return marginal_loglik(stats, prior.resolve(stats.n_total), cfg)
    raise InvalidInputError(f"unknown prior specification: {prior!r}")


# variant -> (numerator prior, denominator prior, whether the BF carries the
# point-null x correction decomposition); interval slices Cauchy(0, kappa1)
VARIANTS = {
    "point": lambda kappa1, **_: (AltCauchy(kappa1), PointAtZero(), False),
    "peri": lambda kappa0, kappa1, **_: (AltCauchy(kappa1), PeriNullNormal(kappa0), True),
    "interval": lambda kappa1, a, **_: (TruncatedCauchy(kappa1, a, inside=False),
                                        TruncatedCauchy(kappa1, a, inside=True), False),
    "peripoint": lambda xi, kappa0, kappa1, **_: (
        AltCauchy(kappa1), PeriPointMixture(xi=xi, kappa0=kappa0), False),
    "shrinking": lambda c, kappa1, **_: (AltCauchy(kappa1), ShrinkingPeriNull(c), True),
}


def variant_bf(variant: str, stats: SummaryStats,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE, prior_odds: float = 1.0,
               marginal=None, **params) -> BFResult:
    """Bayes factor of one :data:`VARIANTS` entry.

    ``params`` holds the prior parameters ``kappa0``, ``kappa1``, ``a``,
    ``xi`` and ``c``; unused ones are ignored. ``marginal(prior)``, if
    given, replaces :func:`marginal_loglik` so callers can share marginals
    between variants. The decomposed components reuse the same marginals.
    """
    if variant not in VARIANTS:
        raise InvalidInputError(f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
    numerator, denominator, decompose = VARIANTS[variant](**params)
    if marginal is None:
        def marginal(prior):
            return marginal_loglik(stats, prior, cfg)
    lm1, e1 = marginal(numerator)
    lm_den, e_den = marginal(denominator)
    if not decompose:
        return BFResult(log_bf=lm1 - lm_den, prior_odds=prior_odds,
                        quad_error_bound=e1 + e_den)
    lm0, e0 = marginal(PointAtZero())
    return BFResult(log_bf=lm1 - lm_den, prior_odds=prior_odds,
                    quad_error_bound=e1 + e0 + e_den,
                    point_null_log_bf=lm1 - lm0, correction_log_bf=lm0 - lm_den)


def point_null_bf10(stats: SummaryStats, kappa1: float,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                    prior_odds: float = 1.0) -> BFResult:
    """BF of the Cauchy(0, kappa1) alternative against the point null."""
    return variant_bf("point", stats, cfg, prior_odds, kappa1=kappa1)


def peri_null_correction_bf(stats: SummaryStats, kappa0: float,
                            cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                            prior_odds: float = 1.0) -> BFResult:
    """Correction factor: BF of the point null against the peri-null."""
    lm0, e0 = marginal_loglik(stats, PointAtZero(), cfg)
    lmp, ep = marginal_loglik(stats, PeriNullNormal(kappa0), cfg)
    return BFResult(log_bf=lm0 - lmp, prior_odds=prior_odds, quad_error_bound=e0 + ep)


def peri_null_bf(stats: SummaryStats, kappa0: float, kappa1: float,
                 cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                 prior_odds: float = 1.0) -> BFResult:
    """BF of the alternative against the peri-null, with its decomposition
    into the point-null BF and the correction factor."""
    return variant_bf("peri", stats, cfg, prior_odds, kappa0=kappa0, kappa1=kappa1)


def interval_null_bf(stats: SummaryStats, kappa_e: float, a: float,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                     prior_odds: float = 1.0) -> BFResult:
    """BF of the outside-interval slice against the inside-interval slice.

    Both hypotheses are renormalized restrictions of an encompassing
    Cauchy(0, kappa_e) prior: the null keeps |delta| <= a, the alternative
    keeps |delta| > a.
    """
    return variant_bf("interval", stats, cfg, prior_odds, kappa1=kappa_e, a=a)


def peri_point_bf(stats: SummaryStats, xi: float, kappa0: float, kappa1: float,
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                  prior_odds: float = 1.0) -> BFResult:
    """BF of the alternative against the spike-and-slab peri-point null."""
    return variant_bf("peripoint", stats, cfg, prior_odds, xi=xi, kappa0=kappa0,
                      kappa1=kappa1)


def shrinking_peri_null_bf(stats: SummaryStats, c: float, kappa1: float,
                           cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                           prior_odds: float = 1.0) -> BFResult:
    """Peri-null BF with width kappa0 = c / sqrt(n_total) on the delta scale."""
    return variant_bf("shrinking", stats, cfg, prior_odds, c=c, kappa1=kappa1)
