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
* truncated Cauchy (interval null): the same g-mixture with delta
  integrated over the slice as a normal-CDF difference, by a fixed-step
  trapezoid rule over (log g, log u);
* peri-point mixture and shrinking peri-null: built from the above.

Every marginal is either closed form or a fixed-step trapezoid rule whose
bound is checked against ``QuadratureConfig.rel_tol``; no adaptive
quadrature is used. All marginals are computed in log space.
:data:`VARIANTS` is the one table that maps each Bayes-factor variant to its
priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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
from .nct import central_t_logpdf
# unused here, but perfbench/spans.py wraps engine.noncentral_t_logpdf when tracing
from .nct import noncentral_t_logpdf  # noqa: F401

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
    """Largest relative error (log-scale error) a marginal may carry."""

    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise InvalidInputError("rel_tol must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()

# step of the trapezoid rule over log g: the integrand is analytic and about
# one unit wide, so the h and 2h sums of the Cauchy marginal agree to 7e-16
# over 300 random cells with n <= 1e6, |t| <= 40, kappa1 in [0.05, 30]
_G_STEP = 0.1
# step of the rule over log r (see _marginal_truncated_cauchy): a fraction of
# the standard deviation of log r, and at most _R_STEP_MAX, which small nu
# would otherwise exceed
_R_STEP, _R_STEP_MAX = 0.25, 0.05
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# rounding error of a log marginal, relative to its magnitude
_LOG_ROUNDING = 16.0 * float(np.finfo(np.float64).eps)


def _log_trapezoid(log_f, h):
    """log of the step-h trapezoid sum of exp(log_f) over its last (odd)
    axis, whose ends are negligible, and its relative gap to the 2h sum."""
    m = log_f.max(axis=-1, keepdims=True)
    scaled = np.exp(log_f - m)
    fine = scaled.sum(axis=-1) * h
    coarse = scaled[..., ::2].sum(axis=-1) * (2.0 * h)
    return m[..., 0] + np.log(fine), np.abs(fine - coarse) / fine


def _cauchy_g_grid(stats, kappa, lo, top=-math.inf):
    """Grid x = log g, the log integrand of Cauchy(0, kappa) as N(0, g),
    g ~ InvGamma(1/2, kappa^2/2) (prior density times g times central_t(t/s)
    / s, s^2 = 1 + n_eff g), and log bounds on the mass below and above it.

    The grid ends 38 units past the prior scale, the likelihood scale
    t^2 / n_eff and ``top``, beyond which the integrand decays like 1/g
    (e^-38 = 3e-17). The likelihood factor is at most central_t(t / s_lo)
    below e^lo and c0 / s everywhere (c0 the central t mode): the tail below
    is at most central_t(t / s_lo) P(g < e^lo), the tail above at most
    c0 kappa / (sqrt(2 pi n_eff) e^hi).
    """
    t, nu, n_eff = stats.t, stats.nu, stats.n_eff
    hi = max(2.0 * math.log(kappa), top,
             2.0 * math.log(math.hypot(t, 1.0)) - math.log(n_eff)) + 38.0
    x = lo + _G_STEP * np.arange(2 * math.ceil((hi - lo) / (2.0 * _G_STEP)) + 1)
    g = np.exp(x)
    n_g = n_eff * g
    c0 = central_t_logpdf(0.0, nu)
    # log central_t(t / s) = c0 - (nu + 1)/2 log1p(t^2 / (nu s^2))
    lik = c0 - 0.5 * (nu + 1.0) * np.log1p((t * t / nu) / (1.0 + n_g))
    log_f = (math.log(kappa) - _LOG_SQRT_2PI) + lik - 0.5 * (x + np.log1p(n_g)) \
        - (0.5 * kappa * kappa) / g
    below = (math.log(2.0) + float(special.log_ndtr(-kappa * math.exp(-0.5 * lo)))
             + float(lik[0]))
    above = c0 + math.log(kappa) - 0.5 * math.log(2.0 * math.pi * n_eff) - float(x[-1])
    return x, log_f, below, above


def _checked(rule, value, bound, cfg):
    if not bound <= cfg.rel_tol:
        raise QuadratureConvergenceError(
            f"{rule} bound {bound:.3g} exceeds rel_tol {cfg.rel_tol:.3g}",
            estimate=value, error_bound=bound)
    return value, bound


def _marginal_cauchy_g(stats, kappa1, cfg):
    """Cauchy(0, kappa1) by the trapezoid rule over x = log g.

    The bound is the relative gap between the h and 2h sums plus the tails
    cut off by the grid. Below lo = log kappa1^2 - 6 the prior factor
    exp(-kappa1^2 / 2g) has died off.
    """
    _, log_f, below, above = _cauchy_g_grid(stats, kappa1, 2.0 * math.log(kappa1) - 6.0)
    value, gap = _log_trapezoid(log_f, _G_STEP)
    value = float(value)
    bound = float(gap) + math.exp(below - value) + math.exp(above - value)
    return _checked("g-rule", value, bound, cfg)


def _marginal_truncated_cauchy(stats, prior: TruncatedCauchy, cfg):
    """Cauchy(0, kappa) restricted to |delta| <= a (inside) or |delta| > a.

    With t = (Z + sqrt(n_eff) delta) / u, u = sqrt(V / nu), V ~ chi2(nu),
    delta given (g, u, t) is N(m, g / s^2) with m = sqrt(n_eff) g t u / s^2,
    so the slice's share is a normal-CDF difference (Morey & Rouder,
    Psychol. Methods 2011). Given (g, t), u = r sqrt((nu + 1) / (nu + t^2 /
    s^2)) with r ~ chi_{nu+1} / sqrt(nu + 1) for every g, so the share is
    averaged over one grid in y = log r, then integrated over the g-rule's
    grid. The two slices sum to the Cauchy integrand node by node.

    The bound, relative to the slice's own value, is the h-vs-2h gap on both
    axes, the weight of the grid's two y edges, the g tails (the share is at
    most 1 below the grid and settled at its top-row value above it) and the
    rounding of a log marginal this large; rounding beyond one nat raises
    :class:`DegeneratePriorError`.
    """
    kappa, a = prior.kappa_e, prior.a
    # the marginal is even in t; |t| keeps it so to the last bit
    t, nu, c = abs(stats.t), stats.nu, math.sqrt(stats.n_eff)
    # about how far (in nats) the slice lies below the likelihood peak; the
    # grid reaches down to where the prior factor exp(-kappa^2 / 2g) is
    # smaller still
    depth = 0.5 * max(0.0, t - a * c if prior.inside else a * c - t) ** 2
    if _LOG_ROUNDING * depth > 1.0:
        raise DegeneratePriorError(
            f"the slice lies about {depth:.3g} nats below the likelihood peak; "
            "double precision cannot resolve its marginal within a factor e")
    lo = 2.0 * math.log(kappa) - max(6.0, math.log(2.0 * (depth + 60.0)))
    x, log_f, below, above = _cauchy_g_grid(stats, kappa, lo, top=2.0 * math.log(a))

    # log r has sd 1/sqrt(2 nu + 2) about its mode 0, with a longer left tail
    # for small nu. The share tilts r towards the slice, most as g -> inf,
    # where it is Phi(+-(big_a r - a c)), big_a = t sqrt((nu+1)/nu); against
    # log w ~ -(nu+1)(r-1)^2 that moves the peak of log r to ``shift``
    # below, and the grid covers the same span around it too
    sd = 1.0 / math.sqrt(2.0 * nu + 2.0)
    left, right = -14.0 * sd - 60.0 / (nu + 1.0), 14.0 * sd + 4.0 / (nu + 1.0)
    big_a = t * math.sqrt((nu + 1.0) / nu)
    if (a * c > big_a) != prior.inside:
        shift = math.log1p(big_a * (a * c - big_a) / (2.0 * (nu + 1.0) + big_a ** 2))
        left, right = min(left, shift + left), max(right, shift + right)
    h_r = min(_R_STEP * sd, _R_STEP_MAX)
    y = left + h_r * np.arange(2 * math.ceil((right - left) / (2.0 * h_r)) + 1)
    log_w = (nu + 1.0) * (y - 0.5 * np.expm1(2.0 * y))
    log_w -= _log_trapezoid(log_w, h_r)[0]

    g = np.exp(x)[:, None]
    s2 = 1.0 + stats.n_eff * g
    sd_delta = np.sqrt(g / s2)
    m = c * g * t / s2 * np.sqrt((nu + 1.0) / (nu + t * t / s2)) * np.exp(y)
    z_lo, z_hi = (-a - m) / sd_delta, (a - m) / sd_delta
    if prior.inside:
        log_hi = special.log_ndtr(z_hi)
        log_share = log_hi + np.log1p(-np.exp(special.log_ndtr(z_lo) - log_hi))
        log_mass = math.log(2.0 / math.pi * math.atan(a / kappa))
    else:
        log_share = np.logaddexp(special.log_ndtr(z_lo), special.log_ndtr(-z_hi))
        # 1 - (2/pi) atan(a/k) == (2/pi) atan(k/a), stable for large a
        log_mass = math.log(2.0 / math.pi * math.atan(kappa / a))
    log_cell = log_w + log_share
    log_p, gap_y = _log_trapezoid(log_cell, h_r)
    log_rows = log_f + log_p
    value, gap_g = _log_trapezoid(log_rows, _G_STEP)
    value = float(value)
    # each row's share of the value weights its y gap
    row_share = np.exp(log_rows + math.log(_G_STEP) - value)
    edges = np.exp(special.logsumexp(log_f[:, None] + log_cell[:, [0, -1]], axis=0)
                   + math.log(_G_STEP * h_r) - value)
    # above the grid the share is taken as at most twice its top-row value
    above += math.log(2.0) + float(log_p[-1])
    bound = (float(gap_g) + float(row_share @ gap_y) + float(edges.sum())
             + math.exp(below - value) + math.exp(above - value)
             + _LOG_ROUNDING * abs(value))
    return _checked("interval g-rule", value - log_mass, bound, cfg)


def marginal_loglik(stats: SummaryStats, prior: PriorSpec,
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Log prior-predictive density of the observed t under ``prior``.

    Returns ``(log_marginal, error_bound)`` where the bound is the relative
    error of the marginal (quadrature plus truncated tail mass), i.e. its
    error on the log scale. Raises :class:`QuadratureConvergenceError`
    carrying the best estimate when the bound exceeds ``cfg.rel_tol``.
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
