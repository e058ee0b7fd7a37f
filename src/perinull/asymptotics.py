"""Closed-form asymptotic theory of the peri-null Bayes factor t-test.

The log peri-null Bayes factor converges in probability to the log ratio of
prior ordinates at the data-governing parameter,

    v(mu, sigma) = log[ sqrt(2) k0 exp(mu^2 / (2 k0^2 sigma^2))
                        / (sqrt(pi) k1 (1 + (mu / (k1 sigma))^2)) ],

which depends on (mu, sigma) only through delta = mu / sigma. Away from
mu = 0 the sampling distribution is asymptotically normal with variance
grad(v)^T I(theta)^{-1} grad(v) / n, where I = diag(1/sigma^2, 2/sigma^2)
is the normal-model Fisher information; at mu = 0 the gradient vanishes and
the limit is a shifted, scaled chi-square(1). The finite-n mean is shifted
by the bias term E(theta, n) = log(bracket_alt / bracket_peri) built from
the four closed-form correction constants of this module.

The constants returned by :func:`c_constants` evaluate the published
closed-form expressions exactly as printed. Their first-order pair agrees
with the tensor engine in :mod:`perinull.laplace` everywhere; the
second-order pair does not (the printed formulas are inconsistent with the
expansion they summarize -- see the package notes), but they are what the
reference curves, including the n >= 185 validity threshold, are built from,
so this module keeps them verbatim.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from .core import ParamPoint
from .errors import InvalidInputError

__all__ = [
    "Regime",
    "CConstants",
    "BiasTerm",
    "LogBfDistribution",
    "AsymptoticSummary",
    "limit_log_bf",
    "limit_gradient_hessian",
    "asymptotic_variance",
    "c_constants",
    "bias_term",
    "sampling_distribution",
    "summarize",
]

_GRADIENT_ZERO_TOL = 1e-12


def _check(mu, sigma, kappa0, kappa1):
    if sigma <= 0 or kappa0 <= 0 or kappa1 <= 0:
        raise InvalidInputError("sigma, kappa0 and kappa1 must be positive")


class Regime(enum.Enum):
    FIRST_ORDER_NORMAL = "first-order-normal"
    SECOND_ORDER_CHI_SQUARE = "second-order-chi-square"


def limit_log_bf(mu: float, sigma: float, kappa0: float, kappa1: float) -> float:
    """v(theta): the in-probability limit of the log peri-null Bayes factor."""
    _check(mu, sigma, kappa0, kappa1)
    delta = mu / sigma
    return (0.5 * math.log(2.0 / math.pi) + math.log(kappa0 / kappa1)
            + 0.5 * (delta / kappa0) ** 2 - math.log1p((delta / kappa1) ** 2))


def limit_gradient_hessian(mu: float, sigma: float, kappa0: float, kappa1: float):
    """Analytic gradient and Hessian of v with respect to (mu, sigma)."""
    _check(mu, sigma, kappa0, kappa1)
    s2 = sigma * sigma
    q = kappa1 * kappa1 * s2 + mu * mu
    g_mu = mu / (kappa0 ** 2 * s2) - 2.0 * mu / q
    g_sigma = -mu * mu / (kappa0 ** 2 * sigma ** 3) + 2.0 * mu * mu / (sigma * q)
    h_mm = 1.0 / (kappa0 ** 2 * s2) - 2.0 * (kappa1 ** 2 * s2 - mu * mu) / q ** 2
    h_ms = -2.0 * mu / (kappa0 ** 2 * sigma ** 3) + 4.0 * mu * kappa1 ** 2 * sigma / q ** 2
    h_ss = (3.0 * mu * mu / (kappa0 ** 2 * sigma ** 4)
            - 2.0 * mu * mu * (3.0 * kappa1 ** 2 * s2 + mu * mu) / (s2 * q ** 2))
    return np.array([g_mu, g_sigma]), np.array([[h_mm, h_ms], [h_ms, h_ss]])


def asymptotic_variance(mu: float, sigma: float, kappa0: float, kappa1: float,
                        n: int) -> float:
    """Sampling variance of the log peri-null BF in the normal regime.

    Equals grad(v)^T I^{-1} grad(v) / n for the normal-model information,
    and vanishes identically at mu = 0.
    """
    _check(mu, sigma, kappa0, kappa1)
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    mu2, s2 = mu * mu, sigma * sigma
    num = (mu2 * mu2 + 2.0 * mu2 * s2) * (mu2 + (kappa1 ** 2 - 2.0 * kappa0 ** 2) * s2) ** 2
    den = 2.0 * kappa0 ** 4 * s2 * s2 * (mu2 + kappa1 ** 2 * s2) ** 2 * n
    return num / den


class CConstants(NamedTuple):
    c1_alt: float
    c2_alt: float
    c1_peri: float
    c2_peri: float


def c_constants(mu: float, sigma: float, kappa0: float, kappa1: float) -> CConstants:
    """The four published correction constants, evaluated exactly as printed."""
    _check(mu, sigma, kappa0, kappa1)
    m2, s2 = mu * mu, sigma * sigma
    m4, m6 = m2 * m2, m2 * m2 * m2
    s4, s6 = s2 * s2, s2 * s2 * s2
    k1sq, k0sq = kappa1 ** 2, kappa0 ** 2
    q1 = m2 + k1sq * s2
    c1_alt = (13.0 * m4 + (18.0 + 2.0 * k1sq) * s2 * m2
              + (k1sq - 6.0) * k1sq * s4) / (6.0 * q1 ** 2)
    c2_alt = (780.0 * m6 + (1110.0 + 3127.0 * k1sq) * s2 * m4
              + (6020.0 + 4462.0 * k1sq) * k1sq * s4 * m2
              + (5091.0 * k1sq - 1426.0) * k1sq ** 2 * s6) / (-96.0 * q1 ** 3)
    c1_peri = (3.0 * m4 + 6.0 * s2 * m2 + k0sq * s4 * (2.0 * k0sq - 6.0)) / (12.0 * k0sq ** 2 * s4)
    c2_peri = (124.0 * m6 + (264.0 - 2369.0 * k0sq) * s2 * m4
               + (10811.0 * k0sq - 2218.0) * k0sq * s4 * m2
               + 2.0 * (713.0 - 5091.0 * k0sq) * k0sq ** 2 * s6) / (192.0 * k0sq ** 3 * s6)
    return CConstants(c1_alt, c2_alt, c1_peri, c2_peri)


def _bracket(c1: float, c2: float, n: float) -> float:
    return 1.0 + c1 / n + c2 / (n * n)


def _min_valid_n(c1: float, c2: float) -> int:
    # smallest integer N with 1 + c1/n + c2/n^2 > 0 for every n >= N
    disc = c1 * c1 - 4.0 * c2
    if disc < 0:
        n = 1
    else:
        root = 0.5 * (-c1 + math.sqrt(disc))
        n = max(1, int(math.floor(root)) + 1)
    while _bracket(c1, c2, n) <= 0.0:
        n += 1
    return n


@dataclass(frozen=True)
class BiasTerm:
    """E(theta, n), or a flag identifying which log bracket went nonpositive.

    ``min_valid_n`` is the smallest sample size from which both brackets stay
    positive, so callers can render partial curves instead of failing.
    """

    value: float
    valid: bool
    failed_bracket: Optional[str]
    min_valid_n: int

    def __float__(self):
        return self.value


def bias_term(mu: float, sigma: float, kappa0: float, kappa1: float, n: int) -> BiasTerm:
    """Finite-n mean shift E(theta, n) = log(bracket_alt / bracket_peri)."""
    if n < 1:
        raise InvalidInputError("n must be a positive integer")
    c = c_constants(mu, sigma, kappa0, kappa1)
    b_alt = _bracket(c.c1_alt, c.c2_alt, n)
    b_peri = _bracket(c.c1_peri, c.c2_peri, n)
    min_n = max(_min_valid_n(c.c1_alt, c.c2_alt), _min_valid_n(c.c1_peri, c.c2_peri))
    if b_alt <= 0.0 or b_peri <= 0.0:
        failed = ("both" if b_alt <= 0.0 and b_peri <= 0.0
                  else "alternative" if b_alt <= 0.0 else "peri_null")
        return BiasTerm(value=math.nan, valid=False, failed_bracket=failed,
                        min_valid_n=min_n)
    return BiasTerm(value=math.log(b_alt) - math.log(b_peri), valid=True,
                    failed_bracket=None, min_valid_n=min_n)


@dataclass(frozen=True)
class LogBfDistribution:
    """Asymptotic sampling distribution descriptor for log BF at sample size n.

    Normal regime: Normal(center, sd^2). Chi-square regime: center plus
    chi2_scale * Z^2 with Z standard normal, i.e. a shifted, scaled
    chi-square(1). ``usable`` is False when the bias bracket is invalid at
    this n; mean and quantile queries then return NaN.
    """

    regime: Regime
    n: int
    center: float
    sd: float
    chi2_scale: float
    usable: bool
    min_valid_n: int

    def mean(self) -> float:
        if not self.usable:
            return math.nan
        if self.regime is Regime.FIRST_ORDER_NORMAL:
            return self.center
        return self.center + self.chi2_scale

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise InvalidInputError("quantile level must lie in (0, 1)")
        if not self.usable:
            return math.nan
        if self.regime is Regime.FIRST_ORDER_NORMAL:
            return self.center + self.sd * special.ndtri(q)
        level = q if self.chi2_scale >= 0 else 1.0 - q
        return self.center + self.chi2_scale * 2.0 * special.gammaincinv(0.5, level)


def sampling_distribution(mu: float, sigma: float, kappa0: float, kappa1: float,
                          n: int) -> LogBfDistribution:
    """Normal or shifted-chi-square descriptor of log BF(peri-null) at size n."""
    grad, _ = limit_gradient_hessian(mu, sigma, kappa0, kappa1)
    bias = bias_term(mu, sigma, kappa0, kappa1, n)
    center = limit_log_bf(mu, sigma, kappa0, kappa1) + (bias.value if bias.valid else math.nan)
    if float(np.linalg.norm(grad)) < _GRADIENT_ZERO_TOL:
        scale = (kappa1 ** 2 - 2.0 * kappa0 ** 2) / (2.0 * kappa0 ** 2 * kappa1 ** 2) / n
        return LogBfDistribution(
            regime=Regime.SECOND_ORDER_CHI_SQUARE, n=n, center=center,
            sd=0.0, chi2_scale=scale, usable=bias.valid, min_valid_n=bias.min_valid_n)
    sd = math.sqrt(asymptotic_variance(mu, sigma, kappa0, kappa1, n))
    return LogBfDistribution(
        regime=Regime.FIRST_ORDER_NORMAL, n=n, center=center,
        sd=sd, chi2_scale=0.0, usable=bias.valid, min_valid_n=bias.min_valid_n)


@dataclass(frozen=True)
class AsymptoticSummary:
    """Everything the asymptotic theory says about one parameter point."""

    theta: ParamPoint
    kappa0: float
    kappa1: float
    n: int
    limit_log_bf: float
    grad: np.ndarray
    hessian_mu_mu: float
    n_times_variance: float
    c1_alt: float
    c2_alt: float
    c1_peri: float
    c2_peri: float
    bias: BiasTerm
    regime: Regime
    distribution: LogBfDistribution


def summarize(mu: float, sigma: float, kappa0: float, kappa1: float,
              n: int) -> AsymptoticSummary:
    grad, hess = limit_gradient_hessian(mu, sigma, kappa0, kappa1)
    c = c_constants(mu, sigma, kappa0, kappa1)
    dist = sampling_distribution(mu, sigma, kappa0, kappa1, n)
    return AsymptoticSummary(
        theta=ParamPoint(mu=mu, sigma=sigma),
        kappa0=kappa0,
        kappa1=kappa1,
        n=n,
        limit_log_bf=limit_log_bf(mu, sigma, kappa0, kappa1),
        grad=grad,
        hessian_mu_mu=float(hess[0, 0]),
        n_times_variance=asymptotic_variance(mu, sigma, kappa0, kappa1, n) * n,
        c1_alt=c.c1_alt,
        c2_alt=c.c2_alt,
        c1_peri=c.c1_peri,
        c2_peri=c.c2_peri,
        bias=bias_term(mu, sigma, kappa0, kappa1, n),
        regime=dist.regime,
        distribution=dist,
    )
