"""Domain types and summary-statistic ingestion for the Bayesian t-test.

Everything downstream of this module works on :class:`SummaryStats`
(the t statistic, degrees of freedom and effective sample size) plus a
prior specification for the standardized effect size ``delta = mu / sigma``.
All types are immutable value objects and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidInputError, check_range

__all__ = [
    "Design",
    "SummaryStats",
    "ParamPoint",
    "PriorSpec",
    "PointAtZero",
    "PeriNullNormal",
    "AltCauchy",
    "TruncatedCauchy",
    "PeriPointMixture",
    "ShrinkingPeriNull",
    "BFResult",
    "ingest_one_sample",
    "ingest_two_sample",
]


class Design(enum.Enum):
    ONE_SAMPLE = "one-sample"
    TWO_SAMPLE = "two-sample"


@dataclass(frozen=True)
class SummaryStats:
    """Sufficient input for every Bayes factor computed by this package.

    ``n_eff`` is the factor multiplying delta in the noncentrality parameter:
    n for a one-sample design, n1*n2/(n1+n2) for two samples.
    """

    t: float
    nu: float
    n_eff: float
    design: Design
    n_total: int

    def __post_init__(self):
        check_range("t", self.t, -math.inf)
        check_range("nu", self.nu)
        check_range("n_eff", self.n_eff)
        check_range("n_total", self.n_total, 2, closed=True)
        expected_nu = self.n_total - 1 if self.design is Design.ONE_SAMPLE else self.n_total - 2
        if abs(self.nu - expected_nu) > 1e-9:
            raise InvalidInputError(
                f"nu={self.nu} inconsistent with {self.design.value} design of n_total={self.n_total}"
            )
        if self.design is Design.ONE_SAMPLE and abs(self.n_eff - self.n_total) > 1e-9:
            raise InvalidInputError("one-sample design requires n_eff == n_total")


@dataclass(frozen=True)
class ParamPoint:
    """A population parameter point (mu, sigma) with derived effect size."""

    mu: float
    sigma: float

    def __post_init__(self):
        check_range("mu", self.mu, -math.inf)
        check_range("sigma", self.sigma)

    @property
    def delta(self) -> float:
        return self.mu / self.sigma


class PriorSpec:
    """Marker base class for priors on the standardized effect size."""

    __slots__ = ()


@dataclass(frozen=True)
class PointAtZero(PriorSpec):
    """Point mass at delta = 0; the point-null hypothesis."""


@dataclass(frozen=True)
class PeriNullNormal(PriorSpec):
    """Normal(0, kappa0^2) on delta, tightly concentrated for small kappa0."""

    kappa0: float

    def __post_init__(self):
        check_range("kappa0", self.kappa0)


@dataclass(frozen=True)
class AltCauchy(PriorSpec):
    """Cauchy(0, kappa1) on delta; the default alternative-hypothesis prior."""

    kappa1: float

    def __post_init__(self):
        check_range("kappa1", self.kappa1)


@dataclass(frozen=True)
class TruncatedCauchy(PriorSpec):
    """Cauchy(0, kappa_e) restricted to [-a, a] (``inside=True``) or its complement."""

    kappa_e: float
    a: float
    inside: bool

    def __post_init__(self):
        check_range("kappa_e", self.kappa_e)
        check_range("a", self.a)


@dataclass(frozen=True)
class PeriPointMixture(PriorSpec):
    """Spike-and-slab null: weight xi on the point mass, 1 - xi on Normal(0, kappa0^2)."""

    xi: float
    kappa0: float

    def __post_init__(self):
        check_range("xi", self.xi, 0, 1)
        check_range("kappa0", self.kappa0)


@dataclass(frozen=True)
class ShrinkingPeriNull(PriorSpec):
    """Peri-null whose width shrinks with sample size: kappa0 = c / sqrt(n_total).

    Resolved to a :class:`PeriNullNormal` at evaluation time (delta scale,
    so sigma = 1 in the standardized parametrization).
    """

    c: float

    def __post_init__(self):
        check_range("c", self.c)

    def resolve(self, n_total: int) -> PeriNullNormal:
        return PeriNullNormal(self.c / math.sqrt(n_total))


def _stable_posterior(log_bf: float, prior_odds: float) -> float:
    # expit(log_bf + log prior_odds) without scipy at import time
    x = log_bf + math.log(prior_odds)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class BFResult:
    """A Bayes factor (numerator hypothesis over denominator hypothesis).

    ``point_null_log_bf`` and ``correction_log_bf`` hold the two-factor
    decomposition of a peri-null Bayes factor when applicable:
    log BF(alt vs peri-null) = log BF(alt vs point) + log BF(point vs peri-null).
    """

    log_bf: float
    bf: float = field(init=False)
    posterior_prob_numerator: float = field(init=False)
    prior_odds: float = 1.0
    quad_error_bound: float = 0.0
    point_null_log_bf: Optional[float] = None
    correction_log_bf: Optional[float] = None

    def __post_init__(self):
        check_range("log_bf", self.log_bf, -math.inf)
        check_range("prior_odds", self.prior_odds)
        check_range("quad_error_bound", self.quad_error_bound, closed=True)
        try:
            bf = math.exp(self.log_bf)
        except OverflowError:
            bf = math.inf
        object.__setattr__(self, "bf", bf)
        object.__setattr__(
            self, "posterior_prob_numerator", _stable_posterior(self.log_bf, self.prior_odds)
        )

    def as_dict(self) -> dict:
        return {
            "log_bf": self.log_bf,
            "bf": self.bf,
            "point_null_log_bf": self.point_null_log_bf,
            "correction_log_bf": self.correction_log_bf,
            "posterior_prob_numerator": self.posterior_prob_numerator,
            "prior_odds": self.prior_odds,
            "quad_error_bound": self.quad_error_bound,
        }


def ingest_one_sample(t: float, n: int) -> SummaryStats:
    """Wrap an observed one-sample t statistic: nu = n - 1, n_eff = n."""
    check_range("n", n, 2, closed=True)
    return SummaryStats(t=float(t), nu=float(n - 1), n_eff=float(n),
                        design=Design.ONE_SAMPLE, n_total=int(n))


def ingest_two_sample(mean1: float, sd1: float, n1: int,
                      mean2: float, sd2: float, n2: int) -> SummaryStats:
    """Pooled-variance two-sample t from per-group summary statistics.

    t carries the sign of mean1 - mean2; nu = n1 + n2 - 2 and
    n_eff = n1*n2/(n1 + n2). Downstream Bayes factors for symmetric priors
    depend on |t| only.
    """
    check_range("sd1", sd1)
    check_range("sd2", sd2)
    check_range("n1", n1, 2, closed=True)
    check_range("n2", n2, 2, closed=True)
    nu = n1 + n2 - 2
    try:  # a float ** raises OverflowError where * gives inf
        pooled_var = ((n1 - 1) * sd1 ** 2 + (n2 - 1) * sd2 ** 2) / nu
    except OverflowError:
        pooled_var = math.inf
    check_range("pooled variance", pooled_var)
    se = math.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2))
    t = (mean1 - mean2) / se
    return SummaryStats(t=t, nu=float(nu), n_eff=n1 * n2 / (n1 + n2),
                        design=Design.TWO_SAMPLE, n_total=n1 + n2)
