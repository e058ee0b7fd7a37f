"""Reference models with analytic derivative oracles for the Laplace engine.

Each model supplies the two callables consumed by
:func:`perinull.laplace.laplace_marginal` (log-likelihood value plus
derivative tensors of the average negative log-likelihood at the MLE, and
prior value plus derivative tensors), and, where available, the exact log
marginal likelihood that the expansion should converge to.

The t-test model works in (mu, sigma) coordinates. Its priors are specified
on (delta, sigma) with delta = mu/sigma and an improper 1/sigma nuisance
prior, so after the change of variables the density seen by the expansion is
g(mu/sigma) / sigma^2 with g the effect-size prior density; normalization
constants cancel from every C coefficient and from model comparisons, so the
improperness is harmless here.

The exact log marginals use ``math.lgamma``; a log beta function is the sum
of three of them. Against 40-digit mpmath, for n from 10 to 1e6, they are
within 1.6e-15 relative (Beta-Bernoulli, where the three terms cancel most)
and within 7.2e-16 for the others.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, check_range

__all__ = [
    "normal_model_oracle",
    "ttest_prior_oracle",
    "exact_ttest_peri_log_marginal",
    "ttest_stats_from_mle",
    "ConjugateGaussian",
    "BetaBernoulli",
    "GammaShape",
]


# ---------------------------------------------------------------------------
# normal likelihood in (mu, sigma), at its MLE

def normal_model_oracle(n: int, sigma_hat: float) -> Callable:
    """Derivative oracle of h(mu, sigma) = log sigma + (shat^2 + (muhat-mu)^2)/(2 sigma^2).

    At the MLE the derivative arrays depend on sigma_hat only. The returned
    callable matches the ``loglik_derivative_oracle`` protocol.
    """
    check_range("n", n, -math.inf)
    s = check_range("sigma_hat", sigma_hat)

    # nonzero components by sorted multi-index (0 = mu, 1 = sigma)
    table = {
        2: {(0, 0): s ** -2, (1, 1): 2.0 * s ** -2},
        3: {(0, 0, 1): -2.0 * s ** -3, (1, 1, 1): -10.0 * s ** -3},
        4: {(0, 0, 1, 1): 6.0 * s ** -4, (1, 1, 1, 1): 54.0 * s ** -4},
        5: {(0, 0, 1, 1, 1): -24.0 * s ** -5, (1, 1, 1, 1, 1): -336.0 * s ** -5},
        6: {(0, 0, 1, 1, 1, 1): 120.0 * s ** -6, (1, 1, 1, 1, 1, 1): 2400.0 * s ** -6},
    }
    h_derivs = {}
    for order, entries in table.items():
        arr = np.zeros((2,) * order)
        for key, value in entries.items():
            for perm in set(itertools.permutations(key)):
                arr[perm] = value
        h_derivs[order] = arr
    loglik = -n * (math.log(s) + 0.5 * math.log(2.0 * math.pi) + 0.5)

    def oracle(mle):
        return loglik, h_derivs

    return oracle


# ---------------------------------------------------------------------------
# t-test priors in (mu, sigma) coordinates

def _gaussian_derivative_values(x: float, kappa: float, kmax: int = 4):
    """g^(k)(x) for g = Normal(0, kappa^2) density, via probabilists' Hermite.

    Raises :class:`InvalidInputError` when a derivative is not a finite double
    (kappa^k underflows to 0 below kappa = 1e-81 and overflows above 1e77).
    """
    z = x / kappa
    he = [1.0, z]
    for k in range(1, kmax + 1):
        he.append(z * he[k] - k * he[k - 1])
    g0 = math.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * kappa)
    try:
        values = [g0 * (-1.0) ** k * he[k] / kappa ** k for k in range(kmax + 1)]
    except (ZeroDivisionError, OverflowError):
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise InvalidInputError(f"a derivative of the N(0, {kappa:.3g}^2) density at "
                                f"{x:.3g} is not a finite double")
    return values


def _cauchy_derivative_values(x: float, kappa: float, kmax: int = 4):
    """g^(k)(x) for g = Cauchy(0, kappa) density, by differentiating the
    rational term representation c * x^a * (x^2 + kappa^2)^-b."""
    terms = {(0, 1): kappa / math.pi}
    values = []
    q = x * x + kappa * kappa
    for _ in range(kmax + 1):
        values.append(sum(c * x ** a * q ** -b for (a, b), c in terms.items()))
        new: dict = {}
        for (a, b), c in terms.items():
            if a:
                new[(a - 1, b)] = new.get((a - 1, b), 0.0) + c * a
            new[(a + 1, b + 1)] = new.get((a + 1, b + 1), 0.0) - 2.0 * b * c
        terms = new
    return values


def _d_mu(terms):
    # term dict {(k, i, j): c} == c * g^(k)(mu/sigma) * mu^i * sigma^j
    out: dict = {}
    for (k, i, j), c in terms.items():
        out[(k + 1, i, j - 1)] = out.get((k + 1, i, j - 1), 0.0) + c
        if i:
            out[(k, i - 1, j)] = out.get((k, i - 1, j), 0.0) + c * i
    return out


def _d_sigma(terms):
    out: dict = {}
    for (k, i, j), c in terms.items():
        out[(k + 1, i + 1, j - 2)] = out.get((k + 1, i + 1, j - 2), 0.0) - c
        if j:
            out[(k, i, j - 1)] = out.get((k, i, j - 1), 0.0) + c * j
    return out


def ttest_prior_oracle(kind: str, kappa: float) -> Callable:
    """Prior derivative oracle for pi(mu, sigma) = g(mu / sigma) / sigma^2.

    ``kind`` selects g: "peri" for Normal(0, kappa^2), "alt" for
    Cauchy(0, kappa). Returns the ``prior_derivative_oracle`` callable.
    """
    check_range("kappa", kappa)
    if kind == "peri":
        gvals_at = lambda x: _gaussian_derivative_values(x, kappa)
    elif kind == "alt":
        gvals_at = lambda x: _cauchy_derivative_values(x, kappa)
    else:
        raise InvalidInputError("kind must be 'peri' or 'alt'")

    def oracle(mle):
        mu = check_range("mu component of the MLE", float(mle[0]), -math.inf)
        sigma = check_range("sigma component of the MLE", float(mle[1]))
        gvals = gvals_at(mu / sigma)

        def eval_terms(terms):
            return sum(c * gvals[k] * mu ** i * sigma ** j
                       for (k, i, j), c in terms.items())

        base = {(0, 0, -2): 1.0}
        value = eval_terms(base)
        derivs = {}
        for order in range(1, 5):
            arr = np.empty((2,) * order)
            for idx in itertools.product(range(2), repeat=order):
                t = base
                for axis in idx:
                    t = _d_mu(t) if axis == 0 else _d_sigma(t)
                arr[idx] = eval_terms(t)
            derivs[order] = arr
        return value, derivs

    return oracle


def exact_ttest_peri_log_marginal(n: int, kappa0: float, sigma_hat: float = 1.0) -> float:
    """Exact log marginal of the peri-null t-test model when the mean MLE is 0.

    The mu integral is Gaussian-Gaussian and the sigma integral reduces to a
    gamma integral:

        p_n = (2 pi)^(-n/2) sigma_hat^(-n) / sqrt(n kappa0^2 + 1)
              * (1/2) Gamma(n/2) (2/n)^(n/2).
    """
    check_range("n", n, 1, closed=True)
    check_range("kappa0", kappa0)
    check_range("sigma_hat", sigma_hat)
    return (-0.5 * n * math.log(2.0 * math.pi) - n * math.log(sigma_hat)
            - 0.5 * math.log1p(n * kappa0 ** 2) + math.log(0.5)
            + math.lgamma(0.5 * n) + 0.5 * n * (math.log(2.0) - math.log(n)))


def ttest_stats_from_mle(mu_hat: float, sigma_hat: float, n: int):
    """One-sample t statistic implied by the normal-model MLE (mu_hat, sigma_hat)."""
    from .core import ingest_one_sample

    check_range("n", n, 1)
    check_range("sigma_hat", sigma_hat)
    # sample sd uses ddof=1 while sigma_hat is the MLE (ddof=0)
    t = mu_hat * math.sqrt(n - 1.0) / sigma_hat
    return ingest_one_sample(t, n)


# ---------------------------------------------------------------------------
# conjugate Gaussian: known variance likelihood, Gaussian prior on the mean

@dataclass(frozen=True)
class ConjugateGaussian:
    """N(theta, sigma0^2) likelihood with prior theta ~ N(prior_mean, prior_sd^2).

    Data enter through the sufficient statistics (n, ybar, centered sum of
    squares). The exact log marginal is available in closed form.
    """

    n: int
    ybar: float
    ss: float
    sigma0: float = 1.0
    prior_mean: float = 0.0
    prior_sd: float = 1.0

    def __post_init__(self):
        check_range("n", self.n, 1, closed=True)
        check_range("ss", self.ss, closed=True)
        check_range("ybar", self.ybar, -math.inf)
        check_range("prior_mean", self.prior_mean, -math.inf)
        check_range("sigma0", self.sigma0)
        check_range("prior_sd", self.prior_sd)

    @property
    def mle(self) -> np.ndarray:
        return np.array([self.ybar])

    def exact_log_marginal(self) -> float:
        s2, t2, n = self.sigma0 ** 2, self.prior_sd ** 2, self.n
        return (-0.5 * n * math.log(2.0 * math.pi * s2) - self.ss / (2.0 * s2)
                + 0.5 * math.log(s2 / (s2 + n * t2))
                - n * (self.ybar - self.prior_mean) ** 2 / (2.0 * (s2 + n * t2)))

    def loglik_oracle(self) -> Callable:
        s2 = self.sigma0 ** 2
        value = -0.5 * self.n * math.log(2.0 * math.pi * s2) - self.ss / (2.0 * s2)
        h_derivs = {k: np.zeros((1,) * k) for k in range(2, 7)}
        h_derivs[2][0, 0] = 1.0 / s2

        def oracle(mle):
            return value, h_derivs

        return oracle

    def prior_oracle(self) -> Callable:
        def oracle(mle):
            gvals = _gaussian_derivative_values(float(mle[0]) - self.prior_mean,
                                                self.prior_sd)
            derivs = {k: np.full((1,) * k, gvals[k]) for k in range(1, 5)}
            return gvals[0], derivs

        return oracle


# ---------------------------------------------------------------------------
# Beta-Bernoulli

def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _rational_derivative_values(exponents, point: float, kmax: int = 4):
    """Derivatives of sum_i c_i theta^a_i (1-theta)^b_i at ``point``."""
    terms = dict(exponents)
    values = []
    for _ in range(kmax + 1):
        values.append(sum(c * point ** a * (1.0 - point) ** b
                          for (a, b), c in terms.items()))
        new: dict = {}
        for (a, b), c in terms.items():
            if a:
                new[(a - 1.0, b)] = new.get((a - 1.0, b), 0.0) + c * a
            if b:
                new[(a, b - 1.0)] = new.get((a, b - 1.0), 0.0) - c * b
        terms = new
    return values


@dataclass(frozen=True)
class BetaBernoulli:
    """Bernoulli(theta) sequence likelihood with a Beta(alpha, beta) prior."""

    n: int
    successes: int
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        check_range("successes", self.successes, 0, check_range("n", self.n))
        check_range("alpha", self.alpha)
        check_range("beta", self.beta)

    @property
    def mle(self) -> np.ndarray:
        return np.array([self.successes / self.n])

    def exact_log_marginal(self) -> float:
        return (_log_beta(self.alpha + self.successes, self.beta + self.n - self.successes)
                - _log_beta(self.alpha, self.beta))

    def loglik_oracle(self) -> Callable:
        p = self.successes / self.n
        value = self.n * (p * math.log(p) + (1.0 - p) * math.log1p(-p))
        h_derivs = {}
        for order in range(2, 7):
            v = math.factorial(order - 1) * ((-1.0) ** order / p ** (order - 1)
                                             + 1.0 / (1.0 - p) ** (order - 1))
            h_derivs[order] = np.full((1,) * order, v)

        def oracle(mle):
            return value, h_derivs

        return oracle

    def prior_oracle(self) -> Callable:
        norm = math.exp(-_log_beta(self.alpha, self.beta))
        exponents = {(self.alpha - 1.0, self.beta - 1.0): norm}

        def oracle(mle):
            vals = _rational_derivative_values(exponents, float(mle[0]))
            return vals[0], {k: np.full((1,) * k, vals[k]) for k in range(1, 5)}

        return oracle


# ---------------------------------------------------------------------------
# gamma-shaped integrand with a Gamma prior (1-D test model with exact answer)

@dataclass(frozen=True)
class GammaShape:
    """Integrand exp(-n (theta - log theta)) with a Gamma(shape, rate) prior.

    exp(-n h) = theta^n exp(-n theta) peaks at theta = 1, and the exact
    marginal is Gamma-integrable:
    p_n = rate^shape / Gamma(shape) * Gamma(n + shape) / (n + rate)^(n + shape).
    """

    n: int
    shape: float = 2.0
    rate: float = 1.0

    def __post_init__(self):
        check_range("n", self.n, 1, closed=True)
        check_range("shape", self.shape)
        check_range("rate", self.rate)

    @property
    def mle(self) -> np.ndarray:
        return np.array([1.0])

    def exact_log_marginal(self) -> float:
        return (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                + math.lgamma(self.n + self.shape)
                - (self.n + self.shape) * math.log(self.n + self.rate))

    def loglik_oracle(self) -> Callable:
        # h = theta - log theta; derivatives at 1: 1, -2, 6, -24, 120
        h_derivs = {k: np.full((1,) * k, v) for k, v in
                    zip(range(2, 7), (1.0, -2.0, 6.0, -24.0, 120.0))}
        value = -float(self.n)

        def oracle(mle):
            return value, h_derivs

        return oracle

    def prior_oracle(self) -> Callable:
        norm = self.rate ** self.shape / math.exp(math.lgamma(self.shape))

        def oracle(mle):
            theta = float(mle[0])
            # terms c * theta^a * exp(-rate theta)
            terms = {self.shape - 1.0: norm}
            vals = []
            for _ in range(5):
                vals.append(sum(c * theta ** a for a, c in terms.items())
                            * math.exp(-self.rate * theta))
                new: dict = {}
                for a, c in terms.items():
                    if a:
                        new[a - 1.0] = new.get(a - 1.0, 0.0) + c * a
                    new[a] = new.get(a, 0.0) - c * self.rate
                terms = new
            return vals[0], {k: np.full((1,) * k, vals[k]) for k in range(1, 5)}

        return oracle
