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

The prior derivatives, bar the Gaussian's closed form, come from one rule,
:func:`_derive`: the density is a sum of terms ``{key: c}`` (c x^a (x^2 +
kappa^2)^-b for the Cauchy prior, c theta^a (1 - theta)^b for the Beta prior,
c theta^a e^(-rate theta) for the Gamma prior, c g^(k)(mu/sigma) mu^i sigma^j
for the t-test priors), and each prior gives the (key', factor) pairs of the
derivative of one term.

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
# term differentiation and the oracle protocol

def _derive(terms, rule):
    """d/dx of the term sum ``terms = {key: c}`` (keys are tuples):
    ``rule(*key)`` returns the ``(key', factor)`` pairs of d/dx of key's term,
    and c * factor is added to key' unless factor is 0."""
    out: dict = {}
    for key, c in terms.items():
        for new, factor in rule(*key):
            if factor:
                out[new] = out.get(new, 0.0) + c * factor
    return out


def _derivative_values(terms, rule, evaluate):
    """``evaluate`` of the term sum and of its first four derivatives."""
    values = [evaluate(terms)]
    for _ in range(4):
        terms = _derive(terms, rule)
        values.append(evaluate(terms))
    return values


def _constant_oracle(value, h_derivs) -> Callable:
    """A log-likelihood oracle whose value and derivative arrays are fixed."""
    return lambda mle: (value, h_derivs)


def _prior_1d(values):
    """A 1-D prior oracle's ``(value, {order: array})`` from g^(k), k = 0..4."""
    return values[0], {k: np.full((1,) * k, values[k]) for k in range(1, 5)}


# ---------------------------------------------------------------------------
# normal likelihood in (mu, sigma), at its MLE

def normal_model_oracle(n: int, sigma_hat: float) -> Callable:
    """Derivative oracle of h(mu, sigma) = log sigma + (shat^2 + (muhat-mu)^2)/(2 sigma^2).

    At the MLE the derivative arrays depend on sigma_hat only. The returned
    callable matches the ``loglik_derivative_oracle`` protocol.
    """
    check_range("n", n, 1, closed=True)
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
    return _constant_oracle(-n * (math.log(s) + 0.5 * math.log(2.0 * math.pi) + 0.5),
                            h_derivs)


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


def _cauchy_derivative_values(x: float, kappa: float):
    """g^(k)(x) for g = Cauchy(0, kappa) density, from the terms
    ``{(a, b): c}`` == c * x^a * (x^2 + kappa^2)^-b."""
    q = x * x + kappa * kappa
    return _derivative_values(
        {(0, 1): kappa / math.pi}, lambda a, b: (((a - 1, b), a), ((a + 1, b + 1), -2.0 * b)),
        lambda terms: sum(c * x ** a * q ** -b for (a, b), c in terms.items()))


# d/dmu and d/dsigma of the term (k, i, j) == g^(k)(mu/sigma) * mu^i * sigma^j
_TTEST_RULES = (lambda k, i, j: (((k + 1, i, j - 1), 1), ((k, i - 1, j), i)),
                lambda k, i, j: (((k + 1, i + 1, j - 2), -1), ((k, i, j - 1), j)))


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
    # the terms of d^idx pi for each multi-index idx (0 = mu, 1 = sigma) up to
    # order 4, each derived from its prefix
    terms = {(): {(0, 0, -2): 1.0}}
    for order in range(1, 5):
        for idx in itertools.product(range(2), repeat=order):
            terms[idx] = _derive(terms[idx[:-1]], _TTEST_RULES[idx[-1]])

    def oracle(mle):
        mu = check_range("mu component of the MLE", float(mle[0]), -math.inf)
        sigma = check_range("sigma component of the MLE", float(mle[1]))
        gvals = gvals_at(mu / sigma)
        v = {idx: sum(c * gvals[k] * mu ** i * sigma ** j for (k, i, j), c in t.items())
             for idx, t in terms.items()}
        return v[()], {order: np.reshape([v[idx] for idx in itertools.product(
            range(2), repeat=order)], (2,) * order) for order in range(1, 5)}

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
        return _constant_oracle(value, h_derivs)

    def prior_oracle(self) -> Callable:
        return lambda mle: _prior_1d(_gaussian_derivative_values(
            float(mle[0]) - self.prior_mean, self.prior_sd))


# ---------------------------------------------------------------------------
# Beta-Bernoulli

def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


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
        return _constant_oracle(value, h_derivs)

    def prior_oracle(self) -> Callable:
        terms = {(self.alpha - 1.0, self.beta - 1.0): math.exp(-_log_beta(self.alpha, self.beta))}

        def oracle(mle):
            theta = float(mle[0])
            return _prior_1d(_derivative_values(
                terms, lambda a, b: (((a - 1.0, b), a), ((a, b - 1.0), -b)),
                lambda t: sum(c * theta ** a * (1.0 - theta) ** b for (a, b), c in t.items())))

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
        return _constant_oracle(-float(self.n), h_derivs)

    def prior_oracle(self) -> Callable:
        # terms {(a,): c} == c * theta^a * exp(-rate theta)
        terms = {(self.shape - 1.0,): self.rate ** self.shape / math.exp(math.lgamma(self.shape))}

        def oracle(mle):
            theta = float(mle[0])
            return _prior_1d(_derivative_values(
                terms, lambda a: (((a - 1.0,), a), ((a,), -self.rate)),
                lambda t: sum(c * theta ** a for (a,), c in t.items())
                * math.exp(-self.rate * theta)))

        return oracle
