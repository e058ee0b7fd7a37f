"""Higher-order Laplace expansion of marginal likelihoods.

For n i.i.d. observations with average negative log-likelihood h (minimized
at the MLE) and a smooth prior pi, the marginal likelihood expands as

    p(y^n) = (2 pi / n)^(p/2) f(y^n | mle) pi(mle) |I|^(-1/2)
             * [1 + C1/n + C2/n^2 + O(n^-3)],

with I the observed information (the Hessian of h at the MLE). C1 and C2 are
full contractions of the Taylor tensors of h (orders 3..6) and pi (orders
1..4) against Gaussian moment tensors of N(0, I^{-1}) up to order 12:

    C1 = pi_ab S2 / (2 pihat) - [h_abcd / 24 + h_abc pi_d / (6 pihat)] S4
         + h_abc h_def S6 / 72

and the five-group order-12 analogue for C2 (see ``laplace_c2``). Tensors are
dense symmetric ndarrays; contractions are Einstein sums against the
:class:`~perinull.isserlis.MomentTable` arrays. Dimensions up to p = 3 are
supported: the dense order-12 moment tensor has p^12 entries, 134 MB at p = 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import InvalidInputError, UnsupportedOrderError, check_range
from .isserlis import MomentTable

__all__ = [
    "TensorCoeffs",
    "LaplaceExpansion",
    "laplace_c1",
    "laplace_c2",
    "laplace_marginal",
    "finite_difference_derivatives",
    "FiniteDifferenceResult",
]

MAX_DIM = 3


def _check_symmetric(arr: np.ndarray, order: int, dim: int, what: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (dim,) * order:
        raise InvalidInputError(f"{what} derivative array of order {order} has wrong shape")
    scale = np.max(np.abs(arr)) or 1.0
    transposes = np.stack([np.transpose(arr, perm)
                           for perm in itertools.permutations(range(order))])
    if not np.allclose(arr, transposes, rtol=1e-8, atol=1e-10 * scale):
        raise InvalidInputError(f"{what} derivative array of order {order} is not symmetric")
    return arr


@dataclass(frozen=True)
class TensorCoeffs:
    """Taylor data of the log-likelihood and prior at the MLE.

    ``h_derivs[k]`` is the order-k derivative array of the average negative
    log-likelihood (k = 2 is the observed information and must be symmetric
    positive definite); ``prior_derivs[k]`` the order-k derivative array of
    the prior density. Only the orders actually supplied are validated, so a
    first-order-only computation may omit orders 5, 6 and 3, 4.
    """

    dim: int
    mle: np.ndarray
    h_derivs: Mapping[int, np.ndarray]
    prior_value: float
    prior_derivs: Mapping[int, np.ndarray]

    def __post_init__(self):
        check_range("dim", self.dim, 1, MAX_DIM + 1, closed=True)
        object.__setattr__(self, "mle", np.asarray(self.mle, dtype=np.float64))
        if self.mle.shape != (self.dim,):
            raise InvalidInputError("mle must be a vector of length dim")
        check_range("prior_value", self.prior_value)
        if 2 not in self.h_derivs:
            raise InvalidInputError("h_derivs must include the order-2 information matrix")
        h = {k: _check_symmetric(v, k, self.dim, "log-likelihood")
             for k, v in self.h_derivs.items() if not (k < 2 or k > 6)}
        p = {k: _check_symmetric(v, k, self.dim, "prior")
             for k, v in self.prior_derivs.items() if 1 <= k <= 4}
        object.__setattr__(self, "h_derivs", h)
        object.__setattr__(self, "prior_derivs", p)
        info = h[2]
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise InvalidInputError("observed information must be positive definite") from None

    @property
    def information(self) -> np.ndarray:
        return self.h_derivs[2]

    def moment_table(self) -> MomentTable:
        return MomentTable(np.linalg.inv(self.information))

    def _require(self, h_orders, p_orders):
        missing_h = [k for k in h_orders if k not in self.h_derivs]
        missing_p = [k for k in p_orders if k not in self.prior_derivs]
        if missing_h or missing_p:
            raise InvalidInputError(
                f"missing derivative orders: h={missing_h}, prior={missing_p}")


def laplace_c1(coeffs: TensorCoeffs, moments: Optional[MomentTable] = None) -> float:
    """O(1/n) correction coefficient."""
    coeffs._require((3, 4), (1, 2))
    mt = moments if moments is not None else coeffs.moment_table()
    h3, h4 = coeffs.h_derivs[3], coeffs.h_derivs[4]
    p1, p2 = coeffs.prior_derivs[1], coeffs.prior_derivs[2]
    pihat = coeffs.prior_value
    es = np.einsum
    return float(
        es("ab,ab->", p2, mt.dense(2)) / (2.0 * pihat)
        - es("abcd,abcd->", h4, mt.dense(4)) / 24.0
        - es("abc,d,abcd->", h3, p1, mt.dense(4)) / (6.0 * pihat)
        + es("abc,def,abcdef->", h3, h3, mt.dense(6), optimize=True) / 72.0
    )


def laplace_c2(coeffs: TensorCoeffs, moments: Optional[MomentTable] = None) -> float:
    """O(1/n^2) correction coefficient, contracted through order-12 moments."""
    coeffs._require((3, 4, 5, 6), (1, 2, 3, 4))
    mt = moments if moments is not None else coeffs.moment_table()
    h3, h4 = coeffs.h_derivs[3], coeffs.h_derivs[4]
    h5, h6 = coeffs.h_derivs[5], coeffs.h_derivs[6]
    p1, p2 = coeffs.prior_derivs[1], coeffs.prior_derivs[2]
    p3, p4 = coeffs.prior_derivs[3], coeffs.prior_derivs[4]
    pihat = coeffs.prior_value
    s4, s6 = mt.dense(4), mt.dense(6)
    s8, s10, s12 = mt.dense(8), mt.dense(10), mt.dense(12)

    def es(*ops):
        return np.einsum(*ops, optimize=True)

    return float(
        es("abcd,abcd->", p4, s4) / (24.0 * pihat)
        - (es("abcdef,abcdef->", h6, s6)
           + 6.0 * es("abcde,f,abcdef->", h5, p1, s6) / pihat
           + 15.0 * es("abcd,ef,abcdef->", h4, p2, s6) / pihat
           + 20.0 * es("abc,def,abcdef->", h3, p3, s6) / pihat) / 720.0
        + (5.0 * es("abcd,efgh,abcdefgh->", h4, h4, s8)
           + 8.0 * es("abcde,fgh,abcdefgh->", h5, h3, s8)
           + 40.0 * es("abc,defg,h,abcdefgh->", h3, h4, p1, s8) / pihat
           + 40.0 * es("abc,def,gh,abcdefgh->", h3, h3, p2, s8) / pihat) / 5760.0
        - (3.0 * es("abcd,efg,hij,abcdefghij->", h4, h3, h3, s10)
           + 4.0 * es("abc,def,ghi,j,abcdefghij->", h3, h3, h3, p1, s10) / pihat) / 5184.0
        + es("abc,def,ghi,jkl,abcdefghijkl->", h3, h3, h3, h3, s12) / 31104.0
    )


@dataclass(frozen=True)
class LaplaceExpansion:
    """Log-marginal approximations at three truncation levels.

    ``log_with_c1`` / ``log_with_c2`` are NaN and the matching validity flag
    is False when the correction bracket 1 + C1/n (+ C2/n^2) is nonpositive;
    the raw coefficients are always carried so callers can inspect the
    failure instead of receiving a silently clamped value.
    """

    n: int
    log_leading: float
    c1: float
    c2: float
    bracket_c1: float
    bracket_c2: float

    @property
    def valid_c1(self) -> bool:
        return self.bracket_c1 > 0.0

    @property
    def valid_c2(self) -> bool:
        return self.bracket_c2 > 0.0

    @property
    def log_with_c1(self) -> float:
        return self.log_leading + math.log(self.bracket_c1) if self.valid_c1 else math.nan

    @property
    def log_with_c2(self) -> float:
        return self.log_leading + math.log(self.bracket_c2) if self.valid_c2 else math.nan


def laplace_marginal(loglik_derivative_oracle: Callable,
                     prior_derivative_oracle: Callable,
                     mle, n: int) -> LaplaceExpansion:
    """Evaluate the expansion from derivative oracles at the MLE.

    ``loglik_derivative_oracle(mle)`` must return ``(total_loglik_at_mle,
    {order: array})`` with the derivative arrays of the average negative
    log-likelihood for orders 2..6; ``prior_derivative_oracle(mle)`` returns
    ``(prior_value, {order: array})`` for orders 1..4.
    """
    check_range("n", n, 1, closed=True)
    mle = np.atleast_1d(np.asarray(mle, dtype=np.float64))
    loglik_value, h_derivs = loglik_derivative_oracle(mle)
    prior_value, prior_derivs = prior_derivative_oracle(mle)
    coeffs = TensorCoeffs(dim=len(mle), mle=mle, h_derivs=h_derivs,
                          prior_value=prior_value, prior_derivs=prior_derivs)
    mt = coeffs.moment_table()
    p = coeffs.dim
    sign, logdet = np.linalg.slogdet(coeffs.information)
    log_leading = (0.5 * p * math.log(2.0 * math.pi / n) + loglik_value
                   + math.log(prior_value) - 0.5 * logdet)
    c1 = laplace_c1(coeffs, mt)
    c2 = laplace_c2(coeffs, mt)
    return LaplaceExpansion(
        n=n, log_leading=log_leading, c1=c1, c2=c2,
        bracket_c1=1.0 + c1 / n, bracket_c2=1.0 + c1 / n + c2 / n ** 2)


# ---------------------------------------------------------------------------
# finite differences

# central stencils of O(h^2) accuracy, by derivative order
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
    5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
    6: ((-3, 1.0), (-2, -6.0), (-1, 15.0), (0, -20.0), (1, 15.0), (2, -6.0), (3, 1.0)),
}

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class FiniteDifferenceResult:
    derivs: Mapping[int, np.ndarray]
    errors: Mapping[int, np.ndarray]


def _stencil_eval(fn, point, axis_orders, steps):
    """Tensor-product central stencil for one mixed partial."""
    dim = len(point)
    axes = [a for a in range(dim) if axis_orders[a] > 0]
    value = 0.0
    max_abs_f = 0.0
    offset_lists = [_STENCILS[axis_orders[a]] for a in axes]
    for combo in itertools.product(*offset_lists):
        shifted = np.array(point, dtype=np.float64)
        coef = 1.0
        for a, (offset, weight) in zip(axes, combo):
            shifted[a] += offset * steps[a]
            coef *= weight / steps[a] ** axis_orders[a]
        fv = check_range("the function's value on the stencil", fn(shifted), -math.inf)
        max_abs_f = max(max_abs_f, abs(fv))
        value += coef * fv
    amplification = 1.0
    for a in axes:
        amplification *= sum(abs(w) for _, w in _STENCILS[axis_orders[a]]) / steps[a] ** axis_orders[a]
    return value, max_abs_f * amplification * _EPS


def finite_difference_derivatives(scalar_fn: Callable, point, max_order: int,
                                  dim: Optional[int] = None) -> FiniteDifferenceResult:
    """Central-difference derivative arrays with Richardson extrapolation.

    Supports dim <= 2 and max_order <= 6; beyond that, high-order numerical
    differentiation is noise-dominated and refused. Step sizes follow
    h = eps^(1/(order+2)) scaled by coordinate magnitude; each returned entry
    carries an error estimate combining the extrapolation defect and the
    rounding-noise amplification of the stencil.
    """
    point = np.atleast_1d(np.asarray(point, dtype=np.float64))
    if dim is None:
        dim = len(point)
    if dim != len(point):
        raise InvalidInputError("dim does not match the length of point")
    if dim > 2:
        raise UnsupportedOrderError("finite differences support dim <= 2 only")
    if not 1 <= max_order <= 6:
        raise UnsupportedOrderError("max_order must lie in 1..6")

    scales = np.maximum(np.abs(point), 1.0)
    derivs: dict[int, np.ndarray] = {}
    errors: dict[int, np.ndarray] = {}
    for order in range(1, max_order + 1):
        base_h = _EPS ** (1.0 / (order + 2)) * 4.0
        arr = np.empty((dim,) * order)
        err = np.empty((dim,) * order)
        done: dict[tuple, tuple] = {}
        for idx in itertools.product(range(dim), repeat=order):
            key = tuple(sorted(idx))
            if key not in done:
                axis_orders = [key.count(a) for a in range(dim)]
                estimates = []
                noise = 0.0
                for level in range(3):
                    steps = scales * base_h / 2 ** level
                    v, nz = _stencil_eval(scalar_fn, point, axis_orders, steps)
                    estimates.append(v)
                    noise = max(noise, nz)
                # two Richardson levels: O(h^2) -> O(h^4) -> O(h^6)
                r1 = (4.0 * estimates[1] - estimates[0]) / 3.0
                r2 = (4.0 * estimates[2] - estimates[1]) / 3.0
                r3 = (16.0 * r2 - r1) / 15.0
                err_est = abs(r3 - r2) + abs(r2 - r1) / 15.0 + noise
                done[key] = (r3, err_est)
            arr[idx], err[idx] = done[key]
        derivs[order] = arr
        errors[order] = err
    return FiniteDifferenceResult(derivs=derivs, errors=errors)
