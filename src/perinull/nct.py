"""Log density of the noncentral t distribution, by one trapezoid rule.

With u = sqrt(V / nu), V ~ chi2(nu), f(x) = int u phi(x u - ncp) p_U(u) du. In
y = log u its log integrand is L(y) = C + (nu + 1) y - nu expm1(2y) / 2 -
(|x| e^y - sgn(x) ncp)^2 / 2, C = log 2 + log(nu / 2) / 2 - log(2 pi) - R(nu / 2)
with R the Stirling remainder of lgamma: nothing large cancels, f(x, ncp) =
f(-x, -ncp) to the bit, and L is analytic, so a fixed-step trapezoid rule
converges exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014). At
x ncp == 0 the density is the central t times exp(-ncp^2 / 2), exactly.

The mode w* = e^y* solves (nu + x^2) w^2 - x ncp w = nu + 1; sd = (-L''(y*))^-1/2.
L is concave right of the mode, so the tail past y* + 10 sd is at most
exp(L) / |L'| there. Left of it L' is concave in w, so below an edge y_e it
exceeds m = min(nu + 1, L'(y_e)) and the tail is at most exp(L(y_e)) / m; the
edge starts at y* - 10 sd and, while L there is under 60 nats below the mode,
moves out by the missing nats over L'(y_e), then over m. The step is sd / 4,
at most 1/16 (e^2y stops decaying pi / 4 off the real axis). The bound, the
h-vs-2h gap plus both tails, is below 1e-13 for nu in [0.05, 1e5] and |x|,
|ncp| <= 300; above 1e-8 (the default rel_tol), or with no finite window, the
call raises QuadratureConvergenceError. Against 40-digit mpmath the relative
error is 2e-15 at (0.3, 1e4 or 1e5, -0.1) (about sqrt(nu) ulps, from s - e
below) and 2e-16 at (1, 1, -300), (300, 1, -300) and (-120, 1e5, 250)."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, QuadratureConvergenceError, check_range

__all__ = ["noncentral_t_logpdf", "central_t_logpdf"]

# window half-width and step in sd at the mode, largest step, left drop (nats)
_HALF_WIDTH, _STEP, _STEP_MAX, _LEFT_DROP = 10.0, 0.25, 0.0625, 60.0
# elements of a block's (points, nodes) arrays; its points share one node count
_BLOCK = 2 ** 14
_MAX_BOUND = 1e-8  # the default QuadratureConfig.rel_tol


def _log_trapezoid(log_f, h):
    """log of the step-h trapezoid sum of exp(log_f) over its last (odd)
    axis, whose ends are negligible, and its relative gap to the 2h sum."""
    m = log_f.max(axis=-1, keepdims=True)
    scaled = np.exp(log_f - m)
    fine = scaled.sum(axis=-1) * h
    coarse = scaled[..., ::2].sum(axis=-1) * (2.0 * h)
    return m[..., 0] + np.log(fine), np.abs(fine - coarse) / fine


def _log_gamma_half_ratio(z: float) -> float:
    """log Gamma(z + 1/2) - log Gamma(z) for z > 0; from z = 30 on by an
    asymptotic series (error below 1e-16), as the lgamma difference loses 1e-11."""
    if z < 30.0:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    return (0.5 * math.log(z) - 1.0 / (8.0 * z) + 1.0 / (192.0 * z ** 3)
            - 1.0 / (640.0 * z ** 5) + 17.0 / (14336.0 * z ** 7))


def _stirling_remainder(a: float) -> float:
    """lgamma(a) - (a - 1/2) log a + a - log(2 pi) / 2; from a = 10 on by its
    series sum of B_2k / (2k (2k - 1) a^(2k - 1)), k <= 6 (error below 7e-16)."""
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    return sum(c / a ** (2 * k + 1) for k, c in
               enumerate((1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)))


def central_t_logpdf(x, nu: float):
    """Log density of the central Student t with nu degrees of freedom; a
    scalar ``x`` must be finite."""
    check_range("nu", nu)
    if isinstance(x, (int, float)):
        check_range("x", x, -math.inf)
    out = (_log_gamma_half_ratio(0.5 * nu) - 0.5 * math.log(nu * math.pi)
           - 0.5 * (nu + 1.0) * np.log1p(np.square(x) / nu))
    return out if np.ndim(out) else float(out)


def _log_mixture(ax, mu, nu):
    """log f and its bound for |x| = ax > 0 and mu = sgn(x) ncp != 0, over
    s = y - y*. With e = expm1(s) and k = (nu + x^2) w*^2, the mode equation
    makes L(y* + s) - L(y*) = (nu + 1)(s - e) - k e^2 / 2, O(1) over the window
    however large mu^2 / 2 is; L' = -e (nu + 1 + k (1 + e)), sd^-2 = nu + 1 + k.
    """
    p, a2 = ax * mu, nu + ax * ax
    root = np.sqrt(p * p + 4.0 * a2 * (nu + 1.0))
    w = np.where(p >= 0.0, (p + root) / (2.0 * a2), 2.0 * (nu + 1.0) / (root - p))
    mode, q, k = np.log(w), ax * w - mu, a2 * w * w

    def log_f(s, k=k):
        e = np.expm1(s)
        return (nu + 1.0) * (s - e) - 0.5 * k * e * e

    def slope(s):
        e = np.expm1(s)
        return -e * ((nu + 1.0) + k * (e + 1.0))

    sd = 1.0 / np.sqrt(k + (nu + 1.0))
    right, left = _HALF_WIDTH * sd, -_HALF_WIDTH * sd
    for floor in (math.inf, nu + 1.0):
        left -= np.maximum(_LEFT_DROP + log_f(left), 0.0) / np.minimum(floor, slope(left))
    half_nodes = np.ceil((right - left) / (2.0 * np.minimum(_STEP * sd, _STEP_MAX)))
    fits = half_nodes < _BLOCK // 2  # else no finite window or too many nodes: bound inf
    half_nodes = np.where(fits, half_nodes, 1.0).astype(int)
    block = max(1, _BLOCK // (2 * int(half_nodes.max()) + 1))
    value, gap = np.empty_like(sd), np.empty_like(sd)
    for start in range(0, sd.size, block):
        b = slice(start, start + block)
        nodes = 2 * int(half_nodes[b].max()) + 1
        h = (right[b] - left[b]) / (nodes - 1)
        grid = left[b, None] + h[:, None] * np.arange(nodes)
        value[b], gap[b] = _log_trapezoid(log_f(grid, k[b, None]), h)
    tails = (np.exp(log_f(left) - value) / np.minimum(nu + 1.0, slope(left))
             - np.exp(log_f(right) - value) / slope(right))
    c = (math.log(2.0) + 0.5 * math.log(0.5 * nu) - math.log(2.0 * math.pi)
         - _stirling_remainder(0.5 * nu))
    at_mode = c + (nu + 1.0) * mode - 0.5 * nu * np.expm1(2.0 * mode) - 0.5 * q * q
    value += at_mode  # not finite where x or ncp is not: no finite window there either
    return value, np.where(fits & np.isfinite(value), gap + tails, np.inf)


def noncentral_t_logpdf(x, nu: float, ncp):
    """Natural log of the noncentral t density at ``x`` (float or array) with
    ``nu`` > 0 degrees of freedom (a scalar) and noncentrality ``ncp``,
    broadcast against ``x``. Returns a float for scalar inputs, an ndarray
    otherwise; raises :class:`QuadratureConvergenceError` when a point's bound
    exceeds 1e-8."""
    if not np.isscalar(nu) and np.ndim(nu) != 0:
        raise InvalidInputError("nu must be a scalar")
    nu = check_range("nu", float(nu))
    x_b, ncp_b = np.broadcast_arrays(np.asarray(x, np.float64), np.asarray(ncp, np.float64))
    x, ncp = x_b.ravel(), ncp_b.ravel()
    out = central_t_logpdf(x, nu) - 0.5 * ncp * ncp
    i = np.flatnonzero(x * ncp != 0.0)
    if i.size:
        value, bound = _log_mixture(np.abs(x[i]), np.sign(x[i]) * ncp[i], nu)
        bad = np.flatnonzero(~(bound <= _MAX_BOUND))
        if bad.size:
            j = bad[0]
            raise QuadratureConvergenceError(
                f"nct rule bound {bound[j]:.3g} exceeds {_MAX_BOUND:.3g} at x = "
                f"{x[i[j]]:.6g}, nu = {nu:.6g}, ncp = {ncp[i[j]]:.6g}",
                estimate=float(value[j]), error_bound=float(bound[j]))
        out[i] = value
    out = out.reshape(x_b.shape)
    return out if out.ndim else float(out)
