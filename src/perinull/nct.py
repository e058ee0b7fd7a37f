"""Log density of the noncentral t distribution, computed in log space.

The density is evaluated from its standard series / integral representations.
Writing b = x*ncp/sqrt(nu + x^2) and z = b*sqrt(2), the density factors as

    f(x; nu, ncp) = f_central(x; nu) * exp(-ncp^2/2) * S(z) / Gamma((nu+1)/2),
    S(z) = sum_j Gamma((nu+j+1)/2) / j! * z^j,

which follows from integrating the scale mixture
f(x; nu, ncp) = int_0^inf u * phi(x*u - ncp) * chi_nu(u) du term by term.

For z >= 0 the series has positive terms and is summed in log space with a
coefficient chain built from exact one-step Gamma recursions.
For z < 0 the series alternates with catastrophic cancellation, so the exact
integral G_nu(b) = int_0^inf w^nu exp(-w^2/2 + b*w) dw is integrated instead
(substituted, windowed by bisection on the log integrand, and covered with
composite Gauss-Legendre panels; see :func:`_log_g_ratio`); the same route is
used for very large positive z where the series would need millions of terms.
Scalar and array arguments take the same vectorized path.

Accuracy: 12+ significant digits of the log density across |ncp| <= 300 and
nu <= 1e5, degrading to ~10 digits only in the extreme joint corner
|x * ncp| >~ 1e4 with small nu (series length ~1e5, where rounding in the
chain accumulates).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import InvalidInputError

__all__ = ["noncentral_t_logpdf", "central_t_logpdf"]

# series is used for 0 <= z <= _Z_SERIES_MAX, quadrature otherwise
_Z_SERIES_MAX = 30.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)
# integration window: where the log integrand has dropped this far below its
# peak; the integrand is log-concave so the truncated tails are bounded by
# exp(-_LOG_DROP) times the peak width
_LOG_DROP = 60.0

def _chains(nu: float, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-coefficient chains for the series, z factored out.

    With s_j = Gamma((nu+j+1)/2) / (Gamma((nu+1)/2) j!):
      even[k] = log(s_{2k}) - 2k log z
      odd[k]  = log(s_{2k+1} / s_1) - 2k log z
    built from the exact ratios s_{j+2}/s_j = ((nu+j+1)/2) z^2 / ((j+1)(j+2)).
    """
    i = np.arange(pairs - 1, dtype=np.float64)
    even_steps = np.log(0.5 * (nu + 2 * i + 1.0)) - np.log(2 * i + 1.0) - np.log(2 * i + 2.0)
    odd_steps = np.log(0.5 * (nu + 2 * i + 2.0)) - np.log(2 * i + 2.0) - np.log(2 * i + 3.0)
    return (np.concatenate(([0.0], np.cumsum(even_steps))),
            np.concatenate(([0.0], np.cumsum(odd_steps))))


def _log_gamma_half_ratio(z: float) -> float:
    """log Gamma(z + 1/2) - log Gamma(z) for z > 0.

    From z = 30 on, an asymptotic series (truncation error below 1e-16)
    replaces the difference of two log-gammas of size z log z, which loses
    up to 1e-11 there.
    """
    if z < 30.0:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    return (0.5 * math.log(z) - 1.0 / (8.0 * z) + 1.0 / (192.0 * z ** 3)
            - 1.0 / (640.0 * z ** 5) + 17.0 / (14336.0 * z ** 7))


def central_t_logpdf(x, nu: float):
    """Log density of the central Student t with nu degrees of freedom."""
    if nu <= 0:
        raise InvalidInputError("nu must be positive")
    out = (_log_gamma_half_ratio(0.5 * nu) - 0.5 * math.log(nu * math.pi)
           - 0.5 * (nu + 1.0) * np.log1p(np.square(x) / nu))
    return out if np.ndim(out) else float(out)


def _series_pair_count(z: float, nu: float) -> int:
    jstar = 0.25 * (z * z + z * math.sqrt(z * z + 8.0 * nu))
    return int(0.5 * jstar + 25.0 * math.sqrt(0.25 * jstar + 4.0) + 40)


# panel edges as fractions of [left, peak] and [peak, right]
_PANEL_FRACTIONS_LEFT = (0.0, 0.5, 0.85, 1.0)
_PANEL_FRACTIONS_RIGHT = (0.15, 0.5, 1.0)


def _log_g_ratio(nu: float, b: np.ndarray) -> np.ndarray:
    """log[G_nu(b) / G_nu(0)] with G_nu(b) = int_0^inf w^nu exp(-w^2/2 + b w) dw.

    Substituting w = v^2 removes the w^nu cusp at the origin (the exponent
    becomes 2 nu + 1), then composite Gauss-Legendre panels cover a window
    found by bisection on the log integrand, whose decay length can far
    exceed the peak width for gamma-like shapes.
    G_nu(0) = 2^((nu-1)/2) Gamma((nu+1)/2).
    """
    m = 2.0 * nu + 1.0
    vstar = np.sqrt(0.5 * (b + np.sqrt(b * b + 2.0 * m)))

    def g_of(v):
        return m * np.log(v) - 0.5 * v ** 4 + b * v * v

    gmax = g_of(vstar)
    target = gmax - _LOG_DROP
    width = 1.0 / np.sqrt(m / (vstar * vstar) + 4.0 * vstar * vstar)
    hi = vstar + width
    for _ in range(200):
        open_mask = g_of(hi) > target
        if not open_mask.any():
            break
        hi = np.where(open_mask, vstar + 2.0 * (hi - vstar), hi)
    lo_br, hi_br = vstar.copy(), hi
    for _ in range(40):
        midp = 0.5 * (lo_br + hi_br)
        above = g_of(midp) > target
        lo_br = np.where(above, midp, lo_br)
        hi_br = np.where(above, hi_br, midp)
    right = hi_br
    lo_br, hi_br = vstar * 1e-280, vstar.copy()
    for _ in range(120):
        midp = 0.5 * (lo_br + hi_br)
        below = g_of(midp) <= target
        lo_br = np.where(below, midp, lo_br)
        hi_br = np.where(below, hi_br, midp)
    left = lo_br

    edges = [left + f * (vstar - left) for f in _PANEL_FRACTIONS_LEFT]
    edges += [vstar + f * (right - vstar) for f in _PANEL_FRACTIONS_RIGHT]
    integral = np.zeros_like(vstar)
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi_e + lo_e), 0.5 * (hi_e - lo_e)
        v = mid[..., None] + half[..., None] * _GL_NODES
        vals = np.exp(m * np.log(v) - 0.5 * v ** 4 + b[..., None] * v * v
                      - gmax[..., None])
        integral = integral + half * (vals * _GL_WEIGHTS).sum(axis=-1)
    log_g = math.log(2.0) + gmax + np.log(integral)
    log_g0 = 0.5 * (nu - 1.0) * math.log(2.0) + special.gammaln(0.5 * (nu + 1.0))
    return log_g - log_g0


def _logpdf_vector(x: np.ndarray, nu: float, ncp: np.ndarray) -> np.ndarray:
    out = central_t_logpdf(x, nu) - 0.5 * ncp * ncp
    r = np.sqrt(nu + x * x)
    z = x * ncp * np.sqrt(2.0) / r

    series_mask = (z > 0.0) & (z <= _Z_SERIES_MAX)
    if series_mask.any():
        zs = z[series_mask]
        kmax = _series_pair_count(float(zs.max()), nu)
        even, odd = _chains(nu, kmax)
        log_poch = _log_gamma_half_ratio(0.5 * (nu + 1.0))
        results = np.empty(zs.shape)
        # chunked so the (chunk, kmax) term matrices stay small
        for start in range(0, len(zs), 4096):
            logz = np.log(zs[start:start + 4096])[:, None]
            ks = 2.0 * np.arange(kmax) * logz
            le = even + ks
            lo = odd + ks + (log_poch + logz)
            m = np.maximum(le.max(axis=1), lo.max(axis=1))
            total = (np.exp(le - m[:, None]).sum(axis=1)
                     + np.exp(lo - m[:, None]).sum(axis=1))
            results[start:start + 4096] = m + np.log(total)
        out[series_mask] += results

    quad_mask = (z != 0.0) & ~series_mask
    if quad_mask.any():
        out[quad_mask] += _log_g_ratio(nu, (x * ncp / r)[quad_mask])
    return out


def noncentral_t_logpdf(x, nu: float, ncp):
    """Natural log of the noncentral t density.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s).
    nu : float
        Degrees of freedom, > 0 (scalar; shared across vectorized calls).
    ncp : float or array_like
        Noncentrality parameter(s), broadcast against ``x``.

    Returns a float for scalar inputs, an ndarray otherwise. The density is
    strictly positive on the reals, so the result is always finite apart from
    log-underflow of astronomically small densities.
    """
    if not np.isscalar(nu) and np.ndim(nu) != 0:
        raise InvalidInputError("nu must be a scalar")
    nu = float(nu)
    if not math.isfinite(nu) or nu <= 0:
        raise InvalidInputError("nu must be positive and finite")
    x_b, ncp_b = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                     np.asarray(ncp, dtype=np.float64))
    out = _logpdf_vector(x_b.ravel(), nu, ncp_b.ravel()).reshape(x_b.shape)
    return out if out.ndim else float(out)
