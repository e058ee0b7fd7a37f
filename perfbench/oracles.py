"""Independent oracles for the values the benchmark checks.

Nothing here imports ``perinull.engine`` or ``perinull.nct``. Every marginal
comes from the normal scale-mixture form of the t-statistic likelihood:

    T = (Z + c * delta) / U,   Z ~ N(0, 1),  U = sqrt(V / nu),  V ~ chi2(nu),

with c = sqrt(n_eff). A N(0, g) prior on delta turns t into a scaled central
t (scale s = sqrt(1 + c^2 g)), so

* the point null (g = 0) is the central t density;
* the peri-null N(0, k0^2) is a scaled central t (Goenen et al. 2005);
* the Cauchy(0, k) prior, a N(0, g) mixture with g ~ InvGamma(1/2, k^2/2),
  is a one-dimensional integral over log g (the JZS form of Rouder et al.
  2009), done by the trapezoid rule, which converges exponentially for this
  smooth integrand; the h-vs-2h difference is returned as the error;
* a Cauchy truncated to |delta| <= a or |delta| > a keeps the mixture over
  g, adds the integral over u, and integrates delta out in closed form as a
  normal-CDF difference: a two-dimensional trapezoid grid in (log g, log u),
  in log space throughout.

Each function returns ``(log_marginal, relative_error_estimate)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

LOG_2PI = math.log(2.0 * math.pi)


def log_gamma_half_ratio(z):
    """log Gamma(z + 1/2) - log Gamma(z), accurate for every z > 0.

    For z >= 30 an asymptotic series (truncation error below 1e-16) avoids
    the cancellation between two gammaln values of size z log z.
    """
    z = np.asarray(z, dtype=np.float64)
    big = z >= 30.0
    zb = np.where(big, z, 30.0)
    series = (0.5 * np.log(zb) - 1.0 / (8.0 * zb) + 1.0 / (192.0 * zb ** 3)
              - 1.0 / (640.0 * zb ** 5) + 17.0 / (14336.0 * zb ** 7))
    zs = np.where(big, 1.0, z)
    direct = special.gammaln(zs + 0.5) - special.gammaln(zs)
    out = np.where(big, series, direct)
    return out if out.ndim else float(out)


def _stirling_gap(z):
    """z (log z - 1) - log Gamma(z), with a series for z >= 30."""
    z = np.asarray(z, dtype=np.float64)
    big = z >= 30.0
    zb = np.where(big, z, 30.0)
    series = (0.5 * np.log(zb) - 0.5 * LOG_2PI - 1.0 / (12.0 * zb)
              + 1.0 / (360.0 * zb ** 3) - 1.0 / (1260.0 * zb ** 5)
              + 1.0 / (1680.0 * zb ** 7))
    zs = np.where(big, 1.0, z)
    direct = zs * (np.log(zs) - 1.0) - special.gammaln(zs)
    return np.where(big, series, direct)


def central_t_logpdf(x, nu):
    """Log density of Student t with nu degrees of freedom (x, nu broadcast)."""
    x = np.asarray(x, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    return (log_gamma_half_ratio(0.5 * nu) - 0.5 * np.log(nu * math.pi)
            - 0.5 * (nu + 1.0) * np.log1p(x * x / nu))


def point_logml(t, nu, n_eff):
    """Point null: the central t density of the observed t."""
    return float(central_t_logpdf(t, nu)), 0.0


def peri_logml(t, nu, n_eff, kappa0):
    """Peri-null N(0, kappa0^2): t / s is central t with s = sqrt(1 + n_eff kappa0^2)."""
    log_s = 0.5 * math.log1p(n_eff * kappa0 * kappa0)
    return float(central_t_logpdf(t * math.exp(-log_s), nu)) - log_s, 0.0


def _trapezoid_log(log_vals, h, axis=-1):
    """log of the trapezoid sums with steps h and 2h, plus their relative gap.

    The integrand is negligible at both ends of the grid, so the end weights
    do not matter and plain sums are used. The grid must have an odd length.
    """
    m = np.max(log_vals, axis=axis, keepdims=True)
    scaled = np.exp(log_vals - m)
    fine = np.sum(scaled, axis=axis) * h
    coarse = np.sum(np.take(scaled, np.arange(0, scaled.shape[axis], 2), axis=axis),
                    axis=axis) * 2.0 * h
    m = np.squeeze(m, axis=axis)
    return m + np.log(fine), np.abs(fine - coarse) / fine


def cauchy_logml(t, nu, n_eff, kappa1, h=0.02):
    """Cauchy(0, kappa1) marginal via the JZS integral over x = log g.

    Vectorized over cells: t, nu and n_eff may be arrays of one shape.
    The grid runs from where the InvGamma prior has died off (its density
    carries exp(-k^2 / 2g)) to far past the likelihood scale g ~ t^2/n,
    beyond which the integrand decays like 1/g.
    """
    t, nu, n_eff = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64)
                                         for v in (t, nu, n_eff)))
    k2 = kappa1 * kappa1
    lo = math.log(k2) - 6.0
    hi = np.maximum(math.log(k2), np.log((t * t + 1.0) / n_eff)).max() + 50.0
    steps = int(math.ceil((hi - lo) / (2.0 * h))) * 2
    x = lo + h * np.arange(steps + 1)
    shape = t.shape + (1,)
    tt, vv, nn = (a.reshape(shape) for a in (t, nu, n_eff))
    log_s = 0.5 * np.log1p(nn * np.exp(x))
    log_vals = (math.log(kappa1) - 0.5 * LOG_2PI - 0.5 * x - 0.5 * k2 * np.exp(-x)
                - log_s + central_t_logpdf(tt * np.exp(-log_s), vv))
    value, err = _trapezoid_log(log_vals, h)
    if value.ndim == 0:
        return float(value), float(err)
    return value, err


def _log_ndtr_diff(lo, hi):
    """log(Phi(hi) - Phi(lo)) for hi > lo, stable in both tails."""
    upper = lo > 0.0
    a = np.where(upper, special.log_ndtr(-lo), special.log_ndtr(hi))
    b = np.where(upper, special.log_ndtr(-hi), special.log_ndtr(lo))
    return a + np.log1p(-np.exp(b - a))


def _truncated_log_integrand(xg, xu, t, nu, n_eff, kappa, a, inside):
    g, u = np.exp(xg), np.exp(xu)
    c2g = n_eff * g
    one_c2g = 1.0 + c2g
    # log[p(g) g]: InvGamma(1/2, k^2/2) density times the log-g Jacobian
    log_prior = math.log(kappa) - 0.5 * LOG_2PI - 0.5 * xg - 0.5 * kappa * kappa / g
    # log[u^2 q(u)]: q the density of sqrt(V/nu); one u from the likelihood
    # of t given u, one from the log-u Jacobian
    log_u = (math.log(2.0) + float(_stirling_gap(0.5 * nu)) + (nu + 1.0) * xu
             - 0.5 * nu * np.expm1(2.0 * xu))
    log_lik = -0.5 * (LOG_2PI + np.log(one_c2g)) - 0.5 * (t * u) ** 2 / one_c2g
    m = math.sqrt(n_eff) * g * t * u / one_c2g
    sd = np.sqrt(g / one_c2g)
    if inside:
        log_mass = _log_ndtr_diff((-a - m) / sd, (a - m) / sd)
    else:
        log_mass = np.logaddexp(special.log_ndtr((-a - m) / sd),
                                special.log_ndtr((m - a) / sd))
    return log_prior + log_u + log_lik + log_mass


def truncated_cauchy_logml(t, nu, n_eff, kappa, a, inside, tol=1e-11):
    """Marginal under Cauchy(0, kappa) restricted to |delta| <= a (or > a).

    A coarse grid over a wide (log g, log u) box locates the region where
    the log integrand lies within 50 nats of its peak; a fine grid over that
    region is then refined until the h-vs-2h gap is below ``tol``.
    """
    k2 = kappa * kappa
    sd_u = 1.0 / math.sqrt(2.0 * nu + 2.0)
    g_box = (math.log(k2) - 8.0, max(math.log(k2), math.log((t * t + 1.0) / n_eff)) + 50.0)
    u_box = (0.5 * math.log((nu + 1.0) / (nu + t * t)) - 14.0 * sd_u - 60.0 / (nu + 1.0),
             14.0 * sd_u + 4.0 / (nu + 1.0))

    def evaluate(g_lo, g_hi, u_lo, u_hi, nodes):
        xg = np.linspace(g_lo, g_hi, nodes)
        xu = np.linspace(u_lo, u_hi, nodes)
        vals = _truncated_log_integrand(xg[:, None], xu[None, :], t, nu, n_eff,
                                        kappa, a, inside)
        return xg, xu, vals

    box = [*g_box, *u_box]
    for _ in range(12):
        xg, xu, vals = evaluate(*box, 241)
        peak = float(np.max(vals))
        if not math.isfinite(peak):
            raise ArithmeticError("truncated-Cauchy oracle integrand underflows")
        # widen every side of the box on which the integrand is still large
        edges = (vals[0].max(), vals[-1].max(), vals[:, 0].max(), vals[:, -1].max())
        open_sides = [e > peak - 50.0 for e in edges]
        if not any(open_sides):
            break
        g_width, u_width = box[1] - box[0], box[3] - box[2]
        for side, widen in enumerate(open_sides):
            if widen:
                step = g_width if side < 2 else u_width
                box[side] += step if side % 2 else -step
    else:
        raise ArithmeticError("truncated-Cauchy oracle could not bound the integrand")
    keep = np.argwhere(vals > peak - 50.0)
    i0, j0 = keep.min(axis=0)
    i1, j1 = keep.max(axis=0)
    dg, du = xg[1] - xg[0], xu[1] - xu[0]
    region = (xg[max(i0 - 2, 0)], xg[min(i1 + 2, len(xg) - 1)],
              xu[max(j0 - 2, 0)], xu[min(j1 + 2, len(xu) - 1)])
    for nodes in (257, 513, 1025):
        xg, xu, vals = evaluate(*region, nodes)
        hg, hu = xg[1] - xg[0], xu[1] - xu[0]
        inner, inner_err = _trapezoid_log(vals, hu, axis=1)
        value, err = _trapezoid_log(inner + math.log(hg), 1.0)
        # the inner (u) gaps, weighted by each row's share of the total
        err = float(err + np.sum(np.exp(inner + math.log(hg) - value) * inner_err))
        edge = max(vals[0].max(), vals[-1].max(), vals[:, 0].max(), vals[:, -1].max())
        if err < tol and edge < float(np.max(vals)) - 30.0:
            break
    else:
        raise ArithmeticError(f"truncated-Cauchy oracle did not converge (gap {err:.2e})")
    if inside:
        log_prior_mass = math.log(2.0 / math.pi * math.atan(a / kappa))
    else:
        log_prior_mass = math.log(2.0 / math.pi * math.atan(kappa / a))
    return float(value) - log_prior_mass, err


# ---------------------------------------------------------------------------
# Bayes factors, variant by variant, from the marginals above


def bf_oracle(variant, t, nu, n_eff, n_total, params):
    """Independent log BF (and decomposition parts) for one study.

    Returns a dict with ``log_bf`` and, for the peri-null variants,
    ``point_null_log_bf`` and ``correction_log_bf``, plus ``err``: the
    largest relative oracle error estimate (a log-scale error bound).
    """
    k1 = params["kappa1"]
    if variant == "interval":
        lm_out, e_out = truncated_cauchy_logml(t, nu, n_eff, k1, params["a"], False)
        lm_in, e_in = truncated_cauchy_logml(t, nu, n_eff, k1, params["a"], True)
        return {"log_bf": lm_out - lm_in, "err": e_out + e_in}
    lm1, e1 = cauchy_logml(t, nu, n_eff, k1)
    lm0, _ = point_logml(t, nu, n_eff)
    if variant == "point":
        return {"log_bf": lm1 - lm0, "err": e1}
    if variant == "peripoint":
        lmp, _ = peri_logml(t, nu, n_eff, params["kappa0"])
        xi = params["xi"]
        mix = float(np.logaddexp(math.log(xi) + lm0, math.log1p(-xi) + lmp))
        return {"log_bf": lm1 - mix, "err": e1}
    kappa0 = params["kappa0"] if variant == "peri" else params["c"] / math.sqrt(n_total)
    lmp, _ = peri_logml(t, nu, n_eff, kappa0)
    return {"log_bf": lm1 - lmp, "point_null_log_bf": lm1 - lm0,
            "correction_log_bf": lm0 - lmp, "err": e1}


def sim_cell_log_bfs(t, n, kappa0, kappa1):
    """Point and peri log BFs for one-sample cells (arrays of t and n)."""
    t = np.asarray(t, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    nu = n - 1.0
    lm1, err = cauchy_logml(t, nu, n, kappa1)
    lm0 = central_t_logpdf(t, nu)
    log_s = 0.5 * np.log1p(n * kappa0 * kappa0)
    lmp = central_t_logpdf(t * np.exp(-log_s), nu) - log_s
    return {"point": lm1 - lm0, "peri": lm1 - lmp}, err


# ---------------------------------------------------------------------------
# Laplace expansion: closed forms independent of perinull.isserlis


def ttest_c1(kind, mu, sigma, kappa0, kappa1):
    """Published closed-form C1 of the t-test peri-null and alternative."""
    m2, s2 = mu * mu, sigma * sigma
    if kind == "alt":
        k1sq = kappa1 * kappa1
        q1 = m2 + k1sq * s2
        return (13.0 * m2 * m2 + (18.0 + 2.0 * k1sq) * s2 * m2
                + (k1sq - 6.0) * k1sq * s2 * s2) / (6.0 * q1 * q1)
    k0sq = kappa0 * kappa0
    return (3.0 * m2 * m2 + 6.0 * s2 * m2 + k0sq * s2 * s2 * (2.0 * k0sq - 6.0)) / (
        12.0 * k0sq * k0sq * s2 * s2)


def gaussian_moment_tensors(cov, max_order=12):
    """Dense moments E[Q_i1 ... Q_iw] of N(0, cov) by the Isserlis recursion.

    M(w) = sum over the other w-1 axes j of cov[axis0, axis j] times M(w-2)
    on the remaining axes: built with outer products and transposes, with no
    pair-partition enumeration.
    """
    cov = np.asarray(cov, dtype=np.float64)
    out = {0: np.ones(())}
    for w in range(2, max_order + 1, 2):
        prev = out[w - 2]
        total = np.zeros((cov.shape[0],) * w)
        for j in range(1, w):
            # axes (0, j) carry cov; the others carry prev in order
            term = np.multiply.outer(cov, prev)  # axes: 0, j, rest...
            order = [0, j] + [k for k in range(1, w) if k != j]
            total += np.transpose(term, np.argsort(order))
        out[w] = total
    return out


def laplace_coefficients(h, p, pihat, cov):
    """C1 and C2 from derivative arrays h[k], p[k] and covariance I^{-1}."""
    s = gaussian_moment_tensors(cov)

    def es(*ops):
        return float(np.einsum(*ops, optimize=True))

    c1 = (es("ab,ab->", p[2], s[2]) / (2.0 * pihat)
          - es("abcd,abcd->", h[4], s[4]) / 24.0
          - es("abc,d,abcd->", h[3], p[1], s[4]) / (6.0 * pihat)
          + es("abc,def,abcdef->", h[3], h[3], s[6]) / 72.0)
    c2 = (es("abcd,abcd->", p[4], s[4]) / (24.0 * pihat)
          - (es("abcdef,abcdef->", h[6], s[6])
             + 6.0 * es("abcde,f,abcdef->", h[5], p[1], s[6]) / pihat
             + 15.0 * es("abcd,ef,abcdef->", h[4], p[2], s[6]) / pihat
             + 20.0 * es("abc,def,abcdef->", h[3], p[3], s[6]) / pihat) / 720.0
          + (5.0 * es("abcd,efgh,abcdefgh->", h[4], h[4], s[8])
             + 8.0 * es("abcde,fgh,abcdefgh->", h[5], h[3], s[8])
             + 40.0 * es("abc,defg,h,abcdefgh->", h[3], h[4], p[1], s[8]) / pihat
             + 40.0 * es("abc,def,gh,abcdefgh->", h[3], h[3], p[2], s[8]) / pihat) / 5760.0
          - (3.0 * es("abcd,efg,hij,abcdefghij->", h[4], h[3], h[3], s[10])
             + 4.0 * es("abc,def,ghi,j,abcdefghij->", h[3], h[3], h[3], p[1], s[10])
             / pihat) / 5184.0
          + es("abc,def,ghi,jkl,abcdefghijkl->", h[3], h[3], h[3], h[3], s[12]) / 31104.0)
    return c1, c2
