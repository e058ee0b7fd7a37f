"""The four benchmark workloads: seeded inputs, the timed op, its oracle check.

Each workload is a closed loop with one caller: the next op starts only when
the previous one has returned. A run repeats *rounds*, each the workload's
fixed unit of work drawn afresh from ``(seed, round)``, until ``--seconds``
of timed work have been done. The package only ever sees generated inputs.

Failure kinds, counted per op:

* ``perinull_error``  -- the call raised a ``PeriNullError``;
* ``other_exception`` -- it raised anything else;
* ``nonfinite_bound`` -- it returned a NaN or infinite value or error bound;
* ``wrong_value``     -- it missed the independent oracle;
* ``cli_exit``        -- a ``perinull`` process exited non-zero or printed a
  traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

import oracles

# log-marginal agreement demanded of the package, on top of the oracle's own
# error estimate: an absolute floor plus a relative share of the value
ABS_TOL = 1e-6
REL_TOL = 1e-9

VARIANTS = ("point", "peri", "interval", "peripoint", "shrinking")
DESIGNS = ("one-sample", "two-sample-t", "two-sample-summary")
DELTAS = (0.0, 0.02, 0.1, 0.3)
KAPPA1 = (0.7071, 1.0, 1.4142)
INTERVAL_A = (0.1, 0.5)
BF_PARAMS = {"kappa0": 0.05, "xi": 0.5, "c": 1.0}


class OpFailure(Exception):
    """An op's output failed a check; ``kind`` is one of the failure kinds."""

    def __init__(self, kind, detail):
        super().__init__(detail)
        self.kind = kind
        self.detail = detail


def rng_for(seed, *keys):
    """A counter-based stream keyed by the benchmark seed and a tuple of keys."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,) + keys)))


def check_close(name, value, expected, err=0.0):
    if value is None or not math.isfinite(value):
        raise OpFailure("nonfinite_bound", f"{name} = {value}")
    if not abs(value - expected) <= ABS_TOL + REL_TOL * abs(expected) + err:
        raise OpFailure("wrong_value", f"{name} = {value!r}, oracle {expected!r}")


def classify_exception(exc, pn):
    return "perinull_error" if isinstance(exc, pn.PeriNullError) else "other_exception"


# ---------------------------------------------------------------------------
# bf_studies


def draw_t(rng, n_eff, nu, delta):
    """One t statistic from its sampling distribution at true effect delta."""
    return float((rng.standard_normal() + math.sqrt(n_eff) * delta)
                 / math.sqrt(rng.chisquare(nu) / nu))


def draw_study(rng, variant, design, delta, log_n_lo, log_n_hi, stratum, strata):
    """A single published-study input for one BF variant."""
    u = (stratum + rng.uniform()) / strata
    n_total = int(round(math.exp(log_n_lo + u * (log_n_hi - log_n_lo))))
    study = {"variant": variant, "design": design, "delta": delta,
             "kappa1": KAPPA1[int(rng.integers(len(KAPPA1)))],
             "a": INTERVAL_A[int(rng.integers(len(INTERVAL_A)))], **BF_PARAMS}
    if design == "one-sample":
        study.update(n=n_total, t=draw_t(rng, n_total, n_total - 1.0, delta))
        return study
    n1 = min(max(2, int(round(n_total * rng.uniform(0.35, 0.65)))), n_total - 2)
    n2 = n_total - n1
    if design == "two-sample-t":
        study.update(n1=n1, n2=n2, t=draw_t(rng, n1 * n2 / n_total, n_total - 2.0, delta))
        return study
    base, scale = 10.0, 2.0
    groups = []
    for n_i, shift in ((n1, delta), (n2, 0.0)):
        mean = base + scale * (shift + rng.standard_normal() / math.sqrt(n_i))
        sd = scale * math.sqrt(rng.chisquare(n_i - 1) / (n_i - 1))
        groups += [mean, sd, n_i]
    study["summary"] = groups
    return study


def study_stats(pn, study):
    """The package's SummaryStats for a study, built as a script would."""
    if study["design"] == "one-sample":
        return pn.ingest_one_sample(study["t"], study["n"])
    if study["design"] == "two-sample-t":
        n1, n2 = study["n1"], study["n2"]
        return pn.SummaryStats(t=study["t"], nu=float(n1 + n2 - 2), n_eff=n1 * n2 / (n1 + n2),
                               design=pn.Design.TWO_SAMPLE, n_total=n1 + n2)
    return pn.ingest_two_sample(*study["summary"])


def expected_stats(study):
    """(t, nu, n_eff, n_total) recomputed by the benchmark itself."""
    if study["design"] == "one-sample":
        n = study["n"]
        return study["t"], n - 1.0, float(n), n
    if study["design"] == "two-sample-t":
        n1, n2 = study["n1"], study["n2"]
        return study["t"], n1 + n2 - 2.0, n1 * n2 / (n1 + n2), n1 + n2
    m1, sd1, n1, m2, sd2, n2 = study["summary"]
    nu = n1 + n2 - 2
    pooled = ((n1 - 1) * sd1 ** 2 + (n2 - 1) * sd2 ** 2) / nu
    t = (m1 - m2) / math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    return t, float(nu), n1 * n2 / (n1 + n2), n1 + n2


def call_bf(pn, study):
    stats = study_stats(pn, study)
    v, k1 = study["variant"], study["kappa1"]
    if v == "point":
        return pn.point_null_bf10(stats, k1)
    if v == "peri":
        return pn.peri_null_bf(stats, study["kappa0"], k1)
    if v == "interval":
        return pn.interval_null_bf(stats, k1, study["a"])
    if v == "peripoint":
        return pn.peri_point_bf(stats, study["xi"], study["kappa0"], k1)
    return pn.shrinking_peri_null_bf(stats, study["c"], k1)


def check_bf(study, result):
    """Compare a BF result (``BFResult.as_dict()`` form) with the oracle."""
    bound = result["quad_error_bound"]
    if not (math.isfinite(result["log_bf"]) and math.isfinite(bound)):
        raise OpFailure("nonfinite_bound",
                        f"log_bf = {result['log_bf']}, bound = {bound}")
    t, nu, n_eff, n_total = expected_stats(study)
    ref = oracles.bf_oracle(study["variant"], t, nu, n_eff, n_total, study)
    for key in ("log_bf", "point_null_log_bf", "correction_log_bf"):
        if key in ref:
            check_close(key, result[key], ref[key], ref["err"])


# ---------------------------------------------------------------------------
# the workloads


@dataclass
class Call:
    """One timed call into the package; ``n_ops`` ops complete inside it."""

    op_id: str
    inputs: dict
    n_ops: int = 1


@dataclass
class Context:
    root: str          # checkout root: ``src/`` holds the package
    tmp: str           # scratch directory inside the checkout
    workers: int       # process-pool size for sim_curves
    in_process_cli: bool = False   # cli_calls: perinull.cli.main in this process


class Workload:
    """Base: a workload makes its rounds, runs a call, and checks its output."""

    name = ""
    op_unit = ""
    index = 0

    def __init__(self, pn, seed, ctx):
        self.pn = pn
        self.seed = seed
        self.ctx = ctx

    def rng(self, *keys):
        return rng_for(self.seed, self.index, *keys)

    def round_calls(self, r):
        raise NotImplementedError

    def warm_up(self):
        raise NotImplementedError

    def execute(self, call):
        raise NotImplementedError

    def verify(self, call, output):
        """Failed ops of one call as ``[(kind, detail), ...]``."""
        raise NotImplementedError

    def canonical(self, call, output):
        """A string that changes if and only if the call's outputs change."""
        raise NotImplementedError


def failure_from(exc, pn):
    if isinstance(exc, OpFailure):
        return exc.kind, exc.detail
    return classify_exception(exc, pn), f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# sim_curves: the paper's sampling-distribution curves

SIM_CONFIGS = ((0.167, 0.05), (0.0, 0.05), (0.0, 0.10))   # (mu, kappa0)
SIM_GRID = tuple(range(100, 2001, 100))
SIM_REPS = 4   # two per pool worker, which evens out their shares


class SimCurves(Workload):
    name, op_unit, index = "sim_curves", "cells", 1

    def config(self, inputs, grid=SIM_GRID, reps=SIM_REPS):
        pn = self.pn
        return pn.SimConfig(mu=inputs["mu"], sigma=1.0, kappa0=inputs["kappa0"], kappa1=1.0,
                            n_grid=grid, replications=reps, seed=inputs["seed"],
                            variants=frozenset({pn.Variant.POINT_NULL, pn.Variant.PERI_NULL}),
                            nested=True, keep_samples=True)

    def round_calls(self, r):
        calls = []
        for i, (mu, kappa0) in enumerate(SIM_CONFIGS):
            seed = int(self.rng(r, i).integers(2 ** 63))
            calls.append(Call(f"r{r}.sim{i}", {"mu": mu, "kappa0": kappa0, "seed": seed},
                              n_ops=SIM_REPS * len(SIM_GRID) * 2))
        return calls

    def warm_up(self):
        # n = 50 is off the timed grid, so the per-nu caches stay cold for it
        cfg = self.config({"mu": 0.1, "kappa0": 0.05, "seed": 1}, grid=(50,), reps=1)
        self.pn.run_simulation(cfg)
        self.pn.overlay_asymptotics(cfg)

    def execute(self, call):
        cfg = self.config(call.inputs)
        result = self.pn.run_simulation(cfg, workers=self.ctx.workers)
        return result, self.pn.overlay_asymptotics(cfg)

    def verify(self, call, output):
        pn = self.pn
        result, overlay = output
        cfg = result.config
        ns = np.array(cfg.n_grid, dtype=np.float64)
        failures = []
        for rep in range(cfg.replications):
            # the documented stream: Philox keyed by (seed, replication)
            y = np.random.Generator(np.random.Philox(
                np.random.SeedSequence((cfg.seed, rep)))).normal(cfg.mu, cfg.sigma, cfg.n_grid[-1])
            t = np.array([math.sqrt(n) * y[:n].mean() / y[:n].std(ddof=1) for n in cfg.n_grid])
            ref, err = oracles.sim_cell_log_bfs(t, ns, cfg.kappa0, cfg.kappa1)
            for variant in (pn.Variant.POINT_NULL, pn.Variant.PERI_NULL):
                got = result.samples[variant][rep]
                for j, n in enumerate(cfg.n_grid):
                    where = f"{variant.value} rep={rep} n={n} t={t[j]!r}"
                    if math.isnan(got[j]):
                        failures.append(("perinull_error", f"{where}: cell is NaN"))
                        continue
                    try:
                        check_close("log_bf", float(got[j]), float(ref[variant.value][j]),
                                    float(err[j]))
                    except OpFailure as exc:
                        failures.append((exc.kind, f"{where}: {exc.detail}"))
        for cell in result.cells:
            col = result.samples[cell.variant][:, cfg.n_grid.index(cell.n)]
            ok = col[~np.isnan(col)]
            q025, q975 = np.quantile(ok, (0.025, 0.975))
            if (cell.mean_log_bf, cell.q025, cell.q975) != (float(ok.mean()), float(q025),
                                                            float(q975)):
                failures.append(("wrong_value", f"summary of {cell.variant.value} n={cell.n}"))
        for point in overlay:
            if not (math.isfinite(point.mean) and point.q025 <= point.mean <= point.q975):
                failures.append(("wrong_value", f"overlay at n={point.n}: {point}"))
        return failures[:call.n_ops]

    def canonical(self, call, output):
        result, overlay = output
        parts = [repr(result.cells), repr(overlay)]
        parts += [result.samples[v].tobytes().hex() for v in sorted(result.samples,
                                                                     key=lambda v: v.value)]
        return "|".join(parts)


# ---------------------------------------------------------------------------
# bf_studies: single-study Bayes factors, as a script over studies makes them

BF_N_MIN = 20
# Largest n_total drawn per variant. The benchmark must not include inputs
# on which the package fails; above these caps the seed commit returns wrong
# values, NaN bounds or exceptions (see README.md and defects.py).
BF_N_MAX = {"point": 10 ** 6, "peri": 3 * 10 ** 5, "peripoint": 3 * 10 ** 5,
            "shrinking": 5000, "interval": 1000}
BF_PER_VARIANT = 20


def bf_deck(rng, per_variant):
    """Studies stratified over log n, design and true effect, then shuffled.

    Stratifying keeps the cost of a round steady from seed to seed; the
    variant order is shuffled so that the loop interleaves the routes.
    """
    studies = []
    for variant in VARIANTS:
        lo, hi = math.log(BF_N_MIN), math.log(BF_N_MAX[variant])
        d0, e0 = int(rng.integers(len(DESIGNS))), int(rng.integers(len(DELTAS)))
        for i in range(per_variant):
            studies.append(draw_study(rng, variant, DESIGNS[(d0 + i) % len(DESIGNS)],
                                      DELTAS[(e0 + i) % len(DELTAS)], lo, hi, i, per_variant))
    order = rng.permutation(len(studies))
    return [studies[i] for i in order]


class BfStudies(Workload):
    name, op_unit, index = "bf_studies", "BFs", 2

    def round_calls(self, r):
        return [Call(f"r{r}.bf{i}", study)
                for i, study in enumerate(bf_deck(self.rng(r), BF_PER_VARIANT))]

    def warm_up(self):
        # n = 15 lies below the drawn range, so no timed nu is warmed
        for variant in VARIANTS:
            call_bf(self.pn, {"variant": variant, "design": "one-sample", "n": 15, "t": 1.0,
                              "kappa1": 1.0, "a": 0.5, **BF_PARAMS})

    def execute(self, call):
        return call_bf(self.pn, call.inputs)

    def verify(self, call, output):
        try:
            check_bf(call.inputs, output.as_dict())
        except OpFailure as exc:
            return [(exc.kind, exc.detail)]
        return []

    def canonical(self, call, output):
        return repr(sorted(output.as_dict().items()))


# ---------------------------------------------------------------------------
# laplace_theory: Laplace-expansion requests over the models the CLI offers

P1_MODELS = ("conjugate-gaussian", "beta-bernoulli", "gamma-shape")
P2_REQUESTS = tuple((kind, theta, n) for kind in ("peri", "alt")
                    for theta in ((0.0, 1.0), (0.167, 1.0)) for n in (100, 1000, 10000))
LAPLACE_KAPPA0, LAPLACE_KAPPA1 = 0.05, 0.7071
P2_PER_ROUND = 4


def p1_spec(models, inputs):
    n = inputs["n"]
    if inputs["model"] == "conjugate-gaussian":
        return models.ConjugateGaussian(n=n, ybar=inputs["ybar"], ss=inputs["ss"], sigma0=1.0,
                                        prior_mean=0.0, prior_sd=inputs["prior_sd"])
    if inputs["model"] == "beta-bernoulli":
        return models.BetaBernoulli(n=n, successes=inputs["successes"], alpha=2.0, beta=2.0)
    return models.GammaShape(n=n, shape=inputs["shape"], rate=inputs["rate"])


def derivative_arrays(loglik_oracle, prior_oracle, mle):
    _, h = loglik_oracle(mle)
    pihat, p = prior_oracle(mle)
    return h, p, pihat


def check_expansion(expansion, h, p, pihat, loglik_value, n):
    """Check C1, C2 and the three log truncations against an independent build."""
    info = np.asarray(h[2], dtype=np.float64)
    c1, c2 = oracles.laplace_coefficients(h, p, pihat, np.linalg.inv(info))
    check_rel("c1", expansion.c1, c1)
    check_rel("c2", expansion.c2, c2)
    dim = info.shape[0]
    leading = (0.5 * dim * math.log(2.0 * math.pi / n) + loglik_value + math.log(pihat)
               - 0.5 * np.linalg.slogdet(info)[1])
    check_rel("log_leading", expansion.log_leading, leading)
    brackets = (("log_with_c1", 1.0 + c1 / n), ("log_with_c2", 1.0 + c1 / n + c2 / n ** 2))
    for name, bracket in brackets:
        got = getattr(expansion, name)
        if bracket > 0.0:
            check_rel(name, got, leading + math.log(bracket))
        elif not math.isnan(got):
            raise OpFailure("wrong_value", f"{name} = {got} for a nonpositive bracket")


def check_rel(name, value, expected, rel=1e-8):
    if value is None or not math.isfinite(value):
        raise OpFailure("nonfinite_bound", f"{name} = {value}")
    if not abs(value - expected) <= rel * max(1.0, abs(expected)):
        raise OpFailure("wrong_value", f"{name} = {value!r}, oracle {expected!r}")


class LaplaceTheory(Workload):
    name, op_unit, index = "laplace_theory", "requests", 3

    def round_calls(self, r):
        # every round has two peri and two alt requests, and each cycle of
        # three rounds covers the six (theta, n) pairs of both kinds
        cycle, part = divmod(r, len(P2_REQUESTS) // P2_PER_ROUND)
        per_kind = P2_PER_ROUND // 2
        calls = []
        for k, kind in enumerate(("peri", "alt")):
            pairs = [req for req in P2_REQUESTS if req[0] == kind]
            order = self.rng(cycle, k).permutation(len(pairs))
            for i in order[part * per_kind:(part + 1) * per_kind]:
                _, theta, n = pairs[i]
                calls.append(Call(f"r{r}.p2.{kind}.{i}", {"kind": kind, "theta": theta, "n": n}))
        rng = self.rng(cycle, part, 2)
        model = P1_MODELS[(int(self.rng(0).integers(3)) + r) % 3]
        n = int(round(math.exp(rng.uniform(math.log(20), math.log(2000)))))
        p1 = {"model": model, "n": n, "ybar": float(rng.normal(0.5, 0.5)),
              "ss": float(rng.chisquare(n - 1)), "prior_sd": float(rng.uniform(1.0, 10.0)),
              "successes": int(min(max(rng.binomial(n, rng.uniform(0.2, 0.8)), 1), n - 1)),
              "shape": float(rng.uniform(1.0, 3.0)), "rate": float(rng.uniform(0.5, 2.0))}
        calls.append(Call(f"r{r}.p1.{model}", p1))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    def warm_up(self):
        spec = self.pn.models.GammaShape(n=10)
        self.pn.laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle, 10)

    def execute(self, call):
        pn, inputs = self.pn, call.inputs
        if "model" in inputs:
            spec = p1_spec(pn.models, inputs)
            return pn.laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(), spec.mle,
                                       inputs["n"]), None, None
        (mu, sigma), n, kind = inputs["theta"], inputs["n"], inputs["kind"]
        kappa = LAPLACE_KAPPA0 if kind == "peri" else LAPLACE_KAPPA1
        expansion = pn.laplace_marginal(pn.models.normal_model_oracle(n, sigma),
                                        pn.models.ttest_prior_oracle(kind, kappa),
                                        np.array([mu, sigma]), n)
        return (expansion, pn.c_constants(mu, sigma, LAPLACE_KAPPA0, LAPLACE_KAPPA1),
                pn.summarize(mu, sigma, LAPLACE_KAPPA0, LAPLACE_KAPPA1, n))

    def verify(self, call, output):
        pn, inputs = self.pn, call.inputs
        expansion, constants, summary = output
        try:
            if "model" in inputs:
                spec = p1_spec(pn.models, inputs)
                loglik_value = spec.loglik_oracle()(spec.mle)[0]
                h, p, pihat = derivative_arrays(spec.loglik_oracle(), spec.prior_oracle(),
                                                spec.mle)
                check_expansion(expansion, h, p, pihat, loglik_value, inputs["n"])
                # the models' exact marginal: C1 and C2 must not move away from it
                exact = spec.exact_log_marginal()
                if not abs(expansion.log_with_c2 - exact) <= abs(expansion.log_leading - exact):
                    raise OpFailure("wrong_value", f"log_with_c2 {expansion.log_with_c2!r} is "
                                    f"further than log_leading from exact {exact!r}")
                return []
            (mu, sigma), n, kind = inputs["theta"], inputs["n"], inputs["kind"]
            kappa = LAPLACE_KAPPA0 if kind == "peri" else LAPLACE_KAPPA1
            loglik = pn.models.normal_model_oracle(n, sigma)
            h, p, pihat = derivative_arrays(loglik, pn.models.ttest_prior_oracle(kind, kappa),
                                            np.array([mu, sigma]))
            check_expansion(expansion, h, p, pihat, loglik(np.array([mu, sigma]))[0], n)
            closed = oracles.ttest_c1(kind, mu, sigma, LAPLACE_KAPPA0, LAPLACE_KAPPA1)
            check_rel("engine c1 vs closed form", expansion.c1, closed)
            check_rel("c_constants c1", getattr(constants, f"c1_{kind}"), closed, rel=1e-12)
            for key in ("c1_alt", "c2_alt", "c1_peri", "c2_peri"):
                if getattr(summary, key) != getattr(constants, key):
                    raise OpFailure("wrong_value", f"summarize {key} != c_constants {key}")
            if not math.isfinite(summary.limit_log_bf):
                raise OpFailure("nonfinite_bound", "summarize limit_log_bf")
        except OpFailure as exc:
            return [(exc.kind, exc.detail)]
        return []

    def canonical(self, call, output):
        expansion, constants, summary = output
        parts = [repr(expansion), repr(constants)]
        if summary is not None:
            parts.append(repr({key: value.tolist() if isinstance(value, np.ndarray) else value
                               for key, value in vars(summary).items()}))
        return "|".join(parts)


# ---------------------------------------------------------------------------
# cli_calls: cold `perinull` processes, as a shell script would run them

ASY_GRID = "100:2000:100"
CLI_SIM = ("--mu", "0.167", "--kappa0", "0.05", "--kappa1", "1.0", "--ngrid", "100:300:100",
           "--reps", "2", "--workers", "1")
CLI_P1_MODELS = ("conjugate-gaussian", "beta-bernoulli")


def bf_argv(study):
    """`perinull bf` arguments for a study, in one of the three input forms."""
    if study["design"] == "one-sample":
        form = ["--t", repr(study["t"]), "--n", str(study["n"])]
    elif study["design"] == "two-sample-t":
        form = ["--t", repr(study["t"]), "--n1", str(study["n1"]), "--n2", str(study["n2"])]
    else:
        form = ["--summary"] + [repr(v) for v in study["summary"]]
    return ["bf", "--variant", study["variant"], *form, "--kappa0", repr(study["kappa0"]),
            "--kappa1", repr(study["kappa1"]), "--a", repr(study["a"]),
            "--xi", repr(study["xi"]), "--c", repr(study["c"]), "--json"]


def same(a, b):
    """Equality of parsed JSON values, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def expect_same(what, got, expected):
    if not same(got, expected):
        raise OpFailure("wrong_value", f"{what}: CLI {got!r} != library {expected!r}")


class CliCalls(Workload):
    name, op_unit, index = "cli_calls", "invocations", 4

    def round_calls(self, r):
        rng = self.rng(r)
        # one bf call per variant; the variants take the five log-n strata of
        # their ranges in an order that rotates with the round
        studies = []
        for j, variant in enumerate(VARIANTS):
            k = (j + r) % len(VARIANTS)
            studies.append(draw_study(rng, variant, DESIGNS[k % len(DESIGNS)],
                                      DELTAS[int(rng.integers(len(DELTAS)))],
                                      math.log(BF_N_MIN), math.log(BF_N_MAX[variant]),
                                      k, len(VARIANTS)))
        calls = [Call(f"r{r}.bf.{s['variant']}", {"argv": bf_argv(s), "study": s})
                 for s in studies]
        mu = float(rng.choice([0.0, 0.167, round(float(rng.uniform(0.05, 0.5)), 6)]))
        kappa0, kappa1 = 0.05, float(rng.choice(KAPPA1))
        asy = ["asymptotics", "--mu", repr(mu), "--kappa0", repr(kappa0), "--kappa1", repr(kappa1)]
        n = int(round(math.exp(rng.uniform(math.log(100), math.log(10000)))))
        calls.append(Call(f"r{r}.asy", {"argv": asy + ["--n", str(n), "--json"]}))
        calls.append(Call(f"r{r}.asygrid", {"argv": asy + ["--grid", ASY_GRID, "--json"]}))
        model = CLI_P1_MODELS[int(rng.integers(len(CLI_P1_MODELS)))]
        n = int(round(math.exp(rng.uniform(math.log(20), math.log(2000)))))
        calls.append(Call(f"r{r}.laplace", {"argv": ["laplace-verify", "--model", model,
                                                     "--n", str(n), "--json"]}))
        seed = int(rng.integers(2 ** 31))
        calls.append(Call(f"r{r}.simulate", {"argv": ["simulate", *CLI_SIM, "--seed", str(seed),
                                                      "--out", "{out}"], "seed": seed}))
        return calls

    def command(self, argv):
        return [sys.executable, "-m", "perinull.cli", *argv]

    def env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.ctx.root, "src")
        return env

    def warm_up(self):
        # one cold process, so that the first timed call finds the files cached
        subprocess.run(self.command(["--version"]), env=self.env(), capture_output=True,
                       check=True, timeout=120)

    def execute(self, call):
        out_dir = tempfile.mkdtemp(dir=self.ctx.tmp)
        argv = [a.replace("{out}", os.path.join(out_dir, "sim")) for a in call.inputs["argv"]]
        try:
            if self.ctx.in_process_cli:
                code, stdout, stderr = self.run_in_process(argv)
            else:
                proc = subprocess.run(self.command(argv), env=self.env(), capture_output=True,
                                      text=True, timeout=150, cwd=out_dir)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            files = {}
            sim_dir = os.path.join(out_dir, "sim")
            if os.path.isdir(sim_dir):
                for name in sorted(os.listdir(sim_dir)):
                    with open(os.path.join(sim_dir, name), encoding="utf-8") as fh:
                        files[name] = fh.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return {"code": code, "stdout": stdout, "stderr": stderr, "files": files}

    def run_in_process(self, argv):
        """`perinull.cli.main` in this process; an escaping exception is a traceback."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pn.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the CLI contract: no traceback ever escapes
                err.write(f"Traceback (in-process)\n{type(exc).__name__}: {exc}\n")
                code = 1
        return code, out.getvalue(), err.getvalue()

    def verify(self, call, output):
        try:
            if output["code"] != 0 or "Traceback" in output["stderr"]:
                raise OpFailure("cli_exit", f"exit {output['code']}: "
                                            f"{output['stderr'].strip()[-300:]}")
            self.check_output(call, output)
        except OpFailure as exc:
            return [(exc.kind, exc.detail)]
        except (ValueError, KeyError, IndexError) as exc:
            return [("wrong_value", f"unreadable output: {type(exc).__name__}: {exc}")]
        return []

    def check_output(self, call, output):
        pn, argv = self.pn, call.inputs["argv"]
        command = argv[0]
        if command == "simulate":
            self.check_simulate(call, output["files"])
            return
        payload = json.loads(output["stdout"])
        if command == "bf":
            study = call.inputs["study"]
            stats = study_stats(pn, study)
            library = call_bf(pn, study).as_dict()
            library.update({"variant": study["variant"], "t": stats.t, "nu": stats.nu,
                            "n_eff": stats.n_eff, "design": stats.design.value,
                            "n_total": stats.n_total})
            expect_same("bf", payload, library)
            check_bf(study, payload)
        elif command == "asymptotics":
            mu, kappa0, kappa1 = (float(argv[argv.index(flag) + 1])
                                  for flag in ("--mu", "--kappa0", "--kappa1"))
            rows = payload if "--grid" in argv else [payload]
            for row in rows:
                n = row["n"]
                dist = pn.sampling_distribution(mu, 1.0, kappa0, kappa1, n)
                bias = pn.bias_term(mu, 1.0, kappa0, kappa1, n)
                expect_same(f"asymptotics n={n}",
                            [row["mean"], row["q025"], row["q975"], row["regime"]],
                            [dist.mean(), dist.quantile(0.025), dist.quantile(0.975),
                             dist.regime.value])
                expect_same(f"asymptotics bias n={n}", row["bias"], bias.value)
        else:
            model, n = argv[argv.index("--model") + 1], int(argv[argv.index("--n") + 1])
            if model == "conjugate-gaussian":
                spec = pn.models.ConjugateGaussian(n=n, ybar=0.5, ss=0.9 * n, sigma0=1.0,
                                                   prior_mean=0.0, prior_sd=10.0)
            else:
                spec = pn.models.BetaBernoulli(n=n, successes=max(1, round(0.4 * n)),
                                               alpha=2.0, beta=2.0)
            expansion = pn.laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(),
                                            spec.mle, n)
            expect_same("laplace-verify",
                        [payload[k] for k in ("c1", "c2", "log_leading", "oracle_log_marginal")],
                        [expansion.c1, expansion.c2, expansion.log_leading,
                         spec.exact_log_marginal()])
            h, p, pihat = derivative_arrays(spec.loglik_oracle(), spec.prior_oracle(), spec.mle)
            check_expansion(expansion, h, p, pihat, spec.loglik_oracle()(spec.mle)[0], n)

    def check_simulate(self, call, files):
        pn = self.pn
        manifest = json.loads(files["manifest.json"])
        if manifest["command"] != "simulate" or manifest["seed"] != call.inputs["seed"]:
            raise OpFailure("wrong_value", f"manifest {manifest}")
        argv = call.inputs["argv"]
        arg = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
        lo, hi, step = (int(v) for v in arg["--ngrid"].split(":"))
        cfg = pn.SimConfig(mu=float(arg["--mu"]), sigma=1.0, kappa0=float(arg["--kappa0"]),
                           kappa1=float(arg["--kappa1"]), n_grid=tuple(range(lo, hi + 1, step)),
                           replications=int(arg["--reps"]), seed=call.inputs["seed"],
                           variants=frozenset({pn.Variant.POINT_NULL, pn.Variant.PERI_NULL}))
        result = pn.run_simulation(cfg)
        expected = [(c.variant.value, c.n, c.mean_log_bf, c.q025, c.q975, "simulated")
                    for c in result.cells]
        expected += [("peri", p.n, p.mean, p.q025, p.q975, "asymptotic")
                     for p in pn.overlay_asymptotics(cfg)]
        lines = files["curves.csv"].splitlines()
        got = [(v, int(n), float(m), float(lo_q), float(hi_q), src)
               for v, n, m, lo_q, hi_q, src in (line.split(",") for line in lines[1:])]
        expect_same("curves.csv", got, expected)

    def canonical(self, call, output):
        files = dict(output["files"])
        if "manifest.json" in files:
            manifest = json.loads(files["manifest.json"])
            manifest.pop("timestamp", None)
            files["manifest.json"] = manifest
        stdout = output["stdout"] if call.inputs["argv"][0] != "simulate" else ""
        return repr((output["code"], stdout, sorted(files.items())))


WORKLOADS = {cls.name: cls for cls in (SimCurves, BfStudies, LaplaceTheory, CliCalls)}
