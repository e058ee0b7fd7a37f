"""Command-line front end.

Subcommands: ``bf`` (Bayes factors for one study), ``asymptotics``
(limits, variances, correction constants, bias), ``simulate`` (seeded Monte
Carlo curves written as CSV plus a JSON run manifest), and
``laplace-verify`` (expansion accuracy against per-model oracles).

Exit codes: 0 on success (including flagged-but-valid outputs), 2 on usage
errors (a float flag given nan or +-inf among them), 3 on numerical failure.
Every command accepts ``--json``; file outputs are byte-stable for fixed
inputs and seed. ``PERINULL_SEED`` provides the default seed of ``simulate``
(1234 when unset); a value that is not an integer in [0, 2**64) is a usage
error. ``--config`` points at a key=value file whose entries are overridden
by explicit flags.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import engine, models
from .core import Design, SummaryStats, ingest_one_sample, ingest_two_sample
from .errors import PeriNullError, check_range
from .laplace import laplace_marginal
from .simulate import SimConfig, Variant, overlay_asymptotics, run_simulation

USAGE_ERROR, NUMERICAL_ERROR = 2, 3


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True))


def _manifest(command: str, parameters: dict, seed) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _default_seed(parser: argparse.ArgumentParser) -> int:
    env = os.environ.get("PERINULL_SEED")
    if env is None:
        return 1234
    try:  # InvalidInputError is a ValueError
        seed = check_range("PERINULL_SEED", int(env), 0, 2 ** 64, closed=True)
    except ValueError:
        parser.error(f"PERINULL_SEED must be an integer in [0, 2**64), got {env!r}")
    return seed


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_grid(spec: str, parser: argparse.ArgumentParser):
    try:
        lo, hi, step = (int(part) for part in spec.split(":"))
        if lo < 2 or hi < lo or step < 1:
            raise ValueError
    except ValueError:
        parser.error(f"--grid/--ngrid expects nmin:nmax:step with nmin >= 2, got {spec!r}")
    return tuple(range(lo, hi + 1, step))


# ---------------------------------------------------------------------------
# bf

def _stats_from_args(args, parser):
    if args.summary is not None:
        m1, sd1, n1, m2, sd2, n2 = args.summary
        return ingest_two_sample(m1, sd1, int(n1), m2, sd2, int(n2))
    if args.t is None:
        parser.error("either --summary or --t is required")
    if args.design == "two-sample" or (args.n1 is not None or args.n2 is not None):
        if args.n1 is None or args.n2 is None:
            parser.error("two-sample --t input needs --n1 and --n2")
        n1, n2 = args.n1, args.n2
        return SummaryStats(t=args.t, nu=float(n1 + n2 - 2),
                            n_eff=n1 * n2 / (n1 + n2),
                            design=Design.TWO_SAMPLE, n_total=n1 + n2)
    if args.n is None:
        parser.error("one-sample --t input needs --n")
    return ingest_one_sample(args.t, args.n)


def _cmd_bf(args, parser) -> int:
    stats = _stats_from_args(args, parser)
    variant = args.variant
    result = engine.variant_bf(variant, stats, prior_odds=args.prior_odds,
                               kappa0=args.kappa0, kappa1=args.kappa1, a=args.a,
                               xi=args.xi, c=args.c)
    if args.json:
        payload = result.as_dict()
        payload.update({
            "variant": variant,
            "t": stats.t, "nu": stats.nu, "n_eff": stats.n_eff,
            "design": stats.design.value, "n_total": stats.n_total,
        })
        _print_json(payload)
        return 0
    print(f"variant           : {variant}")
    print(f"t, nu, n_eff      : {_fmt(stats.t)}, {_fmt(stats.nu)}, {_fmt(stats.n_eff)}")
    print(f"log BF            : {_fmt(result.log_bf)}")
    print(f"BF                : {_fmt(result.bf)}")
    if result.point_null_log_bf is not None:
        print(f"point-null log BF : {_fmt(result.point_null_log_bf)}")
        print(f"correction log BF : {_fmt(result.correction_log_bf)}")
        product = result.point_null_log_bf + result.correction_log_bf
        print(f"component product : {_fmt(product)}")
    print(f"posterior P(num)  : {_fmt(result.posterior_prob_numerator)}")
    print(f"prior odds        : {_fmt(result.prior_odds)}")
    print(f"quad error bound  : {_fmt(result.quad_error_bound)}")
    return 0


# ---------------------------------------------------------------------------
# asymptotics

_ASY_COLUMNS = ("n", "limit", "bias", "mean", "variance", "q025", "q975",
                "regime", "valid")


def _asy_row(mu, sigma, kappa0, kappa1, n) -> dict:
    dist = asy.sampling_distribution(mu, sigma, kappa0, kappa1, n)
    bias = asy.bias_term(mu, sigma, kappa0, kappa1, n)
    return {
        "n": n,
        "limit": asy.limit_log_bf(mu, sigma, kappa0, kappa1),
        "bias": bias.value,
        "mean": dist.mean(),
        "variance": asy.asymptotic_variance(mu, sigma, kappa0, kappa1, n),
        "q025": dist.quantile(0.025),
        "q975": dist.quantile(0.975),
        "regime": dist.regime.value,
        "valid": bias.valid,
    }


def _cmd_asymptotics(args, parser) -> int:
    mu, sigma, kappa0, kappa1 = args.mu, args.sigma, args.kappa0, args.kappa1
    if args.out and not args.grid:
        parser.error("--out needs --grid")
    if args.grid:
        grid = _parse_grid(args.grid, parser)
        rows = [_asy_row(mu, sigma, kappa0, kappa1, n) for n in grid]
        if args.json:
            _print_json(rows)
            return 0
        lines = [",".join(_ASY_COLUMNS)]
        for row in rows:  # lower(): the valid flag prints as true/false
            lines.append(",".join(_fmt(row[c]).lower() for c in _ASY_COLUMNS))
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            _write_manifest(args.out + ".manifest.json", _manifest(
                "asymptotics", {
                    "mu": mu, "sigma": sigma, "kappa0": kappa0,
                    "kappa1": kappa1, "grid": args.grid, "out": args.out,
                }, seed=None))
        else:
            sys.stdout.write(text)
        return 0
    summary = asy.summarize(mu, sigma, kappa0, kappa1, args.n)
    if args.json:
        _print_json({
            "mu": mu, "sigma": sigma, "kappa0": kappa0, "kappa1": kappa1,
            "n": args.n,
            "limit_log_bf": summary.limit_log_bf,
            "grad": list(summary.grad),
            "hessian_mu_mu": summary.hessian_mu_mu,
            "n_times_variance": summary.n_times_variance,
            "c1_alt": summary.c1_alt, "c2_alt": summary.c2_alt,
            "c1_peri": summary.c1_peri, "c2_peri": summary.c2_peri,
            "bias": summary.bias.value, "bias_valid": summary.bias.valid,
            "min_valid_n": summary.bias.min_valid_n,
            "regime": summary.regime.value,
            "mean": summary.distribution.mean(),
            "q025": summary.distribution.quantile(0.025),
            "q975": summary.distribution.quantile(0.975),
        })
        return 0
    print(f"limit log BF      : {_fmt(summary.limit_log_bf)}")
    print(f"gradient          : ({_fmt(summary.grad[0])}, {_fmt(summary.grad[1])})")
    print(f"hessian[mu,mu]    : {_fmt(summary.hessian_mu_mu)}")
    print(f"variance (at n)   : {_fmt(summary.n_times_variance / summary.n)}")
    print(f"C1 alt, C2 alt    : {_fmt(summary.c1_alt)}, {_fmt(summary.c2_alt)}")
    print(f"C1 peri, C2 peri  : {_fmt(summary.c1_peri)}, {_fmt(summary.c2_peri)}")
    bias = summary.bias
    print(f"bias E(theta, n)  : {_fmt(bias.value)} (valid={str(bias.valid).lower()}, "
          f"min valid n={bias.min_valid_n})")
    print(f"regime            : {summary.regime.value}")
    print(f"mean, q025, q975  : {_fmt(summary.distribution.mean())}, "
          f"{_fmt(summary.distribution.quantile(0.025))}, "
          f"{_fmt(summary.distribution.quantile(0.975))}")
    return 0


# ---------------------------------------------------------------------------
# simulate

_PLOTSCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot curves.csv produced by `perinull simulate` (generated file).\"\"\"
import csv
import sys
from collections import defaultdict

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "curves.csv"
series = defaultdict(lambda: defaultdict(list))
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        key = (row["variant"], row["source"])
        for col in ("n", "mean", "q025", "q975"):
            series[key][col].append(float(row[col]))

fig, ax = plt.subplots()
for (variant, source), data in sorted(series.items()):
    style = "-" if source == "simulated" else "--"
    line, = ax.plot(data["n"], data["mean"], style, label=f"{variant} ({source})")
    ax.plot(data["n"], data["q025"], ":", color=line.get_color(), alpha=0.6)
    ax.plot(data["n"], data["q975"], ":", color=line.get_color(), alpha=0.6)
ax.set_xlabel("n")
ax.set_ylabel("log BF")
ax.legend()
fig.tight_layout()
fig.savefig("curves.png", dpi=150)
print("wrote curves.png")
"""


def _curves_rows(result, overlay) -> list:
    rows = [{"variant": cell.variant.value, "n": cell.n,
             "mean": cell.mean_log_bf, "q025": cell.q025, "q975": cell.q975,
             "source": "simulated"} for cell in result.cells]
    rows += [{"variant": Variant.PERI_NULL.value, "n": point.n,
              "mean": point.mean, "q025": point.q025, "q975": point.q975,
              "source": "asymptotic"} for point in overlay]
    return rows


def _curves_csv(rows) -> str:
    lines = ["variant,n,mean,q025,q975,source"]
    for row in rows:
        lines.append(",".join((row["variant"], str(row["n"]), _fmt(row["mean"]),
                               _fmt(row["q025"]), _fmt(row["q975"]), row["source"])))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args, parser) -> int:
    try:
        variants = [Variant(name.strip()) for name in args.variants.split(",")]
    except ValueError as exc:
        parser.error(f"{exc}; choose from {sorted(v.value for v in Variant)}")
    cfg = SimConfig(
        mu=args.mu, sigma=args.sigma, kappa0=args.kappa0, kappa1=args.kappa1,
        n_grid=_parse_grid(args.ngrid, parser), replications=args.reps,
        seed=args.seed, variants=frozenset(variants), nested=not args.independent,
        interval_halfwidth=args.a, mixture_weight=args.xi, shrink_constant=args.c,
    )
    result = run_simulation(cfg, workers=args.workers)
    overlay = overlay_asymptotics(cfg) if Variant.PERI_NULL in cfg.variants else ()
    rows = _curves_rows(result, overlay)
    if args.json and not args.out:
        _print_json(rows)
        return 0
    text = _curves_csv(rows)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, "curves.csv")
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        manifest = _manifest("simulate", {
            "mu": args.mu, "sigma": args.sigma, "kappa0": args.kappa0,
            "kappa1": args.kappa1, "ngrid": args.ngrid, "reps": args.reps,
            "variants": args.variants, "workers": args.workers,
            "nested": not args.independent,
        }, seed=args.seed)
        # replications whose log BF could not be computed, per variant
        manifest["failed_cells"] = {
            v.value: sum(c.n_failed for c in result.cells if c.variant is v)
            for v in cfg.ordered_variants}
        _write_manifest(os.path.join(args.out, "manifest.json"), manifest)
        if args.emit_plotscript:
            script_path = os.path.join(args.out, "plot_curves.py")
            with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_PLOTSCRIPT)
        print(f"wrote {csv_path}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# laplace-verify

def _expansion_payload(expansion, oracle_value=None):
    payload = {
        "n": expansion.n,
        "c1": expansion.c1,
        "c2": expansion.c2,
        "log_leading": expansion.log_leading,
        "log_with_c1": expansion.log_with_c1,
        "log_with_c2": expansion.log_with_c2,
        "valid_c1": expansion.valid_c1,
        "valid_c2": expansion.valid_c2,
    }
    if oracle_value is not None:
        payload["oracle_log_marginal"] = oracle_value
        for key in ("log_leading", "log_with_c1", "log_with_c2"):
            value = payload[key]
            payload[key + "_abs_error"] = (abs(value - oracle_value)
                                           if not math.isnan(value) else math.nan)
    return payload


def _print_expansion(payload):
    print(f"n                 : {payload['n']}")
    print(f"C1, C2            : {_fmt(payload['c1'])}, {_fmt(payload['c2'])}")
    if not payload["valid_c2"]:
        print("invalid-expansion : correction bracket is nonpositive")
    for key in ("log_leading", "log_with_c1", "log_with_c2"):
        line = f"{key:<18}: {_fmt(payload[key])}"
        err = payload.get(key + "_abs_error")
        if err is not None:
            rel = err / max(abs(payload.get("oracle_log_marginal", 1.0)), 1e-300)
            line += f"  (abs err {_fmt(err)}, rel {_fmt(rel)})"
        print(line)
    if "oracle_log_marginal" in payload:
        print(f"oracle            : {_fmt(payload['oracle_log_marginal'])}")


def _cmd_laplace_verify(args, parser) -> int:
    model = args.model
    if model in ("ttest-peri", "ttest-alt"):
        mu_hat, sigma_hat = args.theta
        kind = "peri" if model == "ttest-peri" else "alt"
        kappa = args.kappa0 if kind == "peri" else args.kappa1
        # first, so that out-of-range scales fail as InvalidInputError
        reference = asy.c_constants(mu_hat, sigma_hat, args.kappa0, args.kappa1)
        expansion = laplace_marginal(
            models.normal_model_oracle(args.n, sigma_hat),
            models.ttest_prior_oracle(kind, kappa),
            np.array([mu_hat, sigma_hat]), args.n)
        oracle = None
        if kind == "peri" and mu_hat == 0.0:
            oracle = models.exact_ttest_peri_log_marginal(args.n, kappa, sigma_hat)
        payload = _expansion_payload(expansion, oracle)
        payload["closed_form_c1"] = getattr(reference, f"c1_{kind}")
        payload["closed_form_c2"] = getattr(reference, f"c2_{kind}")
    else:
        if model == "conjugate-gaussian":
            spec = models.ConjugateGaussian(n=args.n, ybar=0.5, ss=0.9 * args.n,
                                            sigma0=1.0, prior_mean=0.0, prior_sd=10.0)
        else:  # beta-bernoulli, the last of the choices argparse allows
            spec = models.BetaBernoulli(n=args.n, successes=max(1, round(0.4 * args.n)),
                                        alpha=2.0, beta=2.0)
        expansion = laplace_marginal(spec.loglik_oracle(), spec.prior_oracle(),
                                     spec.mle, args.n)
        payload = _expansion_payload(expansion, spec.exact_log_marginal())
    payload["model"] = model
    if args.json:
        _print_json(payload)
        return 0
    print(f"model             : {model}")
    _print_expansion(payload)
    if "closed_form_c1" in payload:
        print(f"closed-form C1    : {_fmt(payload['closed_form_c1'])}")
        print(f"closed-form C2    : {_fmt(payload['closed_form_c2'])}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perinull",
        description="Point-null and peri-null Bayes factors for the t-test, "
                    "their asymptotics, and the simulation harness behind them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    bf = sub.add_parser("bf", help="Bayes factors for one study")
    bf.add_argument("--t", type=_finite_float)
    bf.add_argument("--n", type=int)
    bf.add_argument("--n1", type=int)
    bf.add_argument("--n2", type=int)
    bf.add_argument("--summary", type=_finite_float, nargs=6,
                    metavar=("M1", "SD1", "N1", "M2", "SD2", "N2"))
    bf.add_argument("--design", choices=("one-sample", "two-sample"),
                    default="one-sample")
    bf.add_argument("--variant", required=True, choices=tuple(engine.VARIANTS))
    bf.add_argument("--kappa0", type=_finite_float, default=0.05)
    bf.add_argument("--kappa1", type=_finite_float, default=1.0 / math.sqrt(2.0))
    bf.add_argument("--a", type=_finite_float, default=0.5)
    bf.add_argument("--xi", type=_finite_float, default=0.5)
    bf.add_argument("--c", type=_finite_float, default=1.0)
    bf.add_argument("--prior-odds", type=_finite_float, default=1.0)
    bf.add_argument("--json", action="store_true")
    bf.add_argument("--config")

    a = sub.add_parser("asymptotics", help="limits, variances and bias terms")
    a.add_argument("--mu", type=_finite_float, required=True)
    a.add_argument("--sigma", type=_finite_float, default=1.0)
    a.add_argument("--kappa0", type=_finite_float, required=True)
    a.add_argument("--kappa1", type=_finite_float, required=True)
    a.add_argument("--n", type=int, default=1000)
    a.add_argument("--grid", help="nmin:nmax:step for per-n CSV output")
    a.add_argument("--out", help="write grid CSV here instead of stdout")
    a.add_argument("--json", action="store_true")
    a.add_argument("--config")

    sim = sub.add_parser("simulate", help="Monte Carlo sampling-distribution curves")
    sim.add_argument("--mu", type=_finite_float, required=True)
    sim.add_argument("--sigma", type=_finite_float, default=1.0)
    sim.add_argument("--kappa0", type=_finite_float, required=True)
    sim.add_argument("--kappa1", type=_finite_float, required=True)
    sim.add_argument("--ngrid", required=True, help="nmin:nmax:step")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--variants", default="point,peri")
    sim.add_argument("--a", type=_finite_float, default=0.5)
    sim.add_argument("--xi", type=_finite_float, default=0.5)
    sim.add_argument("--c", type=_finite_float, default=1.0)
    sim.add_argument("--out", help="output directory for curves.csv + manifest.json")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--independent", action="store_true",
                     help="draw each grid size independently instead of nesting")
    sim.add_argument("--emit-plotscript", action="store_true")
    sim.add_argument("--json", action="store_true",
                     help="print curve records as JSON instead of CSV (stdout mode)")
    sim.add_argument("--config")

    lap = sub.add_parser("laplace-verify", help="expansion accuracy against oracles")
    lap.add_argument("--model", required=True,
                     choices=("conjugate-gaussian", "beta-bernoulli",
                              "ttest-peri", "ttest-alt"))
    lap.add_argument("--theta", type=_finite_float, nargs=2, default=(0.0, 1.0),
                     metavar=("MU", "SIGMA"))
    lap.add_argument("--n", type=int, default=100)
    lap.add_argument("--kappa0", type=_finite_float, default=0.05)
    lap.add_argument("--kappa1", type=_finite_float, default=1.0 / math.sqrt(2.0))
    lap.add_argument("--json", action="store_true")
    lap.add_argument("--config")
    return parser


def _load_config_flags(path: str, parser: argparse.ArgumentParser) -> list:
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    parser.error(f"malformed config line: {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                flags.extend((f"--{key}", value))
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    # config precedence: explicit flags > config file > defaults. Config
    # entries are injected as flags right after the subcommand so that
    # later (explicit) occurrences win.
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            parser.error("--config needs a path")
        config_flags = _load_config_flags(argv[idx + 1], parser)
        sub_idx = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
        if sub_idx is None:
            parser.error("missing subcommand")
        argv = argv[:sub_idx + 1] + config_flags + argv[sub_idx + 1:]

    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and args.command == "simulate":
        args.seed = _default_seed(parser)
    handlers = {
        "bf": _cmd_bf,
        "asymptotics": _cmd_asymptotics,
        "simulate": _cmd_simulate,
        "laplace-verify": _cmd_laplace_verify,
    }
    try:
        return handlers[args.command](args, parser)
    except PeriNullError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
