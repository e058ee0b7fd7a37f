"""Count the package's known failures, with the benchmark's oracles and taxonomy.

The timed workloads keep to inputs on which the package passes every check
(the benchmark must not fail ops by design). This probe covers the rest:
the defect inputs listed under ROADMAP item 3, the same bf_studies draws
over the whole n range [20, 1e6] for every variant, the ``perinull bf``
process that ends in a traceback, and the simulation grid that crashes.
It prints one line per failing input, then the counts by kind as JSON.

    python3 perfbench/defects.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_VARIANT = 10        # uncapped bf_studies draws per variant

# (label, variant, n, t, kappa1, a, kappa0)
KNOWN = (
    ("interval wrong value", "interval", 50_000, 1.0, 0.7071, 0.1, 0.05),
    ("interval wrong value", "interval", 100_000, 1.0, 0.7071, 0.1, 0.05),
    ("interval wrong value", "interval", 20_000, 0.5, 0.7071, 0.1, 0.05),
    ("interval ZeroDivisionError", "interval", 200_000, 1.0, 0.7071, 0.1, 0.05),
    ("interval ZeroDivisionError", "interval", 10_000, 0.0, 1.0, 0.5, 0.05),
    ("interval ZeroDivisionError", "interval", 10_000, 1.5, 1.0, 0.5, 0.05),
    ("interval false refusal", "interval", 400_000, 1.0, 0.7071, 0.1, 0.05),
    ("interval tiny bound", "interval", 10_000, 16.7, 1.0, 0.1, 0.05),
    ("peri NaN bound", "peri", 1_000_000, 40.0, 0.7071, 0.5, 1e-6),
    ("cauchy wide prior", "point", 100_000, 20.0, 20.0, 0.5, 0.05),
    ("cauchy wide prior", "point", 1_000_000, 8.0, 10.0, 0.5, 0.05),
    ("peri large ncp", "peri", 1_000_000, 300.0, 0.7071, 0.5, 0.05),
    ("shrinking large t", "shrinking", 20_000, 42.0, 0.7071, 0.5, 0.05),
)
CLI_CASE = ["bf", "--variant", "interval", "--t", "1.0", "--n", "200000", "--a", "0.1", "--json"]


def probe(pn, workloads, label, study, failures, counts):
    """Run one study through the BF function and the oracle; record a failure."""
    counts["attempted"] += 1
    try:
        workloads.check_bf(study, workloads.call_bf(pn, study).as_dict())
        return
    except Exception as exc:
        kind, detail = workloads.failure_from(exc, pn)
    counts[kind] = counts.get(kind, 0) + 1
    shown = {k: study[k] for k in ("variant", "design", "n", "n1", "n2", "t", "summary",
                                   "kappa1", "a", "kappa0") if k in study}
    failures.append(f"[{kind}] {label}: {json.dumps(shown)} -- {detail[:160]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import perinull as pn

    import workloads

    failures, counts = [], {"attempted": 0}
    for label, variant, n, t, kappa1, a, kappa0 in KNOWN:
        study = {"variant": variant, "design": "one-sample", "n": n, "t": t, "delta": None,
                 "kappa1": kappa1, "a": a, **workloads.BF_PARAMS, "kappa0": kappa0}
        probe(pn, workloads, label, study, failures, counts)

    rng = workloads.rng_for(args.seed, 99)
    lo, hi = math.log(workloads.BF_N_MIN), math.log(10 ** 6)
    for variant in workloads.VARIANTS:
        for i in range(PER_VARIANT):
            design = workloads.DESIGNS[i % len(workloads.DESIGNS)]
            delta = workloads.DELTAS[i % len(workloads.DELTAS)]
            study = workloads.draw_study(rng, variant, design, delta, lo, hi, i, PER_VARIANT)
            probe(pn, workloads, "uncapped draw", study, failures, counts)

    counts["attempted"] += 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "perinull.cli", *CLI_CASE], env=env,
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        counts["cli_exit"] = counts.get("cli_exit", 0) + 1
        last = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else ""
        failures.append(f"[cli_exit] perinull {' '.join(CLI_CASE)}: exit {proc.returncode}, "
                        f"{'traceback' if 'Traceback' in proc.stderr else 'no traceback'}: "
                        f"{last[:120]}")

    counts["attempted"] += 1
    cfg = pn.SimConfig(mu=0.0, sigma=1.0, kappa0=0.05, kappa1=1.0, n_grid=(5000, 10000),
                       replications=1, seed=args.seed,
                       variants=frozenset({pn.Variant.INTERVAL_NULL}))
    try:
        pn.run_simulation(cfg)
    except Exception as exc:
        kind, detail = workloads.failure_from(exc, pn)
        counts[kind] = counts.get(kind, 0) + 1
        failures.append(f"[{kind}] run_simulation interval grid (5000, 10000): {detail[:120]}")

    for line in failures:
        print(line)
    counts["failed"] = len(failures)
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
