"""perinull benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bf_studies --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics. ``--workload all``
runs the four workloads one after another. Every op is checked against an
independent oracle; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results, and the
spans of traced runs, are written under ``.perfbench/`` in the checkout.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sim_curves", "bf_studies", "laplace_theory", "cli_calls")
SETUP_LAUNCHES = 5      # setup_s is the median of this many fresh interpreters
P90_MIN_OPS = 100       # a p90 needs at least ten samples beyond it
DEADLINE_S = 175.0      # a run must end within 180 s

# Timings are in reference seconds (ref_s): measured seconds scaled by the
# speed probe run through set-up and around each op (see worker.py), so that
# the machine's own speed swings do not show as changes of the package.
# setup_s is in reference seconds too; its unit string is the plain "s".
END_TO_END = (("setup_s", "s"), ("wall_s", "ref_s"), ("ops_per_s", "1/ref_s"),
              ("latency_p50_ms", "ref_ms"), ("peak_rss_mb", "MB"))
# per-layer metrics in the last JSON line: counts, ratios and import times,
# which are measured numbers on every workload. Self times and per-call
# medians, which are 0 where a workload never enters a layer, are printed
# in the report and written to the result file.
PER_LAYER = (
    ("nct.logpdf.calls", "count"), ("nct.logpdf.scalar_calls", "count"),
    ("nct.logpdf.points", "count"),
    *((f"engine.marginal.{r}.calls", "count")
      for r in ("point", "peri", "cauchy", "trunc_in", "trunc_out", "mixture")),
    ("engine.quad.calls", "count"), ("engine.quad.retries", "count"),
    ("engine.quad.calls_per_marginal", "ratio"), ("engine.marginal.max_err_bound", "nats"),
    ("engine.marginal.nonfinite_err_bounds", "count"),
    ("engine.failed.perinull_error", "count"), ("engine.failed.other_exception", "count"),
    ("simulate.run.calls", "count"), ("simulate.cells", "count"),
    ("simulate.cells_failed", "count"), ("simulate.marginals_per_cell", "ratio"),
    ("simulate.pool.cpu_per_wall", "ratio"),
    ("asymptotics.sampling_distribution.calls", "count"),
    ("isserlis.dense.calls", "count"), ("isserlis.component.calls", "count"),
    ("isserlis.moment.calls", "count"), ("isserlis.component.hit_ratio", "ratio"),
    ("laplace.marginal.calls", "count"),
    ("cli.import.total_s", "s"), ("cli.import.scipy_s", "s"),
    ("cli.import.perinull_self_s", "s"), ("cli.main.calls", "count"),
    ("cli.exit_nonzero", "count"), ("cli.tracebacks", "count"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, root, seed, seconds):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.out = root / ".perfbench"
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.nproc = len(os.sched_getaffinity(0))

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 5.0:
            raise BenchError("out of time before the run finished")
        return left

    def launch(self, workload, mode, workers, **extra):
        """Run worker.py in a fresh interpreter and return its JSON report."""
        opts = [f"--{k}={v}" for k, v in extra.items()]
        cmd = [sys.executable, str(self.root / "perfbench" / "worker.py"),
               f"--root={self.root}", f"--workload={workload}", f"--seed={self.seed}",
               f"--mode={mode}", f"--workers={workers}", *opts]
        timeout = self.remaining()
        cmd.append(f"--launched={time.monotonic()!r}")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=self.env, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} worker ({mode}) did not finish in time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker ({mode}) failed:\n{stderr[-3000:]}")
        return json.loads(stdout.strip().splitlines()[-1])

    def import_times(self):
        """Median over three cold ``python -X importtime -c 'import perinull.cli'``."""
        from spans import parse_importtime

        samples = []
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import perinull.cli"],
                                  env=self.env, capture_output=True, text=True, check=True,
                                  timeout=self.remaining())
            samples.append(parse_importtime(proc.stderr))
        return [statistics.median(column) for column in zip(*samples)]

    def provenance(self, workload, workers, report):
        src = hashlib.sha256()
        for path in sorted((self.root / "src" / "perinull").glob("*.py")):
            src.update(path.name.encode() + b"\0" + path.read_bytes())
        commit = None
        if (self.root / ".git").exists():
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        return {**report["versions"], "nproc": self.nproc, "workers": workers,
                "git_commit": commit, "src_sha256": src.hexdigest()[:16],
                "workload": workload, "seed": self.seed,
                "inputs_sha256": report["inputs_digest"][:16]}

    def default_workers(self, workload):
        return min(2, self.nproc) if workload == "sim_curves" else 1


def percentile_ms(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def measure(bench, workload):
    """The untraced run: end-to-end metrics."""
    workers = bench.default_workers(workload)
    setups = [bench.launch(workload, "setup", workers) for _ in range(SETUP_LAUNCHES - 1)]
    report = bench.launch(workload, "measure", workers, seconds=bench.seconds)
    setups.append(report)
    ok = report["attempted"] - report["failed"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(report["rounds"]),
        "ops_per_s": ok / sum(report["rounds"]),
        "latency_p50_ms": statistics.median(report["latencies"]) * 1e3,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    extra = {"setup_samples_s (ref)": [s["setup_s"] for s in setups],
             "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
             "rounds": len(report["rounds"]),
             "raw_wall_s": statistics.median(report["raw_rounds"]),
             "raw_latency_p50_ms": statistics.median(report["raw_latencies"]) * 1e3,
             "cpu_per_wall": report["cpu_per_wall"]}
    if len(report["latencies"]) >= P90_MIN_OPS:
        extra["latency_p90_ms (ref)"] = percentile_ms(report["latencies"], 90)
    return report, metrics, extra, workers


def traced(bench, workload):
    """The traced run: per-layer metrics, overhead and the bit-identity check.

    The traced pass and its untraced reference use one process (workers=1,
    and ``perinull.cli.main`` in-process for cli_calls), so that every span
    is recorded and the overhead compares like with like. A third pass with
    the workload's usual settings gives ``simulate.pool.cpu_per_wall`` and
    must produce the same outputs.
    """
    spans_path = bench.out / f"{workload}-seed{bench.seed}-spans.json.gz"
    single = {"in-process-cli": int(workload == "cli_calls")}
    ref = bench.launch(workload, "fixed", 1, **single)
    rec = bench.launch(workload, "fixed", 1, spans=spans_path, **single)
    usual = ref
    if bench.default_workers(workload) != 1 or single["in-process-cli"]:
        usual = bench.launch(workload, "fixed", bench.default_workers(workload))
    identical = ref["digest"] == rec["digest"] == usual["digest"]
    layer = dict(rec["per_layer"])
    total, scipy_s, own = bench.import_times()
    layer["cli.import.total_s"] = total
    layer["cli.import.scipy_s"] = scipy_s
    layer["cli.import.perinull_self_s"] = own
    layer["simulate.pool.cpu_per_wall"] = usual["cpu_per_wall"]
    layer["trace.overhead_frac"] = sum(rec["rounds"]) / sum(ref["rounds"]) - 1.0
    report = dict(rec)
    report["failed"] = max(rec["failed"], ref["failed"], usual["failed"])
    extra = {"outputs_identical": identical, "spans_file": spans_path.name,
             "untraced_wall_s (ref)": sum(ref["rounds"]),
             "traced_wall_s (ref)": sum(rec["rounds"])}
    return report, layer, extra, 1


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_point"):
        return "us"
    return dict(PER_LAYER).get(name, "count")


def run_one(bench, workload, trace):
    report, metrics, extra, workers = (traced if trace else measure)(bench, workload)
    correct = report["failed"] == 0 and extra.get("outputs_identical", True)
    result = {
        "provenance": bench.provenance(workload, workers, report),
        "metrics": metrics, "extra": extra,
        "attempted": report["attempted"], "failed": report["failed"],
        "failures_by_kind": report["failures_by_kind"], "failures": report["failures"],
    }
    path = bench.out / f"{workload}-seed{bench.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))

    unit = report["op_unit"]
    print(f"== {workload}  seed={bench.seed}  trace={int(trace)}  ({report['attempted']} {unit})")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for name, value in metrics.items():
        shown = (f"{unit}/ref_s" if name == "ops_per_s"
                 else dict(END_TO_END)[name] if not trace else unit_of(name))
        print(f"  {name:<42} {value:>16.6g} {shown}")
    for name, value in extra.items():
        print(f"  {name:<42} {value!s:>16}")
    kinds = ("perinull_error", "other_exception", "wrong_value", "nonfinite_bound", "cli_exit")
    print(f"  ops_failed_frac {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']}): "
          + " ".join(f"{k}={report['failures_by_kind'].get(k, 0)}" for k in kinds))
    for failure in report["failures"]:
        print(f"    FAILED {failure['op']} [{failure['kind']}] {failure['detail'][:200]}"
              f" inputs={json.dumps(failure['inputs'])[:300]}")
    print(f"  result file: .perfbench/{path.name}")
    wanted = PER_LAYER if trace else END_TO_END
    final = {name: {"value": metrics[name], "unit": u} for name, u in wanted}
    return correct, report["attempted"], report["failed"], final


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "perinull" / "__init__.py").is_file():
        print(f"perfbench: no package source at {root / 'src' / 'perinull'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "perfbench"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            bench = Bench(root, args.seed, args.seconds)
            ok, n_ops, n_failed, final = run_one(bench, name, bool(args.trace))
            correct, attempted, failed = correct and ok, attempted + n_ops, failed + n_failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in final.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
