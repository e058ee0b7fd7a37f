"""One benchmark process: set up a workload, run its rounds, check them.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``. Prints one JSON object as its last stdout line.

Modes:

* ``setup``   -- import, generate the first round's inputs, warm up, stop;
* ``measure`` -- then repeat rounds until ``--seconds`` of timed work;
* ``fixed``   -- then run exactly one round (traced runs), so that counts
  repeat exactly between two runs with one seed.

``--spans PATH`` makes the run traced and writes its spans to PATH.

Timings are also given in reference seconds. On a shared host the same
work can take twice as long from one second to the next, and each CPU
changes speed on its own. A ``SpeedSampler`` therefore times a small fixed
kernel every 50 ms (from a SIGALRM handler, so it runs on the CPU the work
runs on) and just before and after each op. Speed is one over the median
kernel time; an op's reference time is its measured time times
``PROBE_REF_S`` times the speed: the time the op would take on a machine
where the kernel takes ``PROBE_REF_S``. A host slowdown stretches
different code by different factors: a numeric pure-Python loop far more
than import. Set-up, which is mostly import, is scaled by ``import_kernel``
(unmarshal and run a module body), sampled from the start of this script on
whichever CPU it runs. The timed ops mix both kinds of work and are scaled
by ``op_kernel``, the sum of the two, sampled on each of the workload's
CPUs in turn. Raw and reference times are both reported; README.md gives
the spreads each kernel leaves and how much of a memory-heavy slowdown the
correction hides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

PROBE_REF_S = 1e-4       # nominal seconds of one probe kernel
PROBE_EVERY_S = 0.05

# a small module body: classes, functions and constants, as in an import
_MODULE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n    x = {i}\n    def f(self, a, b={i}):\n        return a + b * self.x\n"
    f"def h{i}(a, *args, **kw):\n    return {{'a': a, 'n': len(args), 'k': sorted(kw)}}\n"
    f"T{i} = ({i}, 'name{i}', {i}.5, None, (1, 2))\n" for i in range(6)), "<probe>", "exec"))


def loop_kernel():
    """Seconds for a fixed pure-Python loop. It runs once per sample, amid the
    workload's own code, so it meets the same caches as that code (a warmed,
    repeated probe tracks the package worse). No numpy: it runs in a signal
    handler, between any two bytecodes of the workload."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 500):
        total += math.log(i) * math.exp(-i * 1e-4)
    return time.perf_counter() - start


def import_kernel():
    """Seconds to unmarshal and run a small module body, the work of import."""
    start = time.perf_counter()
    exec(marshal.loads(_MODULE), {"__name__": "probe"})
    return time.perf_counter() - start


def op_kernel():
    return loop_kernel() + import_kernel()


class SpeedSampler:
    """Times of ``kernel``, sampled every PROBE_EVERY_S seconds on each of
    ``cpus`` in turn (by default, on whichever CPU the process runs)."""

    def __init__(self, kernel, cpus=(None,)):
        self.kernel = kernel
        self.cpus = cpus
        self.samples = {cpu: [] for cpu in cpus}
        self.tick = 0

    def _sample(self, cpu):
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        self.samples[cpu].append((time.perf_counter(), self.kernel()))
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus)

    def _on_alarm(self, signum, frame):
        self.tick += 1
        self._sample(self.cpus[self.tick % len(self.cpus)])

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """One sample on every CPU now: brackets an op, however short."""
        for cpu in self.cpus:
            self._sample(cpu)

    def scale(self, t0, t1):
        """PROBE_REF_S times the CPUs' mean speed in [t0, t1], a CPU's speed
        being one over its median kernel time (the median ignores samples
        that another process interrupted). The pool hands out replications
        as workers free up, so its wall time follows the CPUs' summed speed."""
        speeds = []
        for samples in self.samples.values():
            inside = [p for t, p in samples if t0 - 0.05 <= t <= t1 + 0.05]
            speeds.append(1.0 / statistics.median(inside or [samples[-1][1]]))
        return PROBE_REF_S * sum(speeds) / len(speeds)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--in-process-cli", type=int, default=0,
                    help="cli_calls: call perinull.cli.main in this process")
    ap.add_argument("--spans", help="trace the run; write its spans here (gzip JSON)")
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    args = ap.parse_args(argv)
    # one CPU per process of the workload; child processes inherit the set
    cpus = sorted(os.sched_getaffinity(0))[:max(1, args.workers)]
    os.sched_setaffinity(0, cpus)
    setup_sampler = SpeedSampler(import_kernel)
    setup_sampler.start()
    setup_sampler.mark()

    import numpy
    import scipy

    import perinull as pn
    import perinull.cli
    import perinull.models

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(pn.__file__).startswith(src + os.sep):
        raise SystemExit(f"perinull imported from {pn.__file__}, not from {src}")

    import workloads

    tmp = tempfile.mkdtemp(dir=os.path.join(args.root, ".perfbench"))
    try:
        report = run(args, pn, workloads, tmp, setup_sampler, cpus)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__, "perinull": pn.__version__}
    print(json.dumps(report))


def run(args, pn, workloads, tmp, setup_sampler, cpus):
    ctx = workloads.Context(root=args.root, tmp=tmp, workers=args.workers,
                            in_process_cli=bool(args.in_process_cli))
    wl = workloads.WORKLOADS[args.workload](pn, args.seed, ctx)
    first = wl.round_calls(0)
    wl.warm_up()
    raw_setup_s = time.monotonic() - args.launched
    setup_sampler.mark()
    setup_sampler.stop()
    now = time.perf_counter()
    setup = {"setup_s": raw_setup_s * setup_sampler.scale(now - raw_setup_s, now),
             "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        return setup

    recorder = None
    if args.spans:
        from spans import Recorder

        recorder = Recorder()
        recorder.install(pn)
    rounds, raw_rounds, records = [], [], []
    sampler = SpeedSampler(op_kernel, cpus)
    sampler.start()
    cpu0 = os.times()
    r = 0
    try:
        while True:
            calls = first if r == 0 else wl.round_calls(r)
            raw = ref = 0.0
            for call in calls:
                if recorder:
                    recorder.op_id = call.op_id
                sampler.mark()
                t0 = time.perf_counter()
                try:
                    out, exc = wl.execute(call), None
                except Exception as e:  # a failed op is counted, never fatal
                    out, exc = None, e
                t1 = time.perf_counter()
                sampler.mark()
                elapsed = t1 - t0
                scaled = elapsed * sampler.scale(t0, t1)
                records.append((call, out, exc, elapsed, scaled))
                raw += elapsed
                ref += scaled
            rounds.append(ref)
            raw_rounds.append(raw)
            if r == 0:
                # the first round is the workload's fixed work; later rounds
                # only grow the package's per-nu caches further
                peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            r += 1
            if args.mode == "fixed" or sum(raw_rounds) >= args.seconds:
                break
    finally:
        sampler.stop()
        if recorder:
            recorder.uninstall()
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])

    # checks run after the timed rounds, with tracing off
    failures, attempted, by_kind = [], 0, {}
    digest = hashlib.sha256()
    inputs_digest = hashlib.sha256(
        json.dumps([c.inputs for c in first], sort_keys=True, default=repr).encode())
    for call, out, exc, _, _ in records:
        attempted += call.n_ops
        if exc is not None:
            kind, detail = workloads.failure_from(exc, pn)
            found = [(kind, detail)] * call.n_ops
            digest.update(f"{call.op_id}!{type(exc).__name__}".encode())
        else:
            found = wl.verify(call, out)
            digest.update(f"{call.op_id}={wl.canonical(call, out)}".encode())
        for kind, detail in found:
            by_kind[kind] = by_kind.get(kind, 0) + 1
            if len(failures) < 25:
                failures.append({"op": call.op_id, "kind": kind, "detail": detail[:400],
                                 "inputs": json.loads(json.dumps(call.inputs, default=repr))})
    report = {
        **setup,
        "rounds": rounds,
        "raw_rounds": raw_rounds,
        "latencies": [rec[4] for rec in records],
        "raw_latencies": [rec[3] for rec in records],
        "attempted": attempted,
        "failed": sum(by_kind.values()),
        "failures_by_kind": by_kind,
        "failures": failures,
        "peak_rss_mb": peak_kb / 1024.0,
        "cpu_per_wall": cpu / sum(raw_rounds),
        "digest": digest.hexdigest(),
        "inputs_digest": inputs_digest.hexdigest(),  # of round 0, the fixed work
        "op_unit": wl.op_unit,
    }
    if recorder:
        from spans import per_layer

        report["per_layer"] = per_layer(recorder.spans)
        recorder.write(args.spans)
    return report


if __name__ == "__main__":
    main()
