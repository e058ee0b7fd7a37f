"""In-memory span recorder wrapped around the package's public functions.

Spans are recorded from the benchmark's own files: each public function is
replaced, at every module that binds its name, by a wrapper that appends
``[name, start, end, parent, op_id, info]`` to a list. Nothing inside the
package changes. The wrappers return what the function returns, so a traced
run must produce outputs bit-identical to an untraced one.

``per_layer`` turns the spans into the per-layer metrics. A span's self time
is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import time

import numpy as np

ROUTES = ("point", "peri", "cauchy", "trunc_in", "trunc_out", "mixture")
BF_FUNCTIONS = {"point_null_bf10": "point", "peri_null_bf": "peri",
                "interval_null_bf": "interval", "peri_point_bf": "peripoint",
                "shrinking_peri_null_bf": "shrinking"}
NAME, START, END, PARENT, OP, INFO = range(6)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self._patches = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id,
                    info(args) if info else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = (span[INFO], "raised", type(exc).__name__)
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if name == "engine.marginal":
                span[INFO] = (span[INFO], "bound", float(out[1]))
            elif name == "cli.main":
                span[INFO] = (span[INFO], "returned", out)
            elif name == "simulate.run":
                span[INFO] = (span[INFO], "failed", sum(c.n_failed for c in out.cells))
            return out

        return traced

    def patch(self, modules, attr, name, info=None, owner=None):
        """Wrap ``attr`` on ``owner`` or on every module that binds the same object."""
        owners = [owner] if owner is not None else modules
        original = getattr(owners[0], attr)
        wrapper = self.wrap(name, original, info)
        for mod in owners:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original))

    def install(self, pn):
        import scipy.integrate

        mods = [pn, pn.engine, pn.simulate, pn.asymptotics, pn.laplace, pn.isserlis,
                pn.cli, pn.nct]
        self.patch(mods, "noncentral_t_logpdf", "nct.logpdf", _nct_info, owner=pn.engine)
        self.patch(mods, "marginal_loglik", "engine.marginal", _route)
        self.patch(mods, "quad", "engine.quad", owner=scipy.integrate)
        for attr, variant in BF_FUNCTIONS.items():
            self.patch(mods, attr, f"engine.bf.{variant}")
        self.patch(mods, "run_simulation", "simulate.run", _cells)
        for attr in ("sampling_distribution", "summarize", "c_constants"):
            self.patch(mods, attr, f"asymptotics.{attr}")
        self.patch(mods, "dense", "isserlis.dense", owner=pn.isserlis.MomentTable)
        self.patch(mods, "component", "isserlis.component", owner=pn.isserlis.MomentTable)
        self.patch(mods, "isserlis_moment", "isserlis.moment", owner=pn.isserlis)
        self.patch(mods, "laplace_c1", "laplace.c1")
        self.patch(mods, "laplace_c2", "laplace.c2")
        self.patch(mods, "laplace_marginal", "laplace.marginal")
        self.patch(mods, "main", "cli.main", owner=pn.cli)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id", "info"],
                       "spans": self.spans}, fh, default=repr)


def _nct_info(args):
    x, ncp = args[0], args[2]
    if np.ndim(x) == 0 and np.ndim(ncp) == 0:
        return 1
    return -int(np.broadcast(np.asarray(x), np.asarray(ncp)).size)


def _cells(args):
    cfg = args[0]
    return cfg.replications * len(cfg.variants) * len(cfg.n_grid)


def _route(args):
    prior = args[1]
    kind = type(prior).__name__
    if kind == "TruncatedCauchy":
        return "trunc_in" if prior.inside else "trunc_out"
    return {"PointAtZero": "point", "PeriNullNormal": "peri", "AltCauchy": "cauchy",
            "PeriPointMixture": "mixture", "ShrinkingPeriNull": "peri"}.get(kind, kind)


def _p50_ms(durations):
    return float(np.median(durations)) * 1e3 if durations else 0.0


def per_layer(spans):
    """Per-layer metrics from the spans of one traced pass."""
    n = len(spans)
    duration = np.array([s[END] - s[START] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s, d in zip(spans, duration):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    self_time = duration - child
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_s(name):
        return float(self_time[idx(name)].sum()) if idx(name) else 0.0

    def info(i):
        """The span's own info, without any ("raised"/"bound", value) suffix."""
        value = spans[i][INFO]
        return value[0] if isinstance(value, tuple) else value

    def raised(i):
        value = spans[i][INFO]
        return isinstance(value, tuple) and value[1] == "raised"

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    m = {}
    nct = idx("nct.logpdf")
    points = sum(abs(info(i)) for i in nct)
    m["nct.logpdf.calls"] = len(nct)
    m["nct.logpdf.scalar_calls"] = sum(1 for i in nct if info(i) == 1)
    m["nct.logpdf.points"] = points
    m["nct.logpdf.self_s"] = self_s("nct.logpdf")
    m["nct.logpdf.us_per_point"] = m["nct.logpdf.self_s"] / points * 1e6 if points else 0.0

    marginals = idx("engine.marginal")
    for route in ROUTES:
        mine = [i for i in marginals if info(i) == route]
        m[f"engine.marginal.{route}.calls"] = len(mine)
        m[f"engine.marginal.{route}.self_s"] = float(self_time[mine].sum()) if mine else 0.0
        m[f"engine.marginal.{route}.p50_ms"] = _p50_ms(list(duration[mine]))
    for variant in BF_FUNCTIONS.values():
        top = [i for i in idx(f"engine.bf.{variant}")
               if not parent_name(i).startswith("engine.bf.")]
        m[f"engine.bf.{variant}.p50_ms"] = _p50_ms(list(duration[top]))
    quad = idx("engine.quad")
    m["engine.quad.calls"] = len(quad)
    m["engine.quad.retries"] = sum(
        1 for i in quad if raised(i) and spans[i][INFO][2] == "IntegrationWarning")
    m["engine.quad.calls_per_marginal"] = len(quad) / len(marginals) if marginals else 0.0
    bounds = [spans[i][INFO][2] for i in marginals
              if isinstance(spans[i][INFO], tuple) and spans[i][INFO][1] == "bound"]
    finite = [b for b in bounds if math.isfinite(b)]
    m["engine.marginal.max_err_bound"] = max(finite) if finite else 0.0
    m["engine.marginal.nonfinite_err_bounds"] = len(bounds) - len(finite)
    outermost = [i for i in marginals if parent_name(i) != "engine.marginal"]
    failed = [spans[i][INFO][2] for i in outermost if raised(i)]
    perinull_errors = {"PeriNullError", "InvalidInputError", "DegeneratePriorError",
                       "UnsupportedOrderError", "QuadratureConvergenceError", "SimulationError"}
    m["engine.failed.perinull_error"] = sum(1 for e in failed if e in perinull_errors)
    m["engine.failed.other_exception"] = sum(1 for e in failed if e not in perinull_errors)

    runs = idx("simulate.run")
    cells = sum(info(i) for i in runs)
    in_sim = 0
    for i in outermost:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != "simulate.run":
            p = spans[p][PARENT]
        in_sim += p >= 0
    m["simulate.run.calls"] = len(runs)
    m["simulate.run.self_s"] = self_s("simulate.run")
    m["simulate.cells"] = cells
    m["simulate.cells_failed"] = sum(spans[i][INFO][2] for i in runs
                                     if spans[i][INFO][1] == "failed")
    m["simulate.marginals_per_cell"] = in_sim / cells if cells else 0.0

    m["asymptotics.sampling_distribution.calls"] = len(idx("asymptotics.sampling_distribution"))
    for attr in ("sampling_distribution", "summarize", "c_constants"):
        m[f"asymptotics.{attr}.self_s"] = self_s(f"asymptotics.{attr}")

    component = idx("isserlis.component")
    misses = sum(1 for i in idx("isserlis.moment") if parent_name(i) == "isserlis.component")
    m["isserlis.dense.calls"] = len(idx("isserlis.dense"))
    m["isserlis.dense.self_s"] = self_s("isserlis.dense")
    m["isserlis.component.calls"] = len(component)
    m["isserlis.moment.calls"] = len(idx("isserlis.moment"))
    m["isserlis.component.self_s"] = self_s("isserlis.component")
    m["isserlis.moment.self_s"] = self_s("isserlis.moment")
    m["isserlis.component.hit_ratio"] = 1.0 - misses / len(component) if component else 0.0

    lap = idx("laplace.marginal")
    m["laplace.marginal.calls"] = len(lap)
    m["laplace.marginal.p50_ms"] = _p50_ms(list(duration[lap]))
    m["laplace.c1.self_s"] = self_s("laplace.c1")
    m["laplace.c2.self_s"] = self_s("laplace.c2")

    main = idx("cli.main")
    m["cli.main.calls"] = len(main)
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.exit_nonzero"] = sum(1 for i in main if raised(i) or spans[i][INFO][2] != 0)
    m["cli.tracebacks"] = sum(1 for i in main if raised(i) and spans[i][INFO][2] != "SystemExit")
    return m


def parse_importtime(stderr):
    """Seconds from ``python -X importtime -c "import perinull.cli"``.

    Returns the total import of ``perinull`` and ``perinull.cli``, the part
    spent importing scipy (scipy entries not nested in another scipy
    entry), and perinull's own modules' self time. importtime prints a module
    after the modules it imported, two spaces deeper per level, so an
    entry's parent is the next later entry one level up.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cumulative_us, raw = line.split("|")
        self_us = head[len("import time:"):]
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), float(self_us), float(cumulative_us)))

    def top(name):
        return name.split(".")[0]

    total = scipy_s = own = 0.0
    for k, (depth, module, self_us, cumulative_us) in enumerate(entries):
        if top(module) == "perinull":
            own += self_us
            total += cumulative_us if depth == 0 else 0.0
        if top(module) == "scipy":
            parent = next((e for e in entries[k + 1:] if e[0] == depth - 1), None)
            if parent is None or top(parent[1]) != "scipy":
                scipy_s += cumulative_us
    return total / 1e6, scipy_s / 1e6, own / 1e6
