"""Outside-in tracer for the angelesco CLI, and the per-layer metrics of its spans.

The package binds its collaborators with ``from .x import y``, so a call
looks the callee up in the *calling* module's namespace.  :func:`install`
therefore replaces each name where it is called (``angelesco.cli.limit_curve``,
``angelesco.lattice.axis_data``, ``angelesco.surface.bisect``, ...) with a
wrapper that records a span or bumps a counter.  No file of the package
changes, and the wrappers return exactly what the wrapped function returns,
so tracing cannot change an output byte.

A span is ``{"id", "name", "start", "end", "parent", "op"}``.  Spans stay in
memory; the child process hands them to the benchmark once, at exit.
"""
import time
from collections import Counter

# Per-layer time metrics: (span name, True for self time).  Self time is the
# span's duration minus that of its direct child spans.
TIME_METRICS = {
    "orthopoly.axis_data_s": ("orthopoly.axis_data", False),
    "lattice.sweep_s": ("lattice.solve_lattice", True),
    "lattice.curve_s": ("lattice.curve_from_lattice", False),
    "surface.plateau_s": ("surface.plateau_bounds", True),
    "surface.threshold_ray_s": ("surface.threshold_ray", False),
    "surface.limit_curve_s": ("surface.limit_curve", True),
    "surface.pushed_beta_s": ("surface.pushed_beta", False),
    "ode.branch_s": ("ode.integrate_branch", False),
    "ode.assemble_s": ("ode.assemble_curve", False),
    "crossval.compare_s": ("crossval.compare", False),
    "crossval.identity_s": ("crossval.identity_checks", False),
    "crossval.residuals_s": ("crossval.ode_residuals", False),
    "cli.write_s": ("cli.write_curve_csv", False),
}

# Counters summed over the processes of one operation.
COUNT_METRICS = (
    "orthopoly.ratio_steps", "lattice.diagonals",
    "surface.points.left", "surface.points.right", "surface.points.plateau",
    "rootfind.bisect_calls", "rootfind.f_evals", "rootfind.f_points",
    "rootfind.expansions", "ode.rhs_calls", "ode.steps",
)

# Quality signals, maximum over the calls of one operation, in units of the
# hull length L of the two intervals (A-type values in L^2, B-type in L).
GAUGE_METRICS = ("lattice.max_residual", "ode.splice_mismatch",
                 "ode.identity_drift")


class Tracer:
    """Spans, counters and gauges of one process."""

    def __init__(self, op, length):
        self.op = op
        self.length = float(length)
        self.spans = []
        self.counters = Counter()
        self.gauges = {}
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None,
               "op": self.op}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def gauge(self, key, value):
        self.gauges[key] = max(self.gauges.get(key, 0.0), float(value))

    def wrap(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` by a spanned call with optional hooks."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            out = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(out)
            return out

        setattr(module, attr, wrapper)

    def dump(self):
        return {"spans": self.spans, "counters": dict(self.counters),
                "gauges": self.gauges}


def install(tr):
    """Patch the angelesco call sites the per-layer metrics are read from."""
    import numpy as np

    import angelesco.cli as cli
    import angelesco.lattice as lattice
    import angelesco.ode as ode
    import angelesco.surface as surface

    c = tr.counters
    L = tr.length

    def lattice_done(lat):
        c["lattice.diagonals"] += lat.m
        tr.gauge("lattice.max_residual", lat.max_residual() / L)

    def surface_zones(system, grid, info):
        # the zones limit_curve solves, from the plateau window it is given
        g = np.asarray(grid, dtype=float)
        interior = (g > 0.0) & (g < 1.0)
        c["surface.points.left"] += int(np.count_nonzero(interior & (g < info.c1)))
        c["surface.points.right"] += int(np.count_nonzero(interior & (g > info.c2)))
        c["surface.points.plateau"] += int(np.count_nonzero(
            interior & (g >= info.c1) & (g <= info.c2)))

    def assembled(curve):
        mism = curve.meta["splice_mismatch"]["at_c1_vs_c2"]
        tr.gauge("ode.splice_mismatch", max(mism[0] / L ** 2, mism[1] / L ** 2,
                                            mism[2] / L, mism[3] / L))
        drift = curve.meta["identity_drift"]
        tr.gauge("ode.identity_drift", max(drift.values()) / L)

    for attr, name, before, after in (
            ("plateau_bounds", "surface.plateau_bounds", None, None),
            ("limit_curve", "surface.limit_curve", surface_zones, None),
            ("solve_lattice", "lattice.solve_lattice", None, lattice_done),
            ("curve_from_lattice", "lattice.curve_from_lattice", None, None),
            ("solve_system", "ode.solve_system", None, None),
            ("compare", "crossval.compare", None, None),
            ("identity_checks", "crossval.identity_checks", None, None),
            ("ode_residuals", "crossval.ode_residuals", None, None),
            ("write_curve_csv", "cli.write_curve_csv", None, None)):
        tr.wrap(cli, attr, name, before, after)
    tr.wrap(lattice, "axis_data", "orthopoly.axis_data",
            after=lambda ax: c.update({"orthopoly.ratio_steps": ax.m + 1}))
    tr.wrap(surface, "threshold_ray", "surface.threshold_ray")
    tr.wrap(surface, "pushed_beta", "surface.pushed_beta")
    tr.wrap(ode, "integrate_branch", "ode.integrate_branch",
            after=lambda br: c.update({"ode.steps": br.meta["steps"]}))
    tr.wrap(ode, "assemble_curve", "ode.assemble_curve", after=assembled)

    real_bisect = surface.bisect
    real_expand = surface.expand_upper
    real_rhs = ode.rhs

    def bisect(f, lo, hi, *args, **kwargs):
        # Count f's calls and points, and the points the bracket had already
        # reached.  Until the bracket shrinks to adjacent doubles every
        # midpoint is new; after that the midpoint falls on a bracket end and
        # stays there, so every wasted evaluation repeats the last point x_n,
        # which was itself evaluated once usefully.  Wasted = #(x == x_n) - 1
        # per element.
        c["rootfind.bisect_calls"] += 1
        xs = []

        def counted(x):
            xs.append(x)
            return f(x)

        out = real_bisect(counted, lo, hi, *args, **kwargs)
        pts = np.stack([np.asarray(x, dtype=float) for x in xs])
        wasted = np.count_nonzero(pts == pts[-1]) - pts[-1].size
        c["rootfind.f_evals"] += len(xs)
        c["rootfind.f_points"] += pts.size
        c["rootfind.useful_points"] += int(pts.size - wasted)
        return out

    def expand_upper(f, lo, hi, *args, **kwargs):
        out = real_expand(f, lo, hi, *args, **kwargs)
        doublings = np.log2(np.asarray(out, dtype=float) / np.asarray(hi, dtype=float))
        c["rootfind.expansions"] += int(np.sum(np.rint(doublings)))
        return out

    def rhs(s, y):
        c["ode.rhs_calls"] += 1
        return real_rhs(s, y)

    surface.bisect = bisect
    surface.expand_upper = expand_upper
    ode.rhs = rhs


def op_layer_metrics(dumps):
    """Per-layer values of one operation from its processes' trace dumps."""
    spans = []
    counters = Counter()
    gauges = {}
    for d in dumps:
        base = len(spans)
        for s in d["spans"]:
            s = dict(s, id=s["id"] + base)
            if s["parent"] is not None:
                s["parent"] += base
            spans.append(s)
        counters.update(d["counters"])
        for k, v in d["gauges"].items():
            gauges[k] = max(gauges.get(k, 0.0), v)

    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]
    out = {}
    for metric, (name, self_time) in TIME_METRICS.items():
        out[metric] = sum((dur[s["id"]] - (child_time[s["id"]] if self_time else 0.0)
                           for s in spans if s["name"] == name), 0.0)
    for metric in COUNT_METRICS:
        out[metric] = counters.get(metric, 0)
    points = counters.get("rootfind.f_points", 0)
    out["rootfind.useful_ratio"] = (counters.get("rootfind.useful_points", 0) / points
                                    if points else 0.0)
    for metric in GAUGE_METRICS:
        out[metric] = gauges.get(metric, 0.0)
    return out, spans
