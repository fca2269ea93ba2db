"""Benchmark of the ``angelesco`` command line, driven as a user drives it.

Usage (from the repository root):

    python3 perfbench/run.py --workload touching --seed 1 --seconds 20 --trace 0

Each operation runs the CLI in fresh interpreter processes, one after the
other: ``angelesco compute`` and then, where the workload has it,
``angelesco validate`` in the same output directory.  Operations repeat until
``--seconds`` is used up.  Every operation is checked:

* every command exits 0 and ``validate`` prints only PASS lines;
* each route's CSV keeps at least the workload's floor of correct digits
  against the committed surface reference (``refs/``), measured scale-free
  (A over L^2, B over L, L the hull length of the two intervals);
* every CSV and ``validate_report.json`` is byte-identical across the run's
  operations, traced or not (``run_meta.json`` carries wall timings and is
  left out).

The seed picks a power-of-two unit for the system (its intervals are
multiplied by 1/4, 1/2, 1 or 2).  Binary floating point scales such a system
exactly, so every route does bit-for-bit the same work in other units: the
seed changes the bytes of the outputs and exercises the scale-free gate, not
the cost.

Times are reported at a reference host speed (``calib.py``): the host's
speed swings within seconds, so each CLI process times a small reference
kernel every 50 ms, the kernel's time is taken off the process's, and the
rest is scaled by the kernel's mean time meanwhile.  Set-up runs are scaled
by kernel samples taken just before and after them.  The raw times are in
the record and printed beside the metrics.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced and untraced operations
alternate and it carries the per-layer metrics read from the traced ones
(see ``tracer.py``).  A full record, spans included, goes to
``perfbench/_work/``.
"""
import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
from tracer import COUNT_METRICS, GAUGE_METRICS, TIME_METRICS, op_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFS = HERE / "refs"

UNITS = (0.25, 0.5, 1.0, 2.0)
FUNCS = ("A1", "A2", "B1", "B2")
# lattice points this close to the plateau window are skipped, as validate does
EXCLUDE_MARGIN = 0.05
# digits are capped where a double carries no more
MAX_DIGITS = 16.0
MIN_OPS = 2
# the reference kernel set-up times are scaled by: process start and imports
# followed it more closely than the scalar kernel on the development host
SETUP_KERNEL = "array"
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One system and the CLI operation run on it.

    ``routes`` are the methods ``compute`` writes; ``floors`` the fewest
    correct digits each route's CSV may show before the operation fails.
    """
    name: str
    interval1: tuple
    interval2: tuple
    routes: tuple = ("dis", "ode", "surface")
    validate: bool = True
    flags: tuple = ()
    grid_points: int = 181
    floors: dict = field(default_factory=dict)
    kernel: str = "scalar"  # the reference kernel its times are scaled by

    def commands(self, unit):
        common = [f"--interval1={self.interval1[0] * unit!r},{self.interval1[1] * unit!r}",
                  f"--interval2={self.interval2[0] * unit!r},{self.interval2[1] * unit!r}",
                  "--grid_points", str(self.grid_points), *self.flags,
                  "--output_dir", "out"]
        cmds = [["compute", *common, "--methods", ",".join(self.routes)]]
        if self.validate:
            cmds.append(["validate", *common])
        return cmds


# Floors sit about half a digit under what the seed commit delivers
# (touching: dis 3.08, ode 11.35, surface 11.79 from the CSVs; gap: 3.06,
# 11.38, 11.79; lattice-wide: dis 6.54).
WORKLOADS = {w.name: w for w in (
    # no plateau: the surface route solves every interior grid point
    Workload("touching", (-2.0, 0.0), (0.0, 1.0),
             floors={"dis": 2.5, "ode": 10.5, "surface": 11.0}),
    # plateau window [0.370, 0.841]: cost moves to the plateau's gap solve
    Workload("gap", (-2.0, 0.0), (0.25, 1.0),
             floors={"dis": 2.5, "ode": 10.5, "surface": 11.0}),
    # lattice only, |A| ~ 1e5: axis data and the diagonal sweep
    Workload("lattice-wide", (-1000.0, 0.0), (0.0, 1.0), routes=("dis",),
             validate=False,
             flags=("--lattice_level", "6000", "--extrapolate", "true"),
             floors={"dis": 6.0}, kernel="array"),
)}

END_TO_END = {"cli_s": "s", "setup_s": "s", "compute_s": "s",
              "peak_rss_mb": "MB", "digits_dis": "digits"}
PER_LAYER = {**{m: "s" for m in TIME_METRICS},
             **{m: "count" for m in COUNT_METRICS},
             **{m: "1" for m in GAUGE_METRICS},
             "rootfind.useful_ratio": "1", "cli.bytes_written": "bytes",
             "cli.validate_s": "s", "ode.digits": "digits",
             "surface.digits": "digits", "trace.overhead_ratio": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (missing package or reference)."""


def load_reference(wl):
    path = REFS / f"{wl.name}.json"
    if not path.is_file():
        raise BenchError(f"missing reference {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "s,A1,A2,B1,B2":
        raise ValueError(f"{path.name}: bad header")
    return [tuple(float(v) for v in ln.split(",")) for ln in lines[1:] if ln]


def route_digits(rows, ref, unit, exclude_plateau):
    """Correct digits of curve ``rows`` against the reference in ``unit``.

    -log10 of the worst |x - ref| over A1..B2 and the accepted reference
    points, with A-values divided by L^2 and B-values by L.
    """
    n = len(ref["s"])
    L = ref["length"] * unit
    c1, c2 = ref["c1"], ref["c2"]
    worst = 0.0
    for row in rows:
        s = row[0]
        j = round(s * (n - 1))
        if not 0 <= j < n or abs(ref["s"][j] - s) > 1e-9:
            raise ValueError(f"s = {s} is not on the reference grid")
        if not ref["accepted"][j]:
            continue
        if exclude_plateau and max(c1 - s, s - c2, 0.0) < EXCLUDE_MARGIN:
            continue
        for k, f in enumerate(FUNCS):
            power = 2 if f[0] == "A" else 1
            err = abs(row[k + 1] - ref[f][j] * unit ** power) / L ** power
            worst = max(worst, err)
    return MAX_DIGITS if worst == 0.0 else min(MAX_DIGITS, -math.log10(worst))


def gate(wl, ref, unit, route, rows):
    """(digits, problem or None) for one route's CSV rows."""
    if len(rows) != wl.grid_points:
        return 0.0, f"{route}.csv has {len(rows)} rows, want {wl.grid_points}"
    d = route_digits(rows, ref, unit, exclude_plateau=route == "dis")
    if d < wl.floors[route]:
        return d, f"{route}: {d:.2f} digits, floor {wl.floors[route]}"
    return d, None


def child_env():
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def environment(env):
    sha = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            cp = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, stdin=subprocess.DEVNULL)
            sha = cp.stdout.strip() or None
        except OSError:
            pass
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
            "loadavg_start": list(os.getloadavg()),
            "thread_env": {v: env[v] for v in THREAD_VARS}}


def time_import(env):
    """Wall time of a fresh interpreter importing angelesco.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import angelesco.cli"], cwd=WORK,
                   env=env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_op(wl, ref, unit, op, traced, env, op_dir):
    """Run one operation in ``op_dir``; returns its measurements and problems.

    ``norm_s`` and ``main_norm_s`` are ``wall_s`` and ``main_s`` at
    reference speed, from the kernel samples each command's process took.
    """
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    out = op_dir / "out"
    rec = {"op": op, "traced": traced, "wall_s": 0.0, "main_s": {},
           "norm_s": 0.0, "main_norm_s": {}, "kernel_s": [], "rss_mb": 0.0,
           "digits": {}, "hashes": {}, "bytes_written": 0, "problems": []}
    problems = rec["problems"]
    dumps = []
    length = ref["length"] * unit
    for cmd in wl.commands(unit):
        result = op_dir / f"{cmd[0]}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(result),
                "1" if traced else "0", str(op), repr(length), wl.kernel, "--", *cmd]
        t0 = time.perf_counter()
        try:
            cp = subprocess.run(argv, cwd=op_dir, env=env, text=True,
                                capture_output=True, stdin=subprocess.DEVNULL,
                                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"{cmd[0]} timed out")
            return rec, dumps
        wall = time.perf_counter() - t0
        if cp.returncode != 0 or not result.is_file():
            problems.append(f"{cmd[0]} exited {cp.returncode}: "
                            f"{(cp.stderr or cp.stdout).strip()[-300:]}")
            continue
        rep = json.loads(result.read_text(encoding="utf-8"))
        if not Path(rep["package"]).resolve().is_relative_to(SRC.resolve()):
            problems.append(f"imported angelesco from {rep['package']}")
        # take the kernel's own time off, and scale the rest by its speed
        # meanwhile (a process too short for one sample is timed just after)
        window = rep["main_window"]
        durs = [d for _, d in rep["kernel_samples"]]
        in_main = [d for t, d in rep["kernel_samples"] if window[0] <= t <= window[1]]
        wall -= sum(durs)
        main_s = rep["main_s"] - sum(in_main)
        durs = durs or [calib.host_time(wl.kernel)]
        rec["wall_s"] += wall
        rec["norm_s"] += wall * calib.scale(wl.kernel, durs)
        rec["main_s"][cmd[0]] = main_s
        rec["main_norm_s"][cmd[0]] = main_s * calib.scale(wl.kernel, in_main or durs)
        rec["kernel_s"] += durs
        rec["rss_mb"] = max(rec["rss_mb"], rep["maxrss_kb"] / 1024.0)
        if rep["trace"] is not None:
            dumps.append(rep["trace"])
        if cmd[0] == "validate":
            verdicts = [ln.split()[0] for ln in cp.stdout.splitlines()
                        if ln.startswith(("PASS", "FAIL"))]
            rec["checks_passed"] = verdicts.count("PASS")
            if not verdicts or "FAIL" in verdicts:
                problems.append(f"validate verdicts {verdicts}")
    # run_meta.json carries wall timings; every other output must repeat
    for p in sorted(out.iterdir()) if out.is_dir() else []:
        if p.name != "run_meta.json":
            data = p.read_bytes()
            rec["hashes"][p.name] = hashlib.sha256(data).hexdigest()
            rec["bytes_written"] += len(data)
    for route in wl.routes:
        path = out / f"{route}.csv"
        if not path.is_file():
            problems.append(f"{route}.csv missing")
            continue
        try:
            d, problem = gate(wl, ref, unit, route, read_csv(path))
        except ValueError as exc:
            d, problem = 0.0, f"{route}.csv: {exc}"
        rec["digits"][route] = d
        if problem:
            problems.append(problem)
    return rec, dumps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(good, setup):
    """End-to-end medians over the good operations, with their samples.

    Times are at reference host speed (calib.py); the raw samples are kept
    under ``raw.<name>``.
    """
    samples = {
        "cli_s": [r["norm_s"] for r in good],
        "setup_s": [s["norm_s"] for s in setup],
        "compute_s": [r["main_norm_s"]["compute"] for r in good],
        "peak_rss_mb": [r["rss_mb"] for r in good],
        "digits_dis": [r["digits"]["dis"] for r in good],
        "raw.cli_s": [r["wall_s"] for r in good],
        "raw.setup_s": [s["wall_s"] for s in setup],
        "raw.compute_s": [r["main_s"]["compute"] for r in good],
    }
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def per_layer(good):
    """Per-layer values from the traced operations: medians of times and
    quality signals, and the counts, which repeat exactly."""
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    layers = [r["layers"] for r in traced]
    metrics = {k: v if k in COUNT_METRICS else statistics.median(x[k] for x in layers)
               for k, v in layers[0].items()}
    metrics["cli.bytes_written"] = good[0]["bytes_written"]
    metrics["cli.validate_s"] = statistics.median(
        r["main_norm_s"].get("validate", 0.0) for r in untraced)
    for route in ("ode", "surface"):
        metrics[f"{route}.digits"] = good[0]["digits"].get(route, 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["norm_s"] for r in traced)
        / statistics.median(r["norm_s"] for r in untraced))
    return metrics


def run(wl, seed, seconds, trace):
    """Run one benchmark; returns (result dict, full record)."""
    if not (SRC / "angelesco" / "cli.py").is_file():
        raise BenchError(f"no angelesco package under {SRC}")
    ref = load_reference(wl)
    unit = UNITS[random.Random(seed).randrange(len(UNITS))]
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    record = {"workload": wl.name, "seed": seed, "unit": unit,
              "seconds": seconds, "trace": trace, "env": environment(env)}
    time_import(env)  # warm-up: byte-compiles the package in a fresh checkout

    # one set-up sample before each operation, so both see the same host,
    # scaled by the host's speed just before and just after it
    ops, spans, op_times, setup = [], [], [], []
    op_dir = WORK / f"op-{os.getpid()}"  # runs sharing a checkout stay apart
    t_begin = time.perf_counter()
    while len(ops) < MIN_OPS or (time.perf_counter() - t_begin
                                 + statistics.median(op_times) <= seconds):
        t0 = time.perf_counter()
        before = calib.host_time(SETUP_KERNEL)
        wall = time_import(env)
        host = [before, calib.host_time(SETUP_KERNEL)]
        setup.append({"wall_s": wall, "norm_s": wall * calib.scale(SETUP_KERNEL, host),
                      "host_s": host})
        traced = bool(trace) and len(ops) % 2 == 1
        rec, dumps = run_op(wl, ref, unit, len(ops), traced, env, op_dir)
        if traced and not rec["problems"]:
            rec["layers"], op_spans = op_layer_metrics(dumps)
            spans.extend(op_spans)
        ops.append(rec)
        op_times.append(time.perf_counter() - t0)
    shutil.rmtree(op_dir)

    # determinism: every operation repeats the first one's output bytes, and
    # every traced one the first traced one's counts
    first = ops[0]["hashes"]
    counted = [r for r in ops if "layers" in r]
    for rec in ops[1:]:
        if rec["hashes"] != first:
            rec["problems"].append("output bytes differ from operation 0")
    for rec in counted[1:]:
        if any(rec["layers"][k] != counted[0]["layers"][k] for k in COUNT_METRICS):
            rec["problems"].append("solver counts differ from the first traced operation")
    failed = sum(1 for r in ops if r["problems"])
    good = [r for r in ops if not r["problems"]]

    names = PER_LAYER if trace else END_TO_END
    samples = {}
    if trace and len({r["traced"] for r in good}) == 2:
        metrics = per_layer(good)
    elif not trace and good:
        metrics, samples = end_to_end(good, setup)
    else:  # nothing measured: every operation (or every traced one) failed
        metrics = {}
    record["env"]["loadavg_end"] = list(os.getloadavg())
    record.update(setup_s=setup, ops=ops, samples=samples, spans=spans)
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(ops),
              "failed": failed,
              "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                          for k, u in names.items()}}
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        result, record = run(wl, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out = WORK / f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"{wl.name}: unit {record['unit']}, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for rec in record["ops"]:
        for problem in rec["problems"]:
            print(f"  op {rec['op']}: {problem}")
    for name, m in result["metrics"].items():
        vals = record["samples"].get(name)
        spread = ""
        if vals:
            q1, q3 = quartiles(vals)
            spread = f"  (n={len(vals)}, q1 {q1:.6g}, q3 {q3:.6g})"
        print(f"  {name} = {m['value']:.6g} {m['unit']}{spread}")
        raw = record["samples"].get(f"raw.{name}")
        if raw:
            print(f"    raw {statistics.median(raw):.6g} {m['unit']}")
    in_cli = [d for r in record["ops"] for d in r["kernel_s"]]
    print(f"  reference kernels: {wl.kernel} in the CLI processes, median "
          f"{statistics.median(in_cli):.4g} s (scale {calib.REFERENCE_S[wl.kernel]} s); "
          f"{SETUP_KERNEL} around set-up, median "
          f"{statistics.median(h for s in record['setup_s'] for h in s['host_s']):.4g} s "
          f"(scale {calib.REFERENCE_S[SETUP_KERNEL]} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
