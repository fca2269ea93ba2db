"""Fast self-test of the benchmark harness.

Usage (from the repository root): python3 perfbench/selftest.py

1. Runs the harness end to end, untraced and traced, on a tiny touching
   system (lattice level 300, 19 grid points) and checks that the result line
   has exactly the four keys and every metric BENCHMARK.json names, each
   with its unit.
2. Checks that the accuracy gate accepts the reference curve and rejects a
   copy with one value perturbed, in two units.
3. Checks that the benchmark exits non-zero, printing no result, in a
   directory holding only BENCHMARK.json and the benchmark's own files.

Prints one line per failed check and exits 1 if any failed.
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY = replace(run.WORKLOADS["touching"], grid_points=19,
               flags=("--lattice_level", "300", "--residual_grid_points", "101",
                      "--fd_step", "0.01", "--ode_steps", "2000"),
               floors={"dis": 1.0, "ode": 8.0, "surface": 11.0})


def check_metrics(failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run.run(TINY, seed=3, seconds=1, trace=trace)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"]:
            failures.append(f"trace {trace}: tiny run failed: "
                            f"{[r['problems'] for r in record['ops']]}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            failures.append(f"trace {trace}: metrics {got} != {want}")


def check_gate(failures):
    wl = run.WORKLOADS["touching"]
    ref = run.load_reference(wl)
    for unit in (1.0, 0.25):
        rows = [[s] + [ref[f][j] * unit ** (2 if f[0] == "A" else 1)
                       for f in run.FUNCS] for j, s in enumerate(ref["s"])]
        digits, problem = run.gate(wl, ref, unit, "ode", rows)
        if problem or digits != run.MAX_DIGITS:
            failures.append(f"unit {unit}: gate rejected the reference ({problem})")
        rows[90][4] += 1e-8 * ref["length"] * unit   # B2, off by 1e-8 L
        digits, problem = run.gate(wl, ref, unit, "ode", rows)
        if problem is None or abs(digits - 8.0) > 0.01:
            failures.append(f"unit {unit}: gate passed a perturbed curve "
                            f"({digits:.2f} digits)")


def check_bare_directory(failures):
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cp = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "touching",
                         "--seed", "1", "--seconds", "1", "--trace", "0"],
                        cwd=bare, capture_output=True, text=True, timeout=60,
                        stdin=subprocess.DEVNULL)
    shutil.rmtree(bare)
    if cp.returncode == 0 or cp.stdout.strip():
        failures.append(f"bare directory: exit {cp.returncode}, stdout {cp.stdout!r}")


def main():
    failures = []
    check_gate(failures)
    check_bare_directory(failures)
    check_metrics(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
