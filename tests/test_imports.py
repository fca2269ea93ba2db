import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import angelesco


def _unused_imports(path):
    """(line, name) of each name ``path`` imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_every_import_in_the_package_is_used():
    # __init__ imports to re-export, so it is the one exception
    src = Path(angelesco.__file__).parent
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
              for line, name in _unused_imports(path)]
    assert not unused, unused


def test_the_scan_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport numpy as np\n"
                   "from os import path, sep\n\nx = np.pi + len(sep)\n")
    assert _unused_imports(mod) == [(1, "math"), (3, "path")]


def _export_faults(path):
    """What is wrong with the ``__all__`` of the package ``__init__`` at
    ``path``: each name listed twice, each listed name it does not import
    (a stale export) and each imported name it does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported, imported = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = ast.literal_eval(node.value)
    twice = sorted({n for n in exported if exported.count(n) > 1})
    return ([f"listed twice: {n}" for n in twice]
            + [f"not imported: {n}" for n in exported if n not in imported]
            + [f"not listed: {n}" for n in sorted(imported - set(exported))])


def test_all_lists_each_import_of_the_package_once():
    init = Path(angelesco.__file__)
    assert not _export_faults(init), _export_faults(init)
    assert not [n for n in angelesco.__all__ if not hasattr(angelesco, n)]


def test_the_export_scan_sees_a_stale_export(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("from .a import x, y as z\nfrom .b import v\n\n"
                    "__all__ = [\"x\", \"gone\", \"z\", \"x\"]\n")
    assert _export_faults(init) == ["listed twice: x", "not imported: gone",
                                    "not listed: v"]


_BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot",
               "linalg"}


def _blas_calls(path):
    """(line, name) of each BLAS-backed operation ``path`` names: ``@``, or
    any of ``_BLAS_NAMES`` as a name, an attribute or an import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in _BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            names += [node.module] if isinstance(node, ast.ImportFrom) else []
            found += [(node.lineno, n) for n in names
                      if n and _BLAS_NAMES & set(n.split("."))]
    return found


def test_the_package_makes_no_blas_call():
    # a BLAS kernel picks its summation order by CPU, so one call would
    # make the output bytes depend on the machine
    src = Path(angelesco.__file__).parent
    calls = [f"{path.name}:{line}: {name}"
             for path in sorted(src.glob("*.py"))
             for line, name in _blas_calls(path)]
    assert not calls, calls


def test_the_scan_sees_each_blas_call(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import numpy as np\nfrom numpy.linalg import norm\n"
                   "x = np.dot(a, b)\ny = a @ b\ny @= a\nz = a.dot(b)\n"
                   "np.linalg.solve(a, b)\nnp.einsum('i,i', a, b)\n"
                   "np.inner(a, b) + np.vdot(a, b) + np.tensordot(a, b)\n"
                   "np.matmul(a, b)\nw = np.add.reduce(a * b)\n")
    assert sorted(_blas_calls(mod)) == [
        (2, "numpy.linalg"), (3, "dot"), (4, "@"), (5, "@"), (6, "dot"),
        (7, "linalg"), (8, "einsum"), (9, "inner"), (9, "tensordot"),
        (9, "vdot"), (10, "matmul")]


def test_the_cli_imports_no_argument_parser(package_env):
    # the command line is read by cli.read_argv alone
    code = ("import sys, angelesco.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env=package_env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


_TRACED_RUN = """\
import json, sys
from tracer import TIME_METRICS, Tracer, install
from angelesco.cli import main
tracer = Tracer(0, 3.0)
install(tracer)
args = ["--grid_points", "19", "--lattice_level", "64",
        "--output_dir", sys.argv[1]]
codes = [main(["compute", *args]), main(["validate", *args])]
print(json.dumps({"codes": codes,
                  "spans": sorted({s["name"] for s in tracer.spans}),
                  "metrics": {name for name, _ in TIME_METRICS.values()},
                  "counters": dict(tracer.counters)}, default=sorted))
"""


def test_the_benchmark_tracer_finds_every_name_it_patches(package_env,
                                                          tmp_path):
    # perfbench/tracer.py wraps and replaces package names from outside; a
    # renamed one raises AttributeError in install, and a name no route
    # calls leaves its span unrecorded
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    env = dict(package_env, PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONPATH=os.pathsep.join([package_env["PYTHONPATH"],
                                           str(perfbench)]))
    run = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["codes"] == [0, 0], run.stdout
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["passed"] is True
    # surface.threshold_ray is wrapped but no route calls it
    assert set(got["metrics"]) - set(got["spans"]) == {"surface.threshold_ray"}
    for name in ("rootfind.bisect_calls", "ode.steps", "lattice.diagonals",
                 "orthopoly.ratio_steps"):
        assert got["counters"].get(name, 0) > 0, (name, got["counters"])
