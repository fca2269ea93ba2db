import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import angelesco
from angelesco import NumericalFailure, surface
from angelesco.cli import (CSV_HEADER, RunConfig, _compute_curves, _num,
                           load_config, main, read_curve_csv,
                           write_curve_csv)
from angelesco.crossval import compare
from angelesco.ode import boundary_values
from angelesco.surface import limit_curve
from angelesco.systems import reflect

FAST = ["--lattice_level", "200", "--ode_steps", "2000",
        "--grid_points", "41", "--residual_grid_points", "501",
        "--fd_step", "2e-3"]


def test_defaults():
    cfg = RunConfig()
    assert cfg.interval1 == (-2.0, 0.0)
    assert cfg.grid_points == 181
    grid = cfg.grid()
    assert grid.size == 181 and grid[0] == 0.0 and grid[-1] == 1.0


@pytest.mark.parametrize("interval2,tol", [((0.0, 1.0), 1e-6),
                                           ((0.25, 1.0), 5e-6)],
                         ids=["touching", "gap"])
def test_default_lattice_digits(interval2, tol):
    # the default read-out (level 256, third-order table) against the
    # surface, in the scale-free unit A / L^2, B / L, outside the margin
    cfg = RunConfig(interval2=interval2)
    curves, _, _, compared, _ = _compute_curves(cfg, {"dis", "surface"})
    rep = compare(curves["dis"], curves["surface"], compared,
                  cfg.system().hull_length)
    assert max(rep["max_abs"].values()) <= tol


# Twelve systems (chebyshev2 unless named) and the digits of the default
# lattice read-out against the surface, in A / L^2 and B / L over the
# points validate compares, measured with the previous default (level 400,
# table levels m, m/2, m/4, m/8) and rounded down: a faster default must
# not read fewer.  The table over the top levels at 256 reads 0.16 to 2.06
# digits more.
DIGIT_FLOORS = {
    "touching": ((-2.0, 0.0), (0.0, 1.0), "chebyshev2", "chebyshev2", 7.10),
    "gap": ((-2.0, 0.0), (0.25, 1.0), "chebyshev2", "chebyshev2", 6.03),
    "alpha 1e-3": ((-1e-3, 0.0), (0.0, 1.0), "chebyshev2", "chebyshev2",
                   6.82),
    "alpha 1e3": ((-1000.0, 0.0), (0.0, 1.0), "chebyshev2", "chebyshev2",
                  6.82),
    "apart": ((-3.0, -1.0), (2.0, 7.0), "chebyshev2", "chebyshev2", 5.38),
    "gap uniform/chebyshev1": ((-2.0, 0.0), (0.25, 1.0), "uniform",
                               "chebyshev1", 5.42),
    "touching chebyshev1/uniform": ((-2.0, 0.0), (0.0, 1.0), "chebyshev1",
                                    "uniform", 4.06),
    "beta 0.5": ((-2.0, 0.0), (0.5, 1.0), "chebyshev2", "chebyshev2", 5.55),
    "beta 0.9": ((-1.0, 0.0), (0.9, 1.0), "chebyshev2", "chebyshev2", 6.07),
    "alpha 1e-2": ((-0.01, 0.0), (0.0, 1.0), "chebyshev2", "chebyshev2",
                   6.22),
    "apart uniform/uniform": ((-3.0, -1.0), (2.0, 7.0), "uniform", "uniform",
                              5.00),
    "gap chebyshev1/chebyshev1": ((-2.0, 0.0), (0.25, 1.0), "chebyshev1",
                                  "chebyshev1", 4.67),
}


@pytest.fixture(scope="module")
def default_reads():
    """Per system: digits in A / L^2, B / L, the error in those units and
    the lattice's same-order estimate at its stop rung, all over the
    compared points."""
    reads = {}
    for name, (i1, i2, w1, w2, _) in DIGIT_FLOORS.items():
        cfg = RunConfig(interval1=i1, interval2=i2, weight1=w1, weight2=w2)
        curves, meta, _, compared, _ = _compute_curves(cfg, {"dis", "surface"})
        scaled = compare(curves["dis"], curves["surface"], compared,
                         cfg.system().hull_length)
        worst = max(scaled["max_abs"].values())
        reads[name] = (-np.log10(worst), worst,
                       meta["lattice"]["ladder"]["rungs"][-1]["estimate"])
    return reads


@pytest.mark.parametrize("name", DIGIT_FLOORS)
def test_default_lattice_keeps_its_digit_floor(default_reads, name):
    assert default_reads[name][0] >= DIGIT_FLOORS[name][-1]


@pytest.mark.parametrize("name", DIGIT_FLOORS)
def test_default_lattice_estimate_covers_its_error(default_reads, name):
    # |T(256) - T(184)| / error at 256 measured 2.66 to 47.5; the table's
    # own last difference, its estimate before, read 1.84 to 53
    _, error, estimate = default_reads[name]
    assert error <= estimate


def test_run_meta_states_the_lattice_error_estimate(tmp_path):
    # the default cap reads the rungs 184 and 256, and the estimate at 256
    # is the difference of their read-outs, extrapolated or plain
    out = tmp_path / "out"
    estimates = []
    for flags in ([], ["--extrapolate", "false"]):
        assert main(["compute", "--methods", "dis", *flags,
                     "--output_dir", str(out)]) == 0
        lattice = json.loads((out / "run_meta.json").read_text())["lattice"]
        assert lattice["level"] == 256 and lattice["linear_points"] == 0
        assert lattice["extrapolated"] is (not flags)
        assert "error_estimate" not in lattice
        rungs = lattice["ladder"]["rungs"]
        assert [r["level"] for r in rungs] == [184, 256]
        assert rungs[0]["estimate"] is None
        estimates.append(rungs[1]["estimate"])
    # the plain read-out is the one-level table, which converges like 1/m
    # (1.8e-3 against 5.0e-8 on touching)
    assert lattice["table_levels"] == [256]
    assert 0.0 < estimates[0] < 1e-4 < estimates[1]


def test_run_meta_records_the_ladder(tmp_path):
    # the default cap reads 184 and the cap; a cap of 1024 reads 256, 360,
    # 512 and the cap, and touching's estimate at 1024 is above the tolerance
    for cap, rungs in ((256, [184, 256]), (1024, [256, 360, 512, 1024])):
        out = tmp_path / str(cap)
        assert main(["compute", "--methods", "dis", "--lattice_level",
                     str(cap), "--output_dir", str(out)]) == 0
        lattice = json.loads((out / "run_meta.json").read_text())["lattice"]
        ladder = lattice["ladder"]
        assert ladder["cap"] == cap == ladder["stop"] == lattice["level"]
        assert ladder["tolerance"] == 1e-11
        assert [r["level"] for r in ladder["rungs"]] == rungs
        estimates = [r["estimate"] for r in ladder["rungs"]]
        assert estimates[0] is None
        assert all(1e-11 < e < 1e-6 for e in estimates[1:])


def test_readme_config_table_lists_every_field():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    keys = set()
    for row in table.splitlines()[2:]:
        keys.update(re.findall(r"`(\w+)`", row.split("|")[1]))
    assert keys == {f.name for f in dataclasses.fields(RunConfig)}


def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "interval1 = -1, 0\n"
        "interval2 = 0.25, 1.25   # trailing comment\n"
        "grid_points = 61\n"
        "extrapolate = true\n"
        "weight1 = chebyshev1\n")
    cfg = load_config(cfgfile, {})
    assert cfg.interval1 == (-1.0, 0.0)
    assert cfg.interval2 == (0.25, 1.25)
    assert cfg.grid_points == 61
    assert cfg.extrapolate is True
    assert cfg.weight1 == "chebyshev1"


def test_config_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid_pts = 61\n")
    with pytest.raises(ValueError):
        load_config(cfgfile, {})
    with pytest.raises(ValueError):
        load_config(None, {"grid_points": "sixty"})


def test_flags_override_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("grid_points = 61\nlattice_level = 500\n")
    cfg = load_config(cfgfile, {"grid_points": "11"})
    assert cfg.grid_points == 11
    assert cfg.lattice_level == 500


def test_a_setting_may_start_with_one_dash(tmp_path):
    # "--key value" is read like "--key=value", also when the value looks
    # like an option
    for name, settings in (
            ("pair", ["--interval1", "-2,0", "--interval2", "0.25,1"]),
            ("eq", ["--interval1=-2,0", "--interval2=0.25,1"])):
        assert main(["compute", "--output_dir", str(tmp_path / name)]
                    + settings + FAST) == 0
    for csv in ("dis.csv", "ode.csv", "surface.csv"):
        assert ((tmp_path / "pair" / csv).read_bytes()
                == (tmp_path / "eq" / csv).read_bytes()), csv


@pytest.mark.parametrize("argv", [
    ["compute", "stray", "--grid_points", "41"],
    ["compute", "--grid_points", "41", "stray", "--lattice_level", "8"],
    ["validate", "--grid_points", "41", "stray"],
    ["compute", "--grid_points"],
    ["validate", "--grid_points", "--lattice_level", "8"],
    ["plot", "a.csv", "--out", "x.svg", "--grid_points", "3"],
], ids=["stray-before", "stray-between", "stray-after", "no-value-at-end",
        "no-value-before-a-key", "setting-to-plot"])
def test_a_token_that_is_no_setting_is_a_usage_error(tmp_path, monkeypatch,
                                                     argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["compute", "validate", "plot", None])
def test_help_lists_every_setting(capsys, command):
    # one help text, where the subcommand or a key stands
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    words = set(re.findall(r"\w+", capsys.readouterr().out))
    assert {f.name for f in dataclasses.fields(RunConfig)} <= words


def test_a_key_is_matched_whole(tmp_path, capsys):
    rc = main(["compute", "--grid", "41",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown config key: grid" in capsys.readouterr().err
    # --config and --methods are matched whole too: a prefix or a longer
    # name is an unknown key
    for key, value in (("meth", "dis"), ("conf", "x"), ("method", "dis")):
        rc = main(["compute", f"--{key}", value, "--grid_points", "5",
                   "--output_dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err


def test_a_value_of_dash_h_is_a_value(tmp_path, monkeypatch):
    # -h is help only where a key stands
    monkeypatch.chdir(tmp_path)
    assert main(["compute", "--methods", "surface", "--grid_points", "5",
                 "--output_dir", "-h"]) == 0
    assert (tmp_path / "-h" / "surface.csv").is_file()


def test_the_module_reads_sys_argv(tmp_path, package_env):
    # main(None) reads the command line itself
    run = subprocess.run([sys.executable, "-m", "angelesco", "--help"],
                         env=package_env, cwd=tmp_path, capture_output=True,
                         text=True)
    assert run.returncode == 0
    words = set(re.findall(r"\w+", run.stdout))
    assert {f.name for f in dataclasses.fields(RunConfig)} <= words
    run = subprocess.run([sys.executable, "-m", "angelesco"], env=package_env,
                         cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith("usage: angelesco") and not run.stdout


def test_csv_roundtrip(tmp_path, touching_system, touching_info):
    curve = limit_curve(touching_system, np.linspace(0.0, 1.0, 61),
                        info=touching_info)
    path = tmp_path / "surface.csv"
    write_curve_csv(path, curve)
    back = read_curve_csv(path)
    assert back.method == "surface"
    for f in ("s", "A1", "A2", "B1", "B2"):
        orig = getattr(curve, f)
        got = getattr(back, f)
        rel = np.max(np.abs(got - orig) / np.maximum(1.0, np.abs(orig)))
        assert rel <= 5e-12


def test_csv_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        read_curve_csv(p)
    p.write_text("s,A1,A2,B1,B2\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError):
        read_curve_csv(p)
    p.write_text("s,A1,A2,B1,B2\n0.0,one,2.0,3.0,4.0\n")
    with pytest.raises(ValueError):
        read_curve_csv(p)
    p.write_text("s,A1,A2,B1,B2\n")
    with pytest.raises(ValueError):
        read_curve_csv(p)


@pytest.mark.parametrize("rows, line, message", [
    ("0.0,0.0,0.1,-1.0,0.5\n0.5,nan,0.1,-1.0,0.5\n", 3, "non-finite"),
    ("0.0,0.0,0.1,-1.0,0.5\n0.5,0.1,0.1,-inf,0.5\n", 3, "non-finite"),
    ("0.5,0.1,0.1,-1.0,0.5\n0.25,0.1,0.1,-1.0,0.5\n", 3, "increasing"),
    ("0.5,0.1,0.1,-1.0,0.5\n0.5,0.1,0.1,-1.0,0.5\n", 3, "increasing"),
    ("\n0.5,0.1,0.1,-1.0,0.5\n\n1.5,0.1,0.1,-1.0,0.5\n", 5, "increasing"),
    ("-0.5,0.1,0.1,-1.0,0.5\n", 2, "increasing"),
])
def test_csv_read_rejects_bad_values_with_line(tmp_path, rows, line, message):
    p = tmp_path / "bad.csv"
    p.write_text("s,A1,A2,B1,B2\n" + rows)
    with pytest.raises(ValueError, match=rf"bad\.csv:{line}: .*{message}"):
        read_curve_csv(p)


@pytest.mark.parametrize("value, text", [
    (0.11102540451999999, "0.111025404520"),
    (0.1110254045200001, "0.111025404520"),
    (0.5, "0.500000000000"),
    (1.0, "1.00000000000"),
    (-1.974744871391589, "-1.97474487139"),
    (1e-20, "0.0000000000000000000100000000000"),
    (123456789012345.0, "123456789012000"),
    (0.0, "0.00000000000"),
])
def test_num_prints_twelve_significant_digits(value, text):
    assert _num(value) == text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_num_is_positional_and_rounds_to_twelve_digits(value):
    text = _num(value)
    assert "e" not in text.lower() and not text.endswith(".")
    assert float(text) == float(f"{value:.11e}")
    digits = text.lstrip("-").replace(".", "").lstrip("0")
    if value != 0.0 and abs(value) < 1e11:
        assert len(digits) == 12


def _num_values():
    # doubles of every exponent (random bit patterns), around the points
    # where the point moves past the digits (|v| near 10^k), and the extremes
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2 ** 64 - 1, size=100_000, dtype=np.uint64,
                        endpoint=True).view(np.float64)
    near = rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-15, 16,
                                                                 20_000)
    return [*bits[np.isfinite(bits)].tolist(), *near.tolist(),
            *(-near).tolist(), 0.0, -0.0, 9.999999999995, 99999999999.95,
            1e11, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


def test_num_matches_the_decimal_formula():
    # the positional string is built by slicing f"{v:.11e}"; it must be the
    # string the decimal module makes from it
    from decimal import Decimal
    bad = [v for v in _num_values()
           if _num(v) != format(Decimal(f"{v:.11e}"), "f")]
    assert not bad, bad[:5]


def test_csv_rows_are_the_fields_of_num(tmp_path):
    # write_curve_csv formats a row with one "%#.12g" per field and rewrites
    # only rows with a field in exponent form or at exponent 11; each row
    # must be _num's fields joined, also at exponent 11 (12-digit integers,
    # and values that round up into or out of it), at 1e-4 +- 1 ulp, where
    # %g leaves positional form, and at +-0.0 and the extremes
    edges = [1e11, 123456789012.0, 99999999999.95, 99999999999.949,
             999999999999.4, 999999999999.5, 1e12,
             1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0),
             9.99999999999949e-05, 9.9999999999995e-05,
             0.0, -0.0, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308]
    values = _num_values() + edges + [-v for v in edges]
    values += [0.5] * (-len(values) % 5)
    rows = np.array(values).reshape(-1, 5)
    path = tmp_path / "rows.csv"
    write_curve_csv(path, SimpleNamespace(s=rows[:, 0], A1=rows[:, 1],
                                          A2=rows[:, 2], B1=rows[:, 3],
                                          B2=rows[:, 4]))
    want = [CSV_HEADER, *(",".join(map(_num, r)) for r in rows.tolist())]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_compute_surface_endpoints(tmp_path, touching_system):
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "surface", "--grid_points", "3",
               "--output_dir", str(out)])
    assert rc == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert len(lines) == 4
    pk = boundary_values(touching_system)
    hat = boundary_values(reflect(touching_system))  # s = 1, mirrored
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[0] == 0.0 and row0[1] == 0.0
    assert row0[2] == pytest.approx(pk.C2_0, rel=1e-11)
    assert row0[3] == pytest.approx(pk.B1_0, rel=1e-11)
    row2 = [float(v) for v in lines[3].split(",")]
    assert row2[0] == 1.0 and row2[2] == 0.0
    assert row2[1] == pytest.approx(hat.C2_0, rel=1e-11)
    assert row2[4] == pytest.approx(-hat.B1_0, rel=1e-11)
    meta = json.loads((out / "run_meta.json").read_text())
    assert set(meta) >= {"config", "plateau", "timings"}
    assert meta["config"]["grid_points"] == 3


@pytest.mark.parametrize("interval1", ["-2,0", "-1000,0"])
def test_run_meta_states_the_ode_error_estimate(tmp_path, interval1):
    out = tmp_path / "out"
    assert main(["compute", "--methods", "ode", f"--interval1={interval1}",
                 "--output_dir", str(out)]) == 0
    branches = json.loads((out / "run_meta.json").read_text())["ode"]["branches"]
    assert set(branches) == {"forward", "backward"}
    for b in branches.values():
        assert set(b) == {"error_estimate", "steps"}
        assert 0.0 < b["error_estimate"] <= 1e-12
        assert 0 < b["steps"] <= 500


def test_dis_csv_does_not_depend_on_the_blas_kernel(tmp_path):
    # the mixed moments sum in numpy's fixed pairwise order, not by a BLAS
    # dot; OpenBLAS picks its kernel, and with it a dot's summation order,
    # from the CPU or from OPENBLAS_CORETYPE
    pkg = Path(angelesco.__file__).parent.parent
    got = []
    for coretype in (None, "Haswell"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(pkg), os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "default")
        subprocess.run([sys.executable, "-m", "angelesco", "compute",
                        "--methods", "dis", "--interval2=0.25,1",
                        "--output_dir", str(out)],
                       env=env, check=True, capture_output=True)
        got.append((out / "dis.csv").read_bytes())
    assert got[0] == got[1]


def test_compute_deterministic(tmp_path):
    args = ["compute"] + FAST
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--output_dir", str(out1)]) == 0
    assert main(args + ["--output_dir", str(out2)]) == 0
    for name in ("dis.csv", "ode.csv", "surface.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compute_rejects_bad_methods(tmp_path):
    out = str(tmp_path / "out")
    assert main(["compute", "--methods", "", "--output_dir", out]) == 2
    assert main(["compute", "--methods", "surface,magic",
                 "--output_dir", out]) == 2


@pytest.mark.parametrize("steps", ["0", "-5", "nan"])
def test_compute_rejects_step_count_below_one(tmp_path, steps):
    rc = main(["compute", "--methods", "ode", f"--ode_steps={steps}",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("method", ["dis", "ode", "surface"])
def test_compute_rejects_a_hull_length_that_overflows(tmp_path, capsys,
                                                      method):
    # on (-1e308,0) u (0,1e308) the hull length is inf: every method gives
    # the one usage error and writes no failure record
    out = tmp_path / "out"
    rc = main(["compute", "--methods", method, "--interval1=-1e308,0",
               "--interval2=0,1e308", "--output_dir", str(out)])
    assert rc == 2
    assert "hull length" in capsys.readouterr().err
    assert not (out / "failure.json").exists()


@pytest.mark.parametrize("method", ["dis", "ode", "surface"])
def test_compute_rejects_an_empty_grid(tmp_path, monkeypatch, method):
    import angelesco.cli as climod

    def unreachable(*args):
        raise AssertionError("the grid is checked before any solve")

    monkeypatch.setattr(climod, "plateau_bounds", unreachable)
    rc = main(["compute", "--methods", method, "--grid_points", "0",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("interval1", ["-1e-6,0", "-1e6,0"])
def test_an_unbalanced_surface_curve_answers(tmp_path, interval1):
    # alpha = 1e-6 in the star frame, directly or through the reflection:
    # the surface route meets the ODE route to 1e-12 in units of the hull
    # length L (A / L^2, B / L)
    cfg = RunConfig(interval1=tuple(map(float, interval1.split(","))))
    curves, _, _, _, _ = _compute_curves(cfg, {"surface", "ode"})
    rep = compare(curves["surface"], curves["ode"], None,
                  cfg.system().hull_length)
    assert max(rep["max_abs"].values()) < 1e-12, rep["max_abs"]
    rc = main(["compute", "--methods", "surface", f"--interval1={interval1}",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("interval1,interval2", [
    ("-1e-17,0", "0.5,1"), ("-1e20,-1e19", "0,1"),
    ("-1e10,0", "0.9999999999999999,1"), ("-1,-0.9999999999999999", "0,1e10")])
def test_a_frame_whose_beta_rounds_to_1_answers(tmp_path, interval1,
                                                interval2):
    # beta rounds to 1 in the reflected frame of the first system and in
    # the star frame of the second; the frame keeps the exact 1 - beta, so
    # both compute, and surface and ODE meet to 1e-12 in A / L^2 and B / L.
    # The last two, a system and its mirror, have a frame whose beta is one
    # ulp below 1, so w = 1.4e-17: the level-set cubic -2 w d1 (1 + alpha)
    # at d1 is below the rounding of its terms in d, not of its quotient
    # in x = d - d1
    assert main(["compute", f"--interval1={interval1}",
                 f"--interval2={interval2}",
                 "--output_dir", str(tmp_path / "out")]) == 0
    cfg = RunConfig(interval1=tuple(map(float, interval1.split(","))),
                    interval2=tuple(map(float, interval2.split(","))))
    curves, _, _, _, _ = _compute_curves(cfg, {"surface", "ode"})
    rep = compare(curves["surface"], curves["ode"], None,
                  cfg.system().hull_length)
    assert max(rep["max_abs"].values()) < 1e-12, rep["max_abs"]


_OFF_THE_CONTRACT = {
    # alpha^2 overflows in the surface residues
    "-1e100,0": "surface curve: A1 values must be finite",
    # A2 ~ 1e-400 of the short interval is below the normal doubles
    "-1e-200,0": "interval lengths 1e-200 and 1",
}


@pytest.mark.parametrize("interval1,interval2", [
    ("-1e32,0", "0,1"), ("-1,0", "0,1e32"), ("-1e34,0", "0,1"),
    ("-1e40,0", "0,1"), ("-1,0", "0,1e40")])
def test_touching_systems_whose_threshold_ray_rounds_to_an_end_compute(
        tmp_path, interval1, interval2):
    # the threshold ray is 1 - 7.7e-17 (alpha = 1e32) or closer to s = 1,
    # and as close to s = 0 on the mirror: c2 rounds to 1, but the window
    # carries the exact distance 1 - c2, and the ODE's reflected branch
    # runs to it, so both sides compute
    out = tmp_path / "out"
    rc = main(["compute", f"--interval1={interval1}",
               f"--interval2={interval2}", "--output_dir", str(out)])
    assert rc == 0
    plateau = json.loads((out / "run_meta.json").read_text())["plateau"]
    assert 0.0 < plateau["c1"] <= plateau["c2"] <= 1.0
    assert 0.0 < plateau["one_minus_c2"] <= 1.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("interval1", list(_OFF_THE_CONTRACT))
def test_a_computed_curve_off_the_contract_exits_3(tmp_path, capsys,
                                                    interval1):
    # a computed window or constant off the contract is a numerical failure
    # (3), not a usage error (2) through a later route's argument check
    rc = main(["compute", "--methods", "surface,ode",
               f"--interval1={interval1}",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 3
    assert _OFF_THE_CONTRACT[interval1] in capsys.readouterr().err


# systems whose plateau constants leave the doubles in the star frame's
# residues (alpha = 1e100 and 1e-100), which the surface route still fails on
_SURFACE_ONLY_LIMITS = [("-1e100,0", "0,1"), ("-1e-100,0", "0.5,1")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["dis", "ode"])
@pytest.mark.parametrize("interval1,interval2", _SURFACE_ONLY_LIMITS)
def test_the_lattice_and_ode_answer_where_the_plateau_constants_do_not(
        tmp_path, interval1, interval2, method):
    # the window is all these routes read of the surface; its constants
    # are the surface curve's, checked there
    rc = main(["compute", "--methods", method, f"--interval1={interval1}",
               f"--interval2={interval2}",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("interval1,interval2", _SURFACE_ONLY_LIMITS)
def test_the_lattice_and_ode_agree_where_the_plateau_constants_do_not(
        interval1, interval2):
    cfg = RunConfig(interval1=tuple(map(float, interval1.split(","))),
                    interval2=tuple(map(float, interval2.split(","))))
    curves, _, _, compared, _ = _compute_curves(cfg, {"dis", "ode"})
    assert np.count_nonzero(compared) > 0
    rep = compare(curves["dis"], curves["ode"], compared,
                  cfg.system().hull_length)
    assert max(rep["max_abs"].values()) < 1e-6, rep["max_abs"]


@pytest.mark.parametrize("command,flag,key", [
    ("validate", "--fd_step=inf", "fd_step"),
    ("validate", "--fd_step=0", "fd_step"),
    ("validate", "--fd_step=0.0007", "fd_step"),
    ("validate", "--residual_grid_points=2", "residual_grid_points"),
    ("compute", "--interval1=-2", "interval1"),
    ("compute", "--interval2=1,0.5", "interval2"),
    ("compute", "--interval1=-2,0,1", "interval1"),
    ("compute", "--lattice_level=0", "lattice_level"),
    ("compute", "--ode_steps=-5", "ode_steps"),
    ("compute", "--grid_points=-5", "grid_points"),
    ("compute", "--grid_points=0", "grid_points"),
])
def test_a_value_out_of_its_domain_exits_2_before_any_route(
        tmp_path, capsys, monkeypatch, command, flag, key):
    import angelesco.cli as climod

    def unreachable(*args):
        raise AssertionError("the config is checked before any solve")

    monkeypatch.setattr(climod, "plateau_bounds", unreachable)
    rc = main([command, flag, "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"error: {key} " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "validate"])
@pytest.mark.parametrize("args", [["--output_dir="], ["--output_dir", " "],
                                  ["--config", "run.cfg"]],
                         ids=["eq", "pair", "config-file"])
def test_an_empty_output_dir_exits_2_before_any_route(
        tmp_path, capsys, monkeypatch, command, args):
    # an empty output_dir would write into the working directory
    import angelesco.cli as climod

    def unreachable(*args):
        raise AssertionError("the config is checked before any solve")

    monkeypatch.setattr(climod, "plateau_bounds", unreachable)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("output_dir =\n")
    assert main([command] + args) == 2
    assert "error: output_dir " in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("args", [["--config="], ["--config", ""],
                                  ["--config", " "]],
                         ids=["eq", "pair", "blank"])
def test_an_empty_config_path_exits_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    assert main(["compute"] + args + ["--output_dir", "out"]) == 2
    assert "error: config " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fd_step_off_the_residual_grid_names_both_keys(tmp_path, capsys):
    rc = main(["validate", "--fd_step=0.0007",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fd_step" in err and "residual_grid_points" in err


@pytest.mark.parametrize("key", ["exclude_margin", "tol_pair_exact",
                                 "tol_pair_lattice", "tol_identity",
                                 "tol_residual"])
def test_a_fixed_validate_bound_is_not_a_config_key(tmp_path, capsys, key):
    rc = main(["validate", f"--{key}=1e-9",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err


def test_broken_plateau_constants_exit_3(tmp_path, capsys, monkeypatch):
    # plateau constants that lose A's sign are a numerical failure (3), not
    # a usage error (2)
    import angelesco.surface as surface
    real = surface.residue_limits

    def broken(alpha, w, d):
        a1, a2, b1, b2 = real(alpha, w, d)
        return -a1, a2, b1, b2

    monkeypatch.setattr(surface, "residue_limits", broken)
    rc = main(["compute", "--methods", "surface",
               "--interval2=0.25,1", "--output_dir", str(tmp_path / "out")])
    assert rc == 3
    assert "surface curve: A limits must be nonnegative" in \
        capsys.readouterr().err


def test_near_touching_plateau_constants_answer(tmp_path):
    # a gap of 1e-6 against a left interval of 0.01: the plateau's
    # A2 ~ 6e-14 keeps its sign
    rc = main(["compute", "--methods", "surface",
               "--interval1=-0.01,0", "--interval2=0.999999,1",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("length", ["1e-110", "1e150"])
def test_the_lattice_sweeps_systems_far_from_unit_length(tmp_path, length):
    # a ~ L^2 and gap ~ L make a * gap ~ L^3, which leaves the double range
    # at these lengths unless the sweep runs in hull units
    rc = main(["compute", "--methods", "dis", "--lattice_level", "50",
               f"--interval1=-{length},0", f"--interval2=0,{length}",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("length", ["1e-160", "1e155"])
def test_the_lattice_names_its_range_outside_it(tmp_path, capsys, length):
    # a ~ L^2 is below the normal doubles at 1e-160 and overflows at
    # 1e155: the sweep stops there and names the hull lengths it supports,
    # and no RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["compute", "--methods", "dis", "--lattice_level", "50",
                   f"--interval1=-{length},0", f"--interval2=0,{length}",
                   "--output_dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"hull length 2{length[1:]}" in err.replace("e+", "e")
    assert "hull lengths from about 1e-150 to 1e153" in err


def test_the_lattice_names_the_short_interval_inside_its_hull_range(
        tmp_path, capsys):
    # hull length 1 is inside the range; the a's of the interval of length
    # 1e-155, of the order of its length squared, are not normal doubles
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "dis", "--lattice_level", "50",
               "--interval1=-1e-155,0", "--output_dir", str(out)])
    assert rc == 3
    assert "interval lengths 1e-155 and 1:" in capsys.readouterr().err
    ctx = json.loads((out / "failure.json").read_text())["context"]
    assert ctx["hull_length"] == 1.0
    assert ctx["interval_lengths"] == [1e-155, 1.0]


def _shifted_touching(power):
    c = 2 ** power
    return [f"--interval1={c - 2},{c}", f"--interval2={c},{c + 1}"]


@pytest.mark.parametrize("power", [22, 30, 40])
def test_a_shifted_touching_system_keeps_its_a_columns(tmp_path, power):
    # every C of the endpoint closed forms is a difference of interval
    # ends, and a power-of-two shift maps the star frame exactly, so the
    # exact routes' A columns keep their bytes; only the B's move
    for name, shift in (("base", []), ("shifted", _shifted_touching(power))):
        assert main(["compute", "--output_dir", str(tmp_path / name)]
                    + shift + FAST) == 0
    for csv in ("ode.csv", "surface.csv"):
        base, shifted = ([line.split(",")[:3] for line in
                          (tmp_path / name / csv).read_text().splitlines()]
                         for name in ("base", "shifted"))
        assert base == shifted, csv


@pytest.mark.parametrize("power", [22, 24])
def test_validate_passes_on_a_shifted_touching_system(tmp_path, power):
    # B2 - B1 carries ulp(shift), so the identity, over L^2 = 9, reads
    # 1.1e-9 at 2^24 and 5.1e-9 at 2^26 against 1e-8; from 2^28 on it fails
    out = tmp_path / "out"
    assert main(["validate", "--output_dir", str(out)]
                + _shifted_touching(power)) == 0
    assert json.loads((out / "validate_report.json").read_text())["passed"]


def test_an_alpha_lost_in_1_plus_alpha_answers(tmp_path):
    # the reflected configuration has alpha ~ 1e-16, so 1 + alpha rounds to
    # 1; no surface solve forms it, and the curve keeps A >= 0 and B1 < B2
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "surface", "--interval1=-1e10,0",
               "--interval2=0.999999,1", "--output_dir", str(out)])
    assert rc == 0
    curve = read_curve_csv(out / "surface.csv")
    assert np.all(curve.A1 >= 0.0) and np.all(curve.A2 >= 0.0)
    assert np.all(curve.B1 < curve.B2)


def test_cli_requires_subcommand():
    for argv in ([], ["nosuch"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command, interval2, calls", [
    ("compute", "0.25,1", 3), ("validate", "0.25,1", 4),
    ("compute", "0,1", 2), ("validate", "0,1", 3)],
    ids=["gap-compute", "gap-validate", "touching-compute",
         "touching-validate"])
def test_the_surface_route_bisects_once_per_stage(tmp_path, monkeypatch,
                                                  command, interval2, calls):
    # w, the four configuration points' x0 in one call and one ray solve
    # for both zones, which holds the plateau round trip; touching intervals
    # need no w, and validate adds the residual grid's ray solve.  Nothing
    # is kept between calls
    real, seen = surface.bisect, []

    def counted(f, lo, hi):
        seen.append(np.size(lo))
        return real(f, lo, hi)

    monkeypatch.setattr(surface, "bisect", counted)
    rc = main([command, f"--interval2={interval2}",
               "--output_dir", str(tmp_path)] + FAST)
    assert rc == 0 and len(seen) == calls, seen


def test_only_the_surface_route_runs_the_gap_round_trip(tmp_path,
                                                         monkeypatch):
    # the plateau edge rides in the surface route's one ray solve: the ODE
    # route reads the window and solves no ray, and the surface route under
    # a ray solve that misses w on the edge exits 3 with a record
    real, calls = surface.pushed_beta, []

    def off(alpha, ray, top):
        calls.append(np.size(alpha))
        beta, w, d = real(alpha, ray, top)
        w = w.copy()
        w[-1] *= 1.0 + 1e-6
        return beta, w, d

    monkeypatch.setattr(surface, "pushed_beta", off)
    rc = main(["compute", "--methods", "ode", "--interval2=0.25,1",
               "--output_dir", str(tmp_path / "ode")] + FAST)
    assert rc == 0 and calls == []
    out = tmp_path / "surface"
    rc = main(["compute", "--methods", "surface", "--interval2=0.25,1",
               "--output_dir", str(out)] + FAST)
    assert rc == 3 and len(calls) == 1
    record = json.loads((out / "failure.json").read_text())
    assert record["command"] == "compute"
    assert "gap round trip" in record["message"]
    assert set(record["context"]) == {"c2", "w", "back"}
    assert not (out / "surface.csv").exists()


def test_validate_passes(tmp_path):
    out = tmp_path / "out"
    rc = main(["validate", "--output_dir", str(out)] + FAST)
    assert rc == 0
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is True
    assert len(report["comparisons"]) == 3
    for entry in report["comparisons"] + [report["identity"],
                                          report["residuals"]]:
        assert entry["passed"] is True and entry["tolerance"] > 0.0
    # the lattice pairs read the points 0.05 from the window, and say so
    margins = [c["exclude_margin"] for c in report["comparisons"]]
    assert margins == [0.0, 0.05, 0.05]
    sizes = {(c["n_points"], c["n_excluded"]) for c in report["comparisons"]}
    assert len(sizes) == 2 and (41, 0) in sizes


def test_validate_passes_next_to_the_touching_limit(tmp_path, capsys):
    # alpha = 1e-40: the threshold ray sits 7.7e-21 from s = 0, and the
    # window is read as that distance, not as (1 + theta) / 2, which rounds
    # to 0
    out = tmp_path / "out"
    rc = main(["validate", "--interval1=-1e-40,0", "--output_dir", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 5
    assert not any(line.startswith("FAIL") for line in lines)


def test_validate_passes_far_from_the_origin(tmp_path, capsys):
    # the touching system moved by 2^20; the sweep's b-phase must not lose
    # the digits of the shift (exact in binary) to cancellation
    out = tmp_path / "out"
    rc = main(["validate", "--interval1=1048574,1048576",
               "--interval2=1048576,1048577", "--output_dir", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 5
    assert not any(line.startswith("FAIL") for line in lines)


def test_validate_fails_on_tight_tolerance(tmp_path, capsys, monkeypatch):
    import angelesco.cli as climod

    monkeypatch.setattr(climod, "TOL_PAIR_LATTICE", 1e-12)
    out = tmp_path / "out"
    rc = main(["validate", "--output_dir", str(out)] + FAST)
    assert rc == 1
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is False
    assert [c["passed"] for c in report["comparisons"]] == [True, False, False]
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("FAIL") for line in lines) == 2


@pytest.mark.parametrize("interval1, interval2", [
    ("-2e-3,0", "0,1e-3"), ("-2,0", "0,1")], ids=["small", "unit"])
def test_validate_fails_an_ode_curve_off_by_a_hundredth_of_l(
        tmp_path, capsys, monkeypatch, interval1, interval2):
    # B2 of the ODE curve moved by 0.01 L is 0.01 in B/L on every system,
    # so both pairs with the ODE fail on a system of length 3, and on one
    # of length 3e-3, where the difference in user units is only 3e-5
    import angelesco.cli as climod
    solve = climod.solve_system

    def off(system, *args):
        curve = solve(system, *args)
        return dataclasses.replace(curve,
                                   B2=curve.B2 + 0.01 * system.hull_length)

    monkeypatch.setattr(climod, "solve_system", off)
    out = tmp_path / "out"
    rc = main(["validate", f"--interval1={interval1}",
               f"--interval2={interval2}", "--output_dir", str(out)] + FAST)
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line.split(":")[0] for line in lines if line.startswith("FAIL")]
    assert fails == ["FAIL  compare surface vs ode",
                     "FAIL  compare dis vs ode"]


@pytest.mark.parametrize("interval2, grid_points", [
    ("0,1", "2"),        # touching: s = 0 and 1 only, no interior point
    ("0.25,1", "3"),     # gap: s = 0.5 lies inside the plateau window
])
def test_validate_fails_an_identity_check_that_saw_no_point(
        tmp_path, capsys, interval2, grid_points):
    out = tmp_path / "out"
    rc = main(["validate", f"--interval2={interval2}",
               "--output_dir", str(out)] + FAST
              + ["--grid_points", grid_points])
    assert rc == 1
    report = json.loads((out / "validate_report.json").read_text())
    assert report["identity"]["n_points"] == 0
    assert report["identity"]["passed"] is False
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL  identity surface") for line in lines)


def _no_nan(token):
    raise AssertionError(f"report holds {token}")


@pytest.mark.parametrize("beta", ["0.9", "0.999", "0.999999"])
def test_validate_reports_wide_windows(tmp_path, capsys, beta):
    # the plateau window covers every lattice point the margin leaves, so
    # both lattice comparisons see no point: they fail in the report, which
    # is written, instead of ending the run with exit 3
    for alpha in ("1e-12", "1e-10", "1e-08", "1e-06", "0.0001", "0.01"):
        out = tmp_path / alpha
        rc = main(["validate", f"--interval1=-{alpha},0",
                   f"--interval2={beta},1", "--output_dir", str(out)])
        assert rc in (0, 1), alpha
        report = json.loads((out / "validate_report.json").read_text(),
                            parse_constant=_no_nan)
        checks = report["comparisons"] + [report["identity"],
                                          report["residuals"]]
        unseen = [c for c in checks if c["n_points"] == 0]
        assert all(c["passed"] is False for c in unseen)
        assert report["passed"] is (rc == 0) is all(c["passed"] for c in checks)
        fails = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.endswith(": saw no point")]
        assert len(fails) == len(unseen) and all(ln.startswith("FAIL")
                                                 for ln in fails)


def test_validate_residuals_see_no_point_on_a_wide_window(tmp_path, capsys):
    # (-0.01,0) u (0.999,1): the window [0.0025, 0.99975] leaves no point
    # more than the margin from it and the ends, and the plateau points,
    # where the relations hold trivially, are not read: the check fails
    out = tmp_path / "out"
    rc = main(["validate", "--interval1=-0.01,0", "--interval2=0.999,1",
               "--output_dir", str(out)])
    assert rc == 1
    res = json.loads((out / "validate_report.json").read_text())["residuals"]
    assert res["n_points"] == 0 and res["passed"] is False
    assert "FAIL  ode residuals: saw no point" in capsys.readouterr().out


def test_validate_stores_what_each_check_returns(tmp_path, monkeypatch,
                                                capsys):
    # apart intervals with uniform/chebyshev1 weights, a system no golden
    # validate run covers: each check's return value is JSON as it stands,
    # and its report entry is that value plus the keys validate adds, which
    # it adds to the returned dict: so each value is dumped when returned
    import angelesco.cli as climod
    returned = {}

    def recording(name):
        check = getattr(climod, name)

        def run(*args, **kwargs):
            value = check(*args, **kwargs)
            returned.setdefault(name, []).append(json.dumps(value))
            return value
        return run

    for name in ("compare", "identity_checks", "ode_residuals"):
        monkeypatch.setattr(climod, name, recording(name))
    out = tmp_path / "out"
    rc = main(["validate", "--interval1=-3,-1", "--interval2=2,7",
               "--weight1", "uniform", "--weight2", "chebyshev1",
               "--output_dir", str(out)])
    capsys.readouterr()
    assert rc in (0, 1)
    report = json.loads((out / "validate_report.json").read_text())
    entries = {"compare": report["comparisons"],
               "identity_checks": [report["identity"]],
               "ode_residuals": [report["residuals"]]}
    assert {k: len(v) for k, v in returned.items()} == {
        k: len(v) for k, v in entries.items()}
    for name, dumped in returned.items():
        for text, entry in zip(dumped, entries[name]):
            stored = {k: v for k, v in entry.items()
                      if k not in ("exclude_margin", "tolerance", "passed")}
            assert json.loads(text) == stored, name


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import angelesco.cli as climod

    def boom(sc):
        raise NumericalFailure("forced", {})

    monkeypatch.setattr(climod, "plateau_bounds", boom)
    for command in (["compute", "--methods", "surface"], ["validate"]):
        out = tmp_path / command[0]
        rc = main(command + ["--output_dir", str(out)])
        assert rc == 3
        record = json.loads((out / "failure.json").read_text())
        config = dataclasses.asdict(RunConfig(output_dir=str(out)))
        assert record == {"command": command[0], "message": "forced",
                          "context": {},
                          "config": json.loads(json.dumps(config))}


def test_a_branch_at_its_step_cap_leaves_a_failure_record(tmp_path):
    # touching's forward branch needs 7 Taylor steps
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "ode", "--ode_steps", "1",
               "--output_dir", str(out)])
    assert rc == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["command"] == "compute"
    assert "max_steps = 1" in record["message"]
    ctx = record["context"]
    assert ctx["branch"] == "forward"
    assert 0.0 < ctx["s"] == ctx["last_good_s"] < ctx["stop"]
    assert not (out / "ode.csv").exists()


def test_a_failure_record_replays_its_run(tmp_path):
    # the record's settings, written out as a config file, give the same
    # failure: the same message, context and settings
    out = tmp_path / "out"
    assert main(["compute", "--methods", "ode", "--ode_steps", "1",
                 "--output_dir", str(out)]) == 3
    record = json.loads((out / "failure.json").read_text())
    lines = [f"{key} = {','.join(map(str, v)) if isinstance(v, list) else v}"
             for key, v in record["config"].items()]
    config = tmp_path / "replay.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "failure.json").unlink()
    assert main([record["command"], "--config", str(config)]) == 3
    assert json.loads((out / "failure.json").read_text()) == record


def test_validate_writes_no_csv_before_every_route_answers(tmp_path):
    # the lattice answers, then the ODE branch stops at its cap: validate,
    # like compute, leaves the failure record and no curve
    out = tmp_path / "out"
    assert main(["validate", "--ode_steps", "1", "--lattice_level", "200",
                 "--output_dir", str(out)]) == 3
    assert [p.name for p in out.iterdir()] == ["failure.json"]


@pytest.mark.parametrize("interval1, interval2, rc", [
    ("-2,0", "0,1", 0), ("-2,0", "0.25,1", 0), ("-0.01,0", "0.9,1", 1)],
    ids=["touching", "gap", "wide-window"])
def test_validate_writes_what_compute_writes(tmp_path, interval1, interval2,
                                             rc):
    # one run path: validate's CSVs are compute's bytes, and run_meta.json
    # differs only in its wall timings and the output directory
    args = [f"--interval1={interval1}", f"--interval2={interval2}"]
    dirs = tmp_path / "compute", tmp_path / "validate"
    assert main(["compute", *args, "--output_dir", str(dirs[0])]) == 0
    assert main(["validate", *args, "--output_dir", str(dirs[1])]) == rc
    for name in ("dis.csv", "ode.csv", "surface.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    metas = [json.loads((d / "run_meta.json").read_text()) for d in dirs]
    for meta, d in zip(metas, dirs):
        assert set(meta.pop("timings")) == {"plateau", "dis", "ode",
                                            "surface"}
        assert meta["config"].pop("output_dir") == str(d)
    assert metas[0] == metas[1]
    # the configuration and the plateau live in run_meta.json only
    report = json.loads((dirs[1] / "validate_report.json").read_text())
    assert set(report) == {"comparisons", "identity", "residuals",
                           "axis_residual", "passed"}
    assert report["passed"] is (rc == 0)
    # the lattice's consistency residual is validate's record alone, and
    # the propagated axis cross-b's meet the mixed moments
    assert "max_residual" not in metas[0]["lattice"]
    axis = report["axis_residual"]
    assert axis["max_scaled"] == axis["max_abs"] / (
        float(interval2.split(",")[1]) - float(interval1.split(",")[0]))
    assert 0.0 <= axis["max_scaled"] <= 1e-11
    assert 1 <= axis["level"] <= 256


@pytest.mark.parametrize("interval1, interval2", [
    ("-1e-300,0", "0,1e300"), ("-1e-200,0", "0,1e200")])
@pytest.mark.parametrize("command", ["compute", "validate"])
def test_an_alpha_that_underflows_is_a_numerical_failure(
        tmp_path, capsys, command, interval1, interval2):
    # both configurations pass their checks; alpha = 1e-600 or 1e-400
    # would round to 0, and the short interval's A's leave the doubles:
    # exit 3 with the range record, not the usage error 2
    out = tmp_path / "out"
    rc = main([command, f"--interval1={interval1}",
               f"--interval2={interval2}", "--output_dir", str(out)])
    assert rc == 3
    assert "out of the double range" in capsys.readouterr().err
    record = json.loads((out / "failure.json").read_text())
    assert record["command"] == command
    short = interval1.split(",")[0][1:]
    assert f"interval lengths {short} and" in record["message"]


def test_a_subnormal_ode_start_state_leaves_a_failure_record(tmp_path):
    # C2 = (1e-160 / 4)^2 at the start of the reflected system's branch is
    # subnormal, and the step rule would underflow to a zero step there:
    # the hull frame names the short interval before any branch runs
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "ode", "--interval1=-1e-160,0",
               "--output_dir", str(out)])
    assert rc == 3
    record = json.loads((out / "failure.json").read_text())
    assert "normal doubles" in record["message"]
    assert "interval lengths 1e-160 and 1" in record["message"]
    assert record["context"] == {"hull_length": 1.0,
                                 "interval_lengths": [1e-160, 1.0]}
    assert not (out / "ode.csv").exists()


@pytest.mark.parametrize("method", ["ode", "surface"])
def test_a_values_out_of_the_double_range_leave_a_failure_record(tmp_path,
                                                                  method):
    # A ~ L^2 ~ 1e-320 on a hull of length 2e-160: each route's A's are
    # normal in its own units and leave the normal doubles in user units
    out = tmp_path / "out"
    rc = main(["compute", "--methods", method, "--interval1=-1e-160,0",
               "--interval2=0,1e-160", "--output_dir", str(out)])
    assert rc == 3
    record = json.loads((out / "failure.json").read_text())
    assert "normal doubles" in record["message"]
    assert "hull length 2e-160" in record["message"]
    assert record["context"]["hull_length"] == 2e-160
    assert not (out / f"{method}.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_internal_overflow_does_not_claim_the_double_range(tmp_path):
    # on (-1e-70,0) u (0,1) the hull length is about 1 and the surface
    # route overflows inside its star frame: the contract names that
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "surface", "--interval1=-1e-70,0",
               "--output_dir", str(out)])
    assert rc == 3
    record = json.loads((out / "failure.json").read_text())
    assert record["message"].startswith("surface curve:")
    assert "hull_length" not in record["context"]


def test_plot(tmp_path):
    out = tmp_path / "out"
    assert main(["compute", "--output_dir", str(out)] + FAST) == 0
    svg_path = tmp_path / "fig.svg"
    rc = main(["plot", str(out / "dis.csv"), str(out / "ode.csv"),
               str(out / "surface.csv"), "--out", str(svg_path)])
    assert rc == 0
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 12          # 4 panels x 3 curves
    assert svg.count('fill="none" stroke="#000000"') == 4   # panel borders
    for name in ("A1(s)", "A2(s)", "B1(s)", "B2(s)"):
        assert name in svg
    for label in ("dis", "ode", "surface"):
        assert label in svg
    assert "resampled" not in svg


def test_plot_escapes_its_legend_labels(tmp_path):
    # the labels are file stems, which may hold XML's special characters
    import xml.etree.ElementTree as ET

    out = tmp_path / "out"
    assert main(["compute", "--methods", "surface",
                 "--output_dir", str(out)] + FAST) == 0
    odd = tmp_path / "a&b<c>.csv"
    odd.write_bytes((out / "surface.csv").read_bytes())
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", str(odd), "--out", str(svg_path)]) == 0
    root = ET.parse(svg_path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c>" in texts


def test_plot_draws_each_curve_on_its_own_grid(tmp_path):
    # a 181-point and a 41-point curve: each polyline has its own curve's
    # points, and nothing is resampled
    import xml.etree.ElementTree as ET

    paths = []
    for n in (181, 41):
        out = tmp_path / f"g{n}"
        assert main(["compute", "--methods", "surface", "--grid_points",
                     str(n), "--output_dir", str(out)]) == 0
        paths.append(out / f"surface{n}.csv")
        (out / "surface.csv").rename(paths[-1])
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", *map(str, paths), "--out", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert "resampled" not in svg
    root = ET.parse(svg_path).getroot()
    lines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    counts = [len(el.get("points").split()) for el in lines]
    assert counts == [181, 41] * 4          # 4 panels x 2 curves


def test_plot_draws_a_one_row_curve(tmp_path):
    # compute --grid_points 1 writes one row; its s-range is padded the way
    # a constant value range is
    import xml.etree.ElementTree as ET

    out = tmp_path / "out"
    assert main(["compute", "--methods", "surface", "--grid_points", "1",
                 "--output_dir", str(out)]) == 0
    assert len(read_curve_csv(out / "surface.csv").s) == 1
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", str(out / "surface.csv"),
                 "--out", str(svg_path)]) == 0
    root = ET.parse(svg_path).getroot()
    lines = list(root.iter("{http://www.w3.org/2000/svg}polyline"))
    assert len(lines) == 4
    for el in lines:
        x, y = map(float, el.get("points").split(","))
        assert 0.0 < x < 960.0 and 0.0 < y < 660.0


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_plot_rejects_a_non_finite_field(tmp_path, capsys, bad):
    p = tmp_path / "bad.csv"
    p.write_text(f"s,A1,A2,B1,B2\n0.0,0.0,0.1,-1.0,0.5\n1.0,0.2,{bad},-1.0,0.5\n")
    svg_path = tmp_path / "fig.svg"
    assert main(["plot", str(p), "--out", str(svg_path)]) == 2
    assert "bad.csv:3: non-finite field" in capsys.readouterr().err
    assert not svg_path.exists()


def test_plot_rejects_an_unsorted_first_file(tmp_path, capsys):
    p = tmp_path / "first.csv"
    p.write_text("s,A1,A2,B1,B2\n0.5,0.1,0.1,-1.0,0.5\n0.25,0.1,0.1,-1.0,0.5\n")
    assert main(["plot", str(p), "--out", str(tmp_path / "fig.svg")]) == 2
    err = capsys.readouterr().err
    assert "first.csv:3: grid must be strictly increasing" in err
    assert "overlap" not in err


def test_plot_missing_file_exit_code(tmp_path):
    rc = main(["plot", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "fig.svg")])
    assert rc == 2
