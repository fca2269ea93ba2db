import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from angelesco import NumericalFailure
from angelesco.cli import (EXCLUDE_MARGIN, RunConfig, _compute_curves, _num,
                           load_config, main, read_curve_csv, write_curve_csv)
from angelesco.crossval import compare
from angelesco.ode import boundary_values
from angelesco.surface import limit_curve
from angelesco.systems import AffineMap, pushforward_limits

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
    # the default read-out (level 400, third-order table) against the
    # surface, in the scale-free unit A / L^2, B / L, outside the margin
    cfg = RunConfig(interval2=interval2)
    curves, _, info = _compute_curves(cfg, {"dis", "surface"})
    unit = AffineMap(1.0 / (cfg.interval2[1] - cfg.interval1[0]), 0.0)
    rep = compare(pushforward_limits(curves["dis"], unit),
                  pushforward_limits(curves["surface"], unit),
                  exclude_margin=EXCLUDE_MARGIN, window=(info.c1, info.c2))
    assert rep.worst() <= tol


def test_run_meta_states_the_lattice_error_estimate(tmp_path):
    out = tmp_path / "out"
    assert main(["compute", "--methods", "dis",
                 "--output_dir", str(out)]) == 0
    lattice = json.loads((out / "run_meta.json").read_text())["lattice"]
    assert lattice["level"] == 400 and lattice["extrapolated"] is True
    assert lattice["linear_points"] == 0
    est = lattice["error_estimate"]
    assert set(est) == {"max_abs", "s"}
    assert 0.0 < est["max_abs"] < 1e-4 and 0.0 <= est["s"] <= 1.0
    assert main(["compute", "--methods", "dis", "--extrapolate", "false",
                 "--output_dir", str(out)]) == 0
    lattice = json.loads((out / "run_meta.json").read_text())["lattice"]
    # the plain read-out is the one-level table: no lower order to differ from
    assert lattice["extrapolated"] is False and lattice["table_levels"] == [400]
    assert lattice["error_estimate"] is None


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


def test_compute_surface_endpoints(tmp_path, touching_system):
    out = tmp_path / "out"
    rc = main(["compute", "--methods", "surface", "--grid_points", "3",
               "--output_dir", str(out)])
    assert rc == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert len(lines) == 4
    pk = boundary_values(touching_system)
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[0] == 0.0 and row0[1] == 0.0
    assert row0[2] == pytest.approx(pk.C2_0, rel=1e-11)
    assert row0[3] == pytest.approx(pk.B1_0, rel=1e-11)
    row2 = [float(v) for v in lines[3].split(",")]
    assert row2[0] == 1.0 and row2[2] == 0.0
    assert row2[1] == pytest.approx(pk.C1_1, rel=1e-11)
    assert row2[4] == pytest.approx(pk.B2_1, rel=1e-11)
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
        assert set(b) == {"error_estimate", "steps", "doublings", "stopped"}
        assert b["stopped"] == "tolerance"
        assert 0.0 < b["error_estimate"] <= 1e-12
        assert b["steps"] > 0 and 1 <= b["doublings"] <= 5


def test_run_meta_states_the_lattice_estimate_at_the_compared_points(tmp_path):
    out = tmp_path / "out"
    assert main(["compute", "--methods", "dis", "--interval2=0.25,1",
                 "--output_dir", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    c1, c2 = meta["plateau"]["c1"], meta["plateau"]["c2"]
    whole = meta["lattice"]["error_estimate"]
    part = meta["lattice"]["error_estimate_compared"]
    assert c1 <= whole["s"] + 0.05 and whole["s"] <= c2 + 0.05
    assert part["s"] <= c1 - 0.05 or part["s"] >= c2 + 0.05
    assert part["max_abs"] < whole["max_abs"]


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
    curves, _, _ = _compute_curves(cfg, {"surface", "ode"})
    length = max(cfg.interval2[1], 0.0) - min(cfg.interval1[0], 0.0)
    surf, ode = curves["surface"], curves["ode"]
    for f, power in (("A1", 2), ("A2", 2), ("B1", 1), ("B2", 1)):
        diff = np.abs(getattr(surf, f) - getattr(ode, f)) / length ** power
        assert np.max(diff) < 1e-12, f
    rc = main(["compute", "--methods", "surface", f"--interval1={interval1}",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 0


_OFF_THE_CONTRACT = {
    # the threshold ray is 1 - 7.7e-18 and 1 - 7.7e-51: it rounds to s = 1
    "-1e34,0": "plateau window out of order",
    "-1e100,0": "plateau window out of order",
    # alpha^2 underflows in the plateau residues
    "-1e-200,0": "plateau curve: A2 values must be finite",
}


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


@pytest.mark.parametrize("margin", ["nan", "-1"])
def test_validate_rejects_a_bad_exclude_margin(tmp_path, capsys, margin):
    rc = main(["validate", f"--exclude_margin={margin}",
               "--output_dir", str(tmp_path / "out")] + FAST)
    assert rc == 2
    assert "exclude_margin" in capsys.readouterr().err


def test_broken_plateau_constants_exit_3(tmp_path, capsys, monkeypatch):
    # plateau constants that lose A's sign are a numerical failure (3), not
    # a usage error (2)
    import angelesco.surface as surface
    real = surface.residue_limits

    def broken(alpha, w, d):
        a1, a2, b1, b2 = real(alpha, w, d)
        return -a1, a2, b1, b2

    monkeypatch.setattr(surface, "residue_limits", broken)
    rc = main(["compute", "--methods", "dis", "--lattice_level", "50",
               "--interval2=0.25,1", "--output_dir", str(tmp_path / "out")])
    assert rc == 3
    assert "plateau curve: A limits must be nonnegative" in \
        capsys.readouterr().err


def test_near_touching_plateau_constants_answer(tmp_path):
    # a gap of 1e-6 against a left interval of 0.01: the plateau's
    # A2 ~ 6e-14 keeps its sign
    rc = main(["compute", "--methods", "dis", "--lattice_level", "50",
               "--interval1=-0.01,0", "--interval2=0.999999,1",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 0


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
    # B2 - B1 carries ulp(shift), so the identity's absolute bound is read
    # at 2^24 as 9.9e-9 against 1e-8; from 2^26 on it fails
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
    with pytest.raises(SystemExit):
        main([])


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


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import angelesco.cli as climod

    def boom(sc):
        raise NumericalFailure("forced", {})

    monkeypatch.setattr(climod, "plateau_bounds", boom)
    rc = main(["compute", "--methods", "surface",
               "--output_dir", str(tmp_path / "out")])
    assert rc == 3


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


def test_plot_resamples_mismatched_grids(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["compute", "--methods", "surface",
                 "--output_dir", str(out1)] + FAST) == 0
    assert main(["compute", "--methods", "surface", "--grid_points", "31",
                 "--output_dir", str(out2), "--lattice_level", "200"]) == 0
    second = out2 / "other.csv"
    (out2 / "surface.csv").rename(second)
    svg_path = tmp_path / "fig.svg"
    rc = main(["plot", str(out1 / "surface.csv"), str(second),
               "--out", str(svg_path)])
    assert rc == 0
    svg = svg_path.read_text()
    assert "resampled" in svg
    assert svg.count("<polyline") == 8


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
