"""Configuration-driven command line driver.

Three subcommands: ``compute`` writes one CSV of limit values per requested
method and ``run_meta.json``; ``validate`` is ``compute`` of every method
plus checks of cross-method agreement and identities, in A/L^2 and B/L with
L the hull length, and of residuals, each against a fixed bound, written to
``validate_report.json``; ``plot`` renders CSVs into a four-panel SVG.
Settings come from an optional ``key = value`` config file and from the
command line, whose ``--key value`` and ``--key=value`` pairs,
``--config``, ``--methods`` and ``--out`` among them, are read like config
lines, keys matched whole, and override the file.  ``-h`` or ``--help``
where the subcommand or a key stands prints the help.  Identical
configuration produces byte-identical CSVs.

Exit codes: 0 success, 1 validation failure, 2 usage, input or
configuration error, 3 numerical failure, which ``compute`` and
``validate`` record in ``failure.json`` in the output directory.
"""
import dataclasses
import json
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from .crossval import compare, identity_checks, ode_residuals, residual_stride
from .errors import NumericalFailure
from .lattice import (LADDER_TOL, Ladder, curve_from_lattice,
                      solve_lattice)
from .ode import DEFAULT_MAX_STEPS, solve_system
from .surface import limit_curve, plateau_bounds
from .systems import (FUNCS, AngelescoSystem, Interval, LimitCurve,
                      check_grid, hull_units, off_window, star_normalize)

METHODS = ("dis", "ode", "surface")


# (key, lowest value, whether the lowest value itself is allowed)
_DOMAINS = (("grid_points", 1, True), ("lattice_level", 1, True),
            ("ode_steps", 1, True), ("residual_grid_points", 3, True),
            ("fd_step", 0.0, False))

# validate's fixed bounds: a check passes when its worst value is at most its
# tolerance; lattice points within EXCLUDE_MARGIN of the window are skipped
EXCLUDE_MARGIN = 0.05
TOL_PAIR_EXACT = 1e-4      # ode vs surface, A/L^2 and B/L
TOL_PAIR_LATTICE = 1e-3    # dis vs surface, dis vs ode, A/L^2 and B/L
TOL_IDENTITY = 1e-8        # square-root identity, max abs over L^2
TOL_RESIDUAL = 1e-3        # limit-relation residuals, max rel


@dataclasses.dataclass
class RunConfig:
    """All knobs of a run; field names double as config and flag names."""
    interval1: tuple = (-2.0, 0.0)
    interval2: tuple = (0.0, 1.0)
    weight1: str = "chebyshev2"
    weight2: str = "chebyshev2"
    grid_points: int = 181
    lattice_level: int = 256
    extrapolate: bool = True
    ode_steps: int = DEFAULT_MAX_STEPS
    fd_step: float = 1e-3
    residual_grid_points: int = 2001
    output_dir: str = "out"

    def system(self):
        return AngelescoSystem(Interval(*self.interval1),
                               Interval(*self.interval2),
                               self.weight1, self.weight2)

    def grid(self):
        # checked before any route runs, so a bad grid costs no solve
        return check_grid(np.linspace(0.0, 1.0, self.grid_points))

    def check(self):
        """Return ``self``; ValueError naming the first key out of its domain.

        Like :meth:`grid`, checked before any route runs.  Every comparison
        is written so that NaN fails it.
        """
        for key in ("interval1", "interval2"):
            v = getattr(self, key)
            if not (len(v) == 2 and -np.inf < v[0] < v[1] < np.inf):
                raise ValueError(f"{key} must be two finite numbers lo < hi, "
                                 f"got {v}")
        for key, low, closed in _DOMAINS:
            v = getattr(self, key)
            if not ((v >= low if closed else v > low) and v < np.inf):
                raise ValueError(f"{key} must be finite and "
                                 f"{'at least' if closed else 'above'} {low}, "
                                 f"got {v}")
        residual_stride(self.fd_step, 1.0 / (self.residual_grid_points - 1))
        if not str(self.output_dir).strip():
            raise ValueError("output_dir must be a path, got an empty one")
        return self


def _coerce(name, default, raw):
    """Parse a raw config/flag string into the type of the field default."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(float(p) for p in raw.split(","))
        return raw
    except ValueError as exc:
        raise ValueError(f"bad value for {name}: {raw!r}") from exc


def parse_config_file(path):
    """Read ``key = value`` lines (''#'' comments, blank lines skipped)."""
    entries = {}
    text = Path(path).read_text(encoding="utf-8")
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value'")
        key, raw = line.split("=", 1)
        entries[key.strip()] = raw.strip()
    return entries


def load_config(config_path, overrides):
    """Build a RunConfig from defaults, an optional file, and flag overrides."""
    cfg = RunConfig()
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    if config_path is not None and not str(config_path).strip():
        raise ValueError("config must be a path, got an empty one")
    sources = [] if config_path is None else [parse_config_file(config_path)]
    for src in sources + [overrides]:
        for key, raw in src.items():
            if key not in fields:
                raise ValueError(f"unknown config key: {key}")
            setattr(cfg, key, _coerce(key, fields[key].default, raw))
    return cfg


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

CSV_HEADER = ",".join(("s", *FUNCS))


def _num(v):
    """12 significant digits of the float ``v``, correctly rounded, in
    positional notation: the digits of ``f"{v:.11e}"`` with the point moved
    by its exponent, zeros kept, as ``format(Decimal(f"{v:.11e}"), "f")``."""
    mant, exp = f"{v:.11e}".split("e")
    e = int(exp)
    sign, digits = mant[:-13], mant[-13] + mant[-11:]
    if e < 0:
        return f"{sign}0.{'0' * (-e - 1)}{digits}"
    if e < 11:
        return f"{sign}{digits[:e + 1]}.{digits[e + 1:]}"
    return f"{sign}{digits}{'0' * (e - 11)}"


# "%#.12g" rounds as f"{v:.11e}" does and keeps its zeros, so a field whose
# rounded exponent lies in [-4, 10] is already _num's text
_ROW = ",".join(["%#.12g"] * 5)


def write_curve_csv(path, curve):
    """Write ``curve`` as CSV, each field as :func:`_num` prints it.

    A row is formatted by one ``%``; the rare row with a field in exponent
    form (or inf/nan), or with an exponent-11 field that ends in the point
    ``#`` keeps, is written through :func:`_num` instead.
    """
    rows = np.column_stack((curve.s, curve.A1, curve.A2, curve.B1, curve.B2))
    lines = [CSV_HEADER]
    for row in rows.tolist():
        line = _ROW % tuple(row)
        if "e" in line or "n" in line or ".," in line or line[-1] == ".":
            line = ",".join(map(_num, row))
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_curve_csv(path):
    """Parse a curve CSV back into a :class:`LimitCurve` named by the file stem.

    Every field must be a finite number and the s column must pass
    :func:`~angelesco.systems.check_grid`; otherwise a ValueError names the
    file and the line.  The other curve invariants are not checked.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(ln, line) for ln, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    if not lines or lines[0][1].strip() != CSV_HEADER:
        raise ValueError(f"{path}: expected header '{CSV_HEADER}'")
    rows = []
    for ln, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{ln}: expected 5 fields")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: non-numeric field") from exc
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{ln}: non-finite field")
        try:
            # the grid rule holds on the column iff it holds on each
            # consecutive pair (and on a lone first row)
            check_grid([rows[-1][0], row[0]] if rows else [row[0]])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return LimitCurve(*np.array(rows).T, Path(path).stem,
                      {"source": str(path)})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _compute_curves(cfg, methods):
    """Run the requested methods; returns ({method: curve}, meta dict, the
    :class:`PlateauInfo`, the mask of the grid points the lattice
    comparisons read, and the :class:`~angelesco.lattice.NnrrLattice` of
    ``dis``, None without it).  A ValueError past the configuration's checks
    comes from a computed value and is raised as a
    :class:`NumericalFailure`."""
    system = cfg.check().system()
    grid = cfg.grid()
    try:
        sc, _ = star_normalize(hull_units(system)[0])
        t0 = time.perf_counter()
        info = plateau_bounds(sc)
        timings = {"plateau": time.perf_counter() - t0}
        compared = off_window(grid, info.c1, info.c2, EXCLUDE_MARGIN)
        curves = {}
        lat = None
        meta = {"config": dataclasses.asdict(cfg),
                "plateau": dataclasses.asdict(info), "timings": timings}
        for method in sorted(methods, key=METHODS.index):
            t0 = time.perf_counter()
            if method == "dis":
                ladder = Ladder(lambda rung: curve_from_lattice(
                    rung, grid, cfg.extrapolate), compared)
                lat = solve_lattice(system, cfg.lattice_level, ladder)
                curve = ladder.curve
                meta["lattice"] = dict(curve.meta, ladder={
                    "cap": cfg.lattice_level, "stop": lat.m,
                    "tolerance": LADDER_TOL, "rungs": ladder.rungs})
            elif method == "ode":
                curve = solve_system(system, info, grid, cfg.ode_steps)
                meta["ode"] = curve.meta
            else:
                curve = limit_curve(system, grid, info)
            curves[method] = curve
            timings[method] = time.perf_counter() - t0
    except ValueError as exc:
        raise NumericalFailure(str(exc), {"interval1": cfg.interval1,
                                          "interval2": cfg.interval2}) from exc
    return curves, meta, info, compared, lat


def _write_json(path, obj):
    """Write ``obj`` as JSON, indented, keys sorted, with a final newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_failure(cfg, command, methods, exc):
    """Write ``failure.json``, the record of a :class:`NumericalFailure`:
    the subcommand, the routes it ran in their order, the message, the
    failure's context and the run's settings, as ``run_meta.json`` records
    them."""
    _write_json(Path(cfg.output_dir) / "failure.json",
                {"command": command,
                 "methods": sorted(set(methods), key=METHODS.index),
                 "message": str(exc), "context": exc.context,
                 "config": dataclasses.asdict(cfg)})


def run_compute(cfg, methods):
    """Run ``methods``; once all have answered, write one CSV per curve and
    ``run_meta.json``.  Returns what :func:`_compute_curves` returns."""
    methods = set(methods)
    if not methods or methods - set(METHODS):
        raise ValueError(f"methods must be some of {', '.join(METHODS)}, "
                         f"got {sorted(methods)}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves, meta, info, compared, lat = _compute_curves(cfg, methods)
    for method in METHODS:
        if method in curves:
            write_curve_csv(out / f"{method}.csv", curves[method])
            print(f"wrote {out / (method + '.csv')}")
    _write_json(out / "run_meta.json", meta)
    print(f"wrote {out / 'run_meta.json'}")
    return curves, meta, info, compared, lat


def run_validate(cfg):
    """``compute`` of every method, then the checks on its curves, written
    to ``validate_report.json``; returns the exit code, 0 pass or 1 fail.

    The report also records the lattice's consistency residual
    (:attr:`~angelesco.lattice.NnrrLattice.residuals`), raw, over the hull
    length and with the level where it peaks.  It is a diagnostic with no
    tolerance: it does not enter ``passed``."""
    curves, _, info, compared, lat = run_compute(cfg, METHODS)
    window = (info.c1, info.c2)
    length = cfg.system().hull_length
    # (name, report entry, worst value, tolerance)
    checks = []
    for ma, mb, mask, margin, tol in (
            ("surface", "ode", None, 0.0, TOL_PAIR_EXACT),
            ("dis", "surface", compared, EXCLUDE_MARGIN, TOL_PAIR_LATTICE),
            ("dis", "ode", compared, EXCLUDE_MARGIN, TOL_PAIR_LATTICE)):
        rep = dict(compare(curves[ma], curves[mb], mask, length),
                   exclude_margin=margin)
        checks.append((f"compare {ma} vs {mb}", rep,
                       max(rep["max_abs"].values()), tol))
    ide = identity_checks(curves["surface"], window, length)
    checks.append(("identity surface", ide, ide["max_abs"], TOL_IDENTITY))
    res_grid = np.linspace(0.0, 1.0, cfg.residual_grid_points)
    res_curve = limit_curve(cfg.system(), res_grid, info)
    res = ode_residuals(res_curve, h=cfg.fd_step, window=window)
    checks.append(("ode residuals", res, max(res["max_rel"]), TOL_RESIDUAL))

    passed = True
    for name, entry, worst, tol in checks:
        seen = entry["n_points"] > 0
        ok = bool(seen and worst <= tol)
        entry.update(tolerance=tol, passed=ok)
        passed &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: "
              + (f"worst {worst:.3e} tolerance {tol:.1e}" if seen
                 else "saw no point"))
    axis = _axis_residual(lat)
    print(f"note  lattice axis residual: {axis['max_abs']:.3e} "
          f"({axis['max_scaled']:.1e} hull lengths) at level {axis['level']}")
    path = Path(cfg.output_dir) / "validate_report.json"
    _write_json(path, {"comparisons": [c[1] for c in checks[:3]],
                       "identity": checks[3][1], "residuals": checks[4][1],
                       "axis_residual": axis, "passed": passed})
    print(f"report: {path}")
    return 0 if passed else 1


def _axis_residual(lat):
    """The report entry of the lattice's consistency residual: the largest
    over both axes and all levels in user units (NaN if any is NaN), the
    same over the hull length L, and the level where it peaks."""
    worst = lat.residuals.max(axis=1)
    peak = int(np.argmax(worst))  # the first NaN, if there is one
    value = float(worst[peak])
    return {"max_abs": value, "max_scaled": value / lat.system.hull_length,
            "level": peak + 1}


def run_plot(paths, out_path):
    """Draw the curve CSVs ``paths``, each on its own grid, into one SVG."""
    curves = [read_curve_csv(p) for p in paths]
    from .svgfig import render_panels
    svg = render_panels(curves, [c.method for c in curves],
                        [f"source: {', '.join(str(p) for p in paths)}"])
    Path(out_path).write_text(svg, encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

USAGE = """\
usage: angelesco compute [--config PATH] [--methods dis,ode,surface] [--KEY VALUE ...]
       angelesco validate [--config PATH] [--KEY VALUE ...]
       angelesco plot CSV [CSV ...] --out SVG"""


def _usage_error(message):
    print(f"{USAGE}\nangelesco: error: {message}", file=_sys.stderr)
    raise SystemExit(2)


def read_argv(argv=None):
    """The subcommand, its words and its ``--key value`` / ``--key=value``
    pairs as raw strings; help exits 0 and a usage error exits 2."""
    tokens = iter(_sys.argv[1:] if argv is None else argv)
    command, words, pairs = next(tokens, None), [], {}
    if command not in ("compute", "validate", "plot", "-h", "--help"):
        _usage_error("the first argument must be compute, validate or plot")
    for token in [command] if command.startswith("-") else tokens:
        key, eq, raw = token.partition("=")
        if token in ("-h", "--help"):
            print(f"{USAGE}\n\nsettings of compute and validate, each "
                  "overriding the --config file:\n  "
                  + "\n  ".join(f.name for f in dataclasses.fields(RunConfig)))
            raise SystemExit(0)
        if not token.startswith("-"):
            words.append(token)
        elif not (key.startswith("--") and len(key) > 2):
            _usage_error(f"unrecognized argument: {token}")
        else:
            if not eq:
                raw = next(tokens, "--")
                if raw.startswith("--"):
                    _usage_error(f"argument {key}: expected one argument")
            pairs[key[2:]] = raw
    if command == "plot" and not (words and set(pairs) == {"out"}):
        _usage_error("plot takes one or more CSV paths, --out and no setting")
    if command != "plot" and words:
        _usage_error(f"unrecognized arguments: {' '.join(words)}")
    return command, words, pairs


def main(argv=None):
    command, words, pairs = read_argv(argv)
    cfg = None
    methods = METHODS
    try:
        if command == "plot":
            return run_plot(words, pairs["out"])
        if command == "compute":
            methods = [m for m in pairs.pop("methods", ",".join(METHODS))
                       .split(",") if m]
        cfg = load_config(pairs.pop("config", None), pairs)
        if command == "compute":
            run_compute(cfg, methods)
            return 0
        return run_validate(cfg)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc} {exc.context}", file=_sys.stderr)
        if cfg is not None:
            write_failure(cfg, command, methods, exc)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
