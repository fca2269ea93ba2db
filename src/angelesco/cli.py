"""Configuration-driven command line driver.

Three subcommands: ``compute`` writes one CSV of limit values per requested
method plus a JSON sidecar, ``validate`` runs all methods and checks
cross-method agreement, identities and residuals against fixed bounds, and
``plot`` renders CSVs into a four-panel SVG.  Settings come from an optional
``key = value`` config file; every key can also be overridden by a
``--key value`` flag.  Outputs are deterministic: identical configuration
produces byte-identical CSVs.

Exit codes: 0 success, 1 validation failure, 2 input or configuration
error, 3 numerical failure.
"""
import argparse
import dataclasses
import json
import math
import sys as _sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from .crossval import (compare, compared_points, identity_checks,
                       ode_residuals, resample, residual_stride)
from .errors import NumericalFailure
from .lattice import curve_from_lattice, solve_lattice
from .ode import solve_system
from .surface import limit_curve, plateau_bounds
from .systems import (AngelescoSystem, Interval, LimitCurve, check_grid,
                      star_normalize)

METHODS = ("dis", "ode", "surface")


# (key, lowest value, whether the lowest value itself is allowed)
_DOMAINS = (("grid_points", 1, True), ("lattice_level", 1, True),
            ("ode_steps", 1, True), ("residual_grid_points", 3, True),
            ("fd_step", 0.0, False))

# validate's fixed bounds: a check passes when its worst value is at most its
# tolerance; lattice points within EXCLUDE_MARGIN of the window are skipped
EXCLUDE_MARGIN = 0.05
TOL_PAIR_EXACT = 1e-4      # ode vs surface
TOL_PAIR_LATTICE = 1e-3    # dis vs surface, dis vs ode
TOL_IDENTITY = 1e-8        # square-root identity, max abs
TOL_RESIDUAL = 1e-3        # limit-relation residuals, max rel


@dataclasses.dataclass
class RunConfig:
    """All knobs of a run; field names double as config and flag names."""
    interval1: tuple = (-2.0, 0.0)
    interval2: tuple = (0.0, 1.0)
    weight1: str = "chebyshev2"
    weight2: str = "chebyshev2"
    grid_points: int = 181
    lattice_level: int = 400
    extrapolate: bool = True
    ode_steps: int = 500
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
        return self

    def as_dict(self):
        return dataclasses.asdict(self)


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
    sources = []
    if config_path:
        sources.append(parse_config_file(config_path))
    sources.append(overrides)
    for src in sources:
        for key, raw in src.items():
            if key not in fields:
                raise ValueError(f"unknown config key: {key}")
            default = getattr(RunConfig(), key)
            setattr(cfg, key, _coerce(key, default, raw))
    return cfg


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

CSV_HEADER = "s,A1,A2,B1,B2"


def _num(v):
    # 12 significant digits, correctly rounded, in positional notation
    return format(Decimal(f"{v:.11e}"), "f")


def write_curve_csv(path, curve):
    lines = [CSV_HEADER]
    for i in range(len(curve)):
        lines.append(",".join(_num(v) for v in
                              (curve.s[i], curve.A1[i], curve.A2[i],
                               curve.B1[i], curve.B2[i])))
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
    """Run the requested methods; returns ({method: curve}, meta dict)."""
    system = cfg.check().system()
    grid = cfg.grid()
    sc, _ = star_normalize(system)
    t0 = time.perf_counter()
    info = plateau_bounds(sc)
    timings = {"plateau": time.perf_counter() - t0}
    curves = {}
    meta = {"config": cfg.as_dict(), "plateau": info.as_dict(),
            "timings": timings}
    for method in METHODS:
        if method not in methods:
            continue
        t0 = time.perf_counter()
        if method == "dis":
            lat = solve_lattice(system, cfg.lattice_level)
            curves[method] = curve_from_lattice(
                lat, grid, cfg.extrapolate,
                compared_points(grid, info.c1, info.c2, EXCLUDE_MARGIN))
            meta["lattice"] = dict(curves[method].meta)
        elif method == "ode":
            curves[method] = solve_system(system, info, grid, cfg.ode_steps)
            meta["ode"] = {k: curves[method].meta[k]
                           for k in ("splice_mismatch", "identity_drift",
                                     "branches")}
        else:
            curves[method] = limit_curve(system, grid, info)
        timings[method] = time.perf_counter() - t0
    return curves, meta, info


def run_compute(cfg, methods):
    methods = set(methods)
    if not methods:
        raise ValueError("no methods selected")
    unknown = methods - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves, meta, _ = _compute_curves(cfg, methods)
    for method, curve in curves.items():
        write_curve_csv(out / f"{method}.csv", curve)
    with open(out / "run_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for method in METHODS:
        if method in curves:
            print(f"wrote {out / (method + '.csv')}")
    print(f"wrote {out / 'run_meta.json'}")
    return 0


def run_validate(cfg):
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves, meta, info = _compute_curves(cfg, set(METHODS))
    window = (info.c1, info.c2)
    # (name, report entry, worst value, tolerance, whether the rest holds)
    checks = []
    for ma, mb, margin, tol in (
            ("surface", "ode", 0.0, TOL_PAIR_EXACT),
            ("dis", "surface", EXCLUDE_MARGIN, TOL_PAIR_LATTICE),
            ("dis", "ode", EXCLUDE_MARGIN, TOL_PAIR_LATTICE)):
        rep = compare(curves[ma], curves[mb], exclude_margin=margin,
                      window=window)
        checks.append((f"compare {ma} vs {mb}", rep.as_dict(), rep.worst(),
                       tol, True))
    ide = identity_checks(curves["surface"], window=window)
    checks.append(("identity surface", ide.as_dict(), ide.max_abs,
                   TOL_IDENTITY, ide.n_points > 0 and ide.endpoint_ok
                   and ide.min_gap > 0.0))
    res_grid = np.linspace(0.0, 1.0, cfg.residual_grid_points)
    res_curve = limit_curve(cfg.system(), res_grid, info)
    res = ode_residuals(res_curve, h=cfg.fd_step, window=window)
    checks.append(("ode residuals", res.as_dict(), res.worst(),
                   TOL_RESIDUAL, True))

    passed = True
    for name, entry, worst, tol, holds in checks:
        ok = bool(holds and worst <= tol)
        entry.update(tolerance=tol, passed=ok)
        passed &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: "
              f"worst {worst:.3e} tolerance {tol:.1e}")
    report = {"config": meta["config"], "plateau": meta["plateau"],
              "comparisons": [c[1] for c in checks[:3]],
              "identity": checks[3][1], "residuals": checks[4][1],
              "passed": passed}
    with open(out / "validate_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {out / 'validate_report.json'}")
    return 0 if passed else 1


def run_plot(paths, out_path):
    curves = [read_curve_csv(p) for p in paths]
    labels = [c.method for c in curves]
    comments = [f"source: {', '.join(str(p) for p in paths)}"]
    base = curves[0].s
    packs = []
    for c in curves:
        keep, vals = resample(c, base)
        if not np.any(keep):
            raise ValueError(f"{c.method}: no grid overlap for plotting")
        if not np.array_equal(c.s, base):
            comments.append(f"warning: {c.method} resampled onto "
                            f"{np.count_nonzero(keep)} shared grid points")
        packs.append((base[keep], vals))
    from .svgfig import render_panels
    svg = render_panels(packs, labels, comments)
    Path(out_path).write_text(svg, encoding="utf-8")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_config_flags(sub):
    sub.add_argument("--config", metavar="PATH", help="config file")
    for f in dataclasses.fields(RunConfig):
        sub.add_argument(f"--{f.name}", metavar="VALUE", dest=f"opt_{f.name}")


def _overrides(args):
    out = {}
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f"opt_{f.name}", None)
        if v is not None:
            out[f.name] = v
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="angelesco",
        description="Limits of nearest-neighbor recurrence coefficients "
                    "for two-interval Angelesco systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="write limit-curve CSVs")
    _add_config_flags(p_compute)
    p_compute.add_argument("--methods", default="dis,ode,surface",
                           help="comma list from dis,ode,surface")

    p_validate = sub.add_parser("validate",
                                help="cross-method agreement checks")
    _add_config_flags(p_validate)

    p_plot = sub.add_parser("plot", help="render CSVs to a 4-panel SVG")
    p_plot.add_argument("csvs", nargs="+", help="curve CSV paths")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and (args.command == "plot" or not extra[0].startswith("--")):
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if extra:  # a --key naming no field fails as in a config file
            raise ValueError("unknown config key: "
                             f"{extra[0][2:].split('=', 1)[0]}")
        if args.command == "compute":
            cfg = load_config(args.config, _overrides(args))
            methods = [m for m in args.methods.split(",") if m]
            return run_compute(cfg, methods)
        if args.command == "validate":
            cfg = load_config(args.config, _overrides(args))
            return run_validate(cfg)
        return run_plot(args.csvs, args.out)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc} {exc.context}", file=_sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
