"""The 117-system validate sweep's outcome table, held entry by entry, on
every weight pair.

``validate`` at the default settings on [-alpha, 0] u [beta, 1], with
alpha = 1e-12, 1e-10, ..., 1e12 (13 decades) and beta in {0, 1e-12, 1e-6,
1e-3, 0.1, 0.5, 0.9, 0.999, 0.999999}, for each of the nine weight pairs
w1/w2: each run's exit code, the names of the checks that saw points and
failed, the names of the checks that saw no point, and the digits of the
lattice curve against the surface, against the committed
``tests/validate_outcomes.json``.  An entry's key is "w1/w2 alpha beta".

The digits are -log10 of the largest difference of ``validate``'s
"compare dis vs surface" over its compared points, as the report states
it in A/L^2 and B/L (L the hull length), to one decimal.  They are null
where that comparison sees no point or the run writes no report, and are
held to within 0.1; exit codes and check names are held exactly.  A run
that exits 3 writes no report; the first clause of its failure message
(the text before its first ", ") stands in for the failing checks.

Tier-1 sweeps ``TIER1_PAIRS``, chebyshev2 on both intervals and the two
pairs with chebyshev1 at the touching end; CI sweeps all nine with
:func:`moved_entries`.  On a mismatch the test lists every moved entry and
writes the table it computed into its tmp dir.
"""
import json
import math
from pathlib import Path

from angelesco.cli import main
from angelesco.systems import WEIGHT_KINDS
from test_range_outcomes import write_table

TABLE = Path(__file__).parent / "validate_outcomes.json"
ALPHAS = [f"1e{k}" for k in range(-12, 13, 2)]
BETAS = ("0", "1e-12", "1e-6", "1e-3", "0.1", "0.5", "0.9", "0.999",
         "0.999999")
PAIRS = [f"{w1}/{w2}" for w1 in WEIGHT_KINDS for w2 in WEIGHT_KINDS]
TIER1_PAIRS = ("chebyshev2/chebyshev2", "chebyshev1/chebyshev2",
               "chebyshev2/chebyshev1")


def check_names(report):
    """(name, report entry) of each check; a comparison is named by the
    curves' methods, as ``validate`` prints it."""
    for entry in report["comparisons"]:
        yield "compare {} vs {}".format(*entry["methods"]), entry
    yield "identity surface", report["identity"]
    yield "ode residuals", report["residuals"]


def dis_digits(checks):
    """Digits of the dis vs surface comparison, one decimal; None where it
    saw no point."""
    entry = dict(checks)["compare dis vs surface"]
    if not entry["n_points"]:
        return None
    return round(-math.log10(max(entry["max_abs"].values())), 1)


def outcomes(out_dir, pairs):
    """{"w1/w2 alpha beta": [exit code, failing checks, checks with no
    point, dis digits]} over the weight ``pairs``."""
    table = {}
    for pair in pairs:
        w1, w2 = pair.split("/")
        for alpha in ALPHAS:
            for beta in BETAS:
                key = f"{pair} {alpha} {beta}"
                out = Path(out_dir) / key.replace("/", "_").replace(" ", "_")
                rc = main(["validate", f"--interval1=-{alpha},0",
                           f"--interval2={beta},1", "--weight1", w1,
                           "--weight2", w2, "--output_dir", str(out)])
                if rc == 3:
                    message = json.loads(
                        (out / "failure.json").read_text())["message"]
                    table[key] = [rc, [message.split(", ", 1)[0]], [], None]
                    continue
                checks = list(check_names(json.loads(
                    (out / "validate_report.json").read_text())))
                failed = [n for n, c in checks
                          if c["n_points"] and not c["passed"]]
                unseen = [n for n, c in checks if not c["n_points"]]
                table[key] = [rc, failed, unseen, dis_digits(checks)]
    return table


def _same(got, want):
    """Exit code and check names equal, digits within 0.1 (in tenths, so
    the rounding of 0.1 itself does not decide)."""
    if want is None or got[:3] != want[:3]:
        return False
    a, b = got[3], want[3]
    return (a is None) == (b is None) and (
        a is None or abs(round(10 * a) - round(10 * b)) <= 1)


def moved_entries(table, pairs):
    """Each entry of ``table`` that differs from the committed table, and
    each committed entry of ``pairs`` that ``table`` lacks, as a line."""
    committed = json.loads(TABLE.read_text(encoding="utf-8"))
    moved = [f"{k}: {committed.get(k)} -> {v}" for k, v in table.items()
             if not _same(v, committed.get(k))]
    moved += [f"{k}: {v} -> None" for k, v in committed.items()
              if k.split(" ", 1)[0] in pairs and k not in table]
    return moved


def test_the_validate_sweep_matches_its_table(tmp_path, capsys):
    table = outcomes(tmp_path / "runs", TIER1_PAIRS)
    capsys.readouterr()
    moved = moved_entries(table, TIER1_PAIRS)
    if moved:
        write_table(tmp_path / "validate_outcomes.json", table)
    assert not moved, (f"{len(moved)} entries moved (new table in "
                       f"{tmp_path / 'validate_outcomes.json'}):\n"
                       + "\n".join(moved))
