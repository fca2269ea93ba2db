"""The 117-system validate sweep's outcome table, held entry by entry.

``validate`` at the default settings on [-alpha, 0] u [beta, 1], with
alpha = 1e-12, 1e-10, ..., 1e12 (13 decades) and beta in {0, 1e-12, 1e-6,
1e-3, 0.1, 0.5, 0.9, 0.999, 0.999999}: each run's exit code, the names of
the checks that saw points and failed, and the names of the checks that
saw no point, against the committed ``tests/validate_outcomes.json``.  A
run that exits 3 writes no report; the first clause of its failure
message (the text before its first ", ") stands in for the failing
checks.  On a mismatch the test lists every moved entry and writes the
table it computed into its tmp dir.
"""
import json
import warnings
from pathlib import Path

from angelesco.cli import main
from test_range_outcomes import write_table

TABLE = Path(__file__).parent / "validate_outcomes.json"
ALPHAS = [f"1e{k}" for k in range(-12, 13, 2)]
BETAS = ("0", "1e-12", "1e-6", "1e-3", "0.1", "0.5", "0.9", "0.999",
         "0.999999")


def check_names(report):
    """(name, report entry) of each check; a comparison is named by the
    curves' methods, as ``validate`` prints it."""
    for entry in report["comparisons"]:
        yield "compare {} vs {}".format(*entry["methods"]), entry
    yield "identity surface", report["identity"]
    yield "ode residuals", report["residuals"]


def outcomes(out_dir):
    """{"alpha beta": [exit code, failing checks, checks with no point]}."""
    table = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for alpha in ALPHAS:
            for beta in BETAS:
                out = Path(out_dir) / f"{alpha}_{beta}"
                rc = main(["validate", f"--interval1=-{alpha},0",
                           f"--interval2={beta},1", "--output_dir", str(out)])
                if rc == 3:
                    message = json.loads(
                        (out / "failure.json").read_text())["message"]
                    table[f"{alpha} {beta}"] = [
                        rc, [message.split(", ", 1)[0]], []]
                    continue
                checks = list(check_names(json.loads(
                    (out / "validate_report.json").read_text())))
                failed = [n for n, c in checks
                          if c["n_points"] and not c["passed"]]
                unseen = [n for n, c in checks if not c["n_points"]]
                table[f"{alpha} {beta}"] = [rc, failed, unseen]
    return table


def test_the_validate_sweep_matches_its_table(tmp_path, capsys):
    table = outcomes(tmp_path / "runs")
    capsys.readouterr()
    committed = json.loads(TABLE.read_text(encoding="utf-8"))
    moved = [f"{k}: {committed.get(k)} -> {v}" for k, v in table.items()
             if committed.get(k) != v]
    moved += [f"{k}: {v} -> None" for k, v in committed.items()
              if k not in table]
    if moved:
        write_table(tmp_path / "validate_outcomes.json", table)
    assert not moved, (f"{len(moved)} entries moved (new table in "
                       f"{tmp_path / 'validate_outcomes.json'}):\n"
                       + "\n".join(moved))
