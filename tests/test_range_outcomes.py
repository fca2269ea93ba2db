"""The range sweep's outcome table, held entry by entry.

``compute --methods m --lattice_level 64`` on (-10^e, 0) u (b, 1) for
e = -300 ... 300 in steps of 10, b in {0, 0.5, 0.999} and m in {dis, ode,
surface}: each run's exit code and the first clause of its failure
message (the text before its first ", "), against the committed
``tests/range_outcomes.json``.  On a mismatch the test lists every moved
entry and writes the table it computed into its tmp dir.
"""
import json
import warnings
from pathlib import Path

from angelesco.cli import main

TABLE = Path(__file__).parent / "range_outcomes.json"
EXPONENTS = range(-300, 301, 10)
GAPS = ("0", "0.5", "0.999")
METHODS = ("dis", "ode", "surface")


def outcomes(out_dir):
    """{"m b e": [exit code, first clause of the failure message or ""]}."""
    table = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for m in METHODS:
            for b in GAPS:
                for e in EXPONENTS:
                    out = Path(out_dir) / f"{m}_{b}_{e}"
                    rc = main(["compute", "--methods", m,
                               "--lattice_level", "64",
                               f"--interval1=-1e{e},0", f"--interval2={b},1",
                               "--output_dir", str(out)])
                    record = out / "failure.json"
                    message = (json.loads(record.read_text())["message"]
                               if rc == 3 else "")
                    table[f"{m} {b} {e}"] = [rc, message.split(", ", 1)[0]]
    return table


def write_table(path, table):
    """One entry a line, so a moved entry is one changed line."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n",
                          encoding="utf-8")


def test_the_range_sweep_matches_its_table(tmp_path, capsys):
    table = outcomes(tmp_path / "runs")
    capsys.readouterr()
    committed = json.loads(TABLE.read_text(encoding="utf-8"))
    moved = [f"{k}: {committed.get(k)} -> {v}" for k, v in table.items()
             if committed.get(k) != v]
    moved += [f"{k}: {v} -> None" for k, v in committed.items()
              if k not in table]
    if moved:
        write_table(tmp_path / "range_outcomes.json", table)
    assert not moved, (f"{len(moved)} entries moved (new table in "
                       f"{tmp_path / 'range_outcomes.json'}):\n"
                       + "\n".join(moved))
