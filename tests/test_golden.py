"""Golden SHA-256 hashes of the CLI's output files.

``golden_outputs.json`` holds, per run, the ``angelesco`` arguments and the
hash of each file the run writes but ``run_meta.json``, which carries wall
timings.  A change that moves a byte updates the file, and CHANGES.md lists
the rows that moved.  The hashes were recorded with the Python and numpy
versions named in the file; a mismatch under other versions says that the
bytes hold only within one version.
"""
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from angelesco.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GOLDEN["runs"]))
def test_output_files_match_their_golden_hashes(tmp_path, name):
    run = GOLDEN["runs"][name]
    assert main([*run["argv"], "--output_dir", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir()} - {"run_meta.json"}
    assert written == set(run["sha256"])
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in written}
    assert got == run["sha256"], (
        f"hashes recorded with {GOLDEN['recorded_with']}; this run: python "
        f"{platform.python_version()}, numpy {np.__version__}")
