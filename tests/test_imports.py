import ast
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
