import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the quick start must keep up with the API it shows
    blocks = _python_blocks()
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
