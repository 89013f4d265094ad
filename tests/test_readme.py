"""The README's library quick start runs against the current API, and its
Layout section names every module, each of which has a docstring."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    residual, rate = map(float, capsys.readouterr().out.split())
    assert residual >= 0 and rate > 0


def test_layout_names_every_documented_module():
    layout = README.read_text(encoding="utf-8").split(
        "## Layout", 1)[1].split("\n## ", 1)[0]
    modules = sorted((ROOT / "src" / "rydcomb").glob("*.py"))
    assert modules
    for path in modules:
        assert ast.get_docstring(ast.parse(path.read_text(encoding="utf-8"))), \
            f"{path.name} has no module docstring"
        assert f"`src/rydcomb/{path.name}`" in layout, \
            f"README Layout does not name {path.name}"
