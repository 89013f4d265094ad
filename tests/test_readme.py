"""The README's library quick start runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    residual, rate = map(float, capsys.readouterr().out.split())
    assert residual >= 0 and rate > 0
