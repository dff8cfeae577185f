"""README's quick-start block runs as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and float(printed[0]) >= 0.0
