"""The Python examples of README.md run as written, so a public name that
leaves the library while the README still uses it fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
