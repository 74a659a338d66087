"""README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
