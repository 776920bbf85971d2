"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})
