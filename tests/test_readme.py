"""Every python code block in README.md runs against the current API."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block, capsys):
    exec(compile(block, README, "exec"), {})
    assert capsys.readouterr().out
