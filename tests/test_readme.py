"""The README's library quick start runs as printed."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # the printed values are the ones its comments give
    assert capsys.readouterr().out.splitlines() == [
        "(1, -1) (0, 1)", "True", "9"]
