import re
from pathlib import Path

import pytest


def test_readme_library_example_runs_and_its_comments_hold():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["operational_mass"](names["solution"])[1] == pytest.approx(0.985056, abs=5e-7)
    assert names["solution"].error_bound <= 1e-10
    band = names["band"]
    assert band.shape == (11, 3) and not band.flags.writeable
