import re
from pathlib import Path

import pytest

import pmurel

ROOT = Path(__file__).parents[1]


def test_readme_library_example_runs_and_its_comments_hold():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)\n```", section, re.DOTALL).group(1)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["operational_mass"](names["solution"])[1] == pytest.approx(0.985056, abs=5e-7)
    assert names["solution"].error_bound <= 1e-10
    band = names["band"]
    assert band.shape == (11, 3) and not band.flags.writeable


@pytest.mark.parametrize("name", pmurel.__all__)
def test_public_name_has_a_caller_or_a_documented_use(name):
    # the audit rule: a public name is called by the CLI or named in README's
    # Library section, as a whole word
    cli = (ROOT / "src" / "pmurel" / "cli.py").read_text()
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    word = re.compile(rf"(?<![\w.]){re.escape(name)}(?!\w)")
    assert word.search(cli) or word.search(library)
