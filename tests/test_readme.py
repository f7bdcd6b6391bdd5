import json
import os
import re
import subprocess
import sys
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


# Collects the given test files and writes each test's id, relative to the
# working directory, with the reason of its xfail mark or null, as JSON to
# the path given first.
COLLECT = """
import json, sys
import pytest

class Marks:
    def pytest_collection_modifyitems(self, items):
        marks = {}
        for item in items:
            xfail = item.get_closest_marker("xfail")
            marks[item.nodeid] = None if xfail is None else xfail.kwargs.get("reason", "")
        with open(sys.argv[1], "w") as out:
            json.dump(marks, out)

args = ["--collect-only", "-q", "-p", "no:cacheprovider", "--rootdir", ".", *sys.argv[2:]]
sys.exit(pytest.main(args, plugins=[Marks()]))
"""

# A test file whose second case is an xfail, collected alongside the listed
# tests so that a mark the collection missed fails the check.
PROBE = """
import pytest

@pytest.mark.parametrize("x", [1, pytest.param(2, marks=pytest.mark.xfail(reason="probe"))])
def test_probe(x):
    pass
"""


def contract_test_ids():
    """The test ids listed in README's table of numerical contracts."""
    section = (ROOT / "README.md").read_text().split("\n## Numerical contracts\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(tests/\w+\.py::[\w:]+)`", section)


def open_items():
    """The numbers of the open items in ROADMAP.md."""
    section = (ROOT / "ROADMAP.md").read_text().split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^(\d+)\. \*\*", section, re.MULTILINE))


def test_contract_table_lists_collected_tests_without_unexplained_xfails(tmp_path):
    # every listed id is a collected test, or the parametrized cases of one,
    # and an expected failure among them names an open ROADMAP item
    ids = contract_test_ids()
    assert len(ids) >= 4
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    out = tmp_path / "marks.json"
    files = sorted({test_id.split("::")[0] for test_id in ids})
    subprocess.run([sys.executable, "-c", COLLECT, str(out), *files, str(probe)], cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True,
                   check=True, timeout=300)
    marks = json.loads(out.read_text())
    assert [r for node, r in marks.items() if "test_probe[" in node] == [None, "probe"]
    items = open_items()
    for test_id in ids:
        reasons = [r for node, r in marks.items() if node == test_id or node.startswith(test_id + "[")]
        assert reasons, f"{test_id} is not collected"
        for reason in reasons:
            if reason is not None:
                named = set(re.findall(r"\bitem (\d+)", reason))
                assert named & items, f"{test_id} is an xfail naming no open item"
