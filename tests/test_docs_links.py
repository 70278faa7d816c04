"""The docs' links resolve, the reference pages name only real code, the
docs describe the code rather than its history, and the package
docstring's quickstart runs.

Runs ``scripts/check_docs_links.py`` in-process, so deleting or renaming a
class that ``docs/API.md`` or ``docs/PROTOCOL.md`` still mentions fails the
test suite, not only the CI docs job.
"""

import ast
import importlib.util
import re
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_docs_links.py"
#: a change-request number ("PR 7", "PR #7"): history belongs in CHANGES.md
PR_NUMBER = re.compile(r"\bPR\s*#?\d+")


def test_check_docs_links_passes(capsys):
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main()
    assert status == 0, capsys.readouterr().out


#: every page a reader opens: the README and the docs tree
PAGES = [ROOT / "README.md", *sorted((ROOT / "docs").rglob("*.md"))]


@pytest.mark.parametrize("page", PAGES, ids=lambda page: page.relative_to(ROOT).as_posix())
def test_docs_cite_no_pr_numbers(page):
    cited = [
        f"{page.relative_to(ROOT)}:{number}: {line.strip()}"
        for number, line in enumerate(page.read_text(encoding="utf-8").splitlines(), 1)
        if PR_NUMBER.search(line)
    ]
    assert cited == [], "\n".join(cited)


def test_package_docstring_quickstart_runs(capsys):
    _, marker, block = repro.__doc__.partition("Quickstart::")
    assert marker, "the package docstring lost its quickstart"
    exec(compile(textwrap.dedent(block), "repro.__doc__", "exec"), {})
    goodputs = ast.literal_eval(capsys.readouterr().out)
    assert len(goodputs) == 1 and goodputs[0] > 0
