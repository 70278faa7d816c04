"""The docs' links resolve, the reference pages name only real code, and
the package docstring's quickstart runs.

Runs ``scripts/check_docs_links.py`` in-process, so deleting or renaming a
class that ``docs/API.md`` or ``docs/PROTOCOL.md`` still mentions fails the
test suite, not only the CI docs job.
"""

import ast
import importlib.util
import textwrap
from pathlib import Path

import repro

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs_links.py"


def test_check_docs_links_passes(capsys):
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main()
    assert status == 0, capsys.readouterr().out


def test_package_docstring_quickstart_runs(capsys):
    _, marker, block = repro.__doc__.partition("Quickstart::")
    assert marker, "the package docstring lost its quickstart"
    exec(compile(textwrap.dedent(block), "repro.__doc__", "exec"), {})
    goodputs = ast.literal_eval(capsys.readouterr().out)
    assert len(goodputs) == 1 and goodputs[0] > 0
