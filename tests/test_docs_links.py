"""The docs' links resolve and the reference pages name only real code.

Runs ``scripts/check_docs_links.py`` in-process, so deleting or renaming a
class that ``docs/API.md`` or ``docs/PROTOCOL.md`` still mentions fails the
test suite, not only the CI docs job.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs_links.py"


def test_check_docs_links_passes(capsys):
    spec = importlib.util.spec_from_file_location("check_docs_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main()
    assert status == 0, capsys.readouterr().out
