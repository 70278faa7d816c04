"""The package imports only what ``pyproject.toml`` declares.

CI installs ``.[test]`` and nothing else, so a third-party module that some
entry point imports but ``[project] dependencies`` does not list breaks a
clean install.  A fresh interpreter records ``sys.modules`` first -- site
hooks may load packages at start-up -- then imports every entry point; each
new top-level module must be stdlib, ``repro`` itself or declared.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ENTRY_POINTS = (
    "repro.cli",
    "repro.experiments.runner",
    "repro.experiments.parallel",
    "repro.faults.schedule",
    "repro.net.client",
    "repro.net.server",
)

PROBE = """
import json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
new = {name.partition(".")[0] for name in set(sys.modules) - before}
# ``__mp_main__`` is multiprocessing's alias of ``__main__``, not a package
print(json.dumps(sorted(name for name in new if not name.startswith("__"))))
"""


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` (``numpy>=1.22`` -> ``numpy``)."""
    text = (ROOT / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        requirements = tomllib.loads(text)["project"]["dependencies"]
    else:
        project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
        listing = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
        requirements = re.findall(r"[\"']([^\"']+)[\"']", listing)
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }


def test_entry_points_import_only_declared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    output = subprocess.run(
        [sys.executable, "-c", PROBE, *ENTRY_POINTS],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded = set(json.loads(output))
    undeclared = loaded - set(sys.stdlib_module_names) - {"repro"} - declared_dependencies()
    assert not undeclared, f"imported but not in [project] dependencies: {sorted(undeclared)}"
