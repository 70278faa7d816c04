"""The protocol stack stands alone: its packages load no simulator.

``repro.protocol`` (the sans-IO cores and their driver), ``repro.rq`` (the
codec), ``repro.obs.registry`` (metrics) and ``repro.net`` (the real-UDP
endpoints) sit below the simulator and its bindings.  A fresh interpreter
imports each one -- the first import of a package is the only one that
shows what it really pulls in -- and records every ``repro`` module it
loaded; none may come from the simulator, the fabric model, the simulator's
transport bindings, the experiment harness or the fault layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STANDALONE = ("repro.protocol", "repro.rq", "repro.obs.registry", "repro.net")

SIMULATOR_SIDE = (
    "repro.sim", "repro.network", "repro.transport", "repro.experiments", "repro.faults",
)

PROBE = """
import json, sys
__import__(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
"""


@pytest.mark.parametrize("package", STANDALONE)
def test_package_loads_no_simulator_module(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE, package],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    leaked = [
        name for name in loaded
        if any(name == side or name.startswith(side + ".") for side in SIMULATOR_SIDE)
    ]
    assert not leaked, f"import {package} loaded {leaked}"
