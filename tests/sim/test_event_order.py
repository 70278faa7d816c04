"""The event order of three golden cells, pinned window by window.

``tests/experiments/test_golden_fingerprints.py`` says *that* a cell's
events moved; this file says *when*.  ``scripts/event_windows.py`` steps a
golden cell ``WINDOW`` events at a time and digests the clock, the event
count, every port's transmitted bytes and queue length, and the completions
so far at each boundary.  A change to the engine or the fabric that fires
one callback more, less or in another ``(time, seq)`` order fails here with
the first window whose digest moved.

The fourth cell runs ``polyraptor-unicast`` with ``--tied`` link delays.  At
the paper's delays a port's propagation and its next serialisation never end
at the same instant, so scheduling them the other way round moves nothing in
the first three; with tied delays it moves the first window in which a port
sends two symbols back to back.

Re-capture only for a change that is *meant* to alter simulated behaviour:

    PYTHONPATH=src python tests/sim/test_event_order.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "event_windows.py"
GOLDEN = Path(__file__).resolve().parent / "golden" / "event_windows.json"

#: golden key -> (golden matrix cell, tied link delays)
CELLS = {
    "polyraptor-unicast": ("polyraptor-unicast", False),
    "tcp-unicast": ("tcp-unicast", False),
    "polyraptor-faults": ("polyraptor-faults", False),
    "polyraptor-unicast --tied": ("polyraptor-unicast", True),
}


def _script():
    spec = importlib.util.spec_from_file_location("event_windows", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def first_divergence(golden: list, actual: list) -> int | None:
    """Index of the first window that differs (or that only one side has)."""
    for index, (old, new) in enumerate(zip(golden, actual)):
        if list(old) != list(new):
            return index
    return None if len(golden) == len(actual) else min(len(golden), len(actual))


def test_first_divergence_names_the_window():
    assert first_divergence([[1, "a"], [2, "b"]], [[1, "a"], [2, "b"]]) is None
    assert first_divergence([[1, "a"], [2, "b"]], [[1, "a"], [2, "c"]]) == 1
    assert first_divergence([[1, "a"], [2, "b"]], [[1, "a"]]) == 1


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_fires_its_golden_event_windows(cell):
    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    window = stored["window"]
    golden = stored["cells"][cell]
    name, tied = CELLS[cell]
    actual = _script().window_digests(name, window, tied)
    index = first_divergence(golden, actual)
    if index is not None:
        start = index * window
        pytest.fail(
            f"{cell}: event order diverged first in window {index} "
            f"(events {start}..{start + window}); golden "
            f"{golden[index] if index < len(golden) else '<none>'}, actual "
            f"{list(actual[index]) if index < len(actual) else '<none>'}; "
            f"{len(golden)} golden windows, {len(actual)} actual"
        )


if __name__ == "__main__":  # re-capture golden/event_windows.json
    script = _script()
    cells = {key: [list(entry) for entry in script.window_digests(name, tied=tied)]
             for key, (name, tied) in CELLS.items()}
    payload = {"window": script.DEFAULT_WINDOW, "cells": cells}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({sum(map(len, cells.values()))} windows)")
