"""A config field earns its place by being set: a knob nobody turns is a constant.

Every ``@dataclass`` named ``*Config`` under ``src/repro`` is checked.  A
field counts as set when some call passes a keyword of its name -- to the
class, to ``dataclasses.replace`` or through a helper's ``**overrides`` --
outside the module that defines the class, in ``src/``, ``benchmarks/``,
``examples/`` or ``scripts/``.  Tests do not count as callers: a knob only
tests turn is test surface, not product surface.  The examples do count:
they are documented entry points, and the quickstart is the one caller that
picks its own block cap.  Calls inside a ``pytest.raises`` block do not
count either: a field set only to watch its own validation fail has one
value in use.  The match is by name, so it errs towards passing.

A field that fails here should become a named module constant next to the
class, keeping its value and its comment.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "scripts")


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def _config_classes() -> dict[str, tuple[Path, type]]:
    """``{class name: (defining file, class)}`` for every ``*Config`` dataclass."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and any(_is_dataclass_decorator(d) for d in node.decorator_list)
            ):
                module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
                found[node.name] = (path, getattr(importlib.import_module(module), node.name))
    return found


def _is_pytest_raises(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "raises"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "pytest"
    )


def _keywords_passed(tree: ast.AST) -> set[str]:
    """Keyword names of every call in ``tree`` outside ``pytest.raises`` blocks."""
    names: set[str] = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            _is_pytest_raises(item.context_expr) for item in node.items
        ):
            continue
        if isinstance(node, ast.Call):
            names.update(keyword.arg for keyword in node.keywords if keyword.arg)
        pending.extend(ast.iter_child_nodes(node))
    return names


def _keywords_by_file() -> dict[Path, set[str]]:
    return {
        path: _keywords_passed(ast.parse(path.read_text(encoding="utf-8")))
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_discovers_the_config_classes():
    assert {"PolyraptorConfig", "NetworkConfig", "ExperimentConfig", "TelemetryConfig"} <= set(
        _config_classes()
    )


def test_every_config_field_is_set_outside_its_module():
    keywords = _keywords_by_file()
    unset = [
        f"{name}.{field.name}"
        for name, (home, cls) in sorted(_config_classes().items())
        for field in dataclasses.fields(cls)
        if not any(field.name in passed for path, passed in keywords.items() if path != home)
    ]
    assert not unset, (
        "config fields never set outside their own module (outside pytest.raises): "
        + ", ".join(unset)
        + " -- make each a named module constant"
    )
