#!/usr/bin/env python
"""Check that README/docs links resolve and that the API docs name real code.

Links: scans ``README.md`` and everything under ``docs/`` for
``[text](target)`` links with ``target``s of the form ``path`` or
``path#anchor``.  External links (http/https/mailto) are skipped; relative
targets must exist on disk, and for in-repo markdown targets with an anchor
the anchor must match a heading in the target file (GitHub slug rules,
simplified).

Names: in the two reference pages (``docs/API.md``, ``docs/PROTOCOL.md``)
every backticked dotted ``repro.…`` name must resolve by import + ``getattr``,
and every backticked bare CamelCase name must be a class defined somewhere
in the ``repro`` package (or a builtin) -- so deleting or renaming a class
the docs still mention fails the check instead of leaving a stale page.

Exit status is non-zero when any link or name is broken, so CI can gate on
it:

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import builtins
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The reference pages whose backticked names must exist in the code.
NAME_DOCS = ("docs/API.md", "docs/PROTOCOL.md")
DOTTED_NAME_RE = re.compile(r"`(repro(?:\.\w+)+)`")
CLASS_NAME_RE = re.compile(r"`([A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+)`")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, strip punctuation, dash per space."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors_of(markdown_file: Path) -> set[str]:
    return {_slugify(m.group(1)) for m in HEADING_RE.finditer(markdown_file.read_text(encoding="utf-8"))}


def _markdown_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"] + sorted((REPO_ROOT / "docs").glob("**/*.md"))
    return [f for f in files if f.is_file()]


def check_links() -> list[str]:
    """Return a list of human-readable problems (empty = all good)."""
    problems: list[str] = []
    for source in _markdown_files():
        text = source.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            rel = source.relative_to(REPO_ROOT)
            if not path_part:  # pure in-page anchor
                if anchor and _slugify(anchor) not in _anchors_of(source):
                    problems.append(f"{rel}: broken in-page anchor #{anchor}")
                continue
            resolved = (source.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{rel}: broken link {target}")
                continue
            if anchor and resolved.suffix == ".md":
                if _slugify(anchor) not in _anchors_of(resolved):
                    problems.append(f"{rel}: {path_part} exists but anchor #{anchor} not found")
    return problems


def _resolves(dotted: str) -> bool:
    """Whether ``a.b.C.d`` is an importable module plus a ``getattr`` chain."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _package_class_names() -> set[str]:
    """The name of every class defined in (not merely imported into) ``repro``."""
    import repro

    names: set[str] = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would run the CLI
        for name, obj in vars(importlib.import_module(info.name)).items():
            if inspect.isclass(obj) and obj.__module__.startswith("repro."):
                names.add(name)
    return names


def check_names() -> list[str]:
    """Return the backticked code names in ``NAME_DOCS`` that no longer exist."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    known_classes = _package_class_names() | set(vars(builtins))
    problems: list[str] = []
    for rel in NAME_DOCS:
        text = (REPO_ROOT / rel).read_text(encoding="utf-8")
        for dotted in sorted(set(DOTTED_NAME_RE.findall(text))):
            if not _resolves(dotted):
                problems.append(f"{rel}: `{dotted}` does not resolve by import + getattr")
        for name in sorted(set(CLASS_NAME_RE.findall(text))):
            if name not in known_classes:
                problems.append(f"{rel}: no class named `{name}` in the repro package")
    return problems


def main() -> int:
    problems = check_links() + check_names()
    checked = len(_markdown_files())
    if problems:
        for problem in problems:
            print(f"BROKEN  {problem}")
        print(f"\n{len(problems)} broken link(s) or name(s) across {checked} markdown files")
        return 1
    print(f"All relative links resolve across {checked} markdown files; "
          f"all code names in {', '.join(NAME_DOCS)} exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
