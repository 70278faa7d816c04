#!/usr/bin/env python3
"""List the ``src/repro`` functions that no entry point ever runs.

Each entry point runs in a subprocess whose generated ``sitecustomize`` sets
``sys.setprofile``/``threading.setprofile`` hooks; every Python process (pool
workers, ledger children and servers too) dumps the code it called on exit.
Never-called functions print with their line counts, tagged ``t``/``b``/``d``
when ``tests/``, ``benchmarks/`` or ``docs/`` name them.  Error paths count
as never run, so the list is an upper bound.  Takes about two minutes:
``python scripts/reachability.py``.
"""

from __future__ import annotations

import ast
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.experiments.test_cli_snapshots import COMMON, SCENARIO_ARGS  # noqa: E402

HOOK = '''import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():  # iterates a copy: the generator's own frames land in _seen
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"), "a") as out:
        out.writelines(f"{c.co_filename}:{c.co_firstlineno}\\n" for c in list(_seen))
if os.environ.get("REACH_OUT"):
    from multiprocessing import util
    sys.setprofile(_hook)
    threading.setprofile(_hook)
    atexit.register(_dump)
    util.register_after_fork(_dump, lambda dump: util.Finalize(None, dump, exitpriority=100))
'''


def _entry_points(scratch: Path) -> list[list[str]]:
    repro = ["-m", "repro"]
    runs = [[*repro, command, *COMMON, *axes] for command, axes in SCENARIO_ARGS.items()]
    all_axes = [
        "--incast-response-kb" if command == "incast" and flag == "--response-kb" else flag
        for command, flags in SCENARIO_ARGS.items()
        for flag in flags
    ]
    telemetry = str(scratch / "telemetry.jsonl")
    return runs + [
        [*repro, "all", *COMMON, *all_axes, "--jobs", "2", "--progress"],
        [*repro, "figure1a", *COMMON, "--telemetry", telemetry],
        [*repro, "trace", telemetry],
        [*repro, "figure1b", "--paper-scale"],
        *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
        ["-m", "benchmarks.perf", "run", "--quick", "--out", str(scratch / "ledger.json")],
    ]


def _run(argv: list[str], env: dict) -> None:
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode:
        print(f"warning: {argv} exited {done.returncode}: {done.stderr[-300:]}", file=sys.stderr)


def _loopback(env: dict) -> None:
    """Two servers; a clean, a 10 %-loss and a two-source fetch."""
    ports = []
    for _ in range(2):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            ports.append(probe.getsockname()[1])
    servers = [subprocess.Popen([sys.executable, "-m", "repro", "serve", "--port", str(port),
                                 "--object", "obj=1M"], cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
               for port in ports]
    time.sleep(1.0)
    fetch = ["-m", "repro", "fetch", "obj"]
    _run([*fetch, "--port", str(ports[0])], env)
    _run([*fetch, "--port", str(ports[0]), "--loss", "0.1", "--loss-seed", "7"], env)
    _run([*fetch, "--sources", ",".join(f"127.0.0.1:{port}" for port in ports)], env)
    for server in servers:
        server.send_signal(signal.SIGINT)  # KeyboardInterrupt: atexit still dumps
        server.wait(timeout=30)


def _functions() -> dict[tuple[str, int], tuple[str, str, int]]:
    """``{(file, first line incl. decorators): (file, qualified name, lines)}``."""
    found = {}

    def visit(path: Path, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                name = prefix + child.name
                found[(str(path), first)] = (str(path.relative_to(ROOT / "src")), name,
                                             child.end_lineno - first + 1)
                visit(path, child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, prefix + child.name + ".")

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _words(top: str) -> set[str]:
    files = [p for p in (ROOT / top).rglob("*") if p.suffix in (".py", ".md", ".txt")]
    return {word for path in files for word in re.findall(r"\w+", path.read_text("utf-8"))}


def main() -> int:
    seen = set()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / "hook").mkdir()
        (scratch / "hook" / "sitecustomize.py").write_text(HOOK)
        (scratch / "seen").mkdir()
        env = dict(os.environ, REACH_OUT=str(scratch / "seen"), PYTHONPATH=os.pathsep.join(
            [str(scratch / "hook"), str(ROOT / "src"), str(ROOT)]))
        for argv in _entry_points(scratch):
            print(f"running {' '.join(argv)}", file=sys.stderr)
            _run(argv, env)
        print("running loopback serve/fetch", file=sys.stderr)
        _loopback(env)
        for dump in (scratch / "seen").iterdir():
            for line in dump.read_text().splitlines():
                filename, _, lineno = line.rpartition(":")
                seen.add((filename, int(lineno)))
    functions = _functions()
    tags = [(top[0], _words(top)) for top in ("tests", "benchmarks", "docs")]
    unrun = [functions[key] for key in sorted(functions) if key not in seen]
    for file, name, count in unrun:
        tag = "".join(t if name.rpartition(".")[2] in words else "-" for t, words in tags)
        print(f"{count:5d}  [{tag}]  {file}  {name}")
    lines = sum(count for *_, count in unrun)
    print(f"{len(unrun)} of {len(functions)} functions ({lines} lines) never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
