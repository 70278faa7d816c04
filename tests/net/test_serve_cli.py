"""``repro serve`` and ``repro fetch`` fail fast: bad options and start-up errors exit, never hang."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("command, flag, value", [
    ("serve", "--loss", "-0.1"),
    ("serve", "--loss", "1.5"),
    ("serve", "--grant-ttl", "0"),
    ("serve", "--idle-timeout", "-1"),
    ("serve", "--max-sessions", "0"),
    ("serve", "--max-concurrent-sessions", "0"),
    ("fetch", "--loss", "1.5"),
    ("fetch", "--loss", "nan"),
    ("fetch", "--timeout", "0"),
    ("fetch", "--timeout", "nan"),
])
def test_out_of_range_option_is_a_parse_error(command, flag, value, capsys):
    target = {"serve": ["--object", "a=1k"], "fetch": ["a"]}[command]
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, *target, flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def _serve(*options: str) -> subprocess.CompletedProcess:
    """Run ``repro serve`` in a child; a server that never starts must exit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-X", "dev", "-m", "repro", "serve", "--object", "a=1k", *options],
        env=env, capture_output=True, text=True, timeout=30,
    )


def test_port_already_bound_exits_with_the_bind_error():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
        holder.bind(("127.0.0.1", 0))
        result = _serve("--port", str(holder.getsockname()[1]))
    assert result.returncode == 1
    assert "serve failed:" in result.stderr


def test_rejected_mtu_exits_without_leaking_the_socket():
    result = _serve("--port", "0", "--mtu", "20")
    assert result.returncode == 1
    assert "serve failed: mtu 20" in result.stderr
    assert "ResourceWarning" not in result.stderr


@pytest.mark.parametrize("spec", ["a=0", "a=abc", "a="])
def test_bad_object_size_is_a_one_line_usage_error(spec, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--port", "0", "--object", spec])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro serve: error: ") and "--object" in err
    assert err.count("\n") == 1


def test_empty_file_is_a_usage_error(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    result = _serve("--port", "0", "--file", str(empty))
    assert result.returncode == 2
    assert result.stderr == "repro serve: error: object 'empty.bin' is empty\n"
